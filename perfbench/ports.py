"""Hand-written ports of the Figure 2 kernels and the plain-Python oracles.

These are the denominators of every ``vs_c`` ratio and the expected
outputs of every compiled draw.  They import nothing from ``repro``, so a
change to the program under test can move neither a denominator nor an
oracle.  Each port is a straight translation of the C implementation
(explicit index loops), the closest analog of the paper's hand-written C.
"""

from __future__ import annotations

import math

import numpy

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a32(text: str) -> int:
    data = text.encode("utf-8")
    h = 2166136261
    n = len(data)
    i = 0
    while i < n:
        h = ((h ^ data[i]) * 16777619) & MASK32
        i += 1
    return h


def fnv1a64(text: str) -> int:
    data = text.encode("utf-8")
    h = 14695981039346656037
    n = len(data)
    i = 0
    while i < n:
        h = ((h ^ data[i]) * 1099511628211) & MASK64
        i += 1
    return h


def mandelbrot_point(pixel0: complex, max_iters: int = 1000) -> int:
    iters = 1
    pixel = pixel0
    while iters < max_iters and abs(pixel) < 2:
        pixel = pixel * pixel + pixel0
        iters += 1
    return iters


def mandelbrot_row(points: list) -> list:
    return [mandelbrot_point(p) for p in points]


def dot(a: list, b: list):
    """The paper's Dot calls MKL from every implementation; the port calls
    the host BLAS through NumPy on the same nested-list operands."""
    return numpy.dot(numpy.asarray(a, dtype=float),
                     numpy.asarray(b, dtype=float))


def dot_loops(a: list, b: list) -> list:
    """Plain triple loop: the BLAS-free oracle for small Dot draws."""
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def blur(img: list) -> list:
    """3x3 Gaussian (1 2 1 / 2 4 2 / 1 2 1) / 16 over interior pixels of a
    nested image; the border stays 0.0."""
    h = len(img)
    w = len(img[0])
    out = [[0.0] * w for _ in range(h)]
    y = 1
    while y < h - 1:
        up, row, down, dst = img[y - 1], img[y], img[y + 1], out[y]
        x = 1
        while x < w - 1:
            dst[x] = (up[x - 1] + 2.0 * up[x] + up[x + 1]
                      + 2.0 * row[x - 1] + 4.0 * row[x] + 2.0 * row[x + 1]
                      + down[x - 1] + 2.0 * down[x] + down[x + 1]) / 16.0
            x += 1
        y += 1
    return out


def blur4_flat(img: list, h: int, w: int) -> list:
    """The ``examples/programs/blur.wl`` 4-neighbour average over a flat
    row-major image (1-based in the source, 0-based here)."""
    out = [0.0] * (h * w)
    for row in range(2, h):
        for col in range(2, w):
            acc = (img[(row - 2) * w + col - 1] + img[(row - 1) * w + col - 2]
                   + img[(row - 1) * w + col] + img[row * w + col - 1])
            out[(row - 1) * w + col - 1] = acc / 4.0
    return out


def histogram(data: list) -> list:
    bins = [0] * 256
    n = len(data)
    i = 0
    while i < n:
        bins[data[i] % 256] += 1
        i += 1
    return bins


WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
TABLE_SIZE = 1 << 14


def prime_bitmap(limit: int = TABLE_SIZE) -> list:
    """Sieve of Eratosthenes as the 0/1 seed table the PrimeQ kernel reads."""
    flags = [1] * limit
    flags[0] = flags[1] = 0
    i = 2
    while i * i < limit:
        if flags[i]:
            for j in range(i * i, limit, i):
                flags[j] = 0
        i += 1
    return flags


def _modexp(base: int, exponent: int, modulus: int) -> int:
    """Binary modular exponentiation, written out as the C port does."""
    result = 1
    base %= modulus
    while exponent > 0:
        if exponent % 2 == 1:
            result = result * base % modulus
        base = base * base % modulus
        exponent //= 2
    return result


def _is_prime(k: int, table: list) -> bool:
    if k < len(table):
        return table[k] == 1
    if k % 2 == 0:
        return False
    d, r = k - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in WITNESSES:
        x = _modexp(a, d, k)
        if x == 1 or x == k - 1:
            continue
        for _ in range(r - 1):
            x = x * x % k
            if x == k - 1:
                break
        else:
            return False
    return True


def primeq_count(limit: int, table: list) -> int:
    """Primes below ``limit``: table lookup below 2^14, Rabin-Miller above."""
    count = 0
    k = 0
    while k < limit:
        if _is_prime(k, table):
            count += 1
        k += 1
    return count


def qsort(data: list, less) -> list:
    """In-place quicksort on a copy, explicit stack, comparator argument."""
    array = list(data)
    stack = [(0, len(array) - 1)]
    while stack:
        lo, hi = stack.pop()
        if lo >= hi:
            continue
        pivot = array[(lo + hi) // 2]
        i, j = lo, hi
        while i <= j:
            while less(array[i], pivot):
                i += 1
            while less(pivot, array[j]):
                j -= 1
            if i <= j:
                array[i], array[j] = array[j], array[i]
                i += 1
                j -= 1
        stack.append((lo, j))
        stack.append((i, hi))
    return array


def less(a: int, b: int) -> bool:
    return a < b


def fib(n: int) -> int:
    """Iterative Fibonacci; the compiled draws stay below the int64 edge."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def is_unit_walk(points: list, length: int) -> bool:
    """The random walk's property oracle: ``length + 1`` points starting at
    the origin, each step of unit length."""
    if len(points) != length + 1 or points[0] != [0.0, 0.0]:
        return False
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if abs(math.hypot(x1 - x0, y1 - y0) - 1.0) > 1e-9:
            return False
    return True
