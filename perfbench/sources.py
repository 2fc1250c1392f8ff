"""The Wolfram sources the benchmark compiles.

Frozen copies of the Figure 2 ``NEW_*`` programs, ``NEW_FNV1A_64``,
``ITERATIVE_FIB`` and ``NEW_RANDOM_WALK`` (``repro.benchsuite.programs``)
and of ``examples/programs/*.wl``.  The benchmark keeps its own copies so
that a change to the program under test cannot change the workload.

Each :class:`Source` lists its local names (parameters and ``Module``
variables); :func:`rename` rewrites them under a seed, so every draw keeps
the same compile work but gets its own artifact-cache key.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

import ports

FNV1A = '''
Function[{Typed[s, "String"]},
  Module[{bytes = Native`UTF8Bytes[s], hash = 2166136261, i = 1, n = 0},
    n = Length[bytes];
    While[i <= n,
      hash = BitAnd[BitXor[hash, bytes[[i]]] * 16777619, 4294967295];
      i = i + 1];
    hash]]
'''

FNV1A_64 = '''
Function[{Typed[s, "String"]},
  Module[{bytes = Native`UTF8Bytes[s], hash = 14695981039346656037, i = 1, n = 0},
    n = Length[bytes];
    While[i <= n,
      hash = BitXor[hash, bytes[[i]]];
      hash = BitAnd[hash * 1099511628211, 18446744073709551615];
      i = i + 1];
    hash]]
'''

MANDELBROT = '''
Function[{Typed[pixel0, "ComplexReal64"]},
  Module[{iters = 1, maxIters = 1000, pixel = pixel0},
    While[iters < maxIters && Abs[pixel] < 2,
      pixel = pixel^2 + pixel0;
      iters = iters + 1];
    iters]]
'''

DOT = '''
Function[{Typed[a, TypeSpecifier["Tensor"["Real64", 2]]],
          Typed[b, TypeSpecifier["Tensor"["Real64", 2]]]},
  Dot[a, b]]
'''

BLUR = '''
Function[{Typed[img, TypeSpecifier["Tensor"["Real64", 2]]]},
  Module[{h = Length[img], w = 0, out = Native`CreateMatrix[1, 1, 0.0],
          y = 2, x = 2, acc = 0.0},
    w = Length[img[[1]]];
    out = Native`CreateMatrix[h, w, 0.0];
    While[y <= h - 1,
      x = 2;
      While[x <= w - 1,
        acc = img[[y-1, x-1]] + 2.0*img[[y-1, x]] + img[[y-1, x+1]]
            + 2.0*img[[y, x-1]] + 4.0*img[[y, x]] + 2.0*img[[y, x+1]]
            + img[[y+1, x-1]] + 2.0*img[[y+1, x]] + img[[y+1, x+1]];
        Set[Part[out, y, x], acc / 16.0];
        x = x + 1];
      y = y + 1];
    out]]
'''

HISTOGRAM = '''
Function[{Typed[data, TypeSpecifier["Tensor"["Integer64", 1]]]},
  Module[{bins = Native`CreateTensor[256, 0], i = 1, n = Length[data]},
    While[i <= n,
      Module[{b = Mod[data[[i]], 256] + 1},
        Set[Part[bins, b], bins[[b]] + 1]];
      i = i + 1];
    bins]]
'''

#: ``primeTable`` and ``witnesses`` are compile-time constants
PRIMEQ = '''
Function[{Typed[limit, "MachineInteger"]},
  Module[{count = 0, k = 0, isPrime = False, d = 0, r = 0, wi = 1, a = 0,
          x = 0, base = 0, e = 0, loop = 0, composite = False},
    While[k < limit,
      If[k < 16384,
        isPrime = primeTable[[k + 1]] == 1,
        If[Mod[k, 2] == 0,
          isPrime = False,
          Module[{},
            d = k - 1; r = 0;
            While[Mod[d, 2] == 0, d = Quotient[d, 2]; r = r + 1];
            isPrime = True; wi = 1;
            While[wi <= 12 && isPrime,
              a = witnesses[[wi]];
              base = Mod[a, k]; e = d; x = 1;
              While[e > 0,
                If[Mod[e, 2] == 1, x = Mod[x*base, k]];
                base = Mod[base*base, k];
                e = Quotient[e, 2]];
              If[x != 1 && x != k - 1,
                Module[{},
                  composite = True; loop = 1;
                  While[loop <= r - 1 && composite,
                    x = Mod[x*x, k];
                    If[x == k - 1, composite = False];
                    loop = loop + 1];
                  If[composite, isPrime = False]]];
              wi = wi + 1]]]];
      If[isPrime, count = count + 1];
      k = k + 1];
    count]]
'''

PRIME_TABLE = ports.prime_bitmap()
PRIMEQ_CONSTANTS = {"primeTable": PRIME_TABLE, "witnesses": list(ports.WITNESSES)}

QSORT = '''
Function[{Typed[data, TypeSpecifier["Tensor"["Integer64", 1]]],
          Typed[less, TypeSpecifier[{"Integer64", "Integer64"} -> "Boolean"]]},
  Module[{arr = data, stack = Native`CreateTensor[256, 0], top = 0,
          lo = 0, hi = 0, i = 0, j = 0, pivot = 0, t = 0},
    stack[[1]] = 1; stack[[2]] = Length[arr]; top = 2;
    While[top > 0,
      hi = stack[[top]]; lo = stack[[top - 1]]; top = top - 2;
      If[lo < hi,
        Module[{},
          pivot = arr[[Quotient[lo + hi, 2]]];
          i = lo; j = hi;
          While[i <= j,
            While[less[arr[[i]], pivot], i = i + 1];
            While[less[pivot, arr[[j]]], j = j - 1];
            If[i <= j,
              Module[{},
                t = arr[[i]];
                Set[Part[arr, i], arr[[j]]];
                Set[Part[arr, j], t];
                i = i + 1; j = j - 1]]];
          stack[[top + 1]] = lo; stack[[top + 2]] = j; top = top + 2;
          stack[[top + 1]] = i; stack[[top + 2]] = hi; top = top + 2]]];
    arr]]
'''

ITERATIVE_FIB = (
    'Function[{Typed[n, "MachineInteger"]},'
    ' Module[{a = 0, b = 1, i = 1},'
    '  While[i <= n, Module[{t = a + b}, a = b; b = t]; i = i + 1]; a]]'
)

RANDOM_WALK = '''
Function[{Typed[len, "MachineInteger"]},
  NestList[
    Module[{arg = RandomReal[{0, 2 Pi}]},
      {-Cos[arg], Sin[arg]} + #
    ]&,
    {0.0, 0.0},
    len
  ]
]
'''

#: examples/programs/blur.wl
EXAMPLE_BLUR = '''
Function[{Typed[img, TypeSpecifier["Tensor"["Real64", 1]]],
          Typed[h, "MachineInteger"],
          Typed[w, "MachineInteger"]},
  Module[{out = ConstantArray[0.0, h * w], row = 2, col = 2, acc = 0.0},
    While[row <= h - 1,
      col = 2;
      While[col <= w - 1,
        acc = img[[(row - 2) * w + col]]
            + img[[(row - 1) * w + col - 1]]
            + img[[(row - 1) * w + col + 1]]
            + img[[row * w + col]];
        out[[(row - 1) * w + col]] = acc / 4.0;
        col = col + 1];
      row = row + 1];
    out]]
'''

#: examples/programs/fib.wl
EXAMPLE_FIB = '''
Function[{Typed[n, "MachineInteger"]},
  Module[{a = 0, b = 1, i = 1},
    While[i <= n,
      Module[{t = a + b}, a = b; b = t];
      i = i + 1];
    a]]
'''

#: examples/programs/mandelbrot.wl
EXAMPLE_MANDELBROT = MANDELBROT


@dataclass(frozen=True)
class Source:
    name: str
    text: str
    locals: tuple


SOURCES = (
    Source("fnv1a", FNV1A, ("s", "bytes", "hash", "i", "n")),
    Source("fnv1a64", FNV1A_64, ("s", "bytes", "hash", "i", "n")),
    Source("mandelbrot", MANDELBROT, ("pixel0", "iters", "maxIters", "pixel")),
    Source("dot", DOT, ("a", "b")),
    Source("blur", BLUR, ("img", "h", "w", "out", "y", "x", "acc")),
    Source("histogram", HISTOGRAM, ("data", "bins", "i", "n", "b")),
    Source("primeq", PRIMEQ, (
        "limit", "count", "k", "isPrime", "d", "r", "wi", "a", "x", "base",
        "e", "loop", "composite")),
    Source("qsort", QSORT, (
        "data", "less", "arr", "stack", "top", "lo", "hi", "i", "j", "pivot",
        "t")),
    Source("fib", ITERATIVE_FIB, ("n", "a", "b", "i", "t")),
    Source("random_walk", RANDOM_WALK, ("len", "arg")),
    Source("example_blur", EXAMPLE_BLUR, ("img", "h", "w", "out", "row", "col",
                                          "acc")),
    Source("example_fib", EXAMPLE_FIB, ("n", "a", "b", "i", "t")),
    Source("example_mandelbrot", EXAMPLE_MANDELBROT, (
        "pixel0", "iters", "maxIters", "pixel")),
)

_TOKENS = re.compile(r'"(?:[^"\\]|\\.)*"|[A-Za-z$`][A-Za-z0-9$`]*')


def rename(text: str, mapping: dict) -> str:
    """Rewrite whole identifiers in ``mapping``; string literals and
    context-qualified names (``Native`UTF8Bytes``) are left alone."""
    def substitute(match):
        token = match.group(0)
        return mapping.get(token, token)
    return _TOKENS.sub(substitute, text)


def fresh_names(rng: random.Random, names: tuple, taken: set) -> dict:
    """A seeded ``name -> fresh name`` map; fresh names never repeat."""
    mapping = {}
    for name in names:
        while True:
            candidate = "v" + "".join(
                rng.choice("abcdefghijkmnpqrstuvwxyz") for _ in range(7))
            if candidate not in taken:
                taken.add(candidate)
                mapping[name] = candidate
                break
    return mapping


# -- Compile[]-style variants for the template tier ------------------------
# (``repro.benchsuite.programs.BYTECODE_*``): FNV1a over character codes,
# Blur over a flat row-major image, PrimeQ with its tables as arguments.
# QSort has none: a function-valued argument has no Compile[] type.

TEMPLATE = {
    "fnv1a": ("{{codes, _Integer, 1}}", '''
Module[{hash = 2166136261, i = 1, n = Length[codes]},
  While[i <= n,
    hash = BitAnd[BitXor[hash, codes[[i]]] * 16777619, 4294967295];
    i = i + 1];
  hash]
'''),
    "mandelbrot": ("{{pixel0, _Complex}}", '''
Module[{iters = 1, maxIters = 1000, pixel = pixel0},
  While[iters < maxIters && Abs[pixel] < 2,
    pixel = pixel^2 + pixel0;
    iters = iters + 1];
  iters]
'''),
    "dot": ("{{a, _Real, 2}, {b, _Real, 2}}", "Dot[a, b]"),
    "blur": ("{{img, _Real, 1}, {h, _Integer}, {w, _Integer}}", '''
Module[{out = ConstantArray[0.0, h*w], y = 2, x = 2, row = 0, up = 0,
        down = 0, acc = 0.0},
  While[y <= h - 1,
    x = 2;
    row = (y - 1)*w;
    up = row - w;
    down = row + w;
    While[x <= w - 1,
      acc = img[[up + x - 1]] + 2.0*img[[up + x]] + img[[up + x + 1]]
          + 2.0*img[[row + x - 1]] + 4.0*img[[row + x]] + 2.0*img[[row + x + 1]]
          + img[[down + x - 1]] + 2.0*img[[down + x]] + img[[down + x + 1]];
      out[[row + x]] = acc / 16.0;
      x = x + 1];
    y = y + 1];
  out]
'''),
    "histogram": ("{{data, _Integer, 1}}", '''
Module[{bins = ConstantArray[0, 256], i = 1, n = Length[data], b = 0},
  While[i <= n,
    b = Mod[data[[i]], 256] + 1;
    bins[[b]] = bins[[b]] + 1;
    i = i + 1];
  bins]
'''),
    "primeq": ("{{limit, _Integer}, {primeTable, _Integer, 1}, "
               "{witnesses, _Integer, 1}}", '''
Module[{count = 0, k = 0, isPrime = False, d = 0, r = 0, wi = 1, a = 0,
        x = 0, base = 0, e = 0, loop = 0, composite = False},
  While[k < limit,
    If[k < 16384,
      isPrime = primeTable[[k + 1]] == 1,
      If[Mod[k, 2] == 0,
        isPrime = False,
        Module[{},
          d = k - 1; r = 0;
          While[Mod[d, 2] == 0, d = Quotient[d, 2]; r = r + 1];
          isPrime = True; wi = 1;
          While[wi <= 12 && isPrime,
            a = witnesses[[wi]];
            base = Mod[a, k]; e = d; x = 1;
            While[e > 0,
              If[Mod[e, 2] == 1, x = Mod[x*base, k]];
              base = Mod[base*base, k];
              e = Quotient[e, 2]];
            If[x != 1 && x != k - 1,
              Module[{},
                composite = True; loop = 1;
                While[loop <= r - 1 && composite,
                  x = Mod[x*x, k];
                  If[x == k - 1, composite = False];
                  loop = loop + 1];
                If[composite, isPrime = False]]];
            wi = wi + 1]]]];
    If[isPrime, count = count + 1];
    k = k + 1];
  count]
'''),
}
