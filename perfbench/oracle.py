"""Serve-workload requests and their expected replies.

Numeric replies are computed here in plain Python; symbolic replies come
from the hand-written table :data:`SYMBOLIC`; ``Expand`` replies are
checked by reading the reply's FullForm as a polynomial (with a small
parser of our own) and comparing coefficients with a plain-Python
expansion.  Nothing here imports the program under test.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Callable

#: (expression, exact FullForm reply) — written by hand
SYMBOLIC = (
    ("Reverse[{a, b, c}]", "List[c, b, a]"),
    ("{a, b, c} /. b -> z", "List[a, z, c]"),
    ("Apply[f, {x, y}]", "f[x, y]"),
    ("Map[h, {1, 2, 3}]", "List[h[1], h[2], h[3]]"),
    ("First[{p, q, r}]", "p"),
    ("Last[{p, q, r}]", "r"),
    ("Join[{a, b}, {c}]", "List[a, b, c]"),
    ("Length[{u, v, w, x}]", "4"),
    ("{f[1], g[2], f[3]} /. f[n_] :> n", "List[1, g[2], 3]"),
    ("Cases[{1, a, 2, b}, _Integer]", "List[1, 2]"),
)

#: prelude definitions a session re-sends unchanged (same meaning, but the
#: rule change invalidates the function's promotion in that session)
REDEFINITIONS = (
    "sq[x_Integer] := x * x",
    "tri[n_Integer] := Quotient[n * (n + 1), 2]",
    "poly[x_Integer] := 3 * x * x - 2 * x + 7",
)

#: one block of 48 requests as (class, kind) slots; every block of a run
#: holds these in a seeded order, so the mix is the same for every seed.
#: The class shares are those of ``repro.server.loadgen.DEFAULT_WORKLOAD``,
#: the server's own request mixture: of its eight templates one writes a
#: definition, one calls a definition and six evaluate other expressions,
#: so ``def`` (writes) and ``hot`` (calls to prelude definitions, which
#: climb the hotspot ladder) are 1/8 each and ``sym`` 6/8.  The split
#: within a class is an assumption, not drawn from recorded traffic: one
#: write in six redefines a prelude function (and so invalidates its
#: promotion in that session); ``sym`` holds the six list/rule/pattern
#: kinds five times each, two hand-written table entries and four
#: ``Expand`` calls, one of them of degree 5 (the heaviest request)
BLOCK = (
    [("hot", kind) for kind in range(6)]
    + [("sym", kind) for kind in range(6) for _ in range(5)]
    + [("sym", "table")] * 2
    + [("sym", "expand", degree) for degree in (3, 4, 5)]
    + [("sym", "expand3v", 3)]
    + [("def", "new")] * 5 + [("def", "redefine")]
)

@dataclass
class Request:
    session: int
    klass: str
    expr: str
    check: Callable[[str], bool]


def exact(expected: str):
    return lambda got: got == expected


def integer(expected: int):
    return exact(str(expected))


def real(expected: float):
    def check(got: str) -> bool:
        try:
            value = float(got)
        except (TypeError, ValueError):
            return False
        return abs(value - expected) <= 1e-9 * max(1.0, abs(expected))
    return check


def int_list(values) -> Callable[[str], bool]:
    return exact("List[" + ", ".join(str(v) for v in values) + "]")


# -- Expand ------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(-?\d+|[A-Za-z$][A-Za-z0-9$]*|\[|\]|,)")


def parse_fullform(text: str):
    """``Head[arg, ...]`` into ``(head, [args])``; atoms stay strings/ints."""
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != re.sub(r"\s+", "", text):
        raise ValueError(f"unexpected characters in {text!r}")
    position = 0

    def node():
        nonlocal position
        token = tokens[position]
        position += 1
        atom = int(token) if re.fullmatch(r"-?\d+", token) else token
        if position < len(tokens) and tokens[position] == "[":
            position += 1
            args = []
            while tokens[position] != "]":
                args.append(node())
                if tokens[position] == ",":
                    position += 1
            position += 1
            return (atom, args)
        return atom

    tree = node()
    if position != len(tokens):
        raise ValueError("trailing tokens")
    return tree


def mono_mul(left: tuple, right: tuple) -> tuple:
    powers = dict(left)
    for var, exponent in right:
        powers[var] = powers.get(var, 0) + exponent
    return tuple(sorted(powers.items()))


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for mono_p, coeff_p in p.items():
        for mono_q, coeff_q in q.items():
            key = mono_mul(mono_p, mono_q)
            out[key] = out.get(key, 0) + coeff_p * coeff_q
    return {k: v for k, v in out.items() if v}


def to_poly(tree) -> dict:
    """A FullForm tree of Plus/Times/Power over integers and symbols."""
    if isinstance(tree, int):
        return {(): tree} if tree else {}
    if isinstance(tree, str):
        return {((tree, 1),): 1}
    head, args = tree
    if head == "Plus":
        out: dict = {}
        for arg in args:
            for mono, coeff in to_poly(arg).items():
                out[mono] = out.get(mono, 0) + coeff
        return {k: v for k, v in out.items() if v}
    if head == "Times":
        out = {(): 1}
        for arg in args:
            out = poly_mul(out, to_poly(arg))
        return out
    if head == "Power" and isinstance(args[1], int) and args[1] >= 0:
        out = {(): 1}
        base = to_poly(args[0])
        for _ in range(args[1]):
            out = poly_mul(out, base)
        return out
    raise ValueError(f"not a polynomial head: {head}")


def expand_check(terms: list, degree: int):
    """``terms``: ``[(coefficient, variable), ...]`` of the base sum."""
    base: dict = {}
    for coeff, var in terms:
        key = ((var, 1),)
        base[key] = base.get(key, 0) + coeff
    expected = {(): 1}
    for _ in range(degree):
        expected = poly_mul(expected, base)

    def check(got: str) -> bool:
        try:
            return to_poly(parse_fullform(got)) == expected
        except (ValueError, IndexError, TypeError):
            return False
    return check


def expand_source(terms: list, degree: int) -> str:
    text = ""
    for index, (coeff, var) in enumerate(terms):
        sign = "-" if coeff < 0 else "+"
        magnitude = "" if abs(coeff) == 1 else f"{abs(coeff)} "
        if index == 0:
            text = ("-" if coeff < 0 else "") + magnitude + var
        else:
            text += f" {sign} {magnitude}{var}"
    return f"Expand[({text})^{degree}]"


# -- the request mix ------------------------------------------------------------------


def hot_request(rng: random.Random, kind: int):
    if kind == 0:
        x = rng.randrange(-10000, 10001)
        return f"sq[{x}]", integer(x * x)
    if kind == 1:
        n = rng.randrange(0, 10001)
        return f"tri[{n}]", integer(n * (n + 1) // 2)
    if kind == 2:
        x = rng.randrange(-1000, 1001)
        return f"poly[{x}]", integer(3 * x * x - 2 * x + 7)
    if kind == 3:
        a, b = rng.randrange(1, 100) / 10, rng.randrange(1, 100) / 10
        return f"hyp[{a!r}, {b!r}]", real(math.sqrt(a * a + b * b))
    if kind == 4:
        x, lo, hi = rng.randrange(-100, 101), rng.randrange(-50, 1), \
            rng.randrange(1, 51)
        return f"clampi[{x}, {lo}, {hi}]", integer(min(max(x, lo), hi))
    x, y = rng.randrange(0, 10 ** 6), rng.randrange(0, 10 ** 6)
    return f"mix[{x}, {y}]", integer((x * 31 + y) ^ 12345)


def sym_request(rng: random.Random, slot: tuple):
    kind = slot[1]
    if kind == 0:
        n = rng.randrange(10, 201)
        return f"Total[Range[{n}]]", integer(n * (n + 1) // 2)
    if kind == 1:
        n = rng.randrange(3, 16)
        return f"Map[Function[x, x * x], Range[{n}]]", \
            int_list(i * i for i in range(1, n + 1))
    if kind == 2:
        n = rng.randrange(5, 61)
        return f"Fold[Plus, 0, Range[{n}]]", integer(n * (n + 1) // 2)
    if kind == 3:
        n, c = rng.randrange(3, 11), rng.randrange(0, 10)
        return f"Range[{n}] /. x_Integer :> x^2 + {c}", \
            int_list(i * i + c for i in range(1, n + 1))
    if kind == 4:
        n, m = rng.randrange(10, 31), rng.randrange(2, 6)
        return f"Cases[Range[{n}], x_ /; Mod[x, {m}] == 0]", \
            int_list(i for i in range(1, n + 1) if i % m == 0)
    if kind == 5:
        n = rng.randrange(5, 40)
        return f"Length[Select[Range[{n}], EvenQ]]", integer(n // 2)
    if kind == "expand":
        coeffs = [c for c in range(-3, 4) if c]
        terms = [(rng.choice(coeffs), "x"), (rng.choice(coeffs), "y")]
        return expand_source(terms, slot[2]), expand_check(terms, slot[2])
    if kind == "expand3v":
        terms = [(1, "a"), (1, "b"), (1, "c")]
        return expand_source(terms, slot[2]), expand_check(terms, slot[2])
    expr, reply = rng.choice(SYMBOLIC)
    return expr, exact(reply)


def def_request(rng: random.Random, kind: str, defined: list):
    if kind == "new":
        k = len(defined) + 1
        defined.append(k)
        return f"g{k}[x_] := x + {k}", exact("Null")
    return rng.choice(REDEFINITIONS), exact("Null")


def requests(seed: int, count: int, sessions: int) -> list:
    """The seeded request sequence, :data:`BLOCK` after shuffled
    :data:`BLOCK`; each session numbers its new ``g<k>`` definitions."""
    rng = random.Random(seed)
    defined = [[] for _ in range(sessions)]
    out = []
    while len(out) < count:
        block = list(BLOCK)
        rng.shuffle(block)
        for slot in block[:count - len(out)]:
            session = rng.randrange(sessions)
            klass = slot[0]
            if klass == "hot":
                expr, check = hot_request(rng, slot[1])
            elif klass == "sym":
                expr, check = sym_request(rng, slot)
            else:
                expr, check = def_request(rng, slot[1], defined[session])
            out.append(Request(session, klass, expr, check))
    return out


def climb(seed: int, calls: int, sessions: int) -> list:
    """``calls`` rounds in which every session calls every prelude function
    once, in a seeded order: enough calls lift each function of each
    session up the hotspot ladder."""
    rng = random.Random(seed)
    out = []
    for _ in range(calls):
        block = [(session, kind) for session in range(sessions)
                 for kind in range(6)]
        rng.shuffle(block)
        for session, kind in block:
            expr, check = hot_request(rng, kind)
            out.append(Request(session, "hot", expr, check))
    return out
