"""Pure-Python carriers, random composite inputs and their expected outputs.

Nothing here imports qodesign.  Each family's join, multiplication and
equality are written out from the definitions, so the expected output of
a composite is the definitional join formula evaluated independently of
the engine's kernels and element loops:

    series    out[r][f] = join_m  d1[r][m] * d2[m][f]
    parallel  out[(r1,r2)][(f1,f2)] = d1[r1][f1] * d2[r2][f2]
    trace     out[r][f] = join_{m,m'} d[(r,m)][(f,m')] * M[m][m']

Random homs are closed with Floyd-Warshall style joins and random tables
with the hom-weighted relaxation, so every input is valid by construction
and every operator output must validate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

PACE = ("E", "C", "A", "P")
_RANK = {p: i for i, p in enumerate(PACE)}
WIDE_BASE = tuple(f"p{i:02d}" for i in range(64))
SMALL_BASE = ("a", "b", "c")
HUGE = 2 ** 60  # far above 2**53, where float64 stops holding every integer

SERIES_SHAPES = ((2, 2, 2), (3, 4, 2), (4, 3, 5), (5, 5, 5), (2, 5, 3), (5, 2, 4))
PARALLEL_SHAPES = (((2, 2), (2, 2)), ((2, 3), (3, 2)), ((3, 3), (2, 2)))
TRACE_SHAPES = ((2, 2, 2), (3, 2, 2), (2, 3, 2))
REPEATS = 2  # passes over the shape schedule per family in one pool
HUGE_EVERY = 3  # every third nat composite draws values above 2**53


@dataclass(frozen=True)
class Carrier:
    name: str
    bottom: object
    unit: object
    join2: object
    mult: object
    sample: object
    exact: bool

    def join(self, values):
        out = self.bottom
        for v in values:
            out = self.join2(out, v)
        return out

    def equal(self, a, b, tol) -> bool:
        if self.exact:
            return a == b
        if a == b:
            return True
        return abs(a - b) <= tol


def _cost_sample(rng):
    r = rng.random()
    if r < 0.1:
        return 0.0
    if r < 0.2:
        return math.inf
    return round(rng.uniform(0.0, 40.0), 4)


def _fuzz_sample(rng):
    return rng.choice([0.0, 1.0, rng.random(), round(rng.random(), 2)])


def _nat_sample(rng):
    return rng.choice([0, 1, 2, 3, 5, 8, 13, 100, math.inf])


def _huge_nat_sample(rng):
    r = rng.random()
    if r < 0.15:
        return 0
    if r < 0.3:
        return math.inf
    return HUGE + rng.randrange(1 << 20)


def _powerset(base):
    full = frozenset(base)
    return Carrier(
        f"powerset{len(base)}",
        frozenset(),
        full,
        lambda a, b: a | b,
        lambda a, b: a & b,
        lambda rng: frozenset(x for x in base if rng.random() < 0.5),
        True,
    )


def _product(c1, c2):
    return Carrier(
        f"{c1.name}x{c2.name}",
        (c1.bottom, c2.bottom),
        (c1.unit, c2.unit),
        lambda a, b: (c1.join2(a[0], b[0]), c2.join2(a[1], b[1])),
        lambda a, b: (c1.mult(a[0], b[0]), c2.mult(a[1], b[1])),
        lambda rng: (c1.sample(rng), c2.sample(rng)),
        c1.exact and c2.exact,
    )


BOOL = Carrier("bool", False, True, lambda a, b: a or b, lambda a, b: a and b,
               lambda rng: rng.random() < 0.5, True)
PACE_C = Carrier(
    "pace", "E", "P",
    lambda a, b: a if _RANK[a] >= _RANK[b] else b,
    lambda a, b: a if _RANK[a] <= _RANK[b] else b,
    lambda rng: rng.choice(PACE), True,
)
COST = Carrier("cost", math.inf, 0.0, min, lambda a, b: a + b, _cost_sample, False)
NAT = Carrier("nat", math.inf, 0, min, lambda a, b: a + b, _nat_sample, True)
HUGE_NAT = Carrier("nat", math.inf, 0, min, lambda a, b: a + b, _huge_nat_sample, True)


def _fuzz(name, mult):
    return Carrier(name, 0.0, 1.0, max, mult, _fuzz_sample, False)


# Family name -> (carrier, engine constructor spec read by the workload).
FAMILIES = {
    "bool": (BOOL, ("bool",)),
    "pace": (PACE_C, ("pace",)),
    "cost": (COST, ("cost",)),
    "nat": (NAT, ("nat",)),
    "fuzz_godel": (_fuzz("fuzz_godel", min), ("fuzz", "godel")),
    "fuzz_goguen": (_fuzz("fuzz_goguen", lambda a, b: a * b), ("fuzz", "goguen")),
    "fuzz_lukasiewicz": (
        _fuzz("fuzz_lukasiewicz", lambda a, b: max(0.0, a + b - 1.0)),
        ("fuzz", "lukasiewicz"),
    ),
    "powerset3": (_powerset(SMALL_BASE), ("powerset", SMALL_BASE)),
    "product_BxP": (_product(BOOL, PACE_C), ("product",)),
    "powerset64": (_powerset(WIDE_BASE), ("powerset", WIDE_BASE)),
}


# -- closure and the definitional formulas ------------------------------------


def random_hom(c: Carrier, n: int, rng) -> list:
    hom = [[c.sample(rng) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        hom[i][i] = c.unit
    for k in range(n):
        for i in range(n):
            for j in range(n):
                hom[i][j] = c.join2(hom[i][j], c.mult(hom[i][k], hom[k][j]))
    return hom


def close_values(c: Carrier, r_hom, f_hom, raw) -> list:
    nr, nf = len(r_hom), len(f_hom)
    return [
        [
            c.join(
                c.mult(c.mult(f_hom[fs][f], raw[r][f]), r_hom[r][rs])
                for r in range(nr)
                for f in range(nf)
            )
            for fs in range(nf)
        ]
        for rs in range(nr)
    ]


def random_values(c: Carrier, r_hom, f_hom, rng) -> list:
    raw = [[c.sample(rng) for _ in f_hom] for _ in r_hom]
    return close_values(c, r_hom, f_hom, raw)


def tensor_hom(c: Carrier, a, b) -> list:
    na, nb = len(a), len(b)
    return [
        [c.mult(a[i][j], b[k][l]) for j in range(na) for l in range(nb)]
        for i in range(na)
        for k in range(nb)
    ]


def series_expected(c: Carrier, v1, v2) -> list:
    nm = len(v2)
    nf = len(v2[0]) if nm else 0
    return [[c.join(c.mult(row[m], v2[m][f]) for m in range(nm)) for f in range(nf)] for row in v1]


def parallel_expected(c: Carrier, v1, v2) -> list:
    return [[c.mult(a, b) for a in r1 for b in r2] for r1 in v1 for r2 in v2]


def trace_expected(c: Carrier, v, loop, nr, nf) -> list:
    nm = len(loop)
    return [
        [
            c.join(
                c.mult(v[r * nm + m][f * nm + mp], loop[m][mp])
                for m in range(nm)
                for mp in range(nm)
            )
            for f in range(nf)
        ]
        for r in range(nr)
    ]


def mismatch(c: Carrier, got, want, tol) -> bool:
    if len(got) != len(want):
        return True
    for grow, wrow in zip(got, want):
        if len(grow) != len(wrow):
            return True
        for a, b in zip(grow, wrow):
            if not c.equal(a, b, tol):
                return True
    return False


# -- the composite pool ---------------------------------------------------------


@dataclass(frozen=True)
class Composite:
    """Raw, closed inputs of one composite plus its expected output.

    cats holds (object names, hom rows) in the order the workload builds
    them; problems holds value rows.  huge marks the nat composites whose
    values exceed 2**53.
    """

    family: str
    op: str
    cats: tuple
    problems: tuple
    expected: list
    huge: bool


def _objs(prefix, n):
    return tuple(f"{prefix}{i}" for i in range(n))


def make_composite(family, op, shape, rng, huge=False) -> Composite:
    c = HUGE_NAT if huge else FAMILIES[family][0]
    if op == "series":
        na, nm, nb = shape
        ha, hm, hb = (random_hom(c, n, rng) for n in (na, nm, nb))
        v1 = random_values(c, ha, hm, rng)
        v2 = random_values(c, hm, hb, rng)
        cats = ((_objs("a", na), ha), (_objs("m", nm), hm), (_objs("b", nb), hb))
        return Composite(family, op, cats, (v1, v2), series_expected(c, v1, v2), huge)
    if op == "parallel":
        (r1, f1), (r2, f2) = shape
        homs = [random_hom(c, n, rng) for n in (r1, f1, r2, f2)]
        v1 = random_values(c, homs[0], homs[1], rng)
        v2 = random_values(c, homs[2], homs[3], rng)
        cats = tuple((_objs(p, len(h)), h) for p, h in zip(("r", "f", "s", "g"), homs))
        return Composite(family, op, cats, (v1, v2), parallel_expected(c, v1, v2), huge)
    nr, nf, nm = shape
    hr, hf, hm = (random_hom(c, n, rng) for n in (nr, nf, nm))
    v = random_values(c, tensor_hom(c, hr, hm), tensor_hom(c, hf, hm), rng)
    cats = ((_objs("r", nr), hr), (_objs("f", nf), hf), (_objs("m", nm), hm))
    return Composite(family, op, cats, (v,), trace_expected(c, v, hm, nr, nf), huge)


def schedule():
    """(op, shape) list every family runs once per repeat."""
    return (
        [("series", s) for s in SERIES_SHAPES]
        + [("parallel", s) for s in PARALLEL_SHAPES]
        + [("trace", s) for s in TRACE_SHAPES]
    )


def make_pool(seed: int, families=None, repeats: int = REPEATS) -> list:
    """Composites for every family; shapes are fixed, values come from seed."""
    rng = random.Random(seed)
    pool = []
    for family in families or FAMILIES:
        for rep in range(repeats):
            for i, (op, shape) in enumerate(schedule()):
                k = rep * len(schedule()) + i
                huge = family == "nat" and k % HUGE_EVERY == HUGE_EVERY - 1
                pool.append(make_composite(family, op, shape, rng, huge))
    return pool
