"""Maps between quantales, laxity checking, and change of base.

A lax map phi: Q -> Q' is monotone and satisfies

    phi(q1) *' phi(q2)  <='  phi(q1 * q2)          (multiplicativity)
    e'                  <='  phi(e)                 (unit)

Strict maps satisfy both with equality; oplax maps satisfy the reversed
inequalities.  Lax maps are exactly the ones that transport categories
and design problems to the new quantale (pushforward), which in turn
enables composing problems that live over different quantales: map both
sides into a common quantale, then compose there.

check_lax gathers evidence (exhaustive on small finite carriers, sampled
otherwise) and grades a map strict / lax / oplax / not-lax; strict
implies lax.  Built-in map constructors ship with closed-form verdicts.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Optional, Sequence

import numpy as np

from . import _fastpath
from .categories import QCategory, _gate, _hom_array, _push, pushforward
from .errors import CompositionError, LaxityError, ProblemError, QuantaleError
from .problems import DesignProblem, _array_problem
from .quantales import (
    Quantale, _dedup, _is_number, bool_quantale, compatible, cost_quantale, make_powerset)
from .values import float_tol

LAX_VERDICTS = ("strict", "lax")


@dataclass(eq=False)
class LaxMap:
    """A named map between quantale carriers with a laxity verdict.

    verdict is None until certified: builtin constructors pre-certify
    from closed-form arguments, check_lax certifies from evidence.
    Pushforward and heterogeneous composition demand a lax or strict
    verdict (or an explicit force).
    """

    name: str
    source: Quantale
    target: Quantale
    fn: Callable
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    verdict: Optional[str] = None
    counterexample: Optional[tuple] = None
    exhaustive: bool = False
    provenance: str = "declared"
    probes: tuple = ()

    def __call__(self, payload):
        return self.target.normalize(self.fn(payload))

    def __repr__(self):
        return (
            f"LaxMap({self.name!r}: {self.source.name} -> {self.target.name}, "
            f"verdict={self.verdict!r})"
        )

    @property
    def is_certified_lax(self) -> bool:
        return self.verdict in LAX_VERDICTS


@dataclass(frozen=True)
class LaxityReport:
    map_name: str
    verdict: str
    exhaustive: bool
    pairs_checked: int
    monotone_ok: bool
    lax_ok: bool
    oplax_ok: bool
    counterexample: Optional[tuple]

    def format(self) -> str:
        scope = "exhaustive" if self.exhaustive else f"{self.pairs_checked} pairs"
        line = f"{self.map_name}: {self.verdict} ({scope})"
        if self.counterexample is not None:
            line += f"; witness {self.counterexample}"
        return line


def _default_pool(q: Quantale, rng: Random):
    if q.kind in ("cost", "nat"):
        pts = [0, 1, 2, 3, 5, 10, 100, 1000, math.inf]
        if q.kind == "cost":
            pts += [0.001, 0.01, 0.1, 0.5, 2.5, 1e6]
            pts += [rng.uniform(0.0, 10.0) for _ in range(16)]
            pts += [rng.uniform(0.0, 1000.0) for _ in range(6)]
        else:
            pts += [rng.randrange(0, 50) for _ in range(12)]
        return [q.normalize(p) for p in pts]
    if q.kind == "fuzz":
        pts = [i / 16.0 for i in range(17)]
        pts += [rng.random() for _ in range(12)]
        return [q.normalize(p) for p in pts]
    return [q.sample(rng) for _ in range(30)] + [q.unit, q.bottom]


def check_lax(phi: LaxMap, rng: Random = None) -> LaxityReport:
    """Grade a map by evidence and record the verdict on the map.

    Finite sources up to 64 elements are checked exhaustively over all
    ordered pairs.  Infinite carriers use a fixed grid, the map's
    declared probe points, and seeded random samples; the verdict is then
    only as strong as the sample, which the report's exhaustive flag
    records.
    """
    rng = rng if rng is not None else Random(0)
    qs, qt = phi.source, phi.target
    if qs.is_finite and len(qs.elements()) <= 64:
        pool = list(qs.elements())
        exhaustive = True
    else:
        if qs.is_finite:
            elems = list(qs.elements())
            pool = [elems[rng.randrange(len(elems))] for _ in range(40)]
            pool += [qs.unit, qs.bottom]
        else:
            pool = _default_pool(qs, rng)
        pool += [qs.normalize(p) for p in phi.probes]
        pool = _dedup(qs, pool)[:48]
        exhaustive = False

    monotone_ok, lax_ok, oplax_ok = True, True, True
    counterexample = None

    def note(tag, *payloads):
        nonlocal counterexample
        if counterexample is None:
            counterexample = (tag,) + tuple(
                qs.format_value_safe(p) for p in payloads
            )

    images = [phi(p) for p in pool]
    if not qt.leq(qt.unit, phi(qs.unit)):
        lax_ok = False
        note("unit")
    if not qt.leq(phi(qs.unit), qt.unit):
        oplax_ok = False

    pairs = 0
    for i, a in enumerate(pool):
        fa = images[i]
        for j, b in enumerate(pool):
            pairs += 1
            fb = images[j]
            if qs.leq(a, b) and not qt.leq(fa, fb):
                monotone_ok = False
                note("monotonicity", a, b)
            fab = phi(qs.mult(a, b))
            tensor_img = qt.mult(fa, fb)
            if lax_ok and not qt.leq(tensor_img, fab):
                lax_ok = False
                note("multiplicativity", a, b)
            if oplax_ok and not qt.leq(fab, tensor_img):
                oplax_ok = False
        if not monotone_ok and not lax_ok and not oplax_ok:
            break

    if not monotone_ok:
        verdict = "not-lax"
    elif lax_ok and oplax_ok:
        verdict = "strict"
    elif lax_ok:
        verdict = "lax"
    elif oplax_ok:
        verdict = "oplax"
    else:
        verdict = "not-lax"
    report = LaxityReport(
        phi.name,
        verdict,
        exhaustive,
        pairs,
        monotone_ok,
        lax_ok,
        oplax_ok,
        counterexample if verdict in ("not-lax", "oplax") else None,
    )
    phi.verdict = verdict
    phi.counterexample = report.counterexample
    phi.exhaustive = exhaustive
    phi.provenance = "checked"
    return report


# ---------------------------------------------------------------------------
# built-in maps


def pair_elt(a: str, b: str) -> str:
    """Canonical name of a pair element in a pairwise powerset base."""
    return f"{a}*{b}"


_COST_LIKE = ("cost", "nat")


def _expect(cond: bool, msg: str):
    if not cond:
        raise LaxityError(msg)


# Each constructor below takes (source, target, name, params), checks the
# kind's parameters and returns the LaxMap fields it decides: fn, the
# closed-form verdict (None where check_lax must grade the map), and any
# counterexample or probes.


def _identity(source, target, name, params):
    if not compatible(source, target):
        raise LaxityError("identity map needs structurally equal quantales")
    return dict(fn=lambda x: x, verdict="strict")


def _cost_to_bool_free(source, target, name, params):
    tol = float_tol() if source.kind == "cost" else 0
    return dict(fn=lambda c: c <= tol, verdict="lax")


def _cost_leq_threshold(source, target, name, params):
    t = float(params["threshold"])
    _expect(t > 0 and math.isfinite(t), "threshold must be positive finite")
    tol = float_tol()
    probes = (0.0, t / 3.0, t / 2.0, 0.51 * t, t, 2.0 * t)
    if source.kind == "nat":
        probes = tuple(sorted({int(p) for p in probes}))
    return dict(fn=lambda c: c <= t + tol, verdict=None, probes=probes)


def _bool_to_unit(source, target, name, params):
    unit, bottom = target.unit, target.bottom
    return dict(fn=lambda b: unit if b else bottom, verdict="strict")


def _scale(source, target, name, params):
    k = params["factor"]
    if target.kind == "nat":
        _expect(
            source.kind == "nat" and isinstance(k, int) and k >= 1,
            "nat target needs an integer factor on a nat source",
        )
    else:
        k = float(k)
        _expect(k > 0 and math.isfinite(k), "factor must be positive finite")
    return dict(fn=lambda c: math.inf if c == math.inf else c * k, verdict="strict")


def _sqrt_cost(source, target, name, params):
    m = float(params["degree"])
    scale = float(params.get("scale", 1.0))
    _expect(m >= 1.0, "degree must be at least 1")
    _expect(scale > 0 and math.isfinite(scale), "scale must be positive finite")
    inv = 1.0 / m

    def root(c):
        return math.inf if c == math.inf else scale * float(c) ** inv

    return dict(fn=root, verdict="lax")


def _pad(side):
    """The constructor of a pad, which sends a set s to its pairs with
    every element of a second base: a*b for a in s on the right pad, b*a
    on the left one.  The second base is read off the target's names."""

    def pair(a, b):
        return pair_elt(a, b) if side == "right" else pair_elt(b, a)

    def split(elt, a):
        # the second base's part of elt, when its source part is a
        if side == "right" and elt.startswith(a + "*"):
            return elt[len(a) + 1 :]
        if side == "left" and elt.endswith("*" + a):
            return elt[: -len(a) - 1]
        return None

    def make(source, target, name, params):
        base = list(source.params["base"])
        tbase = list(target.params["base"])
        longest_first = sorted(base, key=len, reverse=True)
        other = []
        for elt in tbase:
            for a in longest_first:
                piece = split(elt, a)
                if piece is not None:
                    break
            else:
                raise LaxityError(
                    f"target element {elt!r} does not factor through the "
                    f"source base on the {side} pad"
                )
            if piece not in other:
                other.append(piece)
        if {pair(a, b) for a in base for b in other} != set(tbase):
            raise LaxityError(
                "pad target base is not the full pairwise product of the "
                "source base with a second base"
            )
        return dict(
            fn=lambda s: frozenset(pair(a, b) for a in s for b in other),
            verdict="strict",
        )

    return make


def _powerset_nonempty(source, target, name, params):
    base = list(source.params["base"])
    if len(base) < 2:
        return dict(fn=lambda s: len(s) > 0, verdict=None)
    # monotone and oplax, but two disjoint nonempty sets break laxity
    w = (
        "multiplicativity",
        source.format_value(frozenset([base[0]])),
        source.format_value(frozenset([base[1]])),
    )
    return dict(fn=lambda s: len(s) > 0, verdict="oplax", counterexample=w)


def _table(source, target, name, params):
    rows = [
        (source.normalize(k), target.normalize(v)) for k, v in params["entries"]
    ]
    _expect(len(rows) > 0, "table must have entries")
    for i, (k, _) in enumerate(rows):
        _expect(
            not any(source.equal(k, seen) for seen, _ in rows[:i]),
            f"duplicate entry for {source.format_value_safe(k)}",
        )

    def lookup(p):
        for k, v in rows:
            if source.equal(p, k):
                return v
        raise QuantaleError(
            f"{name}: no table entry for {source.format_value_safe(p)}"
        )

    if source.is_finite:
        for e in source.elements():
            lookup(e)
    return dict(fn=lookup, verdict=None)


# A carrier guard: the quantale kinds a side admits, and how its error
# names them.
_IS_COST_LIKE = (_COST_LIKE, "cost-like")
_IS_COST = (("cost",), "cost")
_IS_BOOL = (("bool",), "bool")
_IS_POWERSET = (("powerset",), "a powerset")

# kind: (source guard, target guard, constructor, required parameters,
# optional parameters); a guard of None admits every carrier.  Every
# parameter is a number but the table's entries.
_KINDS = {
    "identity": (None, None, _identity, (), ()),
    "cost_to_bool_finite": (
        _IS_COST_LIKE, _IS_BOOL,
        lambda s, t, name, params: dict(fn=lambda c: c != math.inf, verdict="lax"), (), (),
    ),
    "cost_to_bool_free": (_IS_COST_LIKE, _IS_BOOL, _cost_to_bool_free, (), ()),
    "cost_constant_true": (
        _IS_COST_LIKE, _IS_BOOL,
        lambda s, t, name, params: dict(fn=lambda c: True, verdict="lax"), (), (),
    ),
    "cost_leq_threshold": (_IS_COST_LIKE, _IS_BOOL, _cost_leq_threshold, ("threshold",), ()),
    "bool_to_unit": (_IS_BOOL, None, _bool_to_unit, (), ()),
    "scale": (_IS_COST_LIKE, _IS_COST_LIKE, _scale, ("factor",), ()),
    "sqrt_cost": (_IS_COST_LIKE, _IS_COST, _sqrt_cost, ("degree",), ("scale",)),
    "powerset_pad_right": (_IS_POWERSET, _IS_POWERSET, _pad("right"), (), ()),
    "powerset_pad_left": (_IS_POWERSET, _IS_POWERSET, _pad("left"), (), ()),
    "powerset_nonempty": (_IS_POWERSET, _IS_BOOL, _powerset_nonempty, (), ()),
    "table": (None, None, _table, ("entries",), ()),
}
MAP_KINDS = tuple(_KINDS)


def builtin_lax(kind: str, source: Quantale, target: Quantale, name: str = None, **params) -> LaxMap:
    """Construct one of the named map families in MAP_KINDS.

    Most kinds carry a closed-form verdict; cost_leq_threshold, table and
    one-part powerset_nonempty are deliberately unverified so callers must
    run check_lax (or force).
    """
    if kind not in _KINDS:
        raise LaxityError(f"unknown map kind {kind!r}")
    source_guard, target_guard, make, required, optional = _KINDS[kind]
    for side, q, guard in (("source", source, source_guard), ("target", target, target_guard)):
        if guard is not None:
            _expect(q.kind in guard[0], f"{side} must be {guard[1]}")
    for p in (*required, *params):
        _expect(p in params, f"map kind {kind!r} needs parameter {p!r}")
        _expect(p in required + optional, f"map kind {kind!r} takes no parameter {p!r}")
        v = params[p]
        _expect(_is_number(v) or p == "entries", f"map kind {kind!r}: {p}={v!r} is not a number")
    nm = name or kind
    fields = make(source, target, nm, params)
    provenance = "declared" if fields["verdict"] is None else "analytic"
    return LaxMap(nm, source, target, kind=kind, params=dict(params), provenance=provenance, **fields)


# ---------------------------------------------------------------------------
# classification of monotone cost -> bool maps on a grid


@dataclass(frozen=True)
class GridLaxClass:
    label: str
    true_set: tuple
    verdict: str
    map: LaxMap


@dataclass(frozen=True)
class GridClassification:
    grid: tuple
    classes: tuple
    lax_true_sets: tuple
    tables_total: int
    tables_monotone: int

    def format(self) -> str:
        cq = self.classes[0].map.source
        pts = ", ".join(cq.format_value(g) for g in self.grid)
        lines = [f"grid {{{pts}}}: {len(self.lax_true_sets)} lax table(s)"]
        for c in self.classes:
            ts = ", ".join(cq.format_value(g) for g in c.true_set)
            lines.append(f"  {c.label}: true on {{{ts}}} ({c.verdict})")
        return "\n".join(lines)


def classify_cost_to_bool(grid: Sequence, quantale: Quantale = None) -> GridClassification:
    """Classify every map from a cost grid to bool by laxity.

    The grid must contain 0 and inf; points equal in the quantale (within
    its float tolerance) count once, as the smallest.  Multiplication is
    addition rounded up to the grid (saturating below inf).  Of the 2^n
    truth tables only the n + 1 monotone ones can be lax: the cost order
    is reversed, so a monotone table is true on a prefix of the ascending
    grid.  Each prefix is tried against a table of rounded sums; exactly
    three families survive: true only on 0, true on all finite points, and
    constantly true.  The three are returned labeled even when small grids
    make some of their tables coincide.
    """
    cq = quantale if quantale is not None else cost_quantale()
    _expect(cq.kind in _COST_LIKE, "grid must live in a cost-like quantale")
    pts = _dedup(cq, sorted({cq.normalize(g) for g in grid}))
    if 0 not in pts or math.inf not in pts:
        raise LaxityError("grid must contain both 0 and inf")
    if len(pts) < 2:
        raise LaxityError("grid needs at least two points")

    n = len(pts)
    # at[i][j]: the index of pts[i] * pts[j], the smallest grid point at or
    # above the sum; finite sums saturate at the largest finite point so
    # the grid stays closed under addition
    at = [
        [n - 1 if math.inf in (a, b) else min(bisect_left(pts, a + b), n - 2) for b in pts]
        for a in pts
    ]

    def is_lax(k):
        # the table true on the first k points; unit: e' <= phi(0)
        return k > 0 and all(at[i][j] < k for i in range(k) for j in range(k))

    def is_strict(k):
        return is_lax(k) and all(
            i < k and j < k for i in range(n) for j in range(n) if at[i][j] < k
        )

    def prefix(k):
        return tuple(i < k for i in range(n))

    # each family is the prefix of the grid it is true on
    canon = {"only_free": 1, "all_finite": n - 1, "always": n}
    found = {prefix(k) for k in range(n + 1) if is_lax(k)}
    expected = {prefix(k) for k in canon.values()}
    if found != expected:
        raise LaxityError(
            f"grid classification mismatch: found {sorted(found)}, "
            f"expected {sorted(expected)}"
        )

    bq = bool_quantale()
    classes = []
    for label, k in canon.items():
        entries = list(zip(pts, prefix(k)))
        phi = builtin_lax(
            "table", cq, bq, name=f"grid_{label}", entries=entries
        )
        phi.verdict = "strict" if is_strict(k) else "lax"
        phi.provenance = "analytic"
        classes.append(GridLaxClass(label, tuple(pts[:k]), phi.verdict, phi))
    return GridClassification(
        tuple(pts),
        tuple(classes),
        tuple(sorted(found)),
        1 << n,
        n + 1,
    )


# ---------------------------------------------------------------------------
# change of base for problems, heterogeneous composition


def pushforward_problem(
    d: DesignProblem, phi: LaxMap, force: bool = False, validate: bool = True
) -> DesignProblem:
    """Transport a problem along a lax map: push categories and values,
    the values held as _push's array.

    In exact arithmetic laxity makes the image a valid problem over the
    target quantale.  Float carriers validate within float_tol(), and a
    certified map that stretches small values, or thresholds at tol, can
    break a problem that holds only within tol (ROADMAP.md, item 3).  A
    validation failure names the map, and under force says it was forced.
    """
    if not compatible(phi.source, d.quantale):
        raise CompositionError(
            f"map {phi.name} expects {phi.source.name}, problem is over "
            f"{d.quantale.name}"
        )
    _gate(phi, force)
    if phi.kind == "identity":
        return d
    src = pushforward(d.source, phi, force=force, validate=validate)
    tgt = pushforward(d.target, phi, force=force, validate=validate)
    forced = "forced unverified " if force else ""
    what = f"pushforward through {forced}map {phi.name}"
    return _array_problem(phi.target, src, tgt, _push(d, phi), what, validate)


def _hetero_gates(d1, d2, phi1, phi2, force):
    if not compatible(phi1.source, d1.quantale):
        raise CompositionError(
            f"map {phi1.name} expects {phi1.source.name}, first problem is "
            f"over {d1.quantale.name}"
        )
    if not compatible(phi2.source, d2.quantale):
        raise CompositionError(
            f"map {phi2.name} expects {phi2.source.name}, second problem is "
            f"over {d2.quantale.name}"
        )
    if not compatible(phi1.target, phi2.target):
        raise CompositionError(
            f"maps land in different quantales ({phi1.target.name} vs "
            f"{phi2.target.name})"
        )
    _gate(phi1, force)
    _gate(phi2, force)


def hetero_series(
    d1: DesignProblem,
    d2: DesignProblem,
    phi1: LaxMap,
    phi2: LaxMap,
    validate: bool = True,
    force: bool = False,
) -> DesignProblem:
    """Series composition across quantales.

    Both problems are mapped into the maps' common target quantale and
    joined over the shared interface objects.  Only the object lists
    must agree at the interface: the composite's validity needs each
    problem's own bimodule property, not agreement of the two interface
    hom tables.  The result runs between the pushed endpoint categories.
    Each operand's values are pushed as an array in the target's mode
    (_push), the interface categories not at all; an identity map keeps
    its operand's array.
    """
    _hetero_gates(d1, d2, phi1, phi2, force)
    if d1.target.objects != d2.source.objects:
        raise CompositionError(
            "interface object lists differ: "
            f"{list(d1.target.objects)[:4]}... vs {list(d2.source.objects)[:4]}..."
        )
    q = phi1.target
    src = pushforward(d1.source, phi1, force=force, validate=validate)
    tgt = pushforward(d2.target, phi2, force=force, validate=validate)
    table = _fastpath.series_product(_fastpath.mode_for(q), _push(d1, phi1), _push(d2, phi2))
    return _array_problem(q, src, tgt, table, "heterogeneous series output", validate)


def hetero_parallel(
    d1: DesignProblem,
    d2: DesignProblem,
    phi1: LaxMap,
    phi2: LaxMap,
    validate: bool = True,
    force: bool = False,
) -> DesignProblem:
    """Parallel composition across quantales: push both sides, tensor."""
    from .problems import parallel

    _hetero_gates(d1, d2, phi1, phi2, force)
    p1 = pushforward_problem(d1, phi1, force=force, validate=False)
    p2 = pushforward_problem(d2, phi2, force=force, validate=False)
    return parallel(p1, p2, validate=validate)


def hetero_trace(
    d: DesignProblem,
    loop: QCategory,
    phi: LaxMap,
    validate: bool = True,
    force: bool = False,
) -> DesignProblem:
    """Feedback across quantales: push the problem and loop, then trace."""
    from .problems import trace

    pd = pushforward_problem(d, phi, force=force, validate=False)
    ploop = pushforward(loop, phi, force=force, validate=False)
    return trace(pd, ploop, validate=validate)


# ---------------------------------------------------------------------------
# implementation catalogs


@dataclass(frozen=True)
class CatalogPart:
    """One implementation: needs `requires`, delivers `provides`."""

    name: str
    requires: str
    provides: str

    def __post_init__(self):
        if "*" in self.name:
            raise ProblemError(
                f"part name {self.name!r} may not contain '*' "
                "(reserved for pair elements)"
            )


@dataclass(frozen=True)
class Catalog:
    name: str
    parts: tuple

    def __post_init__(self):
        names = [p.name for p in self.parts]
        if len(set(names)) != len(names):
            dup = next(n for i, n in enumerate(names) if n in names[:i])
            raise ProblemError(f"duplicate part name {dup!r} in catalog {self.name!r}")

    def part_names(self):
        return tuple(p.name for p in self.parts)


def catalog_problem(
    catalog: Catalog, requires_in: QCategory, provides_in: QCategory
) -> DesignProblem:
    """The powerset-valued selection problem of a catalog.

    Entry (r, f) is the set of parts usable there: requirement at or
    below r, provision at or above f.  Endpoint categories are the two
    orders pushed to the parts powerset (true becomes the full set).
    """
    for c, label in ((requires_in, "requires"), (provides_in, "provides")):
        if c.quantale.kind != "bool":
            raise ProblemError(f"{label} order must be bool-enriched")
    pq = make_powerset(catalog.part_names(), name=f"P({catalog.name})")
    emb = builtin_lax(
        "bool_to_unit", bool_quantale(), pq, name=f"into_{pq.name}"
    )
    src = pushforward(requires_in, emb, validate=False)
    tgt = pushforward(provides_in, emb, validate=False)
    for p in catalog.parts:
        if not requires_in.has_object(p.requires):
            raise ProblemError(
                f"part {p.name!r} requires unknown object {p.requires!r}"
            )
        if not provides_in.has_object(p.provides):
            raise ProblemError(
                f"part {p.name!r} provides unknown object {p.provides!r}"
            )
    # a part's bit where its requirement is at or below r, and where f is
    # at or below its provision: their product ORs the parts usable at (r, f)
    mode, parts = _fastpath.mode_for(pq), catalog.parts
    bits = _fastpath.encode(pq, mode, [[frozenset([p.name]) for p in parts]])[0]
    usable = _hom_array(requires_in)[[requires_in.index(p.requires) for p in parts]].T
    reaches = _hom_array(provides_in)[:, [provides_in.index(p.provides) for p in parts]].T
    table = _fastpath._product(mode, np.where(usable, bits, 0), np.where(reaches, bits[:, None], 0))
    return _array_problem(pq, src, tgt, table, "catalog problem")


def implementation_series_problems(
    d_first: DesignProblem, d_second: DesignProblem
) -> DesignProblem:
    """Compose two catalog problems into one over pairs of parts.

    Values land in the powerset of pair names "i*j"; the pads embed each
    side's parts into the pairs, and the heterogeneous series join then
    collects exactly the pairs that can hand over through some interface
    object.
    """
    qi, qj = d_first.quantale, d_second.quantale
    if qi.kind != "powerset" or qj.kind != "powerset":
        raise ProblemError("both problems must be powerset-valued")
    left = list(qi.params["base"])
    right = list(qj.params["base"])
    pq = make_powerset(
        [pair_elt(i, j) for i in left for j in right],
        name=f"P({qi.name}x{qj.name})",
    )
    pad1 = builtin_lax("powerset_pad_right", qi, pq, name=f"{qi.name}_pad")
    pad2 = builtin_lax("powerset_pad_left", qj, pq, name=f"{qj.name}_pad")
    return hetero_series(d_first, d_second, pad1, pad2)


def implementation_series(
    cat_first: Catalog,
    cat_second: Catalog,
    requires_in: QCategory,
    mid: QCategory,
    provides_in: QCategory,
) -> DesignProblem:
    """Catalog-of-pairs composition over a shared interface order."""
    d1 = catalog_problem(cat_first, requires_in, mid)
    d2 = catalog_problem(cat_second, mid, provides_in)
    return implementation_series_problems(d1, d2)
