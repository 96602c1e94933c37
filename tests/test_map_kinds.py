"""The builtin map kinds pinned one by one: carrier guards, parameter
checks, closed-form verdicts, probes and values; the kind list shared by
the parser and builtin_lax; and grid classification against the 2^n
enumeration it replaced."""

import math
import pathlib
import re
import time
from random import Random

import pytest

from qodesign import (
    LaxityError,
    ModelError,
    QuantaleError,
    bool_quantale,
    builtin_lax,
    classify_cost_to_bool,
    cost_quantale,
    make_powerset,
    nat_quantale,
)
from qodesign.lax import MAP_KINDS
from qodesign.model import loads, parser
from qodesign.model.parser import parse_model

C, N, B = cost_quantale(), nat_quantale(), bool_quantale()
P1, P2 = make_powerset(["a"]), make_powerset(["a", "b"])
PAIRS = make_powerset(["a*x", "a*y", "b*x", "b*y"])
DOCS = pathlib.Path(__file__).resolve().parents[1] / "docs" / "model_format.md"

# kind: (params, a valid source, a valid target, a wrong source and its
# error, a wrong target and its error); None where the kind admits any
# carrier on that side
GUARDS = {
    "identity": ({}, C, C, (N, "identity map needs structurally equal quantales"),
                 (B, "identity map needs structurally equal quantales")),
    "cost_to_bool_finite": ({}, C, B, (B, "source must be cost-like"), (C, "target must be bool")),
    "cost_to_bool_free": ({}, N, B, (P2, "source must be cost-like"), (N, "target must be bool")),
    "cost_constant_true": ({}, C, B, (B, "source must be cost-like"), (P1, "target must be bool")),
    "cost_leq_threshold": ({"threshold": 5}, C, B, (B, "source must be cost-like"),
                           (C, "target must be bool")),
    "bool_to_unit": ({}, B, C, (C, "source must be bool"), None),
    "scale": ({"factor": 2}, C, C, (B, "source must be cost-like"), (B, "target must be cost-like")),
    "sqrt_cost": ({"degree": 2}, N, C, (B, "source must be cost-like"), (N, "target must be cost")),
    "powerset_pad_right": ({}, P2, PAIRS, (C, "source must be a powerset"),
                           (B, "target must be a powerset")),
    "powerset_pad_left": ({}, make_powerset(["x", "y"]), PAIRS, (B, "source must be a powerset"),
                          (C, "target must be a powerset")),
    "powerset_nonempty": ({}, P2, B, (C, "source must be a powerset"), (C, "target must be bool")),
    "table": ({"entries": [(False, False), (True, True)]}, B, B, None, None),
}


def _laxity_text(*args, **params):
    with pytest.raises(LaxityError) as info:
        builtin_lax(*args, **params)
    return str(info.value)


def test_every_kind_has_its_guards_pinned():
    assert set(GUARDS) == set(MAP_KINDS)


@pytest.mark.parametrize("kind", sorted(GUARDS))
def test_carrier_guards_keep_their_texts(kind):
    params, src, tgt, bad_src, bad_tgt = GUARDS[kind]
    assert builtin_lax(kind, src, tgt, **params).kind == kind
    if bad_src is not None:
        assert _laxity_text(kind, bad_src[0], tgt, **params) == bad_src[1]
    if bad_tgt is not None:
        assert _laxity_text(kind, src, bad_tgt[0], **params) == bad_tgt[1]
    if bad_src is not None and bad_tgt is not None:
        # the source is guarded first
        assert _laxity_text(kind, bad_src[0], bad_tgt[0], **params) == bad_src[1]


def test_kinds_without_a_carrier_guard_admit_any_carrier():
    for tgt in (B, C, N, P2, PAIRS):
        phi = builtin_lax("bool_to_unit", B, tgt)
        assert phi(True) == tgt.unit and phi(False) == tgt.bottom
    phi = builtin_lax("table", P1, C, entries=[(frozenset(), math.inf), (frozenset(["a"]), 0)])
    assert phi(frozenset(["a"])) == 0.0


PARAMETER_CHECKS = [
    ("cost_leq_threshold", C, B, {"threshold": 0}, "threshold must be positive finite"),
    ("cost_leq_threshold", N, B, {"threshold": math.inf}, "threshold must be positive finite"),
    ("cost_leq_threshold", C, B, {"threshold": -2.0}, "threshold must be positive finite"),
    ("scale", N, N, {"factor": 2.5}, "nat target needs an integer factor on a nat source"),
    ("scale", N, N, {"factor": 0}, "nat target needs an integer factor on a nat source"),
    ("scale", C, N, {"factor": 2}, "nat target needs an integer factor on a nat source"),
    ("scale", C, C, {"factor": 0}, "factor must be positive finite"),
    ("scale", N, C, {"factor": math.inf}, "factor must be positive finite"),
    ("sqrt_cost", C, C, {"degree": 0.5}, "degree must be at least 1"),
    ("sqrt_cost", C, C, {"degree": 2, "scale": 0}, "scale must be positive finite"),
    ("sqrt_cost", N, C, {"degree": 3, "scale": math.inf}, "scale must be positive finite"),
    ("powerset_pad_right", P1, make_powerset(["x"]), {},
     "target element 'x' does not factor through the source base on the right pad"),
    ("powerset_pad_left", P1, make_powerset(["a*x", "b*y"]), {},
     "target element 'a*x' does not factor through the source base on the left pad"),
    ("powerset_pad_right", P2, make_powerset(["a*x", "a*y", "b*x"]), {},
     "pad target base is not the full pairwise product of the source base with a second base"),
    ("table", B, B, {"entries": []}, "table must have entries"),
    ("table", B, B, {"entries": [(True, False), (False, False), (True, True)]},
     "duplicate entry for true"),
    ("table", C, B, {"entries": [(0, True), (math.inf, False), (0.0, False)]},
     "duplicate entry for 0"),
    ("scale", C, C, {}, "map kind 'scale' needs parameter 'factor'"),
    ("table", B, B, {}, "map kind 'table' needs parameter 'entries'"),
    ("sqrt_cost", C, C, {"scale": 2}, "map kind 'sqrt_cost' needs parameter 'degree'"),
    ("scale", C, C, {"factor": 2, "bogus": 1}, "map kind 'scale' takes no parameter 'bogus'"),
    ("identity", C, C, {"factor": 2}, "map kind 'identity' takes no parameter 'factor'"),
    ("scale", C, C, {"factor": "2"}, "map kind 'scale': factor='2' is not a number"),
    ("cost_leq_threshold", C, B, {"threshold": True},
     "map kind 'cost_leq_threshold': threshold=True is not a number"),
    ("sqrt_cost", C, C, {"degree": 2, "scale": None},
     "map kind 'sqrt_cost': scale=None is not a number"),
    ("teleport", C, C, {}, "unknown map kind 'teleport'"),
]


@pytest.mark.parametrize("case", PARAMETER_CHECKS, ids=[c[4][:32] for c in PARAMETER_CHECKS])
def test_parameter_checks_keep_their_texts(case):
    kind, src, tgt, params, text = case
    assert _laxity_text(kind, src, tgt, **params) == text


def test_table_keys_missing_from_the_entries():
    with pytest.raises(QuantaleError) as info:
        builtin_lax("table", B, B, name="g", entries=[(True, True)])
    assert str(info.value) == "g: no table entry for false"
    phi = builtin_lax("table", C, B, name="g", entries=[(0, True), (math.inf, False)])
    with pytest.raises(QuantaleError) as info:
        phi(1.0)
    assert str(info.value) == "g: no table entry for 1"


# (kind, source, target, params, verdict, counterexample, probes,
#  [(argument, image)])
VALID = [
    ("identity", C, C, {}, "strict", None, (), [(3.5, 3.5), (math.inf, math.inf)]),
    ("identity", P2, make_powerset(["a", "b"]), {}, "strict", None, (),
     [(frozenset(["b"]), frozenset(["b"]))]),
    ("cost_to_bool_finite", C, B, {}, "lax", None, (), [(2.0, True), (math.inf, False)]),
    ("cost_to_bool_finite", N, B, {}, "lax", None, (), [(7, True), (math.inf, False)]),
    ("cost_to_bool_free", C, B, {}, "lax", None, (),
     [(0.0, True), (1e-10, True), (1e-3, False), (math.inf, False)]),
    ("cost_to_bool_free", N, B, {}, "lax", None, (), [(0, True), (1, False)]),
    ("cost_constant_true", N, B, {}, "lax", None, (), [(0, True), (math.inf, True)]),
    ("cost_leq_threshold", C, B, {"threshold": 5}, None, None,
     (0.0, 5 / 3, 2.5, 2.55, 5.0, 10.0), [(5.0, True), (5.1, False), (math.inf, False)]),
    ("cost_leq_threshold", N, B, {"threshold": 7}, None, None, (0, 2, 3, 7, 14),
     [(7, True), (8, False)]),
    ("bool_to_unit", B, C, {}, "strict", None, (), [(True, 0.0), (False, math.inf)]),
    ("bool_to_unit", B, P2, {}, "strict", None, (),
     [(True, frozenset(["a", "b"])), (False, frozenset())]),
    ("scale", C, C, {"factor": 2.5}, "strict", None, (), [(4.0, 10.0), (math.inf, math.inf)]),
    ("scale", N, N, {"factor": 3}, "strict", None, (), [(7, 21), (math.inf, math.inf)]),
    ("scale", N, C, {"factor": 0.5}, "strict", None, (), [(3, 1.5)]),
    ("sqrt_cost", C, C, {"degree": 2, "scale": 2.0}, "lax", None, (),
     [(9.0, 6.0), (math.inf, math.inf)]),
    ("sqrt_cost", N, C, {"degree": 2}, "lax", None, (), [(16, 4.0), (0, 0.0)]),
    ("powerset_pad_right", P2, PAIRS, {}, "strict", None, (),
     [(frozenset(["a"]), frozenset(["a*x", "a*y"])), (frozenset(), frozenset())]),
    ("powerset_pad_left", make_powerset(["x", "y"]), PAIRS, {}, "strict", None, (),
     [(frozenset(["y"]), frozenset(["a*y", "b*y"]))]),
    ("powerset_nonempty", make_powerset(["a", "b", "c"]), B, {}, "oplax",
     ("multiplicativity", "[a]", "[b]"), (), [(frozenset(["c"]), True), (frozenset(), False)]),
    ("powerset_nonempty", P1, B, {}, None, None, (), [(frozenset(["a"]), True)]),
    ("table", B, B, {"entries": [(False, True), (True, False)]}, None, None, (),
     [(False, True), (True, False)]),
]


@pytest.mark.parametrize("case", VALID, ids=[f"{c[0]}-{c[1].name}-{c[2].name}" for c in VALID])
def test_valid_maps_keep_their_fields(case):
    kind, src, tgt, params, verdict, witness, probes, values = case
    for name in (None, "m"):
        phi = builtin_lax(kind, src, tgt, name, **params)
        assert (phi.name, phi.kind, phi.params) == (name or kind, kind, params)
        assert phi.source is src and phi.target is tgt
        assert phi.verdict == verdict
        assert phi.counterexample == witness
        assert phi.probes == probes
        assert phi.provenance == ("declared" if verdict is None else "analytic")
        assert not phi.exhaustive
        for arg, image in values:
            got = phi(arg)
            assert got == image and type(got) is type(image)


# ---------------------------------------------------------------------------
# the kind list, stated once


def test_the_parser_reads_the_kind_list_from_lax():
    assert parser.MAP_KINDS is MAP_KINDS


def test_parser_and_builtin_lax_accept_the_same_kinds():
    for kind in MAP_KINDS + ("teleport", "Table", "cost"):
        try:
            builtin_lax(kind, B, B)
            lax_error = None
        except (LaxityError, QuantaleError, KeyError) as exc:
            lax_error = str(exc)
        known_to_lax = lax_error != f"unknown map kind {kind!r}"
        try:
            parse_model(f"quantale B = bool\nmap m = {kind}(B -> B)\n")
            known_to_parser = True
        except ModelError as exc:
            known_to_parser = exc.message != f"unknown map kind {kind!r}"
        assert known_to_lax == known_to_parser == (kind in MAP_KINDS), kind


def test_parser_reports_an_unknown_kind_at_its_token():
    with pytest.raises(ModelError) as info:
        loads("quantale C = cost\n\nmap warp =  teleport(C -> C)\n", "ops")
    err = info.value
    assert (err.message, err.line, err.column, err.entity) == (
        "unknown map kind 'teleport'", 3, 13, "warp",
    )


def test_docs_name_every_map_kind():
    text = DOCS.read_text()
    section = text[text.index("\n## Maps\n"):]
    section = section[: section.index("\n## ", 1)]
    for kind in MAP_KINDS:
        assert re.search(rf"= {kind}\(", section), kind


# ---------------------------------------------------------------------------
# grid classification against the 2^n enumeration


def _truncated_add(grid, a, b):
    # smallest grid point at or above a+b; finite sums saturate at the
    # largest finite point so the grid stays closed under addition
    if a == math.inf or b == math.inf:
        return math.inf
    s = a + b
    finite = [g for g in grid if g != math.inf]
    for g in finite:
        if g >= s:
            return g
    return finite[-1]


def _oracle(pts):
    """Every truth table on the sorted grid tried: the lax ones, the number
    of monotone ones, and strictness of each lax one."""
    n = len(pts)

    def at(a, b):
        return pts.index(_truncated_add(pts, a, b))

    def is_lax(truth):
        if any(truth[i + 1] and not truth[i] for i in range(n - 1)) or not truth[0]:
            return False
        return all(
            truth[at(pts[i], pts[j])]
            for i in range(n) for j in range(n) if truth[i] and truth[j]
        )

    def is_strict(truth):
        return all(
            truth[i] and truth[j]
            for i in range(n) for j in range(n) if truth[at(pts[i], pts[j])]
        )

    lax, monotone = {}, 0
    for mask in range(1 << n):
        truth = tuple(bool(mask >> i & 1) for i in range(n))
        monotone += all(not (truth[i + 1] and not truth[i]) for i in range(n - 1))
        if is_lax(truth):
            lax[truth] = "strict" if is_strict(truth) else "lax"
    return lax, monotone


def _grids():
    rng = Random(37)
    for n in range(2, 11):
        for _ in range(3):
            mid = set()
            while len(mid) < n - 2:
                mid.add(rng.choice([rng.randint(1, 40), round(rng.uniform(0.001, 40), 3)]))
            yield C, [0, *mid, math.inf]
            mid = set(rng.sample(range(1, 60), n - 2))
            yield N, [0, *mid, math.inf]
    yield C, [0, 1e-300, 5e-324, 1e300, math.inf]
    yield C, [0, 0.1, 0.2, 0.3, 0.6, math.inf]


@pytest.mark.parametrize("q, grid", list(_grids()))
def test_classification_equals_the_enumeration(q, grid):
    result = classify_cost_to_bool(grid, q)
    pts = list(result.grid)
    lax, monotone = _oracle(pts)
    assert set(result.lax_true_sets) == set(lax)
    assert len(result.lax_true_sets) == len(lax)
    assert result.tables_total == 2 ** len(pts)
    assert result.tables_monotone == monotone
    for cls in result.classes:
        truth = tuple(g in cls.true_set for g in pts)
        assert cls.verdict == lax[truth] == cls.map.verdict


@pytest.mark.parametrize("n", [22, 40])
def test_large_grid_classifies_quickly(n):
    grid = [0, *range(1, n - 1), math.inf]
    start = time.perf_counter()
    result = classify_cost_to_bool(grid)
    assert time.perf_counter() - start < 1.0
    assert result.tables_total == 2 ** n and result.tables_monotone == n + 1
    assert [len(c.true_set) for c in result.classes] == [1, n - 1, n]
