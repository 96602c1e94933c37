"""Change of base on arrays: _push against the per-cell oracle, and the
change-of-base law for every builtin map."""

import math
from random import Random

import pytest

from qodesign import (
    CategoryError,
    CompositionError,
    QuantaleError,
    bool_quantale,
    build_category,
    build_problem,
    builtin_lax,
    cost_quantale,
    discrete_category,
    float_tol,
    fuzz_quantale,
    hetero_series,
    identity_problem,
    make_powerset,
    make_product,
    nat_grid_category,
    nat_quantale,
    pace_quantale,
    pair_elt,
    parallel,
    pushforward,
    pushforward_problem,
    series,
    tensor,
    trace,
)
from qodesign import _fastpath
from qodesign.categories import _push

from conftest import pushforward_cells, random_category, random_problem, wide_families
from test_array_problems import _exactly


def _table(q, tables):
    """A table map from q to bool over every element of a finite q, else
    over the values tables hold: unverified, so pushforward is forced."""
    keys = q.elements() if q.is_finite else {q.unit, *(v for t in tables for row in t for v in row)}
    entries = [(k, i % 2 == 0) for i, k in enumerate(keys)]
    return builtin_lax("table", q, bool_quantale(), entries=entries)


def _maps(q, tables):
    """The builtin maps that apply to q, a table map over tables' values."""
    b, c, n = bool_quantale(), cost_quantale(), nat_quantale()
    maps = [builtin_lax("identity", q, q), _table(q, tables)]
    if q.kind in ("cost", "nat"):
        maps += [builtin_lax(k, q, b) for k in ("cost_to_bool_finite", "cost_to_bool_free")]
        maps += [
            builtin_lax("cost_constant_true", q, b),
            builtin_lax("cost_leq_threshold", q, b, threshold=7.0),
            builtin_lax("scale", q, c, factor=2.5),
            builtin_lax("sqrt_cost", q, c, degree=2, scale=1.5),
        ]
        if q.kind == "nat":
            maps.append(builtin_lax("scale", q, q, factor=3))
    if q.kind == "bool":
        targets = [c, n, pace_quantale(), fuzz_quantale("goguen"), make_powerset("abc")]
        targets += [make_product((b, pace_quantale())), make_product((b, c))]
        targets.append(make_powerset([f"n{i}" for i in range(64)]))
        maps += [builtin_lax("bool_to_unit", q, t) for t in targets]
    if q.kind == "powerset":
        base = list(q.params["base"])
        pairs = make_powerset([pair_elt(a, x) for a in base for x in ("x", "y")])
        maps.append(builtin_lax("powerset_pad_right", q, pairs))
        pairs = make_powerset([pair_elt(x, a) for x in ("x", "y") for a in base])
        maps.append(builtin_lax("powerset_pad_left", q, pairs))
        maps.append(builtin_lax("powerset_nonempty", q, b))
    return maps


def _check_push(x, phi):
    """_push(x, phi) decodes to the oracle's payloads, type for type."""
    want = pushforward_cells(x, phi)
    want = getattr(want, "hom", want)
    arr, mode = _push(x, phi), _fastpath.mode_for(phi.target)
    assert arr.shape == (len(want), len(want[0]) if want else arr.shape[1])
    assert arr.dtype == _fastpath._ALGEBRA[mode].dtype
    _exactly(_fastpath.decode(phi.target, mode, arr), want)


def test_push_matches_the_per_cell_oracle_on_every_family(rng):
    for mk in wide_families().values():
        q = mk()
        for _ in range(3):
            a, b = random_category(q, rng, 0, 4), random_category(q, rng, 1, 3)
            d = random_problem(a, b, rng)
            for phi in _maps(q, (a.hom, b.hom, tensor(a, b).hom, d.values)):
                for x in (a, tensor(a, b), d):
                    _check_push(x, phi)
                if phi.kind == "identity":
                    continue
                pushed = pushforward(tensor(a, b), phi, force=True, validate=False)
                want = pushforward_cells(tensor(a, b), phi)
                _exactly(pushed.hom, want.hom)
                assert [f.objects for f in pushed.factors] == [a.objects, b.objects]
                assert "hom" in vars(pushed)
                _exactly(pushforward_problem(d, phi, force=True, validate=False).values, pushforward_cells(d, phi))


def test_push_keeps_signed_zero_infinity_and_huge_nats():
    c, b = cost_quantale(), bool_quantale()
    cat = build_category(c, "xyz", [[-0.0, 3.0, math.inf], [math.inf, 0.0, math.inf], [-0.0, 3.0, 0.0]])
    for phi in (
        builtin_lax("scale", c, c, factor=2.5),
        builtin_lax("sqrt_cost", c, c, degree=2),
        builtin_lax("cost_to_bool_free", c, b),
        builtin_lax("cost_to_bool_finite", c, b),
    ):
        _check_push(cat, phi)
        _exactly(pushforward(cat, phi).hom, pushforward_cells(cat, phi).hom)
    # images from 2**51 on are past float64's exact integers: nat's one
    # mode keeps them as Python ints
    n = nat_quantale()
    cat = nat_grid_category([0, 2**48, 2**50, 2**50 + 1])
    phi = builtin_lax("scale", n, n, factor=4)
    assert _fastpath.mode_for(n) == "nat" and _push(cat, phi).dtype == object
    assert max(v for row in pushforward(cat, phi).hom for v in row if v != math.inf) == 2**52 + 4
    _check_push(cat, phi)


def test_hetero_series_puts_mixed_nat_modes_on_the_object_row():
    # keep leaves d1 small, scale pushes d2 past 2**51: both operands of
    # the series run nat's one mode, exact as Python ints
    n = nat_quantale()
    r, m, f = (discrete_category(n, names) for names in ("ab", "xy", "uv"))
    d1 = build_problem(r, m, [[0, 1], [2, 3]])
    d2 = build_problem(m, f, [[2**50, 5], [1, 2**49 + 1]])
    keep, scale = builtin_lax("identity", n, n), builtin_lax("scale", n, n, factor=4)
    assert _push(d1, keep).dtype == _push(d2, scale).dtype == object
    got = hetero_series(d1, d2, keep, scale)
    pushed = pushforward_cells(d2, scale)
    want = [[min(a + b for a, b in zip(row, col)) for col in zip(*pushed)] for row in d1.values]
    _exactly(got.values, want)


def test_a_check_over_a_pushed_nat_tensor_reads_its_leaves_as_arrays():
    n = nat_quantale()
    p = pushforward(nat_grid_category([0, 2, 5]), builtin_lax("scale", n, n, factor=3))
    src = tensor(p, p)
    d = build_problem(src, nat_grid_category([0, 2, 5]), [[0] * 3] * 9)
    assert "hom" not in vars(p) and "hom" not in vars(src)
    assert d.values == ((0,) * 3,) * 9


def test_push_of_empty_tables():
    c, b = cost_quantale(), bool_quantale()
    phi = builtin_lax("cost_to_bool_finite", c, b)
    empty, one = build_category(c, [], []), build_category(c, ["x"], [[0.0]])
    assert pushforward(empty, phi).hom == () and _push(empty, phi).shape == (0, 0)
    d = build_problem(empty, one, [])
    pushed = pushforward_problem(d, phi)
    assert pushed.values == () and _push(d, phi).shape == (0, 1)


def test_table_map_missing_an_entry_fails_at_the_first_cell():
    # 7 comes first in row-major order and 2 first in sorted order: the map
    # must name 7, as a walk over the cells does
    c, b = cost_quantale(), bool_quantale()
    cat = build_category(c, "xy", [[0.0, 7.0], [2.0, 0.0]])
    phi = builtin_lax("table", c, b, entries=[(0.0, True), (math.inf, False)])
    with pytest.raises(QuantaleError) as want:
        pushforward_cells(cat, phi)
    with pytest.raises(QuantaleError) as got:
        pushforward(cat, phi, force=True)
    assert str(got.value) == str(want.value) and "7" in str(got.value)


def _law_maps():
    """(map, strict): every builtin map kind with a closed-form verdict."""
    b, c, n = bool_quantale(), cost_quantale(), nat_quantale()
    p, sab = make_powerset("pq"), make_powerset([pair_elt(a, x) for a in "pq" for x in "xy"])
    sba = make_powerset([pair_elt(x, a) for x in "xy" for a in "pq"])
    return [
        (builtin_lax("cost_to_bool_finite", c, b), False),
        (builtin_lax("cost_to_bool_free", c, b), False),
        (builtin_lax("cost_constant_true", c, b), False),
        (builtin_lax("cost_to_bool_finite", n, b), False),
        (builtin_lax("scale", c, c, factor=2.5), True),
        (builtin_lax("scale", n, n, factor=3), True),
        (builtin_lax("sqrt_cost", c, c, degree=2), False),
        (builtin_lax("sqrt_cost", n, c, degree=3), False),
        (builtin_lax("bool_to_unit", b, c), True),
        (builtin_lax("bool_to_unit", b, p), True),
        (builtin_lax("powerset_pad_right", p, sab), True),
        (builtin_lax("powerset_pad_left", p, sba), True),
    ]


def _below(phi, strict, got, want):
    q = phi.target
    holds = q.equal if strict else q.leq
    for g_row, w_row in zip(got.values, want.values):
        for g, w in zip(g_row, w_row):
            assert holds(g, w), (phi.name, g, w)


@pytest.mark.parametrize("phi,strict", _law_maps(), ids=lambda v: getattr(v, "name", ""))
def test_change_of_base_is_lax_functorial(phi, strict):
    """The series, parallel and trace of pushforwards are below the
    pushforward of the composite, and equal to it through a strict map.
    The random tables are far from the float tolerance."""
    rng, q = Random(hash(phi.name) & 0xFFFF), phi.source
    push = lambda d: pushforward_problem(d, phi)  # noqa: E731
    for _ in range(6):
        r, m, f = (random_category(q, rng, 1, 3) for _ in range(3))
        d1, d2 = random_problem(r, m, rng), random_problem(m, f, rng)
        _below(phi, strict, series(push(d1), push(d2)), push(series(d1, d2)))
        _below(phi, strict, parallel(push(d1), push(d2)), push(parallel(d1, d2)))
        d = random_problem(tensor(r, m), tensor(f, m), rng)
        _below(phi, strict, trace(push(d), pushforward(m, phi)), push(trace(d, m)))


def test_interfaces_compare_on_arrays_within_the_tolerance():
    c = cost_quantale()
    a = build_category(c, "xyz", [[0.0, 1.0, 2.0], [math.inf, 0.0, 1.0], [math.inf, math.inf, 0.0]])
    near = build_category(c, "xyz", [[0.0, 1.0 + 1e-12, 2.0], [math.inf, 0.0, 1.0], [math.inf, math.inf, 0.0]])
    far = build_category(c, "xyz", [[0.0, 1.0, 2.0], [9.0, 0.0, 1.5], [math.inf, math.inf, 0.0]])
    assert a.same_interface(near) and not a.same_interface(far)
    d = build_problem(a, a, [[0.0] * 3] * 3)
    assert series(d, build_problem(near, a, [[0.0] * 3] * 3)).source is a
    cases = [
        (far, "series interface: hom tables differ at ('y', 'x')"),
        (build_category(c, "xyw", a.hom), "series interface: object mismatch (3 vs 3 objects; first difference 'z')"),
        (build_category(c, "xy", [[0.0, 1.0], [math.inf, 0.0]]), "series interface: object mismatch (3 vs 2 objects; first difference 'z')"),
        (build_category(nat_quantale(), "xyz", [[0, 1, 2], [math.inf, 0, 1], [math.inf, math.inf, 0]]), "series interface: quantale mismatch (Cost vs Nat)"),
    ]
    for other, text in cases:
        with pytest.raises(CompositionError) as err:
            n = len(other.objects)
            series(d, build_problem(other, other, [[0.0] * n] * n))
        assert str(err.value) == text
    # a tensor interface is compared on its array, not on a built hom
    t = tensor(a, a)
    assert t.same_interface(tensor(a, near)) and "hom" not in vars(t)


def test_selection_pushes_arrays_and_decodes_nothing():
    from qodesign.casestudies import UavTaskSpec, uav_powerset_model

    doc = uav_powerset_model(UavTaskSpec.coarse())
    doc.compose("selection")
    for name in ("BudgetI", "ServedI", "WeightLoopI", "PayloadI"):
        assert "hom" not in vars(doc.categories[name]), name
    assert "values" not in vars(doc.problems["choose_served"])
    assert "values" not in vars(doc.compose("stage_loop"))


@pytest.mark.parametrize(
    "map_name,params,homs",
    [
        ("scale", dict(factor=3), (0.0, 0.0, None)),
        ("sqrt_cost", dict(degree=2), (0.0, 0.0, None)),
        ("cost_to_bool_free", {}, (6e-10, 6e-10, 1.2e-9)),
    ],
)
def test_certified_maps_break_categories_that_hold_within_tol(map_name, params, homs):
    """ROADMAP item 3, pinned as it behaves: a cost category whose x -> z
    hom is within tol of x -> y -> z validates, and a certified map that
    stretches small values, or thresholds at tol, breaks its pushforward.
    The failure is loud and names the map; None stands for float_tol()."""
    c = cost_quantale()
    target = bool_quantale() if map_name == "cost_to_bool_free" else c
    phi = builtin_lax(map_name, c, target, **params)
    assert phi.is_certified_lax
    xy, yz, xz = (float_tol() if h is None else h for h in homs)
    src = build_category(c, "xyz", [[0.0, xy, xz], [math.inf, 0.0, yz], [math.inf, math.inf, 0.0]])
    want = (
        "composition axiom fails on ('x', 'y', 'z'): hom('x','y') * hom('y','z') "
        f"not below hom('x','z') (pushforward through {phi.name})"
    )
    for push in (
        lambda: pushforward(src, phi),
        lambda: hetero_series(identity_problem(src), identity_problem(src), phi, phi),
    ):
        with pytest.raises(CategoryError) as err:
            push()
        assert str(err.value) == want
