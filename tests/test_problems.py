"""Design problems: validation, evaluation, and composition oracles."""

import itertools
import math
import operator
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qodesign import (
    CompositionError,
    DesignProblem,
    ProblemError,
    QValue,
    Quantale,
    bool_quantale,
    build_category,
    builtin_lax,
    build_problem,
    chain_category,
    check_bimodule,
    check_category_axioms,
    cost_quantale,
    discrete_category,
    evaluate,
    from_order,
    fuzz_quantale,
    identity_problem,
    make_powerset,
    make_product,
    nat_grid_category,
    nat_quantale,
    pace_quantale,
    pair_name,
    parallel,
    pareto_front,
    pushforward,
    series,
    series_breakdown,
    tensor,
    trace,
    upward_closure,
)

from conftest import (
    check_bimodule_via_hom,
    close_values,
    loop_axioms,
    loop_bimodule,
    oracle_parallel,
    oracle_series,
    oracle_trace,
    quantale_families,
    random_category,
    random_problem,
    random_raw_problem,
    validate_via_hom,
    wide_families,
)
from qodesign import _fastpath
from qodesign.categories import _generators, _leaves
from qodesign.quantales import broken_clone
from qodesign.values import float_tol

from test_array_problems import _exactly


def _same(q):
    """== on exact carriers, equality within tol on the float ones."""
    return q.equal if q.kind in ("cost", "fuzz") else operator.eq


def test_direct_and_hom_form_agree(rng):
    for name, mk in wide_families().items():
        q = mk()
        for _ in range(25):
            cr = random_category(q, rng)
            cf = random_category(q, rng)
            d = random_raw_problem(cr, cf, rng)
            direct = check_bimodule(d) is None
            assert check_bimodule(d) == loop_bimodule(d), name
            via_hom = validate_via_hom(d)
            assert direct == via_hom, name
            hom_witness = check_bimodule_via_hom(d)
            assert (hom_witness is None) == direct, name


def test_bimodule_witness_names_objects(rng):
    q = cost_quantale()
    cr = chain_category(q, ("r0", "r1"))
    cf = chain_category(q, ("f0", "f1"))
    # value drops when the functionality gets harder: not monotone
    bad = [[1.0, 0.0], [1.0, 0.0]]
    from qodesign import DesignProblem

    w = check_bimodule(DesignProblem(cr, cf, tuple(map(tuple, bad))))
    assert w is not None
    for obj in w:
        assert obj in ("r0", "r1", "f0", "f1")


def test_build_problem_rejects_invalid():
    q = cost_quantale()
    cr = chain_category(q, ("r0", "r1"))
    cf = chain_category(q, ("f0", "f1"))
    with pytest.raises(ProblemError):
        build_problem(cr, cf, [[1.0, 0.0], [1.0, 0.0]])


def test_series_matches_oracle(rng):
    # the last three rounds give the source, the interface and then the
    # target no objects
    for name, mk in wide_families().items():
        q = mk()
        same = _same(q)
        for k in range(18):
            a, b, c = (random_category(q, rng, *((0, 0) if k - 15 == i else (2, 5)))
                       for i in range(3))
            d1 = random_problem(a, b, rng)
            d2 = random_problem(b, c, rng)
            got = series(d1, d2)
            want = oracle_series(d1, d2)
            assert len(got.values) == len(a.objects), name
            for i, row in enumerate(want):
                assert len(got.values[i]) == len(row), name
                for j, v in enumerate(row):
                    assert same(got.values[i][j], v), name
            assert check_bimodule(got) is None


def test_series_associative(rng):
    for name, mk in quantale_families().items():
        q = mk()
        for _ in range(8):
            cats = [random_category(q, rng, 2, 3) for _ in range(4)]
            probs = [
                random_problem(cats[i], cats[i + 1], rng) for i in range(3)
            ]
            left = series(series(probs[0], probs[1]), probs[2])
            right = series(probs[0], series(probs[1], probs[2]))
            for r1, r2 in zip(left.values, right.values):
                for v1, v2 in zip(r1, r2):
                    assert q.equal(v1, v2), name


def test_identity_is_series_unit(rng):
    for name, mk in quantale_families().items():
        q = mk()
        cr = random_category(q, rng, 2, 4)
        cf = random_category(q, rng, 2, 4)
        d = random_problem(cr, cf, rng)
        left = series(identity_problem(cr), d)
        right = series(d, identity_problem(cf))
        for got in (left, right):
            for r1, r2 in zip(got.values, d.values):
                for v1, v2 in zip(r1, r2):
                    assert q.equal(v1, v2), name


def test_identity_problem_is_transposed_hom(rng):
    q = cost_quantale()
    c = random_category(q, rng, 2, 4)
    ident = identity_problem(c)
    n = len(c.objects)
    for r in range(n):
        for f in range(n):
            assert ident.values[r][f] == c.hom[f][r]


def test_series_needs_matching_interface():
    q = bool_quantale()
    a = chain_category(q, ("x", "y"))
    b = chain_category(q, ("m",))
    b2 = chain_category(q, ("mm",))
    d1 = build_problem(a, b, [[True], [True]])
    d2 = build_problem(b2, a, [[True, True]])
    with pytest.raises(CompositionError):
        series(d1, d2)


def test_series_empty_interface():
    q = cost_quantale()
    a = chain_category(q, ("r",))
    empty = build_category(q, (), [])
    c = chain_category(q, ("f",))
    d1 = build_problem(a, empty, [[]])
    d2 = build_problem(empty, c, [])
    got = series(d1, d2)
    assert got.values == ((math.inf,),)


def test_parallel_matches_oracle(rng):
    # Factors of 2-3 objects give 16-81 output cells, both sides of the
    # shared-decode floor; 4 objects give 256; the last rounds give one of
    # the four categories no objects.
    for name, mk in wide_families().items():
        q = mk()
        for lo, hi, reps in ((2, 3, 10), (4, 4, 1), (0, 0, 4)):
            for k in range(reps):
                a1, b1, a2, b2 = (random_category(q, rng, *((lo, hi) if lo or i == k else (2, 3)))
                                  for i in range(4))
                d1 = random_problem(a1, b1, rng)
                d2 = random_problem(a2, b2, rng)
                got = parallel(d1, d2)
                assert got.source.objects == tensor(a1, a2, validate=False).objects
                assert got.target.objects == tensor(b1, b2, validate=False).objects
                nf = len(got.target.objects)
                assert [len(row) for row in got.values] == [nf] * len(got.source.objects)
                for i1, r1 in enumerate(a1.objects):
                    for i2, r2 in enumerate(a2.objects):
                        for j1, f1 in enumerate(b1.objects):
                            for j2, f2 in enumerate(b2.objects):
                                want = q.mult(d1.values[i1][j1], d2.values[i2][j2])
                                got_v = got.value_payload(pair_name(r1, r2), pair_name(f1, f2))
                                assert got_v == want, name
                assert check_bimodule(got) is None


HUGE = 10**17  # float64 spacing here is 16


def test_nat_kernel_bound():
    # nat has one mode, whatever its values: exact min-plus on Python ints
    q = nat_quantale()
    assert _fastpath.mode_for(q) == "nat" and _fastpath._ALGEBRA["nat"].dtype is object
    arr = _fastpath.encode(q, "nat", [[2**51 - 1, math.inf], [2**51, 2**63]])
    assert arr.dtype == object and _fastpath.decode(q, "nat", arr) == [[2**51 - 1, math.inf], [2**51, 2**63]]
    assert type(arr[1, 1]) is int and q not in _fastpath._ALGEBRA
    assert _fastpath.mode_for(cost_quantale()) == "minplus"


def test_object_row_joins_two_values_in_one_call():
    # each cell of a 2x2 series over a 2-object interface folds two terms
    # onto bottom: two binary joins, where join((x, y)) made four
    bxc, calls = wide_families()["product_cost"](), []
    q = broken_clone(bxc, join2=lambda p, r: calls.append((p, r)) or bxc._join2(p, r))
    c = discrete_category(q, ["x", "y"])
    d = build_problem(c, c, [[q.unit, q.bottom], [q.bottom, q.unit]], validate=False)
    calls.clear()
    out = series(d, d, validate=False)
    assert _fastpath.mode_for(q) is q and len(calls) == 8
    assert out.values == d.values


def test_series_of_huge_nats_is_exact():
    q = nat_quantale()
    one = discrete_category(q, ["x"])
    d1 = build_problem(one, one, [[HUGE + 1]])
    d2 = build_problem(one, one, [[1]])
    assert series(d1, d2).values == ((HUGE + 2,),)


def test_parallel_of_huge_nats_is_exact():
    q = nat_quantale()
    c1 = nat_grid_category([0, 1, HUGE + 1], q)
    c2 = nat_grid_category([0, 1, 2], q)
    d1, d2 = identity_problem(c1), identity_problem(c2)
    got = parallel(d1, d2)  # 81 cells, above the element-loop floor
    for i, row in enumerate(got.values):
        for j, v in enumerate(row):
            assert v == d1.values[i // 3][j // 3] + d2.values[i % 3][j % 3]
    assert HUGE + 2 in {v for row in got.values for v in row}


def test_bimodule_check_of_huge_nats_is_exact():
    # Valid: hom(0, 1) + d(0) = 1 + (HUGE + 8) = d(1).  In float64 the
    # left side is 1e17 and d(1) is 1e17 + 16, a false violation.
    q = nat_quantale()
    d = build_problem(
        nat_grid_category([0, 1], q),
        discrete_category(q, ["f"]),
        [[HUGE + 8], [HUGE + 9]],
    )
    assert check_bimodule(d) is None
    bad = DesignProblem(d.source, d.target, ((HUGE + 8,), (HUGE + 10,)))
    assert check_bimodule(bad) == ("0", "1", "f", "f")


# nats around the limits of fixed-width numbers: 2**51 (three sums stay
# below 2**53), 2**53 (float64's last exact integer) and 2**63 (past int64)
NEAR_BOUNDS = (0, 1, 2, math.inf) + tuple(b + k for b in (2**51, 2**53, 2**63) for k in (-1, 0, 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_nats_near_the_float_bounds_equal_the_oracle(seed):
    q = replace(nat_quantale("NatNear"), _sample=lambda rng: rng.choice(NEAR_BOUNDS))
    rng = random.Random(seed)
    a, b, c = (random_category(q, rng, 1, 4) for _ in range(3))
    d1, d2, e = random_problem(a, b, rng), random_problem(b, c, rng), random_problem(c, a, rng)
    loop = random_category(q, rng, 1, 3)
    d = random_problem(tensor(a, loop), tensor(c, loop), rng)
    for got, want in (
        (series(d1, d2), oracle_series(d1, d2)),
        (parallel(d1, e), oracle_parallel(d1, e)),
        (trace(d, loop), oracle_trace(d, loop)),
    ):
        assert "values" not in vars(got)
        assert all(type(v) is int for row in want for v in row if v != math.inf)
        _exactly(got.values, want)
    for x in (d, _perturbed(q, d, rng)):
        assert check_bimodule(x) == loop_bimodule(x)
    hom = [list(row) for row in a.hom]
    hom[rng.randrange(len(hom))][rng.randrange(len(hom))] = q.sample(rng)
    for h in (a.hom, hom):
        assert check_category_axioms(q, a.objects, h) == loop_axioms(q, a.objects, h)


def test_nat_outputs_past_the_old_bound_keep_their_one_array():
    # 2**50 + 1 twice is past 2**51: the output and its check run nat's one
    # mode, so the output is held as the operator's array and not decoded
    q = nat_quantale()
    one = discrete_category(q, ["x"])
    d = build_problem(one, one, [[2**50 + 1]])
    for out in (series(d, d), parallel(d, d)):
        assert "values" not in vars(out) and out._array.dtype == object
        assert out._array.tolist() == [[2**51 + 2]] and type(out._array[0, 0]) is int


def _chain3():
    """A handwritten handle of no builtin kind: the chain 0 < 1 < 2 under min."""
    return Quantale(
        "Chain3", "chain3", unit=2, bottom=0, top=2, _leq=operator.le, _join2=max,
        _mult=min, _contains=lambda x: x in (0, 1, 2), _elements=(0, 1, 2),
    )


def test_kernels_add_no_key_to_a_handle():
    # the layout, the object row and the encoded unit are declared fields:
    # filling them keeps the instance dict's keys those of a fresh handle
    bxc = make_product((bool_quantale(), cost_quantale()), name="BxC")
    for q in (make_powerset("abc"), bxc, _chain3()):
        keys = list(vars(q))
        c = chain_category(q, ["x", "y", "z"])
        d = identity_problem(tensor(c, c))
        series(d, d)
        parallel(d, identity_problem(c))
        assert q._layout is not False and q._unit is not None, q
        assert (q._layout is None) == (q._object_row is not None), q
        assert list(vars(q)) == keys, q


def test_a_broken_clone_of_a_used_handle_runs_its_own_op():
    q = _chain3()
    c = chain_category(q, ["x", "y"])
    d = identity_problem(c)
    assert series(d, d).values == d.values and q._object_row is not None
    bad = broken_clone(q, mult=lambda p, r: 0)
    cb = build_category(bad, c.objects, c.hom, validate=False)
    db = build_problem(cb, cb, d.values, validate=False)
    assert series(db, db, validate=False).values == ((0, 0), (0, 0))


@pytest.mark.parametrize("n", [256, 512])
def test_bool_series_counts_past_a_byte(n):
    # n witnesses for the one output cell; a uint8 count wraps to 0
    q = bool_quantale()
    one = discrete_category(q, ["r"])
    names = [f"m{i}" for i in range(n)]
    # discrete, so valid; checking its axioms would cost an n**3 product
    mid = build_category(q, names, [[i == j for j in range(n)] for i in range(n)], validate=False)
    d1 = build_problem(one, mid, [[True] * n])
    d2 = build_problem(mid, one, [[True]] * n)
    assert series(d1, d2).values == ((True,),)


def test_bool_bimodule_check_counts_past_a_byte():
    # f0 lies below f1..f256, which r reaches and f0 does not: the cell
    # (r, f0) has 256 violating pairs (r, fi)
    q = bool_quantale()
    n = 257
    names = [f"f{i}" for i in range(n)]
    cf = build_category(q, names, [[i == j or i == 0 for j in range(n)] for i in range(n)])
    cr = discrete_category(q, ["r"])
    d = DesignProblem(cr, cf, ((False,) + (True,) * (n - 1),))
    assert loop_bimodule(d) == ("r", "r", "f1", "f0")
    assert check_bimodule(d) == ("r", "r", "f1", "f0")
    with pytest.raises(ProblemError):
        build_problem(cr, cf, d.values)


def _counting(monkeypatch, name):
    """Replace _fastpath.<name> by a wrapper; returns its list of calls."""
    original, calls = getattr(_fastpath, name), []

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(_fastpath, name, wrapper)
    return calls


def _perturbed(q, d, rng):
    """d with one random cell replaced by a random carrier value."""
    rows = [list(row) for row in d.values]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    rows[i][j] = q.sample(rng)
    return DesignProblem(d.source, d.target, tuple(map(tuple, rows)))


def _with_object_row():
    """quantale_families() and the bool x cost product, whose object row
    keeps a product on the moved kernel."""
    return dict(quantale_families(), product_cost=wide_families()["product_cost"])


def test_tensor_bimodule_check_names_the_loop_witness(rng, monkeypatch):
    # 9 x 8-12 objects, so 72-108 cells; the target nests a tensor in a
    # tensor.  Closed tables pass the edge-by-edge test; a perturbed cell
    # usually fails it and falls through to the moved kernel.  The bool x
    # cost product's object row has no edge test and runs the moved kernel.
    leaf_calls = _counting(monkeypatch, "edges_hold")
    dense_calls = _counting(monkeypatch, "moved")
    for name, mk in _with_object_row().items():
        q = mk()
        numeric = _fastpath.mode_for(q) in _fastpath._ALGEBRA
        for _ in range(3):
            src = tensor(random_category(q, rng, 3, 3), random_category(q, rng, 3, 3))
            inner = tensor(random_category(q, rng, 2, 2), random_category(q, rng, 2, 2))
            tgt = tensor(inner, random_category(q, rng, 2, 3))
            dense_calls.clear()
            d = random_problem(src, tgt, rng)
            if numeric:
                assert dense_calls == [], name  # the edge test accepts closed tables
            else:
                assert [args[0] for args in dense_calls] == [q], name
            for e in (d, _perturbed(q, d, rng), _perturbed(q, d, rng)):
                fresh = DesignProblem(
                    tensor(*src.factors, validate=False), tensor(inner, tgt.factors[1]), e.values
                )  # homs not yet built, as in a model
                want = loop_bimodule(e)
                assert check_bimodule(e) == want, name
                assert check_bimodule(fresh) == want, name
    assert leaf_calls


def test_tensor_checks_name_the_loop_witness_on_every_carrier(rng):
    # 6-9 x 6-12 objects, on both sides of OUTER_MIN_CELLS: factored on the
    # numeric modes, huge nats among them, from 64 cells on, whole
    # categories below and on the bool x cost product's object row
    for name, mk in wide_families().items():
        q = mk()
        for _ in range(2):
            src = tensor(random_category(q, rng, 2, 3), random_category(q, rng, 3, 3))
            tgt = tensor(random_category(q, rng, 2, 3), random_category(q, rng, 3, 4))
            d = random_problem(src, tgt, rng)
            for e in (d, _perturbed(q, d, rng), random_raw_problem(src, tgt, rng)):
                assert check_bimodule(e) == loop_bimodule(e), name


def test_pushed_tensor_is_checked_whole(rng):
    # phi(a + b) <= phi(a) + phi(b) for phi = sqrt, so the pushed tensor's
    # hom allows more moves than the tensor of the pushed factors: values
    # closed over the latter can break the pushed tensor's moves.
    qc = cost_quantale()
    phi = builtin_lax("sqrt_cost", qc, qc, degree=2)
    broken = 0
    for _ in range(30):
        t = tensor(random_category(qc, rng, 3, 3), random_category(qc, rng, 3, 3))
        src = pushforward(t, phi)
        tgt = tensor(random_category(qc, rng, 3, 3), random_category(qc, rng, 3, 3))
        raw = [[qc.sample(rng) for _ in tgt.objects] for _ in src.objects]
        values = close_values(tensor(*src.factors), tgt, raw)
        d = DesignProblem(src, tgt, tuple(map(tuple, values)))
        want = loop_bimodule(d)
        assert check_bimodule(d) == want
        broken += want is not None
    assert broken


def test_nat_tensor_past_the_exact_bound_runs_the_object_row(monkeypatch):
    # each factor stays below 2**51, their sum reaches it: the check runs
    # nat's one mode, on object arrays, as one below the old bound does
    q = nat_quantale()
    a = nat_grid_category([0, 2**50], q)
    b = nat_grid_category([0, 1, 2**50], q)
    src = tensor(a, b)
    tgt = tensor(nat_grid_category([0, 1, 2], q), nat_grid_category([0, 1, 2, 3], q))
    d = build_problem(src, tgt, [[0] * 12 for _ in range(6)], validate=False)
    kernels = [_counting(monkeypatch, k) for k in ("edges_hold", "moved")]
    assert check_bimodule(d) == loop_bimodule(d) is None
    assert [args[0] for args in kernels[0]] == ["nat"] and kernels[1] == []
    assert all(arr.dtype == object for arr in [kernels[0][0][1], *kernels[0][0][2]])
    assert type(src.hom[0][-1]) is int and src.hom[0][-1] == 2**51
    low = tensor(a, nat_grid_category([0, 1, 2**50 - 1], q))
    assert check_bimodule(DesignProblem(low, tgt, d.values)) is None
    assert [args[0] for args in kernels[0]] == ["nat"] * 2


def _steps(d, mode):
    """The generating edges of d's source and target leaves, as
    check_bimodule tests them: steps[k][a*, a] weighs a move of a to a*
    along axis k of the value array, bottom where there is no edge."""
    src, tgt = _leaves(d.source), _leaves(d.target)
    cells = len(d.source.objects) * len(d.target.objects)
    gens = [_generators(c, mode, cells) for c in src + tgt]
    steps = [g.T for g, _, _ in gens[: len(src)]] + [g for g, _, _ in gens[len(src) :]]
    return steps, float_tol() / max(1, sum(n for _, n, _ in gens))


def _failing_edges(d, mode):
    """(axis, a, a*) for each generating edge along which some cell of d
    breaks monotonicity, tested one edge at a time."""
    steps, tol = _steps(d, mode)
    alg = _fastpath._ALGEBRA[mode]
    v = _fastpath.encode(d.quantale, mode, d.values).reshape([len(s) for s in steps])
    out = []
    for k, step in enumerate(steps):
        for a_star, a in zip(*np.nonzero(step != alg.bottom)):
            moved = alg.mult(step[a_star, a], np.take(v, a, axis=k))
            if alg.above(moved, np.take(v, a_star, axis=k), tol).any():
                out.append((k, int(a), int(a_star)))
    return out


def _one_edge_broken(d, rng, tries=60):
    """d with one cell replaced so that exactly one generating edge fails,
    or None when no such cell turned up."""
    mode = _fastpath.mode_for(d.quantale)
    for _ in range(tries):
        e = _perturbed(d.quantale, d, rng)
        if len(_failing_edges(e, mode)) == 1:
            return e
    return None


def _chain_like(q, rng, n_min, n_max):
    n = rng.randint(n_min, n_max)
    if q.kind == "nat" and rng.random() < 0.5:
        return nat_grid_category(sorted(rng.sample(range(40), n)), q)
    return chain_category(q, [f"c{i}" for i in range(n)])


def test_edge_check_names_the_loop_witness_on_chains_and_grids(rng, monkeypatch):
    # 16-25 x 8-12 tables between tensors of chains (and nat grids): the
    # 4-5 object leaves are searched and presented by their n - 1 adjacent
    # edges.  Closed tables pass on the edges alone; a table where exactly
    # one edge fails leaves the verdict to the moved kernel and the witness
    # pass.  The bool x cost product's object row has no edge test: the
    # moved kernel runs.
    dense_calls = _counting(monkeypatch, "moved")
    for name, mk in _with_object_row().items():
        q = mk()
        mode = _fastpath.mode_for(q)
        broken = 0
        for _ in range(3):
            a, b = _chain_like(q, rng, 4, 5), _chain_like(q, rng, 4, 5)
            src = tensor(a, b)
            tags = ["u", "v", "w"][: rng.randint(2, 3)]
            tgt = tensor(_chain_like(q, rng, 4, 4), discrete_category(q, tags))
            dense_calls.clear()
            d = random_problem(src, tgt, rng)
            if mode not in _fastpath._ALGEBRA:
                assert name == "product_cost" and [args[0] for args in dense_calls] == [q]
                assert a._presentation is None
                e = _perturbed(q, d, rng)
                assert check_bimodule(e) == loop_bimodule(e), name
                continue
            assert dense_calls == [], name  # the edge test accepts closed tables
            assert a._presentation[1] == len(a.objects) - 1, name
            e = _one_edge_broken(d, rng)
            if e is not None:
                broken += 1
                want = loop_bimodule(e)
                assert want is not None and check_bimodule(e) == want, name
        assert broken or name == "product_cost", name


def test_preorders_with_ties_take_the_trivial_presentation(rng):
    # equivalent objects make every edge between them redundant through
    # the other, so the search finds no presentation; each off-diagonal
    # pair is then an edge of its own
    q = bool_quantale()
    for _ in range(10):
        objs = [f"o{i}" for i in range(5)]
        pairs = [("o0", "o1"), ("o1", "o0")]  # a tie
        pairs += [(rng.choice(objs), rng.choice(objs)) for _ in range(4)]
        c = from_order(q, objs, pairs)
        tgt = chain_category(q, [f"t{i}" for i in range(24)])
        raw = random_raw_problem(c, tgt, rng)
        for d in (raw, DesignProblem(c, tgt, tuple(map(tuple, close_values(c, tgt, raw.values))))):
            want = loop_bimodule(d)
            assert check_bimodule(d) == want
        g, longest, passes = c._presentation  # searched, then rejected
        assert longest == 1 and passes == 5
        assert (g == _fastpath.encode(q, "bool", c.hom)).all()


def test_edge_check_on_metrics_and_pushed_tensors(rng):
    # random cost metrics, and a tensor pushed through sqrt, whose hom is
    # not the tensor of its pushed factors: both are one leaf, checked on
    # the presentation of their own hom
    qc = cost_quantale()
    phi = builtin_lax("sqrt_cost", qc, qc, degree=2)
    verdicts = set()
    for _ in range(12):
        metric = random_category(qc, rng, 4, 4)
        pushed = pushforward(
            tensor(random_category(qc, rng, 2, 2), random_category(qc, rng, 2, 2)), phi
        )
        tgt = chain_category(qc, [f"t{i}" for i in range(16)])
        for src, closed_over in ((metric, metric), (pushed, tensor(*pushed.factors))):
            raw = [[qc.sample(rng) for _ in tgt.objects] for _ in src.objects]
            d = DesignProblem(src, tgt, tuple(map(tuple, close_values(closed_over, tgt, raw))))
            for e in (d, _perturbed(qc, d, rng)):
                want = loop_bimodule(e)
                assert check_bimodule(e) == want
                verdicts.add(want is None)
        assert metric._presentation is not None and pushed._presentation is not None
    assert verdicts == {True, False}


def test_a_large_leaf_skips_the_search(monkeypatch):
    # 40 objects: the search would cost 40**2 * 7 passes of cells, more
    # than a 120-cell table's dense check, so the trivial presentation
    # runs, at 40 passes, and is not kept; a table large enough searches
    # once.  Two trivial leaves take 40 + 40 passes, no fewer than the
    # dense check of a 40 x 40 table, which then runs alone.
    q = bool_quantale()
    closures, edges = _counting(monkeypatch, "closure"), _counting(monkeypatch, "edges_hold")
    dense = _counting(monkeypatch, "moved")
    c = chain_category(q, [f"c{i}" for i in range(40)])
    searched = lambda: [g for _, g in closures if len(g) == 40]
    small = build_problem(c, chain_category(q, ["a", "b", "c"]), [[True] * 3] * 40)
    assert searched() == [] and len(edges) == 1 and dense == [] and c._presentation is None
    identity_problem(c)
    assert len(edges) == 1 and len(dense) == 1
    wide = chain_category(q, [f"w{i}" for i in range(400)])
    build_problem(c, wide, [[True] * 400] * 40)
    assert len(searched()) == 1 and c._presentation[1] == 39
    assert check_bimodule(small) is None and len(searched()) == 1


def test_float_edges_share_the_tolerance_along_a_path():
    # costs creep up by 0.8 tol per step along both source chains: each
    # edge is within tol, but the move from (0,0) to (3,3) takes six of
    # them, 4.8 tol in all, so the edges are tested at a sixth of tol or
    # less and the moved kernel names the loop's witness
    q, tol = cost_quantale(), float_tol()
    chain = lambda: chain_category(q, ["a", "b", "c", "d"])
    src, tgt = tensor(chain(), chain()), chain()
    steps = np.add.outer(np.arange(4), np.arange(4)).reshape(16, 1)
    d = build_problem(src, tgt, 1.0 + 0.8 * tol * steps + np.zeros((1, 4)), validate=False)
    want = loop_bimodule(d)
    assert want is not None and check_bimodule(d) == want


# Between UavTaskSpec.coarse() and the full grids: LoopIn 870 x LoopOut 116.
MID_GRID = dict(
    velocity_grid=(1.5, 2.0, 2.5, 3.0),
    weight_grid=tuple(range(200, 3001, 100)),
    served_grid=(0, 250, 500, 750, 1000),
    payload_grid=(100, 900, 1700, 2500),
)


def _stage_without_its_last_cell(task):
    """The UAV powerset stage with its last nonzero cell cleared, as a
    fresh array-backed problem over the model's tensor categories."""
    from qodesign.casestudies import uav_powerset_model

    stage = uav_powerset_model(task).problems["stage"]
    arr = stage._array.copy()
    arr.flat[np.flatnonzero(arr)[-1]] = 0
    return build_problem(stage.source, stage.target, arr, validate=False)


def test_failing_stage_check_builds_no_tensor_hom():
    # one move breaks: the check joins the moves one leaf axis at a time
    # and names the witness in one pass, without any 870 x 870 or 116 x
    # 116 tensor hom
    from qodesign.casestudies import UavTaskSpec

    d = _stage_without_its_last_cell(UavTaskSpec(**MID_GRID))
    assert check_bimodule(d) == (
        "((60,1000),600)", "((240,1000),200)", "(2500,2700)", "(2500,2700)"
    )
    for c in (d.source, d.target):
        n = len(c.objects)
        assert "hom" not in vars(c)
        assert c._array is None or c._array.size < n * n
    with pytest.raises(ProblemError, match="bimodule"):
        build_problem(d.source, d.target, d._array)


def test_failing_tiny_stage_names_the_loop_witness():
    from qodesign.casestudies import UavTaskSpec

    d = _stage_without_its_last_cell(UavTaskSpec.tiny())
    want = loop_bimodule(d)
    assert want is not None and check_bimodule(d) == want


def test_tensors_with_an_empty_leaf_check_as_the_loop(rng):
    for name, mk in wide_families().items():
        q = mk()
        full = tensor(random_category(q, rng, 2, 3), random_category(q, rng, 2, 3))
        empty = tensor(random_category(q, rng, 2, 2), tensor(discrete_category(q, []), full))
        assert len(empty.objects) == 0 and check_category_axioms(q, (), ()) is None
        for src, tgt in ((empty, full), (full, empty), (empty, empty)):
            rows = [[q.bottom] * len(tgt.objects) for _ in src.objects]
            d = build_problem(src, tgt, rows)
            assert check_bimodule(d) is loop_bimodule(d) is None, name
            assert check_bimodule(parallel(d, random_problem(full, full, rng))) is None, name


@pytest.mark.parametrize("carrier", ["cost", "product_cost"])
@pytest.mark.parametrize(
    "a1, a2, b1, b2, dv, y",
    [
        (2.66577711609773, 0.47930337836454595, 2.5473285420637373, 1.14520364626788,
         1.319152803845109, 8.156765487639003),
        (1.32756527960813, 2.380371143545388, 1.9943006601582218, 0.35758193710705455,
         0.6071033936897996, 6.666922415108594),
    ],
    ids=["tie1", "tie2"],
)
def test_moves_that_break_tol_by_a_rounding_name_the_loop_witness(carrier, a1, a2, b1, b2, dv, y):
    # 2 x 2 tensors of two-object chains weighted a1, a2 and b1, b2: the
    # last row's first cell is raised to y, within one rounding of tol
    # above the cheapest move into it.  The loop's terms round that move
    # below y - tol; the moves joined axis by axis round it no lower.
    q = wide_families()[carrier]()
    lift = (lambda c: c) if carrier == "cost" else (lambda c: (c != math.inf, c))
    leaf = lambda w, names: build_category(
        q, names, [[lift(0.0), lift(w)], [lift(math.inf), lift(0.0)]], validate=False
    )
    src = tensor(leaf(a1, "pq"), leaf(a2, "st"), validate=False)
    tgt = tensor(leaf(b1, "uv"), leaf(b2, "wx"), validate=False)
    raw = [[lift(math.inf)] * 4 for _ in range(4)]
    raw[0][3] = lift(dv)
    rows = close_values(src, tgt, raw)
    rows[3][0] = lift(y)
    d = DesignProblem(src, tgt, tuple(map(tuple, rows)))
    want = loop_bimodule(d)
    assert want is not None and check_bimodule(d) == want


@pytest.mark.parametrize("cells", [16, 64])
@pytest.mark.parametrize(
    "tnorm, a1, a2, b1, b2, dv, y",
    [
        ("lukasiewicz", 0.9038235996659274, 0.999987375926162, 0.36611422394083,
         0.9340016559819649, 0.9044166529208246, 0.10834350743570895),
        ("lukasiewicz", 0.9084289612569982, 0.9709235150352842, 0.2302898603288131,
         0.9729721775348101, 0.9628623154442675, 0.045476828600173075),
        ("goguen", 0.990502042237168, 0.6186330722471025, 0.9433873836194718,
         0.7158437145326705, 0.5721275416787188, 0.23674981152392469),
        ("goguen", 0.8106324188396222, 0.9734499220229706, 0.7735237747029943,
         0.9486971711957617, 0.9130776259076105, 0.5287453426541742),
    ],
    ids=["luk1", "luk2", "goguen1", "goguen2"],
)
def test_fuzz_moves_that_break_tol_by_a_rounding_name_the_loop_witness(
    tnorm, a1, a2, b1, b2, dv, y, cells
):
    # the cost ties above on two-object fuzz chains, whose t-norms round by
    # the order of their operands: the loop's terms put a move into the
    # raised cell above y + tol, the moves joined one axis at a time put
    # it no higher.  A discrete target leaf of cells // 16 objects takes
    # the table to OUTER_MIN_CELLS: one broadcast checks 16 cells, the
    # moved kernel 64.
    q = fuzz_quantale(tnorm)
    leaf = lambda w, names: build_category(q, names, [[1.0, w], [0.0, 1.0]], validate=False)
    k = cells // 16
    src = tensor(leaf(a1, "pq"), leaf(a2, "st"), validate=False)
    tgt = tensor(tensor(leaf(b1, "uv"), leaf(b2, "wx")), discrete_category(q, range(k)))
    raw = [[0.0] * (4 * k) for _ in range(4)]
    raw[0][3 * k] = dv
    rows = close_values(src, tgt, raw)
    rows[3][0] = y
    d = DesignProblem(src, tgt, tuple(map(tuple, rows)))
    want = loop_bimodule(d)
    assert want is not None and check_bimodule(d) == want


def test_checks_name_the_loop_witness_on_both_sides_of_the_broadcast_bound(rng, monkeypatch):
    # 7 x 9 = 63 cells are checked in one broadcast, 8 x 8 = 64 on the
    # edges and by the moved kernel; homs of 7 objects, 49 cells, test
    # composition in one broadcast, of 8 objects by a product
    small, products = _counting(monkeypatch, "bimodule_violation"), _counting(monkeypatch, "_product")
    for name, mk in wide_families().items():
        q = mk()
        for nr, nf in ((7, 9), (8, 8)):
            d = random_problem(random_category(q, rng, nr, nr), random_category(q, rng, nf, nf), rng)
            small.clear()
            for e in (d, _perturbed(q, d, rng), random_raw_problem(d.source, d.target, rng)):
                assert check_bimodule(e) == loop_bimodule(e), (name, nr, nf)
            assert (small != []) == (nr * nf < _fastpath.OUTER_MIN_CELLS), name
        for n in (7, 8):
            objs, hom = [f"x{i}" for i in range(n)], [list(row) for row in random_category(q, rng, n, n).hom]
            for _ in range(3):
                products.clear()
                assert check_category_axioms(q, objs, hom) == loop_axioms(q, objs, hom), (name, n)
                assert products == [] or n == 8, name
                hom[rng.randrange(n)][rng.randrange(n)] = q.sample(rng)


def _near_the_tolerance(q):
    """Payloads where rounding and the tolerance meet: for costs, 0, inf,
    subnormals and multiples of a quarter of tol; for the Lukasiewicz
    t-norm, the clamps 0 and 1 and values within a few tol of them."""
    tol = float_tol()
    if q.kind == "cost":
        return st.one_of(
            st.sampled_from([0.0, math.inf]),
            st.floats(0.0, 2.2250738585072014e-308),
            st.integers(0, 12).map(lambda k: k * tol / 4),
            st.floats(0.0, 3 * tol),
        )
    return st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.floats(0.0, 3 * tol),
        st.floats(1.0 - 3 * tol, 1.0),
        st.integers(0, 12).map(lambda k: 1.0 - k * tol / 4),
    )


def _drawn_category(q, data, values, n):
    """A category on n objects: drawn homs with a unit diagonal, closed
    as conftest.random_category closes them, and not validated."""
    hom = [[q.unit if i == j else data.draw(values) for j in range(n)] for i in range(n)]
    for k, i, j in itertools.product(range(n), repeat=3):
        hom[i][j] = q.join([hom[i][j], q.mult(hom[i][k], hom[k][j])])
    return build_category(q, [f"x{i}" for i in range(n)], hom, validate=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), kind=st.sampled_from(["cost", "fuzz_lukasiewicz"]))
def test_checks_name_the_loop_witness_near_the_tolerance(data, kind):
    # tensors of 2-3 object leaves, so 16-81 cells: the moves are joined
    # one axis at a time, in another order than the loop's products
    q = quantale_families()[kind]()
    values = _near_the_tolerance(q)
    sizes = st.integers(2, 3)
    leaf = lambda: _drawn_category(q, data, values, data.draw(sizes))
    src, tgt = tensor(leaf(), leaf(), validate=False), tensor(leaf(), leaf(), validate=False)
    raw = [[data.draw(values) for _ in tgt.objects] for _ in src.objects]
    if data.draw(st.booleans()):
        raw = close_values(src, tgt, raw)
        i, j = data.draw(st.integers(0, len(raw) - 1)), data.draw(st.integers(0, len(raw[0]) - 1))
        raw[i][j] = data.draw(values)
    d = DesignProblem(src, tgt, tuple(map(tuple, raw)))
    assert check_bimodule(d) == loop_bimodule(d)
    n = data.draw(sizes)
    hom = [[data.draw(values) for _ in range(n)] for _ in range(n)]
    objs = [f"x{i}" for i in range(n)]
    assert check_category_axioms(q, objs, hom) == loop_axioms(q, objs, hom)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    data=st.data(),
    kind=st.sampled_from(["cost", "fuzz_lukasiewicz", "fuzz_goguen"]),
    shape=st.sampled_from([(7, 9), (8, 8)]),
)
def test_checks_name_the_loop_witness_near_the_tolerance_at_the_broadcast_bound(data, kind, shape):
    # 63 cells checked in one broadcast, 64 by the moved kernel, and homs
    # of 7 and 8 objects, drawn where rounding and the tolerance meet
    q = quantale_families()[kind]()
    values = _near_the_tolerance(q)
    src, tgt = (_drawn_category(q, data, values, n) for n in shape)
    raw = [[data.draw(values) for _ in tgt.objects] for _ in src.objects]
    if data.draw(st.booleans()):
        raw = close_values(src, tgt, raw)
        i, j = data.draw(st.integers(0, len(raw) - 1)), data.draw(st.integers(0, len(raw[0]) - 1))
        raw[i][j] = data.draw(values)
    d = DesignProblem(src, tgt, tuple(map(tuple, raw)))
    assert check_bimodule(d) == loop_bimodule(d)
    for c in (src, tgt):
        hom = [list(row) for row in c.hom]
        hom[data.draw(st.integers(0, len(hom) - 1))][data.draw(st.integers(0, len(hom) - 1))] = (
            data.draw(values)
        )
        assert check_category_axioms(q, c.objects, hom) == loop_axioms(q, c.objects, hom)


def _traceable(q, rng):
    loop = random_category(q, rng, 2, 3)
    src = tensor(random_category(q, rng, 2, 3), loop)
    tgt = tensor(random_category(q, rng, 2, 3), loop)
    return random_problem(src, tgt, rng), loop


def test_problem_values_are_encoded_once(rng, monkeypatch):
    # payload rows are encoded once, at the door (categories._rows_array):
    # the checks and traces of the problem encode nothing and keep its array
    q = cost_quantale()
    d, loop = _traceable(q, rng)  # build_problem checks d once
    arr, calls = d._array, _counting(monkeypatch, "encode")
    for _ in range(2):
        assert check_bimodule(d) is None
        trace(d, loop)
    assert calls == [] and d._array is arr and "values" not in vars(d)
    monkeypatch.undo()
    assert np.array_equal(arr, _fastpath.encode(q, _fastpath.mode_for(q), d.values))


def test_outputs_keep_the_arrays_they_decoded(rng):
    for name, mk in quantale_families().items():
        q = mk()
        d, loop = _traceable(q, rng)
        e = random_problem(random_category(q, rng, 2, 2), random_category(q, rng, 2, 2), rng)
        for out in (trace(d, loop), series(d, identity_problem(d.target)), parallel(d, e)):
            arr = out._array
            fresh = _fastpath.encode(q, _fastpath.mode_for(q), out.values)
            assert arr.dtype == fresh.dtype and np.array_equal(arr, fresh), name


def test_trace_matches_oracle(rng):
    # the last round closes an empty loop: every output cell is bottom
    for name, mk in wide_families().items():
        q = mk()
        same = _same(q)
        for k in range(11):
            r_cat = random_category(q, rng, 2, 3)
            f_cat = random_category(q, rng, 2, 3)
            loop = random_category(q, rng, *((0, 0) if k == 10 else (2, 3)))
            src = tensor(r_cat, loop)
            tgt = tensor(f_cat, loop)
            d = random_problem(src, tgt, rng)
            got = trace(d, loop)
            want = oracle_trace(d, loop)
            assert got.source.objects == r_cat.objects
            assert got.target.objects == f_cat.objects
            for i, row in enumerate(want):
                for j, v in enumerate(row):
                    assert same(got.values[i][j], v), name
            assert check_bimodule(got) is None


def test_trace_requires_tensor_shape(rng):
    q = cost_quantale()
    a = random_category(q, rng, 2, 3)
    b = random_category(q, rng, 2, 3)
    d = random_problem(a, b, rng)
    with pytest.raises(CompositionError):
        trace(d, b)


def test_trace_loop_mismatch(rng):
    q = bool_quantale()
    r_cat = chain_category(q, ("r",))
    loop = chain_category(q, ("m1", "m2"))
    other = discrete_category(q, ("m1", "m2"))
    src = tensor(r_cat, loop)
    tgt = tensor(r_cat, loop)
    d = random_problem(src, tgt, rng)
    with pytest.raises(CompositionError):
        trace(d, other)


def test_series_breakdown_joins_to_composite(rng):
    for name, mk in wide_families().items():
        q = mk()
        a = random_category(q, rng, 2, 3)
        b = random_category(q, rng, 2, 3)
        c = random_category(q, rng, 2, 3)
        d1 = random_problem(a, b, rng)
        d2 = random_problem(b, c, rng)
        composite = series(d1, d2)
        r, f = a.objects[0], c.objects[-1]
        terms, joined = series_breakdown(d1, d2, r, f)
        assert [m for m, _ in terms] == list(b.objects)
        # each term is the payload product, type for type
        want = [q.mult(d1.values[0][k], d2.values[k][-1]) for k in range(len(b.objects))]
        assert [(type(v), v) for _, v in terms] == [(type(v), v) for v in want], name
        assert q.equal(joined, composite.value_payload(r, f))
        assert q.equal(joined, q.join(v for _, v in terms))


def test_evaluate_returns_tagged_value(rng):
    q = cost_quantale()
    a = random_category(q, rng, 2, 3)
    b = random_category(q, rng, 2, 3)
    d = random_problem(a, b, rng)
    v = evaluate(d, a.objects[0], b.objects[0])
    assert isinstance(v, QValue)
    assert v.quantale == q.name
    assert v.payload == d.values[0][0]


def oracle_pareto(d, f):
    src = d.source
    feasible = [r for r in src.objects if d.value_payload(r, f)]
    out = []
    for r in feasible:
        strictly_below = any(
            r2 != r
            and src.leq_objects(r2, r)
            and not src.leq_objects(r, r2)
            for r2 in feasible
        )
        if strictly_below:
            continue
        first_equiv = min(
            (
                r2
                for r2 in feasible
                if src.leq_objects(r2, r) and src.leq_objects(r, r2)
            ),
            key=src.index,
        )
        if first_equiv == r:
            out.append(r)
    return tuple(out)


def test_pareto_front_matches_oracle(rng):
    q = bool_quantale()
    for _ in range(30):
        cr = random_category(q, rng, 2, 6)
        cf = random_category(q, rng, 1, 3)
        d = random_problem(cr, cf, rng)
        for f in cf.objects:
            assert pareto_front(d, f) == oracle_pareto(d, f)


def test_pareto_front_requires_bool():
    q = cost_quantale()
    cr = chain_category(q, ("a",))
    cf = chain_category(q, ("b",))
    d = build_problem(cr, cf, [[1.0]])
    with pytest.raises(ProblemError):
        pareto_front(d, "b")


def test_upward_closure():
    q = bool_quantale()
    c = chain_category(q, ("a", "b", "c"))
    assert upward_closure(c, ("b",)) == ("b", "c")
    assert upward_closure(c, ()) == ()
    assert upward_closure(c, ("a",)) == ("a", "b", "c")
    # payload truthiness is no order: a cost chain's bottom, inf, is truthy
    for q in (cost_quantale(), pace_quantale()):
        with pytest.raises(ProblemError):
            upward_closure(chain_category(q, ("a", "b", "c")), ("b",))
