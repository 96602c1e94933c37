"""Bit layouts: products of bool, pace and powersets, and powersets of any
width, run the bitset kernels on their codes.  Every result must equal
the carrier's own operations exactly, and every check the element loop,
in verdict and witness."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qodesign import (
    DesignProblem,
    bool_quantale,
    build_category,
    check_bimodule,
    check_category_axioms,
    make_powerset,
    make_product,
    pace_quantale,
    parallel,
    series,
    tensor,
    trace,
)
from qodesign import _fastpath

from conftest import (
    loop_axioms,
    loop_bimodule,
    oracle_parallel,
    oracle_series,
    oracle_trace,
    random_category,
    random_problem,
)


def _powerset(n):
    return lambda: make_powerset([f"n{i}" for i in range(n)])


LAYOUTS = {
    "BxP": lambda: make_product((bool_quantale(), pace_quantale()), name="BxP"),
    "nested": lambda: make_product(
        (bool_quantale(), make_product((make_powerset("abc"), pace_quantale())))
    ),
    **{f"powerset{n}": _powerset(n) for n in (63, 64, 65, 130)},
}
MODES = {"BxP": "bits", "nested": "bits", "powerset63": "bits"}  # the rest: wide

layouts = st.sampled_from(sorted(LAYOUTS))
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _payloads(q):
    """A strategy for q's payloads, built from its factors."""
    if q.kind == "product":
        return st.tuples(*map(_payloads, q.params["factors"]))
    if q.kind == "powerset":
        return st.frozensets(st.sampled_from(q.params["base"]))
    return st.sampled_from(q.elements())


def _exact(got, want):
    """Equal, and of the same type all the way into product tuples."""
    if type(got) is not type(want):
        return False
    if isinstance(got, tuple):
        return len(got) == len(want) and all(map(_exact, got, want))
    return got == want


def _exact_rows(got, want):
    return len(got) == len(want) and all(
        len(g) == len(w) and all(map(_exact, g, w)) for g, w in zip(got, want)
    )


def _perturbed(q, rows, rng):
    """rows with one random cell replaced by a random payload."""
    rows = [list(row) for row in rows]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    rows[i][j] = q.sample(rng)
    return tuple(map(tuple, rows))


def test_layouts_choose_the_bitset_modes():
    for name, mk in LAYOUTS.items():
        q = mk()
        mode = _fastpath.mode_for(q)
        assert mode == MODES.get(name, "wide"), name
        assert _fastpath._ALGEBRA[mode].dtype is (np.uint64 if mode == "bits" else object)


@settings(max_examples=60, deadline=None)
@given(name=layouts, data=st.data())
def test_codes_round_trip_exactly(name, data):
    q = LAYOUTS[name]()
    mode = _fastpath.mode_for(q)
    n, m = data.draw(st.integers(1, 9)), data.draw(st.integers(0, 9))
    row = st.lists(_payloads(q), min_size=m, max_size=m)
    rows = data.draw(st.lists(row, min_size=n, max_size=n))
    arr = _fastpath.encode(q, mode, rows)
    assert arr.shape == (n, m) and not _fastpath.outside(q, mode, arr).any()
    assert _exact_rows(_fastpath.decode(q, mode, arr), rows)
    assert _exact_rows(_fastpath.decode_shared(q, mode, arr), rows)


@settings(max_examples=25, deadline=None)
@given(name=layouts, seed=seeds)
def test_operators_equal_the_oracle(name, seed):
    q, rng = LAYOUTS[name](), random.Random(seed)
    a, b, c = (random_category(q, rng, 1, 4) for _ in range(3))
    d1, d2 = random_problem(a, b, rng), random_problem(b, c, rng)
    assert _exact_rows(series(d1, d2).values, oracle_series(d1, d2)), name
    e = random_problem(c, a, rng)
    assert _exact_rows(parallel(d1, e).values, oracle_parallel(d1, e)), name
    loop = random_category(q, rng, 1, 3)
    d = random_problem(tensor(a, loop), tensor(c, loop), rng)
    assert _exact_rows(trace(d, loop).values, oracle_trace(d, loop)), name


@settings(max_examples=25, deadline=None)
@given(name=layouts, seed=seeds)
def test_checks_name_the_loop_witness(name, seed):
    # 36-144 cells between tensors, so the bimodule check tries the edge
    # test from 64 cells on; one perturbed cell usually breaks the table
    q, rng = LAYOUTS[name](), random.Random(seed)
    src = tensor(random_category(q, rng, 2, 3), random_category(q, rng, 2, 3))
    tgt = tensor(random_category(q, rng, 2, 3), random_category(q, rng, 3, 4))
    d = random_problem(src, tgt, rng)
    for values in (d.values, _perturbed(q, d.values, rng)):
        e = DesignProblem(tensor(*src.factors), tensor(*tgt.factors), values)
        assert check_bimodule(e) == loop_bimodule(e), name
    for hom in (src.hom, _perturbed(q, src.hom, rng)):
        cat = build_category(q, src.objects, hom, validate=False)
        want = loop_axioms(q, cat.objects, cat.hom)
        assert check_category_axioms(q, cat.objects, cat.hom) == want, name


@pytest.mark.parametrize("name", ["BxP", "nested"])
def test_outside_flags_every_code_that_is_no_element(name):
    # BxP: bool at bit 0, pace at bits 1-3; nested: bool at bit 0, the
    # powerset at bits 1-3, pace at bits 4-6.  One bit past the layout
    # is enough to test.
    q = LAYOUTS[name]()
    mode = _fastpath.mode_for(q)
    valid = set(_fastpath.encode(q, mode, [q.elements()]).ravel().tolist())
    width = _fastpath._layout(q).width
    codes = np.arange(2 ** (width + 1), dtype=np.uint64)[None, :]
    flagged = _fastpath.outside(q, mode, codes).ravel().tolist()
    assert flagged == [c not in valid for c in range(2 ** (width + 1))]
    pace = width - 3  # the pace field is last in both
    assert flagged[0b010 << pace] and flagged[0b101 << pace] and flagged[1 << width]
    assert not flagged[0b011 << pace]


@pytest.mark.parametrize("n", [63, 64, 65, 130])
def test_outside_flags_bits_past_a_powerset(n):
    q = LAYOUTS[f"powerset{n}"]()
    mode = _fastpath.mode_for(q)
    arr = _fastpath.encode(q, mode, [[q.bottom, q.unit]])
    past = np.array([[1 << n, (1 << n) | 1]], dtype=arr.dtype)
    assert _fastpath.outside(q, mode, arr).tolist() == [[False, False]]
    assert _fastpath.outside(q, mode, past).tolist() == [[True, True]]


def test_codes_follow_the_factor_order():
    # every pair of elements: code order is the carrier's order, and AND
    # and OR are its mult and join
    q = LAYOUTS["BxP"]()
    layout = _fastpath._layout(q)
    for x, y in itertools.product(q.elements(), repeat=2):
        cx, cy = layout.code(x), layout.code(y)
        assert q.leq(x, y) == (cx & ~cy == 0)
        assert layout.payload(cx & cy) == q.mult(x, y)
        assert layout.payload(cx | cy) == q.join2(x, y)
