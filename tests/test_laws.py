"""Property tests: quantale laws under randomized elements."""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from qodesign import (
    bool_quantale,
    cost_quantale,
    fuzz_quantale,
    make_powerset,
    nat_quantale,
)
from qodesign import _fastpath

costs = st.one_of(
    st.just(math.inf),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
nats = st.one_of(st.just(math.inf), st.integers(min_value=0, max_value=10**6))
units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
subsets = st.frozensets(st.sampled_from("abcd"))

Q_COST = cost_quantale()
Q_NAT = nat_quantale()
Q_POW = make_powerset("abcd")
FUZZ = {t: fuzz_quantale(t) for t in ("godel", "goguen", "lukasiewicz")}


@settings(max_examples=200, deadline=None)
@given(a=costs, b=costs, c=costs)
def test_cost_mult_associative_commutative(a, b, c):
    q = Q_COST
    assert q.equal(q.mult(q.mult(a, b), c), q.mult(a, q.mult(b, c)))
    assert q.equal(q.mult(a, b), q.mult(b, a))


@settings(max_examples=200, deadline=None)
@given(a=costs, b=costs, c=costs)
def test_cost_distributes_over_join(a, b, c):
    q = Q_COST
    assert q.equal(
        q.mult(a, q.join([b, c])), q.join([q.mult(a, b), q.mult(a, c)])
    )


@settings(max_examples=200, deadline=None)
@given(a=costs, b=costs, c=costs)
def test_cost_hom_adjunction(a, b, c):
    q = Q_COST
    assert q.leq(q.mult(a, b), c) == q.leq(b, q.hom(a, c))


@settings(max_examples=200, deadline=None)
@given(a=nats, b=nats, c=nats)
def test_nat_laws(a, b, c):
    q = Q_NAT
    assert q.equal(q.mult(q.mult(a, b), c), q.mult(a, q.mult(b, c)))
    assert q.equal(q.mult(a, q.unit), a)
    assert q.leq(q.mult(a, b), c) == q.leq(b, q.hom(a, c))


@settings(max_examples=150, deadline=None)
@given(
    tnorm=st.sampled_from(("godel", "goguen", "lukasiewicz")),
    a=units,
    b=units,
    c=units,
)
# a * b = 1e-10 is below 0.0 within the tolerance, so b must be below [a, 0.0]
@example(tnorm="goguen", a=1e-5, b=1e-5, c=0.0)
# a + b - 1 rounds a * b to 1.0000000827e-9, not below c within the tolerance
@example(tnorm="lukasiewicz", a=1e-9, b=1.0, c=2.4e-19)
def test_fuzz_laws(tnorm, a, b, c):
    q = FUZZ[tnorm]
    kernel_mult = _fastpath._ALGEBRA[_fastpath.mode_for(q)].mult
    assert kernel_mult(np.float64(a), np.float64(b)) == q.mult(a, b)  # bit for bit
    assert q.leq(q.mult(a, b), a)  # integral: unit is top
    ab_c = q.mult(q.mult(a, b), c)
    a_bc = q.mult(a, q.mult(b, c))
    assert abs(ab_c - a_bc) < 1e-9
    assert q.leq(q.mult(a, b), c) == q.leq(b, q.hom(a, c))


@settings(max_examples=150, deadline=None)
@given(a=subsets, b=subsets, c=subsets)
def test_powerset_laws(a, b, c):
    q = Q_POW
    assert q.mult(a, q.unit) == a
    assert q.mult(a, q.join([b, c])) == q.join([q.mult(a, b), q.mult(a, c)])
    assert q.leq(q.mult(a, b), c) == q.leq(b, q.hom(a, c))


@settings(max_examples=50, deadline=None)
@given(a=st.booleans(), b=st.booleans(), c=st.booleans())
def test_bool_laws(a, b, c):
    q = bool_quantale()
    assert q.mult(a, b) == (a and b)
    assert q.hom(a, c) == ((not a) or c)
    assert q.leq(q.mult(a, b), c) == q.leq(b, q.hom(a, c))


@settings(max_examples=100, deadline=None)
@given(a=costs, values=st.lists(costs, max_size=6))
def test_cost_join_is_least_upper_bound(a, values):
    q = Q_COST
    j = q.join(values)
    for v in values:
        assert q.leq(v, j)
    # anything above every element is above the join
    if all(q.leq(v, a) for v in values):
        assert q.leq(j, a)
