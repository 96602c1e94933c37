"""The trace axioms of a traced symmetric monoidal category (Joyal,
Street and Verity, 1996), which series, parallel and trace satisfy over
every commutative quantale: interchange, vanishing, yanking, superposing,
tightening and sliding.

Each law is checked on 16 seeds of every family of wide_families(),
both sides composed with validation on.  The interfaces have one or two
objects, so every composite stays below OUTER_MIN_CELLS cells and is
checked by the one-broadcast bimodule check, never by the moved kernel.
Values agree exactly on exact carriers and within tol on float ones
(q.equal): the two sides join and multiply in another order.
"""

import random

import pytest

from qodesign import (
    build_problem,
    discrete_category,
    identity_problem,
    pair_name,
    parallel,
    series,
    tensor,
    trace,
)
from qodesign import _fastpath

from conftest import (
    random_category,
    random_problem,
    relabel_problem,
    symmetry_problem,
    wide_families,
)

SEEDS = range(16)


def _same_values(q, got, want):
    assert got.source.objects == want.source.objects
    assert got.target.objects == want.target.objects
    for g_row, w_row in zip(got.values, want.values):
        for g, w in zip(g_row, w_row):
            assert q.equal(g, w), (q.name, g, w)


def _cats(q, rng, k):
    return [random_category(q, rng, 1, 2) for _ in range(k)]


def _swap_last(x, y, z):
    """The bijection from (x (x) y) (x) z's objects to (x (x) z) (x) y's."""
    return {
        pair_name(pair_name(a, b), c): pair_name(pair_name(a, c), b)
        for a in x.objects for b in y.objects for c in z.objects
    }


def _interchange(q, rng):
    a, b, c, d, e, g = _cats(q, rng, 6)
    d1, d2 = random_problem(a, b, rng), random_problem(c, d, rng)
    e1, e2 = random_problem(b, e, rng), random_problem(d, g, rng)
    return series(parallel(d1, d2), parallel(e1, e2)), parallel(series(d1, e1), series(d2, e2))


def _vanishing(q, rng):
    # d reindexed over r (x) I and f (x) I, for the one-object unit I
    r, f = _cats(q, rng, 2)
    unit = discrete_category(q, ["i"])
    d = random_problem(r, f, rng)
    return trace(build_problem(tensor(r, unit), tensor(f, unit), d.values), unit), d


def _yanking(q, rng):
    (m,) = _cats(q, rng, 1)
    return trace(symmetry_problem(m, m), m), identity_problem(m)


def _superposing(q, rng):
    while True:  # the reassociations' (r s m)**2 and (f g m)**2 cells stay small
        r, f, s, g = _cats(q, rng, 4)
        if len(r.objects) * len(s.objects) < 4 and len(f.objects) * len(g.objects) < 4:
            break
    m = random_category(q, rng, 2, 2)
    d = random_problem(tensor(r, m), tensor(f, m), rng)
    e = random_problem(s, g, rng)
    into = relabel_problem(tensor(tensor(r, s), m), tensor(tensor(r, m), s), _swap_last(r, s, m))
    out = relabel_problem(tensor(tensor(f, m), g), tensor(tensor(f, g), m), _swap_last(f, m, g))
    return trace(series(series(into, parallel(d, e)), out), m), parallel(trace(d, m), e)


def _tightening(q, rng):
    r0, r, f, f1, m = _cats(q, rng, 5)
    a, b = random_problem(r0, r, rng), random_problem(f, f1, rng)
    d = random_problem(tensor(r, m), tensor(f, m), rng)
    ident = identity_problem(m)
    left = trace(series(series(parallel(a, ident), d), parallel(b, ident)), m)
    return left, series(series(a, trace(d, m)), b)


def _sliding(q, rng):
    r, f, m, n = _cats(q, rng, 4)
    d = random_problem(tensor(r, n), tensor(f, m), rng)
    g = random_problem(m, n, rng)
    left = trace(series(d, parallel(identity_problem(f), g)), n)
    return left, trace(series(parallel(identity_problem(r), g), d), m)


LAWS = {
    "interchange": _interchange,
    "vanishing": _vanishing,
    "yanking": _yanking,
    "superposing": _superposing,
    "tightening": _tightening,
    "sliding": _sliding,
}


@pytest.mark.parametrize("law", list(LAWS))
def test_trace_axioms_hold_on_every_carrier(law, monkeypatch):
    checks, dense = [], []
    for name, calls in (("bimodule_violation", checks), ("moved", dense)):
        original = getattr(_fastpath, name)
        monkeypatch.setattr(
            _fastpath, name, lambda *a, _f=original, _c=calls: _c.append(a) or _f(*a)
        )
    for name, mk in wide_families().items():
        q = mk()
        for seed in SEEDS:
            left, right = LAWS[law](q, random.Random(seed))
            _same_values(q, left, right)
    assert checks and dense == []
