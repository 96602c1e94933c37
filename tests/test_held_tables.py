"""Held tables as values: a category or a problem holds one C-contiguous,
read-only array, and ==, !=, in and hash read it, or a tensor's factors,
without decoding.  == is exact: it gives the answers of tuple equality of
the decoded tables, the oracle below."""

import math

import numpy as np
import pytest

from qodesign import (
    DesignProblem,
    QCategory,
    build_category,
    build_problem,
    chain_category,
    cost_quantale,
    identity_problem,
    load_model,
    tensor,
)
from qodesign import _fastpath
from qodesign.categories import _hom_array

from conftest import MID_GRID, random_category, random_problem, wide_families
from test_model_io import MODELS_DIR

SHIPPED = ("tracking", "tracking_bool", "uav_cost", "uav_powerset")


def _decoded_equal(a, b) -> bool:
    """Tuple equality of the decoded tables: (quantale, objects, hom) for a
    category, (source, target, values) for a problem."""
    if type(a) is not type(b):
        return False
    if isinstance(a, DesignProblem):
        same_ends = _decoded_equal(a.source, b.source) and _decoded_equal(a.target, b.target)
        return same_ends and a.values == b.values
    return a.quantale is b.quantale and a.objects == b.objects and a.hom == b.hom


def _tables(doc) -> list:
    """Every category and problem doc holds, its composed queries' too."""
    for query in doc.queries:
        doc.run_query(query)
    return [*doc.categories.values(), *doc.problems.values(), *doc._cache.values()]


def _shipped(name):
    return load_model(MODELS_DIR / f"{name}.model")


def _mid(name):
    from qodesign.casestudies import UavTaskSpec, uav_cost_model, uav_powerset_model

    build = {"uav_cost": uav_cost_model, "uav_powerset": uav_powerset_model}[name]
    return build(UavTaskSpec(**MID_GRID))


DOCS = [(_shipped, name) for name in SHIPPED] + [(_mid, "uav_cost"), (_mid, "uav_powerset")]


def _perturbed(q, rows, rng):
    """rows with one cell set to another sample of q."""
    rows = [list(row) for row in rows]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    old = rows[i][j]
    while rows[i][j] == old:
        rows[i][j] = q.sample(rng)
    return rows


def _agree(x, y):
    """x == y and y == x answer as the oracle, != is its negation, and
    equal tables hash alike."""
    want = _decoded_equal(x, y)
    assert (x == y) is want and (y == x) is want and (x != y) is not want, (x, y)
    if want:
        assert hash(x) == hash(y)


@pytest.mark.parametrize("build,name", DOCS, ids=[f"{b.__name__[1:]}_{n}" for b, n in DOCS])
def test_equality_and_hash_decode_nothing(build, name, monkeypatch):
    tables = _tables(build(name))
    decoded = []
    for fn in ("decode", "decode_shared"):
        original = getattr(_fastpath, fn)
        monkeypatch.setattr(
            _fastpath, fn, lambda *a, _f=original: decoded.append(a[-1].shape) or _f(*a)
        )
    for x in tables:
        assert x in tables and hash(x) == hash(x)
        for y in tables:
            assert (x == y) is not (x != y)
    assert decoded == []
    assert not [x for x in tables if "hom" in vars(x) or "values" in vars(x)]


@pytest.mark.parametrize("build,name", DOCS, ids=[f"{b.__name__[1:]}_{n}" for b, n in DOCS])
def test_held_tables_are_contiguous_and_read_only(build, name):
    held = [x._array for x in _tables(build(name)) if x._array is not None]
    assert held
    for arr in held:
        assert arr.flags.c_contiguous and not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]


@pytest.mark.parametrize("name", SHIPPED)
def test_equality_on_shipped_models_is_tuple_equality(name):
    tables = _tables(_shipped(name))
    twins = [
        QCategory(x.quantale, x.objects, x.hom) if isinstance(x, QCategory)
        else DesignProblem(x.source, x.target, x.values)
        for x in tables
    ]
    for x in tables:
        for y in tables + twins:
            _agree(x, y)


def test_equality_on_random_tables_is_tuple_equality(rng):
    for name, mk in wide_families().items():
        q = mk()
        for _ in range(4):
            a, b = random_category(q, rng, 2, 4), random_category(q, rng, 1, 3)
            twin = build_category(q, a.objects, a.hom)
            other = build_category(q, a.objects, _perturbed(q, a.hom, rng), validate=False)
            foreign = build_category(mk(), a.objects, a.hom)  # a compatible handle
            cats = [a, twin, other, foreign, b]
            # equal factors: equal tensors, neither hom built
            t, t_twin = tensor(a, b, validate=False), tensor(twin, b, validate=False)
            assert t == t_twin and hash(t) == hash(t_twin), name
            assert t._array is None and t_twin._array is None, name
            dense = QCategory(q, t.objects, tensor(a, b).hom)
            cats += [t, t_twin, tensor(other, b, validate=False), dense]
            d = random_problem(a, b, rng)
            problems = [
                d,
                DesignProblem(twin, b, d.values),
                DesignProblem(other, b, d.values),
                DesignProblem(a, b, _perturbed(q, d.values, rng)),
                identity_problem(a),
            ]
            for xs in (cats, problems):
                for x in xs:
                    for y in xs:
                        _agree(x, y)


@pytest.mark.parametrize("name", ["cost", "fuzz_godel"])
def test_negative_zero_equals_zero(name, rng):
    q = wide_families()[name]()
    cr, cf = random_category(q, rng, 2, 3), random_category(q, rng, 2, 3)
    arr = _fastpath.encode(q, _fastpath.mode_for(q), random_problem(cr, cf, rng).values)
    arr[0, 0] = 0.0
    neg = arr.copy()
    neg[0, 0] = -0.0
    d, e = (build_problem(cr, cf, x, validate=False) for x in (arr, neg))
    assert math.copysign(1.0, e._array[0, 0]) == -1.0
    _agree(d, e)
    assert d == e


def test_identity_problem_holds_a_contiguous_copy():
    c = chain_category(cost_quantale(), [str(i) for i in range(57)])
    ident = identity_problem(c)
    assert ident._array.flags.c_contiguous and not np.shares_memory(ident._array, _hom_array(c))
    assert np.array_equal(ident._array, _hom_array(c).T)


def test_build_problem_takes_over_the_callers_array(rng):
    q = cost_quantale()
    cr, cf = random_category(q, rng, 2, 3), random_category(q, rng, 2, 3)
    arr = _fastpath.encode(q, "minplus", random_problem(cr, cf, rng).values)
    d = build_problem(cr, cf, arr)
    assert d._array is arr and not arr.flags.writeable
