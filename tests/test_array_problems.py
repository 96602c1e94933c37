"""Array-backed design problems: built from a kernel array, values decoded
on first read, exactly as the payload path would normalize them."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qodesign import (
    CategoryError,
    DesignProblem,
    ProblemError,
    Quantale,
    build_category,
    build_problem,
    builtin_lax,
    chain_category,
    check_bimodule,
    discrete_category,
    identity_problem,
    make_powerset,
    nat_grid_category,
    nat_quantale,
    parallel,
    series,
    tensor,
    trace,
)
from qodesign import _fastpath
from qodesign.categories import _rows_array
from qodesign.quantales import broken_clone
from qodesign.lax import hetero_series

from conftest import (
    normalize_table,
    quantale_families,
    random_category,
    random_problem,
    random_raw_problem,
    wide_families,
)


def _exactly(got, want):
    """Equal cell by cell, of the same type, with -0.0 apart from 0.0."""
    assert len(got) == len(want)
    for g_row, w_row in zip(got, want):
        assert len(g_row) == len(w_row)
        for g, w in zip(g_row, w_row):
            assert type(g) is type(w) and g == w, (g, w)
            if isinstance(g, float):
                assert math.copysign(1.0, g) == math.copysign(1.0, w), (g, w)


def _decoded(q, source, target, mode, arr):
    """What the payload path makes of arr's decoded payloads."""
    rows = _fastpath.decode(q, mode, arr)
    return normalize_table(q, source.objects, target.objects, rows, ProblemError)


def _with_edge_values(q, mode, arr):
    """arr with -0.0 in its first cell, and inf in its last on minplus."""
    arr = arr.copy()
    if arr.dtype == float:
        arr[0, 0] = -0.0
        if mode == "minplus":
            arr[-1, -1] = math.inf
    return arr


@pytest.mark.parametrize("sizes", [(2, 3), (8, 9)], ids=["small", "shared"])
def test_array_built_values_decode_as_the_payload_path(rng, sizes):
    lo, hi = sizes
    for name, mk in wide_families().items():
        q = mk()
        cr, cf = random_category(q, rng, lo, hi), random_category(q, rng, lo, hi)
        rows = random_problem(cr, cf, rng).values
        mode = _fastpath.mode_for(q)
        arr = _fastpath.encode(q, mode, rows)
        want = {"product": ("bits", np.uint64), "powerset64": ("wide", object)}
        want.update(nat=("nat", object), nat_huge=("nat", object))
        if name in want or mode not in _fastpath._ALGEBRA:
            # payload rows alone build these: products, wide, nat and object rows
            assert (mode, arr.dtype) == want.get(name, (q, object)), name
            assert name in want or name == "product_cost", name
            _exactly(_fastpath.decode(q, mode, arr), rows)
            if name in want:
                assert _fastpath.as_array(q, arr) is None
            if mode == "nat":  # an array of nats is read as its payload rows
                exact = [arr] + [arr.astype(float)] * (name == "nat")
                for x in exact:
                    _exactly(build_problem(cr, cf, x, validate=False).values, rows)
            elif name in want:  # an array of codes is no payload rows
                with pytest.raises(ProblemError):
                    build_problem(cr, cf, arr, validate=False)
            continue
        arr = _with_edge_values(q, mode, arr)
        twin = build_problem(cr, cf, _decoded(q, cr, cf, mode, arr), validate=False)
        a = build_problem(cr, cf, arr, validate=False)
        assert "values" not in vars(a), name
        assert hash(a) == hash(twin) and a == twin, name
        b = build_problem(cr, cf, arr, validate=False)
        assert twin == b and b == a, name
        _exactly(a.values, twin.values)
        assert "values" in vars(a)


def test_operator_outputs_decode_as_the_payload_path(rng):
    for name, mk in wide_families().items():
        q = mk()
        loop = random_category(q, rng, 2, 3)
        src = tensor(random_category(q, rng, 2, 3), loop)
        tgt = tensor(random_category(q, rng, 2, 3), loop)
        d = random_problem(src, tgt, rng)
        e = random_problem(random_category(q, rng, 2, 3), random_category(q, rng, 2, 3), rng)
        keep = builtin_lax("identity", q, q)
        outputs = {
            "trace": trace(d, loop),
            "series": series(d, identity_problem(d.target)),
            "parallel": parallel(d, e),
            "hetero_series": hetero_series(d, identity_problem(d.target), keep, keep),
        }
        for op, out in outputs.items():
            # the operator and its check ran in its carrier's one mode:
            # nothing was decoded, not even huge nats
            assert "values" not in vars(out), (name, op)
            want = _decoded(q, out.source, out.target, _fastpath.mode_for(q), out._array)
            twin = DesignProblem(out.source, out.target, want)
            assert hash(out) == hash(twin) and out == twin, (name, op)
            _exactly(out.values, want)
            assert check_bimodule(out) is None


def test_array_built_problem_checks_as_its_payload_twin(rng):
    for name, mk in quantale_families().items():
        q = mk()
        for _ in range(4):
            cr = tensor(random_category(q, rng, 2, 3), random_category(q, rng, 2, 3))
            cf = tensor(random_category(q, rng, 2, 3), random_category(q, rng, 2, 3))
            twin = random_raw_problem(cr, cf, rng)
            arr = _fastpath.encode(q, _fastpath.mode_for(q), twin.values)
            if _fastpath.as_array(q, arr) is None:  # a product's or nat's array is no kernel array
                continue
            a = build_problem(cr, cf, arr, validate=False)
            assert check_bimodule(a) == check_bimodule(twin), name
            if check_bimodule(twin) is None:  # only a witness reads the values
                assert "values" not in vars(a), name
            try:
                build_problem(cr, cf, twin.values)
                want = None
            except ProblemError as exc:
                want = str(exc)
            if want is None:
                build_problem(cr, cf, arr)
            else:
                with pytest.raises(ProblemError, match="bimodule") as got:
                    build_problem(cr, cf, arr)
                assert str(got.value) == want, name


def test_array_backed_nat_past_the_exact_bound_runs_the_object_row(monkeypatch):
    # nat runs one mode at every size: min-plus on object arrays of ints
    q = nat_quantale()
    c = nat_grid_category([0, 1, 2], q)
    ident, kernels, names = identity_problem(c), [], []
    for name in ("bimodule_violation", "moved", "series_product", "edges_hold"):
        original = getattr(_fastpath, name)
        monkeypatch.setattr(
            _fastpath, name,
            lambda *a, _f=original, _n=name: names.append(_n) or kernels.append(a) or _f(*a),
        )
    for v in (2**51 - 1, 2**51):
        kernels.clear()
        names.clear()
        d = build_problem(c, c, np.full((3, 3), float(v)))  # constant: monotone
        assert type(d.values[0][0]) is int  # a nat array is read as its payload rows
        out = series(d, ident)
        assert [a[0] for a in kernels] == ["nat"] * 3  # d's check, series, out's check
        arrays = [x for a in kernels for arg in a[1:3] for x in (arg if type(arg) is list else [arg])]
        assert all(arr.dtype == object for arr in arrays)  # moved's steps are a list
        # the checks of 9 cells are one broadcast each
        assert names == ["bimodule_violation", "series_product", "bimodule_violation"]
        assert "values" not in vars(out) and out._array.dtype == object
        assert out.values == ((v,) * 3,) * 3 and type(out.values[0][0]) is int


MEMBERSHIP_CASES = [
    ("cost", lambda: quantale_families()["cost"](), math.nan),
    ("negative cost", lambda: quantale_families()["cost"](), -1.5),
    ("nat", lambda: quantale_families()["nat"](), 2.5),
    ("fuzz", lambda: quantale_families()["fuzz_godel"](), 1.5),
    ("pace", lambda: quantale_families()["pace"](), 4.0),
    ("powerset", lambda: make_powerset(("a", "b", "c")), 1 << 3),
]


@pytest.mark.parametrize("case", MEMBERSHIP_CASES, ids=[c[0] for c in MEMBERSHIP_CASES])
def test_array_membership_errors_match_the_payload_path(case):
    _, mk, bad = case
    q = mk()
    cr, cf = chain_category(q, ("r0", "r1")), chain_category(q, ("f0", "f1", "f2"))
    mode = _fastpath.mode_for(q)
    arr = _fastpath.encode(q, mode, [[q.bottom] * 3, [q.bottom] * 3])
    arr[1, 2] = arr[1, 0] = bad  # the first bad cell in row-major order is (r1, f0)
    with pytest.raises(ProblemError) as got:
        build_problem(cr, cf, arr, validate=False)
    bad_row = arr[1].tolist()  # an object array's cells are no numpy scalars
    rows = [[q.bottom] * 3, [bad_row[0], q.bottom, bad_row[2]]]
    with pytest.raises(ProblemError) as want:
        build_problem(cr, cf, rows, validate=False)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("entry ('r1', 'f0'): ")


def test_object_row_outputs_are_checked_for_membership():
    # a handwritten bool x cost product whose join adds a third component:
    # its object-row series output fails as the payload path would
    bxc = wide_families()["product_cost"]()
    leak = lambda p, r: (p[0] or r[0], min(p[1], r[1]), "zz")
    q = broken_clone(bxc, name="Leaky", join2=leak)
    assert _fastpath.mode_for(q) is q
    c = build_category(q, ["x", "y"], [[q.unit, q.bottom], [q.bottom, q.unit]], validate=False)
    d = build_problem(c, c, [[q.bottom, q.unit], [q.unit, q.bottom]], validate=False)
    with pytest.raises(ProblemError) as got:
        series(d, d, validate=False)
    assert str(got.value).startswith("entry ('x', 'x'): ") and "Leaky" in str(got.value)
    with pytest.raises(ProblemError) as want:
        build_problem(c, c, [[(True, 0.0, "zz")] * 2] * 2, validate=False)
    assert str(got.value) == str(want.value)


def test_uav_stage_is_never_decoded():
    from qodesign.casestudies import uav_powerset_model

    doc = uav_powerset_model()
    stage = doc.problems["stage"]
    doc.compose("selection")
    res = doc.run_query("loadouts_mid_budget")
    table = doc.run_sweep("loadouts")
    assert "values" not in vars(stage)
    assert sorted(res.value.payload) == [
        f"{a}*{b}" for a in ("a1", "a2") for b in ("LCO", "LFP", "LMO", "LiPo", "NiMH")
    ]
    sizes = [[len(v) for v in row] for row in table.cells]
    assert sizes == [[0, 0, 0], [5, 0, 0], [5, 0, 0], [10, 3, 0], [10, 4, 0], [15, 9, 0]]
    # the same document with stage's payload twin answers the same
    doc.problems["stage"] = build_problem(stage.source, stage.target, stage.values)
    doc.clear_cache()
    assert doc.run_query("loadouts_mid_budget").value == res.value
    assert doc.run_sweep("loadouts").cells == table.cells


def test_identity_maps_read_their_operand_through_its_memo():
    from qodesign.casestudies import uav_powerset_model
    from qodesign.lax import LaxMap

    doc = uav_powerset_model()
    keep, calls = doc.maps["keep"], []
    fn = keep.fn
    keep.fn = lambda x: calls.append(x) or fn(x)
    got = doc.compose("selection")
    loop = doc.compose("stage_loop")
    assert calls == [] and "values" not in vars(loop)
    # the same composite through a copy of keep that is no identity map:
    # it maps each distinct value of loop's array, and decodes no values
    copy = LaxMap("keep", keep.source, keep.target, fn, verdict="strict")
    want = hetero_series(doc.problems["choose_served"], loop, doc.maps["embed"], copy)
    assert calls == [] and "values" not in vars(loop)
    _exactly(got.values, want.values)
    assert got.source == want.source and got.target == want.target


def _door_cases():
    """name -> (carrier, 3 x 3 payload rows): aliases the door normalizes
    (ints to float costs, integral floats to nats, lists and sets to
    frozensets, lists to product tuples), -0.0, inf, and nats past 2**63."""
    fams = wide_families()
    ab = ["a", "b"]  # one object in three cells: normalized in each
    return {
        "cost": (fams["cost"](), [[0, -0.0, math.inf], [3, 2.5, 0.0], [math.inf, 1, -0.0]]),
        "fuzz": (fams["fuzz_goguen"](), [[1, 0, 0.5], [0.25, 1.0, 0], [1, 1, 0.0]]),
        "nat": (fams["nat"](), [[3.0, 0, math.inf], [2**63, 2**63 + 1, 7.0], [0.0, 2**70, 1]]),
        "bool": (fams["bool"](), [[True, False, True], [False, True, False], [True, True, True]]),
        "pace": (fams["pace"](), [["E", "C", "A"], ["P", "P", "E"], ["A", "C", "P"]]),
        "powerset": (fams["powerset"](), [[ab, {"c"}, frozenset()], [("a",), set(), ab], [list("abc"), ab, []]]),
        "powerset64": (fams["powerset64"](), [[["n0", "n63"], {"n5"}, []], [[], ["n63"], []], [{"n1"}] * 3]),
        "product": (fams["product"](), [[[True, "A"], (False, "E"), [True, "P"]]] * 3),
        "product_cost": (fams["product_cost"](), [[[True, 0], (False, math.inf), (True, 2)]] * 3),
    }


def _normal(q, v):
    """v is its own normal form, type for type and field by field."""
    p = q.normalize(v)
    if q.kind == "product":
        return type(v) is tuple and all(map(_normal, q.params["factors"], v))
    return type(p) is type(v) and p == v


@pytest.mark.parametrize("case", list(_door_cases()))
def test_row_built_tables_decode_as_the_normalized_rows(case, monkeypatch):
    # the door codes a payload in normal form directly and normalizes the
    # others, the aliases, once per cell; an object row normalizes every
    # cell.  hom and values are decoded from the kernel array on first
    # read, type for type as the payload rows normalize
    q, rows = _door_cases()[case]
    objs = ("x", "y", "z")
    coded = _fastpath.mode_for(q) is not q
    refused = [v for row in rows for v in row if not (coded and _normal(q, v))]
    calls = []
    normalize = Quantale.normalize
    monkeypatch.setattr(
        Quantale, "normalize", lambda self, v: (self is q and calls.append(v)) or normalize(self, v)
    )
    c = build_category(q, objs, rows, validate=False)
    assert list(map(id, calls)) == list(map(id, refused)), case
    d = build_problem(discrete_category(q, objs), discrete_category(q, objs), rows, validate=False)
    monkeypatch.undo()
    assert "hom" not in vars(c) and "values" not in vars(d), case
    assert c._array.dtype == d._array.dtype == _fastpath._ALGEBRA[_fastpath.mode_for(q)].dtype
    _exactly(c.hom, normalize_table(q, objs, objs, rows, CategoryError, "hom matrix: "))
    _exactly(d.values, normalize_table(q, objs, objs, rows, ProblemError, noun="value row"))


def test_numpy_scalars_read_back_as_python_floats():
    # an np.float64 is a float, so it normalizes as itself; the door writes
    # its cell, and the decoded payload is a Python float
    for q in (wide_families()["cost"](), wide_families()["fuzz_godel"]()):
        c = chain_category(q, ["x"])
        d = build_problem(c, c, [[np.float64(0.5)]])
        assert type(normalize_table(q, ("x",), ("x",), [[np.float64(0.5)]], ProblemError)[0][0]) is np.float64
        assert type(d.values[0][0]) is float and d.values == ((0.5,),)


class _Names(frozenset):
    """A frozenset subclass: a powerset payload in normal form all the same."""


# what the door may meet besides a carrier's samples: numpy scalars and
# near-misses of every carrier, one of them unhashable
NEAR_MISSES = (
    True, False, 1, 0, 1.5, -1.0, -0.0, math.inf, float("nan"), 2**70,
    np.float64(0.5), np.float64(-0.0), np.bool_(True), np.str_("A"), "A", "Z", ["A"],
    (1, "A"), (True, "A"), [True, "A"], (True,), (True, 0.0), [False, 2],
    "ab", frozenset({"zz"}), _Names({"a", "c"}), _Names({"n0", "n63"}), None,
)


def _alias(p):
    """An alias q normalizes back to the payload p, or p where there is none:
    a list for a set or a tuple, an int for an integral float and back."""
    if isinstance(p, frozenset):
        return sorted(p)
    if isinstance(p, tuple):
        return [_alias(x) for x in p]
    if type(p) is float and p.is_integer():
        return int(p)
    return float(p) if type(p) is int else p


def _door_agrees(q, rows):
    """The door on rows against normalize_table: the same held array,
    type-exact decoded rows or the same first error, and normalize called
    on no payload the coder accepts."""
    mode, nr, nf = _fastpath.mode_for(q), len(rows), max(map(len, rows))
    rs, fs = tuple(f"r{i}" for i in range(nr)), tuple(f"f{j}" for j in range(nf))
    try:
        want = normalize_table(q, rs, fs, rows, ProblemError, noun="value row")
    except ProblemError as exc:
        want = exc
    code, calls, normalize = _fastpath.coder(q, mode), [], Quantale.normalize
    Quantale.normalize = lambda self, v: (self is q and calls.append(v)) or normalize(self, v)
    try:
        got = _rows_array(q, rs, fs, rows, ProblemError, noun="value row")
    except ProblemError as exc:
        got = exc
    finally:
        Quantale.normalize = normalize
    for v in calls if code is not None else ():
        with pytest.raises((KeyError, TypeError, ValueError)):
            code(v)
    if isinstance(want, ProblemError):
        assert str(got) == str(want)
        return
    held = _fastpath.encode(q, mode, want)
    assert got.dtype == held.dtype
    bits = (lambda a: a.view(np.uint64)) if got.dtype == float else (lambda a: a)
    assert np.array_equal(bits(got), bits(held))  # -0.0 apart from 0.0
    decoded = _fastpath.decode(q, mode, got)
    _exactly(decoded, _fastpath.decode(q, mode, held))
    assert decoded == [list(row) for row in want]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(family=st.sampled_from(sorted(wide_families())), seed=st.integers(0, 2**32 - 1))
def test_row_door_equals_its_normalizing_oracle(family, seed):
    # tables mixing samples, their aliases and near-misses, some a cell short
    q, rng = wide_families()[family](), random.Random(seed)
    nr, nf = rng.randint(1, 3), rng.randint(1, 3)
    rows = [[q.sample(rng) for _ in range(nf)] for _ in range(nr)]
    for row in rows:
        for j, p in enumerate(row):
            pick = rng.random()
            row[j] = _alias(p) if pick < 0.3 else rng.choice(NEAR_MISSES) if pick < 0.45 else p
    if rng.random() < 0.1:
        rows[rng.randrange(nr)].pop()
    _door_agrees(q, rows)


@pytest.mark.parametrize("family", sorted(wide_families()))
def test_row_door_meets_every_near_miss_as_its_oracle(family):
    q = wide_families()[family]()
    for v in NEAR_MISSES:
        _door_agrees(q, [[q.unit, v]])
        _door_agrees(q, [[v, q.bottom], [q.unit, v]])


DOOR_ERRORS = [
    ("too few rows", lambda bad, ok: [[ok] * 3] * 2),
    ("short row", lambda bad, ok: [[ok] * 3, [ok] * 2, [ok] * 3]),
    ("bad entries", lambda bad, ok: [[ok] * 3, [bad, ok, bad], [bad] * 3]),
    ("bad entry before a short row", lambda bad, ok: [[ok, bad, ok], [ok], [ok] * 3]),
    ("short row before a bad entry", lambda bad, ok: [[ok] * 3, [ok] * 4, [bad] * 3]),
]


@pytest.mark.parametrize("case", DOOR_ERRORS, ids=[c[0] for c in DOOR_ERRORS])
def test_row_door_errors_match_the_oracle(case):
    # the first of shape, row length and entry errors, in row-major order,
    # with the normalizing oracle's text
    _, table = case
    objs = ("x", "y", "z")
    bads = {"cost": -1.0, "nat": 2.5, "powerset": ["q"], "product": (True, "Z"), "product_cost": (1, 0.0)}
    for name, bad in bads.items():
        q = wide_families()[name]()
        rows = table(bad, q.unit)
        for build, error, args in (
            (lambda: build_category(q, objs, rows), CategoryError, ("hom matrix: ",)),
            (lambda: build_problem(chain_category(q, objs), chain_category(q, objs), rows),
             ProblemError, ("", "value row")),
        ):
            with pytest.raises(error) as want:
                normalize_table(q, objs, objs, rows, error, *args)
            with pytest.raises(error) as got:
                build()
            assert str(got.value) == str(want.value), name
