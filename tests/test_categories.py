"""Enriched-category construction, validation, and combinators."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from qodesign import (
    CategoryError,
    ModelError,
    bool_quantale,
    build_category,
    chain_category,
    check_category_axioms,
    cost_quantale,
    discrete_category,
    from_order,
    loads,
    make_powerset,
    nat_category,
    nat_grid_category,
    nat_quantale,
    pace_quantale,
    pair_name,
    pushforward,
    tensor,
)
from qodesign import builtin_lax

from conftest import chain_rows, discrete_rows, grid_rows, loop_axioms, normalize_table
from conftest import quantale_families, random_category, wide_families


def oracle_axioms(q, hom):
    """Definitional check: identities at unit, composition below hom."""
    n = len(hom)
    for i in range(n):
        if not q.equal(hom[i][i], q.unit) and not q.leq(q.unit, hom[i][i]):
            return ("identity", i)
    for i in range(n):
        for k in range(n):
            for j in range(n):
                if not q.leq(q.mult(hom[i][k], hom[k][j]), hom[i][j]):
                    return ("compose", i, k, j)
    return None


def test_axiom_checker_matches_oracle(rng):
    for name, mk in wide_families().items():
        q = mk()
        agree = 0
        for _ in range(30):
            n = rng.randint(2, 5)
            hom = [[q.sample(rng) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.5:
                for i in range(n):
                    hom[i][i] = q.unit
            objs = [f"x{i}" for i in range(n)]
            got = check_category_axioms(q, objs, hom)
            want = oracle_axioms(q, hom)
            assert loop_axioms(q, objs, hom) == got, name
            assert (got is None) == (want is None), (name, got, want)
            if q.kind == "powerset":  # unhashable set payloads, as given by callers
                raw = [[set(v) for v in row] for row in hom]
                assert check_category_axioms(q, objs, raw) == got, name
            agree += 1
        assert agree == 30


def test_bool_axiom_check_counts_past_a_byte():
    # 256 paths o0 -> oy -> o1 (y >= 2) while hom(o0, o1) is false; a
    # uint8 count of them wraps to 0
    q = bool_quantale()
    n = 258
    hom = [[x == y for y in range(n)] for x in range(n)]
    for y in range(2, n):
        hom[0][y] = hom[y][1] = True
    objs = [f"o{i}" for i in range(n)]
    want = ("composition", "o0", "o2", "o1")
    assert loop_axioms(q, objs, hom) == want
    assert check_category_axioms(q, objs, hom) == want


def test_random_closed_categories_pass(rng):
    for name, mk in quantale_families().items():
        q = mk()
        for _ in range(20):
            c = random_category(q, rng)
            assert check_category_axioms(q, c.objects, c.hom) is None, name


def _warshall(n, pairs):
    """Reflexive transitive closure of pairs of indices, by Warshall."""
    reach = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        reach[a][b] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    return reach


_relations = st.integers(0, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
        if n
        else st.just([]),
    )
)


@settings(max_examples=150, deadline=None)
@given(_relations)
@example((4, [(0, 0), (0, 1), (1, 2), (2, 0), (3, 3)]))  # a cycle and self-pairs
@example((10, [(i, i + 1) for i in range(9)]))  # a 9-edge path: four squarings
def test_from_order_equals_warshall_oracle(relation):
    n, pairs = relation
    objs = [f"o{i}" for i in range(n)]
    cat = from_order(bool_quantale(), objs, [(objs[a], objs[b]) for a, b in pairs])
    assert [list(r) for r in cat.hom] == _warshall(n, pairs)


def test_chain_discrete_structure():
    q = cost_quantale()
    c = chain_category(q, ("lo", "mid", "hi"))
    assert c.hom_payload("lo", "hi") == 0.0
    assert c.hom_payload("hi", "lo") == math.inf
    assert c.leq_objects("lo", "hi") and not c.leq_objects("hi", "lo")
    d = discrete_category(q, ("a", "b"))
    assert d.hom_payload("a", "b") == math.inf
    assert d.hom_payload("a", "a") == 0.0
    # built as arrays, the homs are the row oracles' payloads, type for type,
    # below and above the 64-cell decode floor
    for name, mk in wide_families().items():
        q = mk()
        for n in (0, 1, 3, 9):
            objs = [f"o{i}" for i in range(n)]
            for build, rows in ((chain_category, chain_rows), (discrete_category, discrete_rows)):
                want = normalize_table(q, objs, objs, rows(q, n), CategoryError)
                assert _typed(build(q, objs).hom) == _typed(want), (name, build.__name__, n)


def _typed(rows):
    return [[(type(v), v) for v in row] for row in rows]


def test_nat_grid_hom_counts_shortfall():
    c = nat_grid_category((0, 5, 12))
    assert c.hom_payload("0", "12") == 12
    assert c.hom_payload("5", "12") == 7
    assert c.hom_payload("12", "0") == 0
    assert c.objects == ("0", "5", "12")
    nat, cost = nat_quantale(), cost_quantale()
    for values in ((), (0,), (0, 5, 12), (0, 1, 10**17 + 1), tuple(range(0, 90, 10))):
        names = [str(v) for v in values]
        want = normalize_table(nat, names, names, grid_rows(values), CategoryError)
        assert _typed(nat_grid_category(values).hom) == _typed(want), values
    for cap in (0, 1, 4, 8):
        for inf in (False, True):
            c = nat_category(cap, inf)
            values = list(range(cap + 1)) + [math.inf] * inf
            want = normalize_table(nat, c.objects, c.objects, grid_rows(values), CategoryError)
            assert c.objects[-1] == ("inf" if inf else str(cap))
            assert _typed(c.hom) == _typed(want), (cap, inf)
    # a document's grid builds the same homs on its own names, cost's as floats
    for q, names, values in ((nat, "0, 5, 12", (0, 5, 12)), (cost, "0, 0.5, 12", (0.0, 0.5, 12.0))):
        doc = loads(f"quantale Q = {q.kind}\ncategory G over Q {{ objects: {names}  order: grid }}\n")
        got = doc.categories["G"]
        want = normalize_table(q, got.objects, got.objects, grid_rows(values), CategoryError)
        assert got.objects == tuple(names.split(", ")) and _typed(got.hom) == _typed(want)
    with pytest.raises(CategoryError, match="cost or nat"):
        nat_grid_category((0, 1), pace_quantale())
    for names, message in (("0, inf", "must be finite"), ("5, 1", "strictly ascending")):
        with pytest.raises(ModelError, match=message):
            loads(f"quantale Q = cost\ncategory G over Q {{ objects: {names}  order: grid }}\n")


def test_tensor_pointwise(rng):
    # 2-object factors give 16-cell homs (element loop), 6-object factors
    # 144 and 1296 cells (array kernel); discrete factors put the bottom
    # (inf, 0) off the diagonal.
    for name, mk in wide_families().items():
        q = mk()
        for na, nb in ((2, 2), (2, 6), (6, 6)):
            a = random_category(q, rng, na, na)
            discrete = discrete_category(q, [f"y{i}" for i in range(nb)])
            for b in (random_category(q, rng, nb, nb), discrete):
                t = tensor(a, b)
                assert t.factors == (a, b)
                for i, oa in enumerate(a.objects):
                    for j, ob in enumerate(b.objects):
                        assert t.objects[i * nb + j] == pair_name(oa, ob)
                        for i2, oa2 in enumerate(a.objects):
                            for j2, ob2 in enumerate(b.objects):
                                got = t.hom_payload(pair_name(oa, ob), pair_name(oa2, ob2))
                                assert got == q.mult(a.hom[i][i2], b.hom[j][j2]), name


def test_tensor_hom_holds_one_payload_per_value(rng):
    for q in (make_powerset("abcd"), cost_quantale()):
        t = tensor(random_category(q, rng, 6, 6), random_category(q, rng, 6, 6))
        cells = [v for row in t.hom for v in row]
        assert len({id(v) for v in cells}) == len(set(cells)) < len(cells)


def test_tensor_of_huge_nats_is_exact():
    # 81 cells, above the array floor; 10**17 + 1 + 1 is not a float64.
    q = nat_quantale()
    a = nat_grid_category([0, 1, 10**17 + 1], q)
    b = nat_grid_category([0, 1, 2], q)
    t = tensor(a, b)
    assert t.hom_payload(pair_name("0", "0"), pair_name(str(10**17 + 1), "1")) == 10**17 + 2
    for i, row in enumerate(t.hom):
        for j, v in enumerate(row):
            assert v == a.hom[i // 3][j // 3] + b.hom[i % 3][j % 3]


def test_tensor_validation_names_the_loop_witness(rng):
    # valid factors pass leaf by leaf; a factor with one perturbed cell
    # sends the check to the dense hom, whose witness the error names
    for name, mk in quantale_families().items():
        q = mk()
        for _ in range(6):
            a = random_category(q, rng, 2, 4)
            b = random_category(q, rng, 3, 4)
            hom = [list(row) for row in b.hom]
            hom[rng.randrange(len(hom))][rng.randrange(len(hom))] = q.sample(rng)
            bad = build_category(q, b.objects, hom, validate=False)
            for c, d in ((a, b), (a, bad), (tensor(bad, a, validate=False), a)):
                t = tensor(c, d, validate=False)
                try:
                    build_category(q, t.objects, t.hom)
                    want = None
                except CategoryError as exc:
                    want = str(exc)
                if want is None:
                    tensor(c, d)
                else:
                    with pytest.raises(CategoryError) as got:
                        tensor(c, d)
                    assert str(got.value) == want, name


def test_model_tensor_homs_are_built_on_first_read(monkeypatch):
    from qodesign import _fastpath
    from qodesign.casestudies import UavTaskSpec, uav_powerset_model

    outer, built = _fastpath.outer_product, []

    def recording_outer_product(mode, a, b):
        built.append((len(a), len(b)))
        return outer(mode, a, b)

    monkeypatch.setattr(_fastpath, "outer_product", recording_outer_product)
    doc = uav_powerset_model(UavTaskSpec.coarse())
    doc.run_query("loadouts_mid_budget")
    # the checks read tensors as arrays, built from their factors' arrays
    assert built and all("hom" not in vars(c) for c in doc.categories.values() if c._tensor)
    built.clear()
    loop_in = doc.categories["LoopIn"]
    a, b = loop_in.factors
    q = loop_in.quantale
    # a cell read builds a row from the factors' rows, not the tensor's hom
    x, y = loop_in.objects[1], loop_in.objects[-1]
    cell, leq = loop_in.hom_payload(x, y), loop_in.leq_objects(x, y)
    assert built == [] and "hom" not in vars(loop_in)
    hom = loop_in.hom
    assert cell == hom[1][-1] and leq == q.leq(q.unit, cell)
    assert built == [(len(a.objects), len(b.objects))]  # ChoiceI's array is kept
    nb = len(b.objects)
    for i, row in enumerate(hom):
        for j, v in enumerate(row):
            assert v == q.mult(a.hom[i // nb][j // nb], b.hom[i % nb][j % nb])
    dense = build_category(q, loop_in.objects, hom)
    assert tensor(a, b) == dense and hash(tensor(a, b)) == hash(dense)


def test_tensor_requires_same_quantale():
    with pytest.raises(Exception):
        tensor(
            chain_category(cost_quantale(), "ab"),
            chain_category(nat_quantale(), "cd"),
        )


def test_pushforward_maps_homs_and_factors(rng):
    qc = cost_quantale()
    qb = bool_quantale()
    phi = builtin_lax("cost_to_bool_finite", qc, qb)
    a = random_category(qc, rng, 2, 3)
    b = random_category(qc, rng, 2, 3)
    t = tensor(a, b)
    pt = pushforward(t, phi)
    assert pt.quantale.kind == "bool"
    assert pt.objects == t.objects
    assert pt.factors is not None
    for i in range(len(t.objects)):
        for j in range(len(t.objects)):
            assert pt.hom[i][j] == (t.hom[i][j] < math.inf)
    # carried factors are the pushed factors
    for orig, pushed in zip(t.factors, pt.factors):
        assert pushed.objects == orig.objects
        assert pushed.quantale.kind == "bool"


def test_build_category_rejects_duplicates():
    q = bool_quantale()
    with pytest.raises(CategoryError):
        build_category(q, ("a", "a"), [[True, True], [True, True]])


def test_build_category_rejects_broken_axioms():
    q = bool_quantale()
    # missing identity
    with pytest.raises(CategoryError):
        build_category(q, ("a", "b"), [[False, False], [False, False]])
    # not transitive
    with pytest.raises(CategoryError):
        build_category(
            q,
            ("a", "b", "c"),
            [
                [True, True, False],
                [False, True, True],
                [False, False, True],
            ],
        )


def test_build_category_rejects_bad_shape():
    q = bool_quantale()
    with pytest.raises(CategoryError):
        build_category(q, ("a", "b"), [[True, True]])


def test_same_interface():
    q = bool_quantale()
    c1 = chain_category(q, ("a", "b"))
    c2 = chain_category(q, ("a", "b"))
    c3 = chain_category(q, ("a", "c"))
    assert c1.same_interface(c2)
    assert not c1.same_interface(c3)
    assert not c1.same_interface(discrete_category(q, ("a", "b")))
