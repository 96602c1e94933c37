"""Change of base for problems and composition across different quantales."""

import math
from random import Random

import pytest

from qodesign import (
    Catalog,
    CatalogPart,
    CategoryError,
    CompositionError,
    LaxityError,
    ProblemError,
    bool_quantale,
    build_category,
    builtin_lax,
    catalog_problem,
    chain_category,
    check_lax,
    cost_quantale,
    hetero_parallel,
    hetero_series,
    hetero_trace,
    identity_problem,
    implementation_series,
    make_powerset,
    nat_quantale,
    pair_elt,
    parallel,
    pushforward,
    pushforward_problem,
    series,
    trace,
    tensor,
)

from qodesign import _fastpath

from conftest import random_category, random_problem


def certified_map_cases():
    """Map constructor paired with a random-problem quantale it accepts."""
    c, b, n = cost_quantale(), bool_quantale(), nat_quantale()
    return [
        ("cost_to_bool_finite", c, builtin_lax("cost_to_bool_finite", c, b)),
        ("cost_to_bool_free", c, builtin_lax("cost_to_bool_free", c, b)),
        ("scale", c, builtin_lax("scale", c, c, factor=3.0)),
        ("sqrt_cost", c, builtin_lax("sqrt_cost", c, c, degree=2)),
        ("nat_to_bool", n, builtin_lax("cost_to_bool_finite", n, b)),
        ("bool_to_unit", b, builtin_lax("bool_to_unit", b, c)),
    ]


@pytest.mark.parametrize("label,source_q,phi", certified_map_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_pushforward_preserves_validity(label, source_q, phi):
    rng = Random(hash(label) & 0xFFFF)
    for _ in range(8):
        cr = random_category(source_q, rng, 2, 4)
        cf = random_category(source_q, rng, 2, 4)
        d = random_problem(cr, cf, rng)
        out = pushforward_problem(d, phi)
        assert out.quantale is phi.target
        assert out.source.objects == cr.objects
        assert out.target.objects == cf.objects
        for r, row in enumerate(d.values):
            for f, v in enumerate(row):
                assert phi.target.equal(out.values[r][f], phi(v))


def test_identity_pushforward_returns_the_same_problem(rng):
    c = cost_quantale()
    d = random_problem(random_category(c, rng), random_category(c, rng), rng)
    phi = builtin_lax("identity", c, cost_quantale())
    assert pushforward_problem(d, phi) is d


def test_forced_pushforward_through_nonlax_map_names_it():
    # two short legs compose within the bound but the through hom does not,
    # so thresholding breaks transitivity and validation must say which
    # forced map is to blame
    c, b = cost_quantale(), bool_quantale()
    w = build_category(
        c,
        ("x", "y", "z"),
        [[0.0, 3.0, 6.0], [math.inf, 0.0, 3.0], [math.inf, math.inf, 0.0]],
    )
    phi = builtin_lax("cost_leq_threshold", c, b, threshold=5.0, name="within_5")
    with pytest.raises(LaxityError):
        pushforward(w, phi)
    with pytest.raises(CategoryError) as err:
        pushforward(w, phi, force=True)
    assert "within_5" in str(err.value)
    assert "forced" in str(err.value)

    ident = identity_problem(w)
    with pytest.raises((CategoryError, ProblemError)) as perr:
        pushforward_problem(ident, phi, force=True)
    assert "within_5" in str(perr.value)


def test_hetero_series_is_series_of_pushforwards(rng):
    # the last six rounds give the source, the interface and then the
    # target no objects, through the mapping and the identity map
    c, b = cost_quantale(), bool_quantale()
    phi, keep = builtin_lax("cost_to_bool_finite", c, b), builtin_lax("identity", c, c)
    for k in range(21):
        empty = (k - 15) % 3 if k >= 15 else None
        ca, cm, cb = (random_category(c, rng, *((0, 0) if i == empty else (2, 4)))
                      for i in range(3))
        d1 = random_problem(ca, cm, rng)
        d2 = random_problem(cm, cb, rng)
        psi = keep if k >= 18 else phi
        got = hetero_series(d1, d2, psi, psi)
        expected = series(
            pushforward_problem(d1, psi), pushforward_problem(d2, psi)
        )
        assert got.values == expected.values
        assert got.source.objects == expected.source.objects
        assert got.target.objects == expected.target.objects


def test_hetero_series_joins_problems_from_different_quantales(rng):
    # a nat-valued stage feeding a cost-valued stage, both mapped to bool
    n, c, b = nat_quantale(), cost_quantale(), bool_quantale()
    mid_objects = ("m0", "m1", "m2")
    cm_nat = chain_category(n, mid_objects)
    cm_cost = chain_category(c, mid_objects)
    d1 = random_problem(random_category(n, rng, 2, 3), cm_nat, rng)
    d2 = random_problem(cm_cost, random_category(c, rng, 2, 3), rng)
    phi1 = builtin_lax("cost_to_bool_finite", n, b)
    phi2 = builtin_lax("cost_to_bool_finite", c, b)
    got = hetero_series(d1, d2, phi1, phi2)
    expected = series(
        pushforward_problem(d1, phi1), pushforward_problem(d2, phi2)
    )
    assert got.values == expected.values


def test_hetero_parallel_matches_pushforward_oracle(rng):
    c = cost_quantale()
    phi = builtin_lax("scale", c, c, factor=2.0)
    for _ in range(6):
        d1 = random_problem(
            random_category(c, rng, 2, 3), random_category(c, rng, 2, 3), rng
        )
        d2 = random_problem(
            random_category(c, rng, 2, 3), random_category(c, rng, 2, 3), rng
        )
        got = hetero_parallel(d1, d2, phi, phi)
        expected = parallel(
            pushforward_problem(d1, phi), pushforward_problem(d2, phi)
        )
        assert got.values == expected.values


def test_hetero_trace_matches_pushforward_oracle(rng):
    c = cost_quantale()
    phi = builtin_lax("scale", c, c, factor=0.5)
    for _ in range(6):
        ca = random_category(c, rng, 2, 3)
        cb = random_category(c, rng, 2, 3)
        loop = chain_category(c, ("lo", "hi"))
        d = random_problem(tensor(ca, loop), tensor(cb, loop), rng)
        got = hetero_trace(d, loop, phi)
        expected = trace(pushforward_problem(d, phi), pushforward(loop, phi))
        assert got.values == expected.values


def test_hetero_gating_and_interface_errors(rng):
    c, b, n = cost_quantale(), bool_quantale(), nat_quantale()
    ca = random_category(c, rng, 2, 3)
    cm = random_category(c, rng, 2, 3)
    cb = random_category(c, rng, 2, 3)
    d1 = random_problem(ca, cm, rng)
    d2 = random_problem(cm, cb, rng)

    unverified = builtin_lax("cost_leq_threshold", c, b, threshold=9.0)
    certified = builtin_lax("cost_to_bool_finite", c, b)
    with pytest.raises(LaxityError):
        hetero_series(d1, d2, unverified, certified)

    wrong_source = builtin_lax("cost_to_bool_finite", n, b)
    with pytest.raises(CompositionError):
        hetero_series(d1, d2, wrong_source, certified)

    into_cost = builtin_lax("scale", c, c, factor=2.0)
    with pytest.raises(CompositionError):
        hetero_series(d1, d2, certified, into_cost)

    other_mid = random_problem(random_category(c, rng, 4, 5), cb, rng)
    with pytest.raises(CompositionError):
        hetero_series(d1, other_mid, certified, certified)


def test_catalog_problem_matches_direct_definition():
    b = bool_quantale()
    req = chain_category(b, ("r0", "r1", "r2"))
    prov = chain_category(b, ("p0", "p1", "p2"))
    motors = Catalog(
        "motors",
        (
            CatalogPart("cheap", "r0", "p0"),
            CatalogPart("mid", "r1", "p1"),
            CatalogPart("big", "r2", "p2"),
            CatalogPart("odd", "r0", "p2"),
        ),
    )
    # 70 parts run the wide mode, past 63 bits; no parts, the empty powerset
    many = Catalog(
        "many", tuple(CatalogPart(f"m{k}", f"r{k % 3}", f"p{k // 3 % 3}") for k in range(70))
    )
    ri = {o: i for i, o in enumerate(req.objects)}
    pi = {o: i for i, o in enumerate(prov.objects)}
    for cat, mode in ((motors, "bits"), (many, "wide"), (Catalog("none", ()), "bits")):
        d = catalog_problem(cat, req, prov)
        assert d.quantale.kind == "powerset" and _fastpath.mode_for(d.quantale) == mode
        assert set(d.quantale.params["base"]) == set(cat.part_names())
        for r, robj in enumerate(req.objects):
            for f, fobj in enumerate(prov.objects):
                expected = frozenset(
                    p.name
                    for p in cat.parts
                    if ri[p.requires] <= r and f <= pi[p.provides]
                )
                assert d.values[r][f] == expected
    # the omnivorous part is available everywhere
    assert all("odd" in v for row in catalog_problem(motors, req, prov).values for v in row)


def test_catalog_problem_input_validation():
    b = bool_quantale()
    req = chain_category(b, ("r0", "r1"))
    prov = chain_category(b, ("p0", "p1"))
    with pytest.raises(ProblemError):
        CatalogPart("a*b", "r0", "p0")
    with pytest.raises(ProblemError):
        Catalog("dup", (CatalogPart("a", "r0", "p0"), CatalogPart("a", "r1", "p1")))
    with pytest.raises(ProblemError):
        catalog_problem(Catalog("c", (CatalogPart("a", "r9", "p0"),)), req, prov)
    with pytest.raises(ProblemError):
        catalog_problem(Catalog("c", (CatalogPart("a", "r0", "p9"),)), req, prov)
    cost_req = chain_category(cost_quantale(), ("r0", "r1"))
    with pytest.raises(ProblemError):
        catalog_problem(Catalog("c", (CatalogPart("a", "r0", "p0"),)), cost_req, prov)


def _random_catalog(name, rng, req_objs, prov_objs, n_parts):
    return Catalog(
        name,
        tuple(
            CatalogPart(
                f"{name}{i}", rng.choice(req_objs), rng.choice(prov_objs)
            )
            for i in range(n_parts)
        ),
    )


def test_implementation_series_matches_brute_force(rng):
    b = bool_quantale()
    for _ in range(15):
        nr, nm, np_ = rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 4)
        req_objs = tuple(f"r{i}" for i in range(nr))
        mid_objs = tuple(f"m{i}" for i in range(nm))
        prov_objs = tuple(f"p{i}" for i in range(np_))
        req = chain_category(b, req_objs)
        mid = chain_category(b, mid_objs)
        prov = chain_category(b, prov_objs)
        cat1 = _random_catalog("u", rng, req_objs, mid_objs, rng.randint(1, 4))
        cat2 = _random_catalog("v", rng, mid_objs, prov_objs, rng.randint(1, 4))
        composed = implementation_series(cat1, cat2, req, mid, prov)

        ri = {o: i for i, o in enumerate(req_objs)}
        mi = {o: i for i, o in enumerate(mid_objs)}
        pi = {o: i for i, o in enumerate(prov_objs)}
        for r in range(nr):
            for p in range(np_):
                want = set()
                for a in cat1.parts:
                    for bpart in cat2.parts:
                        ok = any(
                            ri[a.requires] <= r
                            and m <= mi[a.provides]
                            and mi[bpart.requires] <= m
                            and p <= pi[bpart.provides]
                            for m in range(nm)
                        )
                        if ok:
                            want.add(pair_elt(a.name, bpart.name))
                assert composed.values[r][p] == frozenset(want)


def test_implementation_series_requires_powerset_problems(rng):
    c = cost_quantale()
    d = random_problem(random_category(c, rng), random_category(c, rng), rng)
    from qodesign import implementation_series_problems

    with pytest.raises(ProblemError):
        implementation_series_problems(d, d)


def test_pushforward_category_wrong_quantale_rejected(rng):
    c, n, b = cost_quantale(), nat_quantale(), bool_quantale()
    cat = random_category(c, rng)
    phi = builtin_lax("cost_to_bool_finite", n, b)
    with pytest.raises(CompositionError):
        pushforward(cat, phi)
