"""Acceptance gate: twelve criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the test outcomes.  Every criterion uses fixed seeds, states
its tolerance inline, and asserts its stated time budget where one applies.
"""

import math
import sys
import time
from pathlib import Path
from random import Random

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import (
    finite_families,
    loop_bimodule,
    quantale_families,
    random_category,
    random_problem,
    random_raw_problem,
    validate_via_hom,
)

from qodesign import (
    Catalog,
    CatalogPart,
    CategoryError,
    bool_quantale,
    build_category,
    builtin_lax,
    chain_category,
    classify_cost_to_bool,
    cost_quantale,
    fuzz_quantale,
    hetero_parallel,
    hetero_series,
    identity_problem,
    implementation_series,
    make_powerset,
    pair_elt,
    parallel,
    pushforward,
    series,
    tensor,
    trace,
)
from qodesign.casestudies import (
    UavTaskSpec,
    size_report,
    tracking_model,
    tracking_pareto,
    uav_consistency_report,
    uav_cost_model,
    uav_powerset_model,
)

SEED = 20260819


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} {label}{suffix}")
    assert ok, f"criterion {num:02d} failed: {label}{suffix}"


def test_c01_tracking_composite_under_one_second():
    budget_s = 1.0
    start = time.perf_counter()
    composed = tracking_model().compose("tracking")
    elapsed = time.perf_counter() - start
    want = (
        (70.0, 100.0, math.inf),
        (60.0, 80.0, 100.0),
        (40.0, 60.0, 80.0),
    )
    ok = composed.values == want and elapsed < budget_s
    _report(1, "tracking composite matches table within 1s", ok, f"{elapsed:.3f}s")


def test_c02_tracking_pareto_fronts():
    start = time.perf_counter()
    fronts = {t: set(f) for t, f in tracking_pareto().items()}
    elapsed = time.perf_counter() - start
    want = {
        "1tgt": {"(5W,70)", "(10W,60)", "(20W,40)"},
        "2tgt": {"(5W,100)", "(10W,80)", "(20W,60)"},
        "3tgt": {"(10W,100)", "(20W,80)"},
    }
    ok = fronts == want and elapsed < 1.0
    _report(2, "Pareto fronts of minimal feasible resources within 1s", ok, f"{elapsed:.3f}s")


def test_c03_tracking_query_with_breakdown():
    start = time.perf_counter()
    doc = tracking_model()
    plain = doc.run_query("two_targets_at_10W")
    verbose = doc.run_query("two_targets_at_10W", verbose=True)
    elapsed = time.perf_counter() - start
    mids = {m: v for m, _, v in verbose.breakdown}
    ok = (
        plain.value.payload == 80.0
        and mids == {"Low": 90.0, "High": 80.0}
        and elapsed < 1.0
    )
    _report(3, "query 80 with per-interface breakdown {90, 80} within 1s", ok, f"{elapsed:.3f}s")


def test_c04_composition_outputs_validate_500_per_family():
    # series, parallel, and trace run with validation on, so a composite
    # that fails the compatibility condition raises; zero failures expected
    budget_s = 30.0
    per_family = 500
    rng = Random(SEED)
    start = time.perf_counter()
    composed = 0
    failure = ""
    for name, mk in quantale_families().items():
        q = mk()
        for i in range(per_family):
            try:
                op = i % 3
                if op == 0:
                    ca = random_category(q, rng, 2, 4)
                    cm = random_category(q, rng, 2, 4)
                    cb = random_category(q, rng, 2, 4)
                    series(random_problem(ca, cm, rng), random_problem(cm, cb, rng))
                elif op == 1:
                    d1 = random_problem(
                        random_category(q, rng, 2, 3), random_category(q, rng, 2, 3), rng
                    )
                    d2 = random_problem(
                        random_category(q, rng, 2, 3), random_category(q, rng, 2, 3), rng
                    )
                    parallel(d1, d2)
                else:
                    loop = random_category(q, rng, 2, 2)
                    src = tensor(random_category(q, rng, 2, 2), loop)
                    tgt = tensor(random_category(q, rng, 2, 2), loop)
                    trace(random_problem(src, tgt, rng), loop)
                composed += 1
            except Exception as exc:
                failure = f"{name}#{i}: {exc}"
                break
        if failure:
            break
    elapsed = time.perf_counter() - start
    ok = not failure and composed == per_family * len(quantale_families())
    ok = ok and elapsed < budget_s
    _report(
        4,
        f"{per_family} series/parallel/trace outputs per family validate in 30s",
        ok,
        failure or f"{composed} composites, {elapsed:.2f}s",
    )


def test_c05_heterogeneous_compositions_validate_across_fixtures():
    # six certified map fixtures; every composite is validated by the
    # operator itself and cross-checked against the hand-written formula
    budget_s = 30.0
    runs = 300
    rng = Random(SEED + 5)
    c, b = cost_quantale(), bool_quantale()
    sa = make_powerset(("u1", "u2"), name="SA")
    sb = make_powerset(("v1", "v2"), name="SB")
    sab = make_powerset(
        tuple(pair_elt(u, v) for u in ("u1", "u2") for v in ("v1", "v2")),
        name="SAB",
    )
    fixtures = [
        (c, c, builtin_lax("cost_to_bool_finite", c, b), builtin_lax("cost_to_bool_finite", c, b)),
        (c, c, builtin_lax("cost_to_bool_free", c, b), builtin_lax("cost_to_bool_free", c, b)),
        (b, b, builtin_lax("bool_to_unit", b, c), builtin_lax("bool_to_unit", b, c)),
        (c, c, builtin_lax("scale", c, c, factor=2.0), builtin_lax("scale", c, c, factor=2.0)),
        (c, c, builtin_lax("scale", c, c, factor=2.0), builtin_lax("sqrt_cost", c, c, degree=2)),
        (sa, sb, builtin_lax("powerset_pad_right", sa, sab), builtin_lax("powerset_pad_left", sb, sab)),
    ]
    start = time.perf_counter()
    failure = ""
    for i in range(runs):
        q1, q2, phi1, phi2 = fixtures[i % len(fixtures)]
        tq = phi1.target
        if i % 2 == 0:
            ca = random_category(q1, rng, 3, 3)
            cm1 = random_category(q1, rng, 3, 3)
            cm2 = cm1 if q1 is q2 else random_category(q2, rng, 3, 3)
            cb2 = random_category(q2, rng, 3, 3)
            d1 = random_problem(ca, cm1, rng)
            d2 = random_problem(cm2, cb2, rng)
            got = hetero_series(d1, d2, phi1, phi2)
            want = tuple(
                tuple(
                    tq.join(
                        tq.mult(phi1(d1.values[r][m]), phi2(d2.values[m][f]))
                        for m in range(len(cm1.objects))
                    )
                    for f in range(len(cb2.objects))
                )
                for r in range(len(ca.objects))
            )
        else:
            d1 = random_problem(
                random_category(q1, rng, 2, 3), random_category(q1, rng, 2, 3), rng
            )
            d2 = random_problem(
                random_category(q2, rng, 2, 3), random_category(q2, rng, 2, 3), rng
            )
            got = hetero_parallel(d1, d2, phi1, phi2)
            want = tuple(
                tuple(
                    tq.mult(phi1(d1.values[r1][f1]), phi2(d2.values[r2][f2]))
                    for f1 in range(len(d1.target.objects))
                    for f2 in range(len(d2.target.objects))
                )
                for r1 in range(len(d1.source.objects))
                for r2 in range(len(d2.source.objects))
            )
        if got.values != want:
            failure = f"run {i}: values differ"
            break
    elapsed = time.perf_counter() - start
    ok = not failure and elapsed < budget_s
    _report(
        5,
        f"{runs} heterogeneous composites over 6 map fixtures validate in 30s",
        ok,
        failure or f"{elapsed:.2f}s",
    )


def test_c06_hom_form_bimodule_check_agrees_with_direct():
    per_family = 200
    rng = Random(SEED + 6)
    disagreements = 0
    checked = 0
    for name, mk in finite_families().items():
        q = mk()
        for _ in range(per_family):
            cr = random_category(q, rng, 2, 3)
            cf = random_category(q, rng, 2, 3)
            raw = random_raw_problem(cr, cf, rng)
            direct = loop_bimodule(raw) is None
            disagreements += direct != validate_via_hom(raw)
            checked += 1
    _report(
        6,
        f"hom-form check agrees with direct on {per_family}/finite family",
        disagreements == 0,
        f"{checked} raw problems",
    )


def test_c07_grid_classification_finds_three_families():
    rng = Random(SEED + 7)
    bad = ""
    for n_points in range(2, 9):
        interior = sorted(rng.sample(range(1, 400), n_points - 2))
        grid = [0.0] + [float(g) for g in interior] + [math.inf]
        result = classify_cost_to_bool(grid)
        finite = tuple(g for g in result.grid if g != math.inf)
        want_sets = {
            "only_free": (0.0,),
            "all_finite": finite,
            "always": result.grid,
        }
        got_sets = {cls.label: cls.true_set for cls in result.classes}
        if result.tables_total != 2 ** n_points or got_sets != want_sets:
            bad = f"{n_points} points"
            break
        if len(result.lax_true_sets) != (2 if n_points == 2 else 3):
            bad = f"{n_points} points: dedup"
            break
    _report(7, "grids of 2..8 points classify into exactly 3 lax families", not bad, bad)


def test_c08_pushforward_validity_and_forced_failure_witness():
    per_family = 200
    rng = Random(SEED + 8)
    c, b = cost_quantale(), bool_quantale()
    sa = make_powerset(("u1", "u2"), name="SA")
    sb = make_powerset(("v1", "v2"), name="SB")
    sab = make_powerset(
        tuple(pair_elt(u, v) for u in ("u1", "u2") for v in ("v1", "v2")),
        name="SAB",
    )
    families = {
        "cost_to_bool_finite": (c, builtin_lax("cost_to_bool_finite", c, b)),
        "cost_to_bool_free": (c, builtin_lax("cost_to_bool_free", c, b)),
        "bool_to_unit": (b, builtin_lax("bool_to_unit", b, c)),
        "scale": (c, builtin_lax("scale", c, c, factor=3.0)),
        "sqrt_cost": (c, builtin_lax("sqrt_cost", c, c, degree=2)),
        "pad_right": (sa, builtin_lax("powerset_pad_right", sa, sab)),
        "pad_left": (sb, builtin_lax("powerset_pad_left", sb, sab)),
    }
    failure = ""
    for label, (q, phi) in families.items():
        for i in range(per_family):
            cat = random_category(q, rng, 2, 5)
            try:
                pushforward(cat, phi)
            except Exception as exc:
                failure = f"{label}#{i}: {exc}"
                break
        if failure:
            break

    # two short hops within the threshold, the through hom beyond it:
    # forcing the unverified map must fail and the error must name it
    w = build_category(
        c,
        ("x", "y", "z"),
        [[0.0, 3.0, 6.0], [math.inf, 0.0, 3.0], [math.inf, math.inf, 0.0]],
    )
    thr = builtin_lax("cost_leq_threshold", c, b, threshold=5.0, name="within_5")
    named = False
    try:
        pushforward(w, thr, force=True)
    except CategoryError as exc:
        named = "within_5" in str(exc) and "forced" in str(exc)
    ok = not failure and named
    _report(
        8,
        f"pushforward keeps {per_family}/family valid; forced failure names the map",
        ok,
        failure,
    )


def test_c09_implementation_series_matches_brute_force():
    catalogs = 100
    rng = Random(SEED + 9)
    b = bool_quantale()
    mismatch = ""
    for run in range(catalogs):
        nr, nm, npv = rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 4)
        req_objs = tuple(f"r{i}" for i in range(nr))
        mid_objs = tuple(f"m{i}" for i in range(nm))
        prov_objs = tuple(f"p{i}" for i in range(npv))
        req = chain_category(b, req_objs)
        mid = chain_category(b, mid_objs)
        prov = chain_category(b, prov_objs)
        cat1 = Catalog(
            "u",
            tuple(
                CatalogPart(f"u{i}", rng.choice(req_objs), rng.choice(mid_objs))
                for i in range(rng.randint(1, 4))
            ),
        )
        cat2 = Catalog(
            "v",
            tuple(
                CatalogPart(f"v{i}", rng.choice(mid_objs), rng.choice(prov_objs))
                for i in range(rng.randint(1, 4))
            ),
        )
        composed = implementation_series(cat1, cat2, req, mid, prov)
        ri = {o: i for i, o in enumerate(req_objs)}
        mi = {o: i for i, o in enumerate(mid_objs)}
        pi = {o: i for i, o in enumerate(prov_objs)}
        for r in range(nr):
            for p in range(npv):
                want = frozenset(
                    pair_elt(a.name, c2.name)
                    for a in cat1.parts
                    for c2 in cat2.parts
                    if any(
                        ri[a.requires] <= r
                        and m <= mi[a.provides]
                        and mi[c2.requires] <= m
                        and p <= pi[c2.provides]
                        for m in range(nm)
                    )
                )
                if composed.values[r][p] != want:
                    mismatch = f"catalog {run} at ({r},{p})"
                    break
            if mismatch:
                break
        if mismatch:
            break
    _report(9, f"implementation series matches brute force on {catalogs} catalogs", not mismatch, mismatch)


def test_c10_bool_compositions_recover_relational_semantics():
    # over bool, series is existential reachability through the interface
    # and trace of a valid instance collapses to the diagonal disjunction
    runs = 200
    rng = Random(SEED + 10)
    q = bool_quantale()
    bad = ""
    for i in range(runs):
        if i % 2 == 0:
            ca = random_category(q, rng, 2, 4)
            cm = random_category(q, rng, 2, 4)
            cb = random_category(q, rng, 2, 4)
            d1 = random_problem(ca, cm, rng)
            d2 = random_problem(cm, cb, rng)
            got = series(d1, d2).values
            nm = len(cm.objects)
            want = tuple(
                tuple(
                    any(d1.values[r][m] and d2.values[m][f] for m in range(nm))
                    for f in range(len(cb.objects))
                )
                for r in range(len(ca.objects))
            )
        else:
            loop = random_category(q, rng, 2, 3)
            nm = len(loop.objects)
            src_base = random_category(q, rng, 2, 3)
            tgt_base = random_category(q, rng, 2, 3)
            d = random_problem(tensor(src_base, loop), tensor(tgt_base, loop), rng)
            got = trace(d, loop).values
            want = tuple(
                tuple(
                    any(d.values[r * nm + m][f * nm + m] for m in range(nm))
                    for f in range(len(tgt_base.objects))
                )
                for r in range(len(src_base.objects))
            )
        if got != want:
            bad = f"run {i}"
            break
    if not bad:
        # the identity profunctor over bool is the opposite order relation
        ident = identity_problem(random_category(q, rng, 2, 4))
        n = len(ident.source.objects)
        if not all(
            ident.values[r][f] == ident.source.hom[f][r]
            for r in range(n)
            for f in range(n)
        ):
            bad = "identity"
    _report(10, f"{runs} bool composites match their relational formulas", not bad, bad)


def test_c11_uav_suite_within_two_minutes():
    budget_s = 120.0
    start = time.perf_counter()
    problems = []

    cost_doc = uav_cost_model()
    sweep = cost_doc.run_sweep("payload_costs")
    row = list(sweep.cells[0])
    if row != sorted(row):
        problems.append("cost not antitone in payload")
    if not (
        row[0] == pytest.approx(63.325004887585536, abs=1e-9)
        and row[1] == pytest.approx(113.24555320336759, abs=1e-9)
        and math.isinf(row[2])
    ):
        problems.append("frozen coarse costs drifted")

    ps_doc = uav_powerset_model()
    selection = ps_doc.compose("selection")
    task = UavTaskSpec.coarse()
    budgets = [str(b) for b in task.budget_grid]
    payloads = [str(p) for p in task.payload_grid]
    for p in payloads:
        for lo, hi in zip(budgets, budgets[1:]):
            if not selection.value_payload(lo, p) <= selection.value_payload(hi, p):
                problems.append(f"selection not monotone in budget at {p}")
                break
    for b in budgets:
        for light, heavy in zip(payloads, payloads[1:]):
            if not selection.value_payload(b, heavy) <= selection.value_payload(b, light):
                problems.append(f"selection not antitone in payload at {b}")
                break

    mismatches = uav_consistency_report(task)
    if mismatches:
        problems.append(f"{len(mismatches)} formulation mismatches")

    cost_cut = max(e.max_cut for e in size_report(cost_doc))
    ps_cut = max(e.max_cut for e in size_report(ps_doc))
    if not ps_cut > cost_cut:
        problems.append(f"powerset cut {ps_cut} not larger than cost cut {cost_cut}")

    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        problems.append(f"took {elapsed:.1f}s")
    _report(
        11,
        "UAV studies: antitone, monotone, consistent, wider powerset cut, <2min",
        not problems,
        problems[0] if problems else f"{elapsed:.1f}s, cuts {cost_cut}<{ps_cut}",
    )


def test_c12_hom_adjunction_exhaustive_and_sampled():
    tol = 1e-9
    bad = ""
    for name, mk in finite_families().items():
        q = mk()
        elems = list(q.elements())
        for a in elems:
            for b in elems:
                for c in elems:
                    lhs = q.leq(q.mult(a, b), c)
                    rhs = q.leq(b, q.hom(a, c))
                    if lhs != rhs:
                        bad = f"{name} exhaustive"
                        break
                if bad:
                    break
            if bad:
                break
        if bad:
            break

    # triples are sampled from fixed grids that include the unit, the bottom,
    # and the absorbing element of each carrier
    samples = 10_000
    rng = Random(SEED + 12)
    if not bad:
        cq = cost_quantale()
        cost_grid = [
            0.0, 0.125, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 5.0, 7.5, 10.0,
            20.0, 50.0, 100.0, 1e3, 1e6, math.inf,
        ]
        for i in range(samples):
            trip = [rng.choice(cost_grid) for _ in range(3)]
            a, b, c = trip
            if q_adjunction_breaks(cq, a, b, c):
                bad = f"cost sample {i}: {trip}"
                break
    if not bad:
        fuzz_grid = [k / 20.0 for k in range(21)]
        for tnorm in ("godel", "goguen", "lukasiewicz"):
            fq = fuzz_quantale(tnorm)
            for i in range(samples):
                trip = [rng.choice(fuzz_grid) for _ in range(3)]
                a, b, c = trip
                if q_adjunction_breaks(fq, a, b, c):
                    bad = f"{tnorm} sample {i}: {trip}"
                    break
            if bad:
                break
    _report(
        12,
        "hom adjunction: exhaustive on finite, 10^4 samples on cost and fuzz",
        not bad,
        bad or f"tolerance {tol}",
    )


def q_adjunction_breaks(q, a, b, c) -> bool:
    """mult(a, b) below c must coincide with b below hom(a, c)."""
    return q.leq(q.mult(a, b), c) != q.leq(b, q.hom(a, c))
