"""The benchmark's own checks: span arithmetic, clean unpatching, failure
accounting and repeatable counts.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import statistics
import time

import pytest

import oracle
import tracer
import workloads
from speed import PROBE_NOMINAL_S, Speed


def test_self_time_on_hand_built_tree():
    # root [0, 100] holds a [10, 40] (which holds g [15, 25]) and b [50, 90].
    rec = tracer.Record(names=["root", "a", "g", "b"], layers=["model"] * 4)
    for fid, (s, e, parent) in enumerate([(0, 100, -1), (10, 40, 0), (15, 25, 1), (50, 90, 0)]):
        rec.fid.append(fid)
        rec.start.append(s * 10**9)
        rec.end.append(e * 10**9)
        rec.parent.append(parent)
    assert tracer.self_times([100, 30, 10, 40], [-1, 0, 1, 0]) == [30, 20, 10, 40]
    assert tracer.self_time_by_name(rec) == {"root": 30.0, "a": 20.0, "g": 10.0, "b": 40.0}
    summary = tracer.layer_summary(rec)
    assert summary["layer_self_s"]["model"] == 100.0  # self times partition the root


def test_wrappers_are_restored():
    import qodesign
    from qodesign import categories, problems
    from qodesign.quantales import Quantale

    before = (qodesign.series, problems.series, problems.tensor, categories.tensor,
              vars(Quantale)["mult"])
    tr = tracer.Tracer().install()
    patched = list(tr._patched)
    try:
        assert qodesign.series is not before[0]
        assert problems.tensor is categories.tensor is not before[3]
        q = qodesign.bool_quantale()
        c = qodesign.chain_category(q, ("x", "y"))
        qodesign.series(qodesign.identity_problem(c), qodesign.identity_problem(c))
        qodesign.parallel(qodesign.identity_problem(c), qodesign.identity_problem(c))
    finally:
        tr.restore()
    assert len(patched) > 50
    for owner, attr, orig in patched:
        assert getattr(owner, attr) is orig, (owner, attr)
    assert (qodesign.series, problems.series, problems.tensor, categories.tensor,
            vars(Quantale)["mult"]) == before
    names = {tr.record.names[f] for f in tr.record.fid}
    assert {"problems.series", "problems.identity_problem", "categories.chain_category"} <= names
    assert tr.record.counts["quantales.mult_calls"] > 0


def _small(seed, families):
    w = workloads.Composites("composites", seed)
    w.pool = oracle.make_pool(seed, families=families, repeats=1)
    return w


def test_injected_wrong_result_is_counted(monkeypatch):
    import qodesign

    real = qodesign.series

    def wrong_series(d1, d2, validate=True):
        out = real(d1, d2, validate)
        rows = [list(r) for r in out.values]
        q = out.quantale
        rows[0][0] = q.unit if rows[0][0] == q.bottom else q.bottom
        return dataclasses.replace(out, values=tuple(tuple(r) for r in rows))

    w = _small(3, ["bool"])
    w.unit()
    assert (w.out.failed, w.out.unexpected) == (0, 0)
    monkeypatch.setattr(qodesign, "series", wrong_series)
    w = _small(3, ["bool"])
    w.unit()
    n_series = len(oracle.SERIES_SHAPES)
    assert w.out.attempted == len(w.pool)
    assert w.out.failed == w.out.unexpected == n_series
    assert w.out.failed / w.out.attempted == pytest.approx(n_series / len(w.pool))


def test_other_exceptions_on_huge_nat_are_unexpected(monkeypatch):
    import qodesign

    calls = []

    def broken_series(d1, d2, validate=True):
        calls.append(1)
        raise TypeError("injected")

    w = _small(5, ["nat"])
    w.pool = [c for c in w.pool if c.huge]
    w.unit()
    assert w.out.failed > 0 and w.out.unexpected == 0
    failed_before = w.out.failed
    monkeypatch.setattr(qodesign, "series", broken_series)
    w = _small(5, ["nat"])
    w.pool = [c for c in w.pool if c.huge]
    w.unit()
    # every huge series that reaches the operator now fails, none as known
    assert len(calls) > 0
    assert w.out.unexpected == len(calls)
    assert w.out.failed >= failed_before


def test_run_counts_repeat_for_the_same_seed():
    # A run makes a fixed number of units, so attempted and failed do not
    # depend on how fast the machine was.
    counts = []
    for _ in range(2):
        w = _small(5, ["nat"])
        w.unit_s = 1.0
        workloads.closed_loop(w, 3)
        counts.append((w.out.attempted, w.out.failed, w.out.unexpected))
    assert counts[0] == counts[1]
    assert counts[0][0] == 3 * len(w.pool) and counts[0][1] > 0 and counts[0][2] == 0


def test_counts_repeat_for_the_same_seed():
    runs = []
    for _ in range(2):
        w = _small(11, ["nat", "product_BxP", "powerset64"])
        metrics, _ = workloads.traced(w)
        runs.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "B")})
        # nat values above 2**53 fail as the documented defect, nothing else does
        assert w.out.failed > 0 and w.out.unexpected == 0
    assert runs[0] == runs[1]
    assert runs[0]["quantales.mult_calls"] > 0 and runs[0]["fastpath.fallback_calls"] > 0


def test_speed_factors_scale_every_time_metric():
    # Two operations of 1 s and 3 s, run at half and at the nominal speed.
    s = {"op": [1.0, 3.0], "scale": [0.5, 1.0], "probe": [0.0006, 0.0003], "rss_mb": 7.0}
    metrics, extra = workloads.end_to_end(s, {})
    assert metrics == {"p50_ms": 1750.0, "tail_ms": 3000.0, "ops_per_s": 2 / 3.5, "peak_rss_mb": 7.0}
    assert (extra["raw_p50_ms"], extra["raw_ops_per_s"]) == (2000.0, 0.5)
    assert extra["scale_range"] == [0.5, 1.0]


def test_speed_probes_while_work_runs():
    speed = Speed()
    try:
        speed.mark()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        f = speed.scale()
    finally:
        speed.stop()
    n = len(speed.probes)
    assert n >= 3 and f == PROBE_NOMINAL_S / statistics.fmean(speed.probes)
    time.sleep(0.2)
    assert len(speed.probes) == n  # stopped: no more probes


def test_tail_uses_the_ladder():
    assert workloads.tail([1.0, 2.0, 3.0]) == (3.0, 100.0, 3)
    xs = [float(i) for i in range(1, 49)]  # 48 samples: p75 has 12 beyond, p90 4.8
    assert workloads.tail(xs) == (36.0, 75.0, 48)
    assert workloads.tail(list(range(1, 10001)))[1] == 99.9
