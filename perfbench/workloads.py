"""The four workloads, each run in its own process by ``run.py``.

Usage (normally through run.py, which sets PYTHONPATH and the thread
variables)::

    python3 perfbench/workloads.py WORKLOAD --seed N --seconds S | --unit | --traced | --setup-only

The process does its set-up (imports and input generation) and records
the ``perf_counter`` reading at which set-up ended.  Then it exits
(``--setup-only``), runs a closed loop of whole units of work (a UAV
build, or a pass over the composite pool or the CLI commands), or runs
one unit untraced (``--unit``) or traced (``--traced``).  The number of
units follows from the seconds asked for and the workload's nominal unit
time, never from the clock, so a seed gives the same operations, and the
same counts, on every run.  It prints one JSON line with the raw samples,
or the unit's wall time and per-layer metrics, and the operation counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "out" / "work"

# Percentiles a tail may be reported at, in hundredths of a percent; the
# highest with at least TAIL_BEYOND samples above it is used, so the choice
# does not flicker with run length.
TAIL_LADDER = (5000, 7500, 9000, 9500, 9900, 9950, 9990, 9995, 9999)
TAIL_BEYOND = 10

# Grid between UavTaskSpec.coarse() and the full grids: LoopIn 870 x LoopOut 116.
MID_GRID = dict(
    velocity_grid=(1.5, 2.0, 2.5, 3.0),
    weight_grid=tuple(range(200, 3001, 100)),
    served_grid=(0, 250, 500, 750, 1000),
    payload_grid=(100, 900, 1700, 2500),
)
COLD_REPEATS = 5  # cold queries and cold sweeps per UAV build


def tail(values):
    """(value, percentile, samples): the highest ladder percentile (nearest
    rank) that still has TAIL_BEYOND samples beyond it; the maximum when
    none has."""
    xs = sorted(values)
    n = len(xs)
    rank = n
    for p in TAIL_LADDER:
        k = -(-p * n // 10000)  # nearest rank, exact in integers
        if n - k >= TAIL_BEYOND:
            rank, best = k, p
    if rank == n:
        return xs[-1], 100.0, n
    return xs[rank - 1], best / 100.0, n


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Outcomes:
    """Attempted and failed operations; `unexpected` counts failures
    outside the documented known-defect class."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.notes = []

    def record(self, ok: bool, known_defect: bool = False, note: str = ""):
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if not known_defect:
            self.unexpected += 1
            if len(self.notes) < 5:
                self.notes.append(note)


def units_for(w, seconds) -> int:
    """Units a run of this many seconds makes: fixed by the workload's
    nominal unit time, at least its min_units."""
    return max(w.min_units, round(seconds / w.unit_s))


def closed_loop(w, seconds):
    """Call w.unit() back to back, units_for(w, seconds) times, with the
    machine's speed probed throughout (see speed.py)."""
    w.speed = Speed()
    try:
        for _ in range(units_for(w, seconds)):
            w.unit()
    finally:
        w.speed.stop()


class Workload:
    """Outcomes, and the timed operations with their speed factors."""

    min_units = 1

    def __init__(self):
        self.out = Outcomes()
        self.op_s = []  # the operations the end-to-end metrics time
        self.scales = []  # one speed factor per entry of op_s
        self.speed = None  # set by closed_loop; None leaves times unscaled

    def mark(self) -> int:
        """Start timing operations; the number timed so far."""
        if self.speed:
            self.speed.mark()
        return len(self.op_s)

    def scale_since(self, n):
        """Give the operations timed since mark() returned n the speed
        factor of that interval."""
        f = self.speed.scale() if self.speed else 1.0
        self.scales += [f] * (len(self.op_s) - n)

    def samples(self, who=resource.RUSAGE_SELF):
        probes = self.speed.probes if self.speed else []
        return {"op": self.op_s, "scale": self.scales, "probe": probes, "rss_mb": peak_rss_mb(who)}


def time_metrics(op_s):
    """p50_ms, tail_ms and ops_per_s of samples in seconds, and the tail's
    percentile and sample count."""
    t, p, n = tail(op_s)
    return {
        "p50_ms": statistics.median(op_s) * 1e3,
        "tail_ms": t * 1e3,
        "ops_per_s": len(op_s) / sum(op_s),
    }, p, n


def end_to_end(s, extra):
    """The benchmark's end-to-end metrics from a run's samples, scaled by
    their speed factors; the raw times and the probe timings go to extra."""
    metrics, p, n = time_metrics([t * f for t, f in zip(s["op"], s["scale"])])
    metrics["peak_rss_mb"] = s["rss_mb"]
    extra = dict(extra, tail_percentile=p, samples=n)
    raw, _, _ = time_metrics(s["op"])
    extra.update({f"raw_{k}": v for k, v in raw.items()})
    if s["probe"]:
        extra.update(probes=len(s["probe"]), probe_ms_mean=statistics.fmean(s["probe"]) * 1e3,
                     scale_range=[min(s["scale"]), max(s["scale"])])
    return metrics, extra


# -- UAV builds ----------------------------------------------------------------


class Uav(Workload):
    def __init__(self, name, seed):
        from qodesign.casestudies import UavTaskSpec

        self.name = name
        self.refs = json.loads((HERE / "references.json").read_text())[name]
        if name == "uav_full_cost":
            self.task = UavTaskSpec()
            self.query, self.sweep = "cost_at_min_payload", "payload_costs"
        else:
            self.task = UavTaskSpec(**MID_GRID)
            self.query, self.sweep = "loadouts_mid_budget", "loadouts"
        super().__init__()
        self.query_s, self.sweep_s = [], []

    # Two builds per run at least, so that a run never rests on one.  A unit
    # (build, five cold queries, five cold sweeps) takes about 5.5 s on the
    # mid grid; the full grid is slower, so its runs are longer.
    min_units = 2
    unit_s = 5.5

    def _builder(self):
        import qodesign.casestudies as cs

        if self.name == "uav_full_cost":
            return cs.uav_cost_model
        return cs.uav_powerset_model

    def _check_query(self, res):
        ref = self.refs["query"]
        ok = (res.resource, res.functionality) == (ref["resource"], ref["functionality"])
        ok = ok and _same_payload(res.value.payload, ref["payload"])
        self.out.record(ok, note=f"{self.name} query {res.rendered}")

    def _check_sweep(self, table):
        ref = self.refs["sweep"]
        ok = list(table.rows) == ref["rows"] and list(table.cols) == ref["cols"]
        ok = ok and len(table.cells) == len(ref["cells"]) and all(
            len(row) == len(rrow) and all(_same_payload(a, b) for a, b in zip(row, rrow))
            for row, rrow in zip(table.cells, ref["cells"])
        )
        self.out.record(ok, note=f"{self.name} sweep")

    def unit(self):
        try:
            self._build_query_sweep()
        except Exception as exc:  # counted, the loop goes on
            self.out.record(False, note=f"{self.name}: {exc!r}")
        gc.collect()

    def _build_query_sweep(self):
        pc = time.perf_counter
        n = self.mark()
        t = pc()
        doc = self._builder()(self.task)
        self.op_s.append(pc() - t)
        self.scale_since(n)
        self.out.record(True)
        for _ in range(COLD_REPEATS):
            doc.clear_cache()
            t = pc()
            res = doc.run_query(self.query)
            self.query_s.append(pc() - t)
            self._check_query(res)
        for _ in range(COLD_REPEATS):
            doc.clear_cache()
            t = pc()
            table = doc.run_sweep(self.sweep)
            self.sweep_s.append(pc() - t)
            self._check_sweep(table)

    def samples(self):
        return dict(super().samples(), query=self.query_s, sweep=self.sweep_s)

    @staticmethod
    def summarize(s):
        metrics, extra = end_to_end(
            s,
            {"query_cold_s": statistics.median(s["query"]), "sweep_cold_s": statistics.median(s["sweep"]),
             "builds": len(s["op"])},
        )
        extra["build_s"] = metrics["p50_ms"] / 1e3
        return metrics, extra


def _same_payload(got, ref) -> bool:
    if isinstance(got, frozenset):
        return sorted(got) == ref
    if isinstance(got, float) and isinstance(ref, float):
        return got == ref or abs(got - ref) <= 1e-9
    return got == ref


# -- random composites -------------------------------------------------------------


def engine_quantale(spec):
    import qodesign as qd

    kind = spec[0]
    if kind == "fuzz":
        return qd.fuzz_quantale(spec[1])
    if kind == "powerset":
        return qd.make_powerset(spec[1])
    if kind == "product":
        return qd.make_product((qd.bool_quantale(), qd.pace_quantale()), name="BxP")
    return qd.make_builtin(kind)


def run_composite(q, comp):
    """Build the inputs and apply the operator, validation on.

    Returns (output problem, total seconds, operator seconds).  Engine
    functions are looked up on the package at call time, so a tracer
    installed on it sees these calls.
    """
    import qodesign as qd

    pc = time.perf_counter
    t0 = pc()
    cats = [qd.build_category(q, objs, hom) for objs, hom in comp.cats]
    if comp.op == "series":
        d1 = qd.build_problem(cats[0], cats[1], comp.problems[0])
        d2 = qd.build_problem(cats[1], cats[2], comp.problems[1])
        t1 = pc()
        out = qd.series(d1, d2)
    elif comp.op == "parallel":
        d1 = qd.build_problem(cats[0], cats[1], comp.problems[0])
        d2 = qd.build_problem(cats[2], cats[3], comp.problems[1])
        t1 = pc()
        out = qd.parallel(d1, d2)
    else:
        src = qd.tensor(cats[0], cats[2])
        tgt = qd.tensor(cats[1], cats[2])
        d = qd.build_problem(src, tgt, comp.problems[0])
        t1 = pc()
        out = qd.trace(d, cats[2])
    t2 = pc()
    return out, t2 - t0, t2 - t1


class Composites(Workload):
    # A unit is one pass over the pool, about 0.45 s with its checks.
    unit_s = 0.45

    def __init__(self, name, seed):
        import oracle
        from qodesign.errors import CategoryError, ProblemError
        from qodesign.values import float_tol

        self.oracle = oracle
        self.pool = oracle.make_pool(seed)
        self.handles = {f: engine_quantale(spec) for f, (_, spec) in oracle.FAMILIES.items()}
        self.tol = float_tol()
        # The nat > 2**53 defect shows as a wrong value or as the engine's
        # own validation rejecting an output; any other exception is not it.
        self.validation_errors = (CategoryError, ProblemError)
        super().__init__()
        self.operator_s = []
        gc.collect()
        gc.freeze()  # the pool is long-lived; keep it out of every collection

    def check(self, comp, result):
        carrier = self.oracle.FAMILIES[comp.family][0]
        raised = isinstance(result, Exception)
        ok = not raised and not self.oracle.mismatch(carrier, result.values, comp.expected, self.tol)
        known = comp.huge and (not raised or isinstance(result, self.validation_errors))
        self.out.record(ok, known_defect=known, note=f"{comp.family} {comp.op}: {result!r}"[:200])

    def step(self, comp):
        try:
            out, total, op = run_composite(self.handles[comp.family], comp)
        except Exception as exc:  # a raising operator is a failed composite
            self.check(comp, exc)
            return
        self.op_s.append(total)
        self.operator_s.append(op)
        self.check(comp, out)

    def unit(self):
        n = self.mark()
        for comp in self.pool:
            self.step(comp)
        self.scale_since(n)

    def samples(self):
        return dict(super().samples(), operator=self.operator_s)

    @staticmethod
    def summarize(s):
        metrics, extra = end_to_end(s, {"operator_p50_ms": statistics.median(s["operator"]) * 1e3})
        extra.update(composites_per_s=metrics["ops_per_s"], composite_p50_ms=metrics["p50_ms"],
                     composite_tail_ms=metrics["tail_ms"])
        return metrics, extra


# -- the command line ----------------------------------------------------------------

SHIPPED = ("tracking", "tracking_bool", "uav_cost", "uav_powerset")
RENDERED = "uav_powerset_coarse"

# README's sample session on the shipped tracking model.
README_QUERY = """diagram       tracking
resource      10W
functionality 2tgt
value         80
via:
  Low: 90
  High: 80
"""
README_SWEEP = """sweep of tracking
     1tgt  2tgt  3tgt
 5W    70   100   inf
10W    60    80   100
20W    40    60    80
"""


def child_env():
    """Environment for every child: source tree on the path, one thread."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(THREAD_VARS)
    env["PYTHONHASHSEED"] = "0"
    return env


THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def _validate_line(doc) -> str:
    counts = ", ".join(
        f"{len(reg)} {label}"
        for label, reg in (
            ("quantales", doc.quantales), ("categories", doc.categories), ("maps", doc.maps),
            ("catalogs", doc.catalogs), ("problems", doc.problems), ("diagrams", doc.diagrams),
        )
        if reg
    )
    return f"{doc.name}: ok ({counts})\n"


class Cli(Workload):
    def __init__(self, name, seed):
        from qodesign.casestudies import uav_powerset_model
        from qodesign.model import load_model

        WORK.mkdir(parents=True, exist_ok=True)
        models = ROOT / "src" / "qodesign" / "models"
        paths = {m: models / f"{m}.model" for m in SHIPPED}
        paths[RENDERED] = WORK / f"{RENDERED}.model"
        paths[RENDERED].write_text(uav_powerset_model().render())
        super().__init__()
        self.calls = []  # (argv, expected stdout)
        for m, path in paths.items():
            doc = load_model(path)
            p = str(path.relative_to(ROOT))
            qname, = doc.queries
            sname, = doc.sweeps
            table = doc.run_sweep(sname)
            qtext = doc.run_query(qname, verbose=True).format(verbose=True) + "\n"
            self.calls += [
                (["validate", p], _validate_line(doc)),
                (["render", p], doc.render()),
                (["query", p, "--name", qname, "--verbose"], qtext),
                (["sweep", p, "--name", sname], table.format_text() + "\n"),
            ]
            if m == "tracking":
                # The shipped tracking model must give README's sample session.
                self.out.record(qtext == README_QUERY, note="tracking query vs README")
                self.out.record(table.format_text() + "\n" == README_SWEEP, note="tracking sweep vs README")
        self.env = child_env()
        self.traced = None  # list of summaries when tracing

    def invoke(self, i):
        argv, want = self.calls[i]
        if self.traced is None:
            cmd = [sys.executable, "-m", "qodesign.cli", *argv]
        else:
            summary = WORK / f"trace-{len(self.traced)}.json"
            cmd = [sys.executable, str(HERE / "cli_boot.py"), str(summary), *argv]
        n = self.mark()
        t = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120)
        self.op_s.append(time.perf_counter() - t)
        self.scale_since(n)
        if self.traced is not None:
            self.traced.append(json.loads(summary.read_text()))
            summary.unlink()
        ok = proc.returncode == 0 and proc.stdout == want
        self.out.record(ok, note=f"{' '.join(argv)} -> {proc.returncode} {proc.stderr[-200:]}")

    def unit(self):
        for i in range(len(self.calls)):
            self.invoke(i)

    # Whole passes of 20 calls, about 7 s each, so every run has the same
    # mix of models; two at least, so the tail is a percentile (p75) and
    # not the slowest call.
    min_units = 2
    unit_s = 7.0

    def samples(self):
        return super().samples(resource.RUSAGE_CHILDREN)

    @staticmethod
    def summarize(s):
        metrics, extra = end_to_end(s, {})
        extra.update(cli_p50_ms=metrics["p50_ms"], cli_tail_ms=metrics["tail_ms"])
        return metrics, extra


WORKLOADS = {
    "uav_full_cost": Uav,
    "uav_mid_powerset": Uav,
    "composites": Composites,
    "cli_models": Cli,
}


# -- traced run ------------------------------------------------------------------------


def timed(fn) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def traced(w):
    """The fixed unit under the tracer: (per-layer metrics, extra figures)."""
    import tracer

    if isinstance(w, Cli):
        w.traced = []
        wall = timed(w.unit)
        summary = tracer.merge_summaries(w.traced)
    else:
        tr = tracer.Tracer()
        with tr:
            wall = timed(w.unit)
        summary = tracer.layer_summary(tr.record)
    return tracer.per_layer_metrics(summary), {"traced_wall_s": wall, "spans": summary["spans"]}


SETUP_PROBES = 50


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float, help="closed loop of about this long")
    mode.add_argument("--unit", action="store_true", help="the fixed unit, untraced")
    mode.add_argument("--traced", action="store_true", help="the fixed unit, traced")
    mode.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # A set-up is scaled by the probes run during it, in this process, and
    # by SETUP_PROBES more run right after it: a set-up of a few tenths of a
    # second holds too few timer probes to fix its speed.
    speed = Speed() if args.setup_only else None
    w = WORKLOADS[args.workload](args.workload, args.seed)
    result = {"setup_end": time.perf_counter()}
    if speed:
        speed.stop()
        speed.probe_now(SETUP_PROBES)
        result["setup_scale"] = speed.scale()
    else:
        if args.traced:
            metrics, extra = traced(w)
            result.update(metrics=metrics, extra=extra, wall_s=extra["traced_wall_s"])
        elif args.unit:
            result.update(wall_s=timed(w.unit))
        else:
            closed_loop(w, args.seconds)
            result.update(samples=w.samples())
        import numpy

        result.update(
            attempted=w.out.attempted,
            failed=w.out.failed,
            unexpected=w.out.unexpected,
            notes=w.out.notes,
            numpy=numpy.__version__,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
