"""The qodesign benchmark: one command per workload, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run of a workload is one fresh single-threaded Python process
(thread variables pinned to 1, the source tree on PYTHONPATH) running a
closed loop with one caller over a fixed number of units of work, which
--seconds sets through the workload's nominal unit time.  With --trace 0
the last stdout line carries the end-to-end metrics; with --trace 1 it
carries the per-layer metrics of a separate traced run.  Lines before it
name each metric with its unit and record the machine.  The full result
also goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import THREAD_VARS, WORKLOADS, child_env  # noqa: E402

SETUP_SAMPLES = 5  # set-up-only processes per run, timed from spawn to the end of set-up
CHILD_TIMEOUT_S = 170

UNITS = {  # the end-to-end metrics in BENCHMARK.json
    "setup_s": "s",
    "p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def machine_facts() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "thread_vars": THREAD_VARS,
    }


def spawn(args, env):
    """Run one workload process; return (its result, perf_counter at spawn)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"workload process timed out: {' '.join(args)}")
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(err)
        raise SystemExit(f"workload process failed ({proc.returncode}): {' '.join(args)}")
    return json.loads(out.strip().splitlines()[-1]), start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qodesign" / "__init__.py").is_file():
        print(f"error: no qodesign source tree under {ROOT}", file=sys.stderr)
        return 2

    env = child_env()
    cls = WORKLOADS[args.workload]
    base = [args.workload, "--seed", str(args.seed)]
    outcomes = []

    def worker(mode):
        res, _ = spawn(base + mode, env)
        outcomes.append(res)
        return res

    if args.trace:
        # The unit untraced and then traced, each in a fresh process, so the
        # ratio holds the tracer's cost and not a second run's heap.
        plain = worker(["--unit"])
        res = worker(["--traced"])
    else:
        samples = worker(["--seconds", str(args.seconds)])["samples"]
        setups, raw_setups = [], []
        for _ in range(SETUP_SAMPLES):
            res, start = spawn(base + ["--setup-only"], env)
            raw_setups.append(res["setup_end"] - start)
            setups.append(raw_setups[-1] * res["setup_scale"])

    facts = machine_facts()
    facts["numpy"] = outcomes[0]["numpy"]
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
        ratio = res["wall_s"] / plain["wall_s"]
        metrics["trace_overhead_ratio"] = {"value": ratio, "unit": "ratio"}
        extra = dict(res["extra"], untraced_wall_s=plain["wall_s"])
    else:
        values, extra = cls.summarize(samples)
        values["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
        extra = dict(tail_ms=values["tail_ms"], **extra, raw_setup_s=statistics.median(raw_setups),
                     setup_samples_s=setups)
    attempted = sum(r["attempted"] for r in outcomes)
    failed = sum(r["failed"] for r in outcomes)
    unexpected = sum(r["unexpected"] for r in outcomes)
    notes = [n for r in outcomes for n in r["notes"]][:5]
    extra.update(failed_ratio=failed / attempted if attempted else 1.0,
                 processes=len(outcomes) + (0 if args.trace else SETUP_SAMPLES))
    correct = attempted > 0 and unexpected == 0

    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for k, m in metrics.items():
        print(f"# {k} = {m['value']:.6g} {m['unit']}")
    for k, v in extra.items():
        print(f"# {k} = {v}")
    print(f"# attempted {attempted} failed {failed} (outside known defects: {unexpected})")
    for note in notes:
        print(f"# failure: {note}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "metrics": metrics, "extra": extra,
              "attempted": attempted, "failed": failed, "correct": correct}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
