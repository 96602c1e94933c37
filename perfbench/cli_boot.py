"""Run the qodesign CLI under the tracer and write its layer summary.

Usage: python3 perfbench/cli_boot.py SUMMARY.json CLI-ARGS...

Stands in for ``python -m qodesign.cli CLI-ARGS...`` in traced runs: the
import of the CLI is timed here, the wrappers go on before ``main`` runs
and come off after it, and stdout is left to the CLI alone.
"""

import json
import sys
import time

t0 = time.perf_counter_ns()
import qodesign.cli  # noqa: E402

import_ns = time.perf_counter_ns() - t0

import tracer  # noqa: E402


def main():
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer().install()
    tr.record.add("cli.import_ns", import_ns)
    try:
        code = qodesign.cli.main(argv)
    finally:
        tr.restore()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.layer_summary(tr.record), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
