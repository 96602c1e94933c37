"""Write references.json: the UAV query and sweep answers the workloads check.

Run from the repository root once per intended change of those answers:

    PYTHONPATH=src python3 perfbench/make_references.py

The values are what the engine computed when the benchmark was defined.
"""

import json

from qodesign.casestudies import UavTaskSpec, uav_cost_model, uav_powerset_model

from workloads import HERE, MID_GRID


def payload(v):
    return sorted(v) if isinstance(v, frozenset) else v


def answers(doc, query, sweep):
    res = doc.run_query(query)
    table = doc.run_sweep(sweep)
    return {
        "query": {
            "resource": res.resource,
            "functionality": res.functionality,
            "payload": payload(res.value.payload),
        },
        "sweep": {
            "rows": list(table.rows),
            "cols": list(table.cols),
            "cells": [[payload(v) for v in row] for row in table.cells],
        },
    }


def main():
    refs = {
        "uav_full_cost": answers(
            uav_cost_model(UavTaskSpec()), "cost_at_min_payload", "payload_costs"
        ),
        "uav_mid_powerset": answers(
            uav_powerset_model(UavTaskSpec(**MID_GRID)), "loadouts_mid_budget", "loadouts"
        ),
    }
    (HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
