"""Case studies: frozen reference values and an independent physics oracle.

The UAV oracle below recomputes the sizing physics with plain floats and
dictionaries read straight from the parameter file, touching none of the
package machinery, so an agreement failure localizes to the engine side.
"""

import json
import math
import pathlib

import pytest

from qodesign.casestudies import (
    ActuatorSpec,
    BatterySpec,
    PROC_COST,
    SENSOR_COST,
    default_actuators,
    default_batteries,
    restricted_uav_cost,
    size_report,
    tracking_bool_model,
    tracking_model,
    tracking_pareto,
    uav_consistency_report,
    uav_cost_model,
    uav_powerset_model,
)
from qodesign.casestudies.export import export_models, shipped_documents
from qodesign.casestudies.uav import (
    UavTaskSpec,
    lift_newtons,
    perception_power_w,
)

from conftest import MID_GRID

PKG_ROOT = pathlib.Path(__file__).resolve().parents[1] / "src" / "qodesign"
PARAMS_PATH = PKG_ROOT / "casestudies" / "data" / "uav_parameters.json"


# ---------------------------------------------------------------------------
# tracking study


TRACKING_TABLE = (
    (70.0, 100.0, math.inf),
    (60.0, 80.0, 100.0),
    (40.0, 60.0, 80.0),
)


def test_tracking_composite_matches_frozen_table():
    composed = tracking_model().compose("tracking")
    assert composed.source.objects == ("5W", "10W", "20W")
    assert composed.target.objects == ("1tgt", "2tgt", "3tgt")
    assert composed.values == TRACKING_TABLE


def test_tracking_query_and_breakdown():
    doc = tracking_model()
    res = doc.run_query("two_targets_at_10W", verbose=True)
    assert res.value.payload == 80.0
    contributions = {mid: payload for mid, _, payload in res.breakdown}
    assert contributions == {"Low": 90.0, "High": 80.0}


def test_tracking_pareto_fronts_frozen():
    fronts = tracking_pareto()
    assert set(fronts["1tgt"]) == {"(5W,70)", "(10W,60)", "(20W,40)"}
    assert set(fronts["2tgt"]) == {"(5W,100)", "(10W,80)", "(20W,60)"}
    assert set(fronts["3tgt"]) == {"(10W,100)", "(20W,80)"}


def test_bool_and_cost_tracking_formulations_agree():
    cost = tracking_model().compose("tracking")
    feasible = tracking_bool_model().compose("tracking")
    for p in ("5W", "10W", "20W"):
        for b in (40, 60, 70, 80, 100):
            for t in ("1tgt", "2tgt", "3tgt"):
                got = feasible.value_payload(f"({p},{b})", t)
                assert got == (cost.value_payload(p, t) <= b)
    assert tracking_bool_model().run_query("two_targets_at_10W_80").value.payload


def test_tracking_cost_tables_are_the_documented_ones():
    assert SENSOR_COST[("10W", "High")] == 50.0
    assert ("5W", "High") not in SENSOR_COST
    assert PROC_COST[("Low", "2tgt")] == 70.0
    assert ("Low", "3tgt") not in PROC_COST


# ---------------------------------------------------------------------------
# UAV oracle: plain-float physics, no engine types


GRAV, FRAME, PERC_BASE, PERC_PER_MPS = 9.81, 100.0, 5.0, 2.0


def _raw_parameters():
    data = json.loads(PARAMS_PATH.read_text())
    return data["actuators"], data["batteries"]


def _oracle_stage_cost(task, act, bat, served_k, payload):
    """Least hardware cost over speeds and loop-consistent weight pairs."""
    best = math.inf
    v_req = task["distance"] / task["period"]
    for v in task["velocities"]:
        if v < v_req or v > act["vmax_mps"]:
            continue
        for w_assumed in task["weights"]:
            lift = w_assumed / 1000.0 * GRAV
            power = (
                act["p0_w"]
                + act["p1_w_per_n2"] * lift * lift
                + PERC_BASE
                + PERC_PER_MPS * v
            )
            flight_s = 2.0 * task["distance"] / v
            energy = power * flight_s / 3600.0
            battery_g = energy / bat["wh_per_kg"] * 1000.0
            unit = energy / bat["wh_per_dollar"]
            maint = math.ceil(served_k / bat["cycles"])
            cost = act["cost"] + unit * maint
            achieved = FRAME + act["weight_g"] + battery_g + payload
            for w_claimed in task["weights"]:
                if w_claimed <= w_assumed and achieved <= w_claimed:
                    best = min(best, cost)
    return best


def _oracle_total(task, payload, acts, bats):
    best = math.inf
    for k in task["served"]:
        pen = task["penalty_scale"] * float(task["demand"] - k) ** 0.5
        stage = min(
            _oracle_stage_cost(task, a, b, k, payload) for a in acts for b in bats
        )
        best = min(best, pen + stage)
    return best


def _oracle_task(spec: UavTaskSpec) -> dict:
    return dict(
        distance=spec.distance_m,
        period=spec.period_s,
        demand=spec.missions_demanded,
        penalty_scale=spec.penalty_scale,
        velocities=spec.velocity_grid,
        weights=spec.weight_grid,
        served=spec.served_grid,
    )


def test_uav_cost_sweep_matches_independent_oracle():
    acts, bats = _raw_parameters()
    spec = UavTaskSpec.coarse()
    table = uav_cost_model(spec).run_sweep("payload_costs")
    engine = dict(zip(table.cols, table.cells[0]))
    for payload in spec.payload_grid:
        want = _oracle_total(_oracle_task(spec), float(payload), acts, bats)
        got = engine[str(payload)]
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(want, abs=1e-9)


def test_uav_coarse_numbers_frozen():
    table = uav_cost_model().run_sweep("payload_costs")
    cells = dict(zip(table.cols, table.cells[0]))
    assert cells["500"] == pytest.approx(63.325004887585536, abs=1e-9)
    assert cells["1500"] == pytest.approx(113.24555320336759, abs=1e-9)
    assert math.isinf(cells["2500"])


def test_uav_powerset_membership_tracks_oracle_costs():
    acts, bats = _raw_parameters()
    spec = UavTaskSpec.tiny()
    selection = uav_powerset_model(spec).compose("selection")
    task = _oracle_task(spec)
    for a in acts:
        for b in bats:
            name = f"{a['name']}*{b['name']}"
            for payload in spec.payload_grid:
                cost = _oracle_total(task, float(payload), [a], [b])
                for budget in spec.budget_grid:
                    member = name in selection.value_payload(
                        str(budget), str(payload)
                    )
                    assert member == (cost <= budget), (name, payload, budget)


def test_uav_restricted_cost_matches_oracle_exactly():
    acts, bats = _raw_parameters()
    spec = UavTaskSpec.tiny()
    task = _oracle_task(spec)
    for a in acts[:2]:
        for b in bats[:3]:
            doc = restricted_uav_cost(
                spec, ActuatorSpec(**a), BatterySpec(**b)
            )
            strip = doc.compose("total_cost")
            for payload in spec.payload_grid:
                want = _oracle_total(task, float(payload), [a], [b])
                got = strip.value_payload("task", str(payload))
                if math.isinf(want):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(want, abs=1e-9)


def test_uav_formulations_consistent_on_coarse_grids():
    assert uav_consistency_report() == []


def test_uav_formulations_consistent_on_mid_grids():
    assert uav_consistency_report(UavTaskSpec(**MID_GRID)) == []


def test_uav_selection_monotone_in_budget_antitone_in_payload():
    spec = UavTaskSpec.tiny()
    selection = uav_powerset_model(spec).compose("selection")
    budgets = [str(b) for b in spec.budget_grid]
    payloads = [str(p) for p in spec.payload_grid]
    for p in payloads:
        for lo, hi in zip(budgets, budgets[1:]):
            assert selection.value_payload(lo, p) <= selection.value_payload(hi, p)
    for b in budgets:
        for lighter, heavier in zip(payloads, payloads[1:]):
            assert selection.value_payload(b, heavier) <= selection.value_payload(
                b, lighter
            )
    sizes = {
        (b, p): len(selection.value_payload(b, p))
        for b in budgets
        for p in payloads
    }
    assert sizes == {
        ("80", "500"): 5,
        ("80", "1500"): 0,
        ("120", "500"): 10,
        ("120", "1500"): 1,
        ("240", "500"): 15,
        ("240", "1500"): 7,
    }


def test_uav_cost_sweep_antitone_in_payload():
    table = uav_cost_model().run_sweep("payload_costs")
    row = list(table.cells[0])
    assert row == sorted(row)
    assert row[0] < row[1] < row[2]


def test_powerset_formulation_carries_the_larger_cut():
    spec = UavTaskSpec.tiny()
    cost_cut = max(e.max_cut for e in size_report(uav_cost_model(spec)))
    ps_cut = max(e.max_cut for e in size_report(uav_powerset_model(spec)))
    assert ps_cut > cost_cut
    entry = size_report(uav_cost_model(spec))[0]
    assert "max cut" in entry.format()


# ---------------------------------------------------------------------------
# parameters and exports


def test_parameter_file_matches_published_defaults():
    acts = default_actuators()
    bats = default_batteries()
    assert [a.name for a in acts] == ["a1", "a2", "a3"]
    assert acts[0] == ActuatorSpec("a1", 50.0, 50.0, 3.0, 1.0, 2.0)
    assert len(bats) == 8
    by_name = {b.name: b for b in bats}
    assert by_name["NiH2"].cycles == 20000
    assert by_name["LiPo"].wh_per_kg == 150.0
    assert by_name["LFP"].wh_per_dollar == 1.5


def test_physics_helpers():
    assert lift_newtons(1000.0) == pytest.approx(9.81)
    assert perception_power_w(2.0) == pytest.approx(9.0)
    assert UavTaskSpec().v_req_mps == pytest.approx(2.0)
    spec = ActuatorSpec("x", 10.0, 5.0, 3.0, 1.0, 2.0)
    assert spec.power_w(3.0) == pytest.approx(1.0 + 2.0 * 9.0)
    bat = BatterySpec("y", wh_per_kg=100.0, wh_per_dollar=4.0, cycles=500)
    assert bat.weight_g(10.0) == pytest.approx(100.0)
    assert bat.unit_cost(10.0) == pytest.approx(2.5)


def test_shipped_model_files_are_fresh_exports(tmp_path):
    shipped_dir = PKG_ROOT / "models"
    for doc in shipped_documents():
        assert doc.render() == (shipped_dir / f"{doc.name}.model").read_text()
    paths = export_models(tmp_path)
    assert sorted(pathlib.Path(p).name for p in paths) == [
        "tracking.model",
        "tracking_bool.model",
        "uav_cost.model",
        "uav_powerset.model",
    ]
    for p in paths:
        p = pathlib.Path(p)
        assert p.read_text() == (shipped_dir / p.name).read_text()
