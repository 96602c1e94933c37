"""UAV sizing study: pick an actuator and a battery for a delivery task.

A drone flies round trips of a fixed distance within a fixed period, so it
needs a cruise speed of at least distance/period.  Heavier drones need more
lift, hence more actuator power, hence more battery energy, hence a heavier
battery: the total weight is a feedback loop, closed here with a traced
design problem over a descending weight grid.

Two formulations share one physics kernel:

* a cost formulation over the cost quantale, where the composite maps a
  payload to the least dollar cost of a drone that carries it, including a
  concave penalty for missions left unserved;
* a powerset formulation over subsets of (actuator, battery) pairs, where
  the composite maps a budget and payload to the set of loadouts that fit.

The two agree exactly: a pair appears in the powerset answer at budget B
iff the cost composite restricted to that pair is at most B.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from ..categories import (
    build_category,
    chain_category,
    discrete_category,
    nat_grid_category,
    pair_name,
)
from ..lax import builtin_lax, pair_elt
from ..model import ModelDocument
from ..problems import build_problem
from ..quantales import bool_quantale, cost_quantale, make_powerset, nat_quantale

GRAVITY_M_S2 = 9.81
FRAME_WEIGHT_G = 100.0
PERCEPTION_BASE_W = 5.0
PERCEPTION_PER_MPS_W = 2.0


@dataclass(frozen=True)
class ActuatorSpec:
    name: str
    weight_g: float
    cost: float
    vmax_mps: float
    p0_w: float
    p1_w_per_n2: float  # power rises with the square of required lift

    def power_w(self, lift_n: float) -> float:
        return self.p0_w + self.p1_w_per_n2 * lift_n * lift_n


@dataclass(frozen=True)
class BatterySpec:
    name: str
    wh_per_kg: float
    wh_per_dollar: float
    cycles: int

    def weight_g(self, energy_wh: float) -> float:
        return energy_wh / self.wh_per_kg * 1000.0

    def unit_cost(self, energy_wh: float) -> float:
        return energy_wh / self.wh_per_dollar


def _load_parameters():
    path = resources.files("qodesign.casestudies").joinpath(
        "data/uav_parameters.json"
    )
    raw = json.loads(path.read_text())
    acts = tuple(ActuatorSpec(**a) for a in raw["actuators"])
    bats = tuple(BatterySpec(**b) for b in raw["batteries"])
    return acts, bats


_PARAMS = None


def _params():
    global _PARAMS
    if _PARAMS is None:
        _PARAMS = _load_parameters()
    return _PARAMS


def default_actuators() -> tuple:
    return _params()[0]


def default_batteries() -> tuple:
    return _params()[1]


def lift_newtons(weight_g: float) -> float:
    return weight_g / 1000.0 * GRAVITY_M_S2


def perception_power_w(speed_mps: float) -> float:
    return PERCEPTION_BASE_W + PERCEPTION_PER_MPS_W * speed_mps


@dataclass(frozen=True)
class UavTaskSpec:
    """Mission parameters and the discretization grids.

    The zero-argument constructor carries the full documented grids; most
    entry points default to the coarse preset, which the whole analysis
    (including pair-level consistency between formulations) runs on in
    seconds.  ``tiny()`` is the resolution shipped in the model files.
    """

    distance_m: float = 600.0
    period_s: float = 300.0
    missions_demanded: int = 1000
    penalty_scale: float = 2.0
    frame_g: float = FRAME_WEIGHT_G
    velocity_grid: tuple = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    weight_grid: tuple = tuple(range(200, 3001, 50))
    served_grid: tuple = tuple(range(0, 1001, 50))
    payload_grid: tuple = tuple(range(100, 2901, 200))
    budget_grid: tuple = (60, 80, 100, 120, 160, 240)

    @property
    def v_req_mps(self) -> float:
        return self.distance_m / self.period_s

    @classmethod
    def coarse(cls) -> "UavTaskSpec":
        return cls(
            velocity_grid=(2.0, 3.0),
            weight_grid=tuple(range(200, 3001, 400)),
            served_grid=(0, 500, 1000),
            payload_grid=(500, 1500, 2500),
        )

    @classmethod
    def tiny(cls) -> "UavTaskSpec":
        return cls(
            velocity_grid=(2.0, 3.0),
            weight_grid=(600, 1000, 1400, 2600),
            served_grid=(0, 500, 1000),
            payload_grid=(500, 1500),
            budget_grid=(80, 120, 240),
        )


def _penalty_map(task: UavTaskSpec):
    return builtin_lax(
        "sqrt_cost",
        nat_quantale(),
        cost_quantale(),
        name="penalty",
        degree=2,
        scale=task.penalty_scale,
    )


def _pair_tables(task, actuators, batteries, penalty, keep_pairs):
    """Vectorized physics shared by both formulations.

    Returns (stage, totals): stage[k, w, p, w2] is the least hardware cost
    over all pairs and cruise speeds given assumed total weight w and claimed
    weight w2 (inf where nothing fits); totals maps each pair name to its own
    table with the unserved-mission penalty added in.  The same arrays feed
    the cost stage, the powerset masks, and the consistency check, so the
    formulations agree to the last bit of float arithmetic.

    Axes: k ascending served grid, w and w2 ascending weight grid, p
    ascending payload grid.
    """
    served = np.array(task.served_grid, dtype=float)
    weights = np.array(task.weight_grid, dtype=float)
    payloads = np.array(task.payload_grid, dtype=float)
    pen = np.array(
        [penalty(task.missions_demanded - int(k)) for k in task.served_grid]
    )
    nk, nw, npay = len(served), len(weights), len(payloads)
    shape = (nk, nw, npay, nw)
    stage = np.full(shape, np.inf)
    totals = {}
    for act in actuators:
        for bat in batteries:
            best = np.full(shape, np.inf)
            for v in task.velocity_grid:
                if v < task.v_req_mps or v > act.vmax_mps:
                    continue
                lift = weights / 1000.0 * GRAVITY_M_S2
                power = (
                    act.p0_w
                    + act.p1_w_per_n2 * lift * lift
                    + PERCEPTION_BASE_W
                    + PERCEPTION_PER_MPS_W * v
                )
                flight_s = 2.0 * task.distance_m / v
                energy = power * flight_s / 3600.0
                battery_g = energy / bat.wh_per_kg * 1000.0
                unit = energy / bat.wh_per_dollar
                maint = np.ceil(served / bat.cycles)
                cost_kw = act.cost + unit[None, :] * maint[:, None]
                achieved = (
                    task.frame_g + act.weight_g + battery_g[:, None] + payloads[None, :]
                )
                fits = achieved[:, :, None] <= weights[None, None, :]
                entry = np.where(
                    fits[None, :, :, :], cost_kw[:, :, None, None], np.inf
                )
                np.minimum(best, entry, out=best)
            np.minimum(stage, best, out=stage)
            if keep_pairs:
                totals[pair_elt(act.name, bat.name)] = best + pen[:, None, None, None]
    return stage, totals


def _descending(names) -> tuple:
    return tuple(str(n) for n in sorted(names, reverse=True))


def _str_grid(values) -> tuple:
    return tuple(str(v) for v in values)


def _tensor_rows(table4):
    # table4 axes (k, w, p, w2) with w ascending; categories list weights
    # descending, so flip both weight axes before flattening row-major.
    nk, nw, npay, nw2 = table4.shape
    return table4[:, ::-1, :, ::-1].reshape(nk * nw, npay * nw2)


def uav_cost_model(
    task: UavTaskSpec = None, actuators=None, batteries=None
) -> ModelDocument:
    """Cost formulation: weight loop traced, unserved missions penalized.

    The main diagram composes a mission-count problem over the counting
    quantale with the traced hardware stage over cost, joined through the
    concave penalty map.  Component problems for actuation and battery
    sizing are registered alongside.
    """
    task = task or UavTaskSpec.coarse()
    actuators = tuple(actuators if actuators is not None else default_actuators())
    batteries = tuple(batteries if batteries is not None else default_batteries())

    doc = ModelDocument("uav_cost")
    qc = doc.add_quantale("C", cost_quantale())
    qn = doc.add_quantale("N", nat_quantale())
    penalty = _penalty_map(task)
    doc.add_map("penalty", penalty)
    doc.add_map("keep_cost", builtin_lax("identity", qc, qc, name="keep_cost"))

    served_names = _str_grid(task.served_grid)
    weight_names = _descending(task.weight_grid)
    payload_names = _str_grid(task.payload_grid)

    doc.add_category("Mission", discrete_category(qn, ("task",)), ("discrete",))
    doc.add_category(
        "ServedN", nat_grid_category(task.served_grid, qn), ("grid",)
    )
    doc.add_category("Served", discrete_category(qc, served_names), ("discrete",))
    doc.add_category("WeightLoop", chain_category(qc, weight_names), ("chain",))
    doc.add_category("Payload", chain_category(qc, payload_names), ("chain",))
    loop_in = doc.add_tensor_category("LoopIn", "Served", "WeightLoop")
    loop_out = doc.add_tensor_category("LoopOut", "Payload", "WeightLoop")

    unserved_rows = [[task.missions_demanded - k for k in task.served_grid]]
    doc.add_problem(
        "unserved",
        build_problem(doc.categories["Mission"], doc.categories["ServedN"], unserved_rows),
        "Mission",
        "ServedN",
    )

    stage, _ = _pair_tables(task, actuators, batteries, penalty, keep_pairs=False)
    doc.add_problem(
        "stage",
        build_problem(loop_in, loop_out, _tensor_rows(stage)),
        "LoopIn",
        "LoopOut",
    )

    _add_component_problems(doc, task, actuators, batteries)

    doc.add_diagram("stage_loop", ("trace", "stage", "WeightLoop"))
    doc.add_diagram(
        "total_cost",
        ("hetero_series", "unserved", "stage_loop", "penalty", "keep_cost"),
    )
    doc.add_query(
        "cost_at_min_payload",
        diagram="total_cost",
        resource="task",
        functionality=payload_names[0],
    )
    doc.add_sweep("payload_costs", diagram="total_cost")
    return doc


_ACTUATION_POWER_GRID = (40, 50, 100, 500)
_ACTUATION_LIFT_GRID = (500, 1500, 3000)
_BATTERY_ENERGY_GRID = (5, 20, 80)
_BATTERY_ALLOWANCE_GRID = (200, 1000, 3000)


def _add_component_problems(doc, task, actuators, batteries):
    """Stand-alone sizing problems for single subsystems."""
    qc = doc.quantales["C"]
    vel_names = _str_grid(task.velocity_grid)
    doc.add_category(
        "PowerW", chain_category(qc, _str_grid(_ACTUATION_POWER_GRID)), ("chain",)
    )
    doc.add_category("Velocity", chain_category(qc, vel_names), ("chain",))
    doc.add_category(
        "LiftCap", chain_category(qc, _str_grid(_ACTUATION_LIFT_GRID)), ("chain",)
    )
    doc.add_tensor_category("Motion", "Velocity", "LiftCap")
    rows = []
    for p_w in _ACTUATION_POWER_GRID:
        row = []
        for v in task.velocity_grid:
            for cap_g in _ACTUATION_LIFT_GRID:
                lift = lift_newtons(cap_g)
                feasible = [
                    a.cost
                    for a in actuators
                    if a.vmax_mps >= v and a.power_w(lift) <= p_w
                ]
                row.append(min(feasible, default=math.inf))
        rows.append(row)
    doc.add_problem(
        "actuation_cost",
        build_problem(doc.categories["PowerW"], doc.categories["Motion"], rows),
        "PowerW",
        "Motion",
    )

    doc.add_category(
        "Energy", chain_category(qc, _str_grid(_BATTERY_ENERGY_GRID)), ("chain",)
    )
    doc.add_category(
        "WeightAllow",
        chain_category(qc, _descending(_BATTERY_ALLOWANCE_GRID)),
        ("chain",),
    )
    doc.add_tensor_category("Storage", "Energy", "WeightAllow")
    rows = []
    for k in task.served_grid:
        row = []
        for e_wh in _BATTERY_ENERGY_GRID:
            for allow_g in _descending(_BATTERY_ALLOWANCE_GRID):
                feasible = [
                    b.unit_cost(e_wh) * math.ceil(k / b.cycles)
                    for b in batteries
                    if b.weight_g(e_wh) <= float(allow_g)
                ]
                row.append(min(feasible, default=math.inf))
        rows.append(row)
    doc.add_problem(
        "battery_cost",
        build_problem(doc.categories["Served"], doc.categories["Storage"], rows),
        "Served",
        "Storage",
    )


def uav_powerset_model(
    task: UavTaskSpec = None, actuators=None, batteries=None
) -> ModelDocument:
    """Powerset formulation: which loadouts fit a budget and payload.

    Resources carry an explicit budget grid; a boolean chooser splits the
    budget from the served count, and the hardware stage answers with the
    set of (actuator, battery) pairs whose lifetime cost, penalty included,
    stays within the budget.
    """
    task = task or UavTaskSpec.coarse()
    actuators = tuple(actuators if actuators is not None else default_actuators())
    batteries = tuple(batteries if batteries is not None else default_batteries())
    pairs = tuple(
        pair_elt(a.name, b.name) for a in actuators for b in batteries
    )

    doc = ModelDocument("uav_powerset")
    qb = doc.add_quantale("B", bool_quantale())
    qs = doc.add_quantale("Impl", make_powerset(pairs, name="Impl"))
    doc.add_map("embed", builtin_lax("bool_to_unit", qb, qs, name="embed"))
    doc.add_map("keep", builtin_lax("identity", qs, qs, name="keep"))

    budget_names = _str_grid(task.budget_grid)
    served_names = _str_grid(task.served_grid)
    weight_names = _descending(task.weight_grid)
    payload_names = _str_grid(task.payload_grid)

    doc.add_category("Budget", chain_category(qb, budget_names), ("chain",))
    doc.add_category("Served", discrete_category(qb, served_names), ("discrete",))
    doc.add_category("WeightLoop", chain_category(qb, weight_names), ("chain",))
    doc.add_category("Payload", chain_category(qb, payload_names), ("chain",))
    doc.add_tensor_category("Choice", "Budget", "Served")
    for base in ("Budget", "Served", "WeightLoop", "Payload"):
        doc.add_pushforward_category(base + "I", base, "embed")
    choice_i = doc.add_tensor_category("ChoiceI", "BudgetI", "ServedI")
    loop_in = doc.add_tensor_category("LoopIn", "ChoiceI", "WeightLoopI")
    loop_out = doc.add_tensor_category("LoopOut", "PayloadI", "WeightLoopI")

    # chooser[b, (b2, k)]: budget b covers b2, for every served count k
    grid = np.array(task.budget_grid)
    chooser = np.repeat(grid[:, None] >= grid[None, :], len(task.served_grid), axis=1)
    doc.add_problem(
        "choose_served",
        build_problem(doc.categories["Budget"], doc.categories["Choice"], chooser),
        "Budget",
        "Choice",
    )

    penalty = _penalty_map(task)
    _, totals = _pair_tables(task, actuators, batteries, penalty, keep_pairs=True)
    # stage[(b, k, w), (p, w2)]: bit i set when pairs[i], the Impl base's
    # i-th name, fits budget b; weights descending as in _tensor_rows
    nb, nk = len(task.budget_grid), len(task.served_grid)
    nw, npay = len(task.weight_grid), len(task.payload_grid)
    budgets = np.array(task.budget_grid, dtype=float)[:, None, None, None, None]
    packed = np.zeros((nb, nk, nw, npay, nw), dtype=np.uint64)
    for i, name in enumerate(pairs):
        fits = totals[name][None, :, ::-1, :, ::-1] <= budgets
        np.bitwise_or(packed, np.uint64(1 << i), out=packed, where=fits)
    stage = packed.reshape(nb * nk * nw, npay * nw)
    doc.add_problem("stage", build_problem(loop_in, loop_out, stage), "LoopIn", "LoopOut")

    _add_feasibility_problems(doc, task)

    doc.add_diagram("stage_loop", ("trace", "stage", "WeightLoopI"))
    doc.add_diagram(
        "selection",
        ("hetero_series", "choose_served", "stage_loop", "embed", "keep"),
    )
    doc.add_query(
        "loadouts_mid_budget",
        diagram="selection",
        resource=budget_names[len(budget_names) // 2],
        functionality=payload_names[0],
    )
    doc.add_sweep("loadouts", diagram="selection")
    return doc


_PERCEPTION_POWER_GRID = (9, 11, 20)


def _add_feasibility_problems(doc, task):
    """Boolean subsystem checks: mission speed and perception power."""
    qb = doc.quantales["B"]
    vel_names = _str_grid(task.velocity_grid)
    doc.add_category("Velocity", chain_category(qb, vel_names), ("chain",))
    doc.add_category(
        "PerceptionW", chain_category(qb, _str_grid(_PERCEPTION_POWER_GRID)), ("chain",)
    )
    rows = [
        [v >= task.v_req_mps and k <= task.missions_demanded for k in task.served_grid]
        for v in task.velocity_grid
    ]
    doc.add_problem(
        "task_ok",
        build_problem(doc.categories["Velocity"], doc.categories["Served"], rows),
        "Velocity",
        "Served",
    )
    rows = [
        [p_w >= perception_power_w(v) for v in task.velocity_grid]
        for p_w in _PERCEPTION_POWER_GRID
    ]
    doc.add_problem(
        "perception_ok",
        build_problem(doc.categories["PerceptionW"], doc.categories["Velocity"], rows),
        "PerceptionW",
        "Velocity",
    )


def restricted_uav_cost(
    task: UavTaskSpec, actuator: ActuatorSpec, battery: BatterySpec
) -> ModelDocument:
    """The cost model with the catalog narrowed to a single pair."""
    return uav_cost_model(task, actuators=(actuator,), batteries=(battery,))


def uav_consistency_report(task: UavTaskSpec = None) -> list:
    """Cross-check the two formulations at every grid point.

    For each budget B, payload p, and pair (a, b): membership of the pair in
    the powerset answer at (B, p) must coincide with the restricted cost
    composite at p being at most B.  Returns the list of disagreements,
    expected empty.
    """
    task = task or UavTaskSpec.coarse()
    ps_doc = uav_powerset_model(task)
    selection = ps_doc.compose("selection")
    mismatches = []
    for act in default_actuators():
        for bat in default_batteries():
            name = pair_elt(act.name, bat.name)
            strip = restricted_uav_cost(task, act, bat).compose("total_cost")
            for p in task.payload_grid:
                cost = strip.value_payload("task", str(p))
                for b in task.budget_grid:
                    chosen = selection.value_payload(str(b), str(p))
                    if (name in chosen) != (cost <= b):
                        mismatches.append((b, p, name, cost, name in chosen))
    return mismatches
