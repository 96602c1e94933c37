"""The UAV `stage` tables, built from per-pair weight thresholds, against
the per-(pair, speed) full-size construction kept in conftest as the
oracle.  Equality is exact, array for array, on both formulations."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qodesign.casestudies import (
    ActuatorSpec,
    BatterySpec,
    UavTaskSpec,
    default_actuators,
    default_batteries,
    uav_cost_model,
    uav_powerset_model,
)
from qodesign.errors import ProblemError

from conftest import MID_GRID, oracle_uav_stages


def _stages(task, actuators=None, batteries=None):
    acts = tuple(actuators if actuators is not None else default_actuators())
    bats = tuple(batteries if batteries is not None else default_batteries())
    cost = uav_cost_model(task, acts, bats).problems["stage"]._array
    powerset = uav_powerset_model(task, acts, bats).problems["stage"]._array
    return (cost, powerset), oracle_uav_stages(task, acts, bats)


def _assert_oracle(task, actuators=None, batteries=None):
    got, want = _stages(task, actuators, batteries)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    return got


@pytest.mark.parametrize(
    "task",
    [UavTaskSpec.tiny(), UavTaskSpec.coarse(), UavTaskSpec(**MID_GRID)],
    ids=["tiny", "coarse", "mid"],
)
def test_stages_equal_the_oracle(task):
    _assert_oracle(task)


HIT_ACTUATOR = ActuatorSpec("h", 50.0, 40.0, 3.0, 3.0, 0.0)
HIT_BATTERY = BatterySpec("x", 100.0, 2.0, 500)


def test_exact_threshold_hit_fits_at_its_own_weight():
    # 12 W for 600 s is 2 Wh, 20 g of battery: frame 100 + 50 + 20 + 330
    # lands exactly on the 500 g claim, and + 430 on the 600 g claim
    task = replace(
        UavTaskSpec.coarse(),
        velocity_grid=(2.0,),
        weight_grid=(400, 500, 600),
        payload_grid=(330, 430),
    )
    cost, powerset = _assert_oracle(task, [HIT_ACTUATOR], [HIT_BATTERY])
    # columns (p, w2) with claims descending: 600, 500, 400
    assert np.isfinite(cost[0, :3]).tolist() == [True, True, False]
    assert np.isfinite(cost[0, 3:]).tolist() == [True, False, False]
    assert powerset.any()


def test_no_flyable_speed_builds_empty_stages():
    task = replace(UavTaskSpec.coarse(), velocity_grid=(1.0, 1.5))
    cost, powerset = _assert_oracle(task)
    assert np.isinf(cost).all() and not powerset.any()


def test_one_pair_catalog():
    _assert_oracle(
        UavTaskSpec.coarse(), default_actuators()[:1], default_batteries()[-1:]
    )


def _sub_grid(grid, min_size, max_size):
    return st.lists(
        st.sampled_from(grid), min_size=min_size, max_size=max_size, unique=True
    ).map(lambda xs: tuple(sorted(xs)))


_FULL = UavTaskSpec()
_value = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
_actuator = st.builds(
    ActuatorSpec,
    st.just(""),
    _value(10.0, 300.0),
    _value(10.0, 200.0),
    _value(1.0, 3.5),
    _value(0.0, 10.0),
    _value(0.0, 5.0),
)
_battery = st.builds(
    BatterySpec,
    st.just(""),
    _value(20.0, 250.0),
    _value(0.5, 12.0),
    st.integers(1, 30000),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    velocity=_sub_grid(_FULL.velocity_grid, 0, 4),
    weight=_sub_grid(_FULL.weight_grid, 1, 8),
    payload=_sub_grid(_FULL.payload_grid, 1, 4),
    served=_sub_grid(_FULL.served_grid, 1, 4),
    budget=_sub_grid(_FULL.budget_grid, 1, 4),
    actuators=st.lists(_actuator, min_size=1, max_size=3),
    batteries=st.lists(_battery, min_size=1, max_size=3),
)
def test_staircase_equals_the_oracle_on_random_grids(
    velocity, weight, payload, served, budget, actuators, batteries
):
    task = UavTaskSpec(
        velocity_grid=velocity,
        weight_grid=weight,
        payload_grid=payload,
        served_grid=served,
        budget_grid=budget,
    )
    acts = [replace(a, name=f"a{i}") for i, a in enumerate(actuators)]
    bats = [replace(b, name=f"b{i}") for i, b in enumerate(batteries)]
    _assert_oracle(task, acts, bats)


@pytest.mark.parametrize("build", [uav_cost_model, uav_powerset_model])
@pytest.mark.parametrize(
    "field, grid, pair",
    [
        ("weight_grid", (600, 1400, 1000, 2600), "1400 comes before 1000"),
        ("payload_grid", (500, 500), "500 comes before 500"),
    ],
)
def test_unsorted_grids_fail_naming_the_field(build, field, grid, pair):
    with pytest.raises(ProblemError, match=f"UavTaskSpec.{field} .* {pair}"):
        build(replace(UavTaskSpec.tiny(), **{field: grid}))
