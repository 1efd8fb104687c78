"""Randomized-replication property harness over runs with their events kept."""

import random
from dataclasses import replace

import pytest

from officesim import LightingPolicy, Scenario, run_replication
from officesim.checks import _STATE_EDGES, derive_trace
from officesim.occupants import BehaviorParams

from conftest import make_small_building, make_small_scenario
from invariant_checks import (
    check_awareness_monotone,
    check_edge_legality,
    run_all_checks,
)


def random_scenario(rng: random.Random) -> Scenario:
    building = make_small_building(
        n_private=rng.randint(1, 3),
        n_shared=rng.randint(1, 2),
        shared_desks=rng.randint(2, 6),
        corridor_lights=rng.randint(1, 6),
        facility_rooms=rng.randint(0, 2),
        base_load_watts=rng.choice([0, 500, 2000]),
    )
    policy = (
        LightingPolicy.automated(rng.choice([5, 20, 30]))
        if rng.random() < 0.5
        else LightingPolicy.staff_controlled()
    )
    behavior = BehaviorParams(
        leave_hazard_per_minute=rng.choice([0.005, 0.01, 0.03]),
        other_room_hazard_per_minute=rng.choice([0.0, 0.005, 0.02]),
        computer_off_threshold=rng.choice([0.0, 50.0, 80.0]),
    )
    return Scenario(
        building=building,
        population_size=rng.randint(0, building.total_desk_capacity()),
        policy=policy,
        contact_rate=rng.choice([0.0, 1.0, 50.0]),
        awareness_delta=rng.choice([0.5, 1.0, 5.0]),
        behavior=behavior,
        horizon_days=rng.randint(1, 3),
        start_day_of_week=rng.randint(0, 6),
        master_seed=rng.randrange(2**31),
    )


@pytest.mark.parametrize("batch", range(5))
def test_randomized_replications_satisfy_invariants(batch):
    rng = random.Random(1000 + batch)
    for _ in range(5):
        scenario = random_scenario(rng)
        result = run_replication(scenario, seed=rng.randrange(2**31))
        violations = run_all_checks(result, scenario)
        assert not violations, violations[:5]


def test_edge_check_reports_a_deleted_agent_event():
    # Every transition moves its agent to another state, so dropping any
    # one agent event from a kept result breaks that agent's chain.
    scenario = make_small_scenario(population_size=5)
    result = run_replication(scenario, seed=11)
    assert not check_edge_legality(derive_trace(result, scenario))
    kinds = [ev.kind for ev in result.events]
    for kind in _STATE_EDGES:  # the agent events that move their agent
        assert kind in kinds, kind
        i = kinds.index(kind)
        broken = replace(result, events=result.events[:i] + result.events[i + 1:])
        agent_id = result.events[i].agent_id
        violations = check_edge_legality(derive_trace(broken, scenario))
        assert any(v.startswith(f"agent {agent_id} ") for v in violations), kind
        assert run_all_checks(broken, scenario) == violations


def test_awareness_check_reports_a_deleted_contact():
    # Final awareness is the exact capped replay of the kept contacts, so
    # dropping one email to a receiver below the cap shows.
    scenario = make_small_scenario(population_size=5, contact_rate=20.0)
    result = run_replication(scenario, seed=4)
    delta = scenario.awareness_delta
    assert not check_awareness_monotone(result, derive_trace(result, scenario), delta)
    final = {record.id: record.final_awareness for record in result.roster}
    i = next(i for i, c in enumerate(result.contacts) if final[c[1]] < 100.0)
    receiver_id = result.contacts[i][1]
    broken = replace(result, contacts=result.contacts[:i] + result.contacts[i + 1:])
    (violation,) = check_awareness_monotone(
        broken, derive_trace(broken, scenario), delta
    )
    assert violation.startswith(f"agent {receiver_id}: final awareness")
    assert run_all_checks(broken, scenario) == [violation]
