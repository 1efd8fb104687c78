"""Randomized-replication property harness over runs and their records."""

import random
from collections import Counter
from copy import copy
from dataclasses import replace

import pytest

from officesim import (
    LightingPolicy,
    compare_policies,
    load_building,
    run_replication,
)
from officesim import checks
from officesim.engine import run_replication_arms
from officesim.checks import _STATE_EDGES, derive_trace
from officesim.occupants import ENTER_OWN_OFFICE, LEAVE_BUILDING, MANUAL_LIGHTS_OFF

from conftest import (
    make_building_text,
    make_small_scenario,
    random_scenario,
    run_events,
)
from invariant_checks import (
    check_awareness_monotone,
    check_edge_legality,
    check_no_events_while_absent,
    check_staff_passivity,
    check_staff_switch_offs,
    run_all_checks,
)


@pytest.mark.parametrize("batch", range(5))
def test_randomized_replications_satisfy_invariants(batch):
    rng = random.Random(1000 + batch)
    for _ in range(5):
        scenario = random_scenario(rng)
        result = run_replication(scenario, seed=rng.randrange(2**31))
        violations = run_all_checks(result)
        assert not violations, violations[:5]


def test_zero_watt_lights_pass_every_check():
    # The kitchen's lights draw 0 W: the beta report leaves them out, so
    # every check runs on both arms, and the lightless hall-2 keeps each
    # arm's rule.
    text = make_building_text(corridor_lights=2, corridor_rooms=3) + (
        "light_overrides: {L002: {watts_on: 0}, L003: {watts_on: 0}}\n"
    )
    scenario = replace(
        make_small_scenario(population_size=5, horizon_days=7),
        building=load_building(text),
    )
    policies = (LightingPolicy.automated(), LightingPolicy.staff_controlled())
    for arm in run_replication_arms(scenario, 3, policies):
        assert run_all_checks(arm) == []


def test_each_arm_is_checked_under_its_own_policy():
    # A result names its policy, so each arm of a comparison is checked
    # under its own with no scenario given; an automated arm checked at
    # another off delay breaks that delay's rule.
    scenario = make_small_scenario(
        population_size=5, horizon_days=7, contact_rate=2000.0
    )
    comparison = compare_policies(replace(scenario, replications=1))
    (automated,) = comparison.automated.replications
    (staff,) = comparison.staff_controlled.replications
    assert run_all_checks(automated) == []
    assert run_all_checks(staff) == []
    assert run_all_checks(automated, staff) == []
    moved = replace(automated, policy=LightingPolicy.automated(19))
    violations = run_all_checks(moved)
    assert any(v.endswith("against the 19-minute rule") for v in violations), violations


def test_checks_of_a_pass_draw_its_stays_and_schedules_once(monkeypatch):
    # What the arms of a pass share is derived once for all of them: each
    # recorded stay's emails are drawn once, and each agent's schedule
    # once a day.
    scenario = make_small_scenario(population_size=5, contact_rate=200.0)
    policies = (LightingPolicy.automated(), LightingPolicy.staff_controlled())
    arms = run_replication_arms(scenario, 3, policies)
    calls = Counter()
    for name in ("contact_step", "sample_daily_schedule"):
        def counted(*args, name=name, real=getattr(checks, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(checks, name, counted)
    assert run_all_checks(*arms) == []
    assert calls["contact_step"] == len(arms[0].record.stay_sender) > 0
    assert calls["sample_daily_schedule"] == (
        scenario.population_size * scenario.horizon_days
    )


def test_stays_are_recorded_with_contacts_off():
    # The computers are drawn over the stay table, so it holds every office
    # stay whether or not contacts are on; with contacts off its stays send
    # nothing, and the checks draw no emails from them.
    scenario = make_small_scenario(population_size=5, contact_rate=0.0)
    result = run_replication(scenario, seed=11)
    record = result.record
    assert scenario.layout.email_hazards is None
    entries = [
        (agent_id, minute)
        for code, minute, agent_id in zip(record.kind, record.minute, record.agent)
        if code == ENTER_OWN_OFFICE
    ]
    assert list(zip(record.stay_sender, record.stay_start)) == entries
    assert set(record.computer_agent) == set(record.stay_sender) != set()
    assert checks.contact_count(record) == 0
    assert run_all_checks(result) == []


def test_edge_check_reports_a_deleted_agent_event():
    # Every transition moves its agent to another state, so dropping any
    # one agent event from a run record breaks that agent's chain. The
    # lights are automated: no manual light event follows a dropped one.
    scenario = make_small_scenario(population_size=5)
    result = run_replication(scenario, seed=11)
    assert not check_edge_legality(derive_trace(result))
    positions, _, _ = result.manual
    assert not positions
    events = run_events(result)
    kinds = [ev.kind for ev in events]
    for kind in _STATE_EDGES:  # the agent events that move their agent
        assert kind in kinds, kind
        i = kinds.index(kind)
        # Event i is row ``row`` of the record's agent event columns.
        row = sum(k in _STATE_EDGES for k in kinds[:i])
        record = copy(result.record)
        for name in ("kind", "minute", "agent", "room"):
            column = getattr(record, name)[:]
            del column[row]
            setattr(record, name, column)
        broken = replace(result, record=record)
        agent_id = events[i].agent_id
        violations = check_edge_legality(derive_trace(broken))
        assert any(v.startswith(f"agent {agent_id} ") for v in violations), kind
        assert run_all_checks(broken) == violations


def test_awareness_check_reports_a_deleted_contact(monkeypatch):
    # Final awareness is the exact capped replay of the emails each agent
    # received, so dropping one email to a receiver below the cap from the
    # stays the checks draw again shows.
    scenario = make_small_scenario(population_size=5, contact_rate=20.0)
    result = run_replication(scenario, seed=4)
    assert not check_awareness_monotone(result, derive_trace(result))
    final = result.record.final_awareness
    email = next(c for c in checks.contacts(result.record) if final[c[1]] < 100.0)
    receiver_id = email[1]
    draw = checks.contact_step  # one email per sender and minute at most
    monkeypatch.setattr(
        checks, "contact_step", lambda *args: [e for e in draw(*args) if e != email]
    )
    broken = result
    (violation,) = check_awareness_monotone(broken, derive_trace(broken))
    assert violation.startswith(f"agent {receiver_id}: final awareness")
    assert run_all_checks(broken) == [violation]


def _staff_replication():
    scenario = make_small_scenario(
        population_size=5, policy=LightingPolicy.staff_controlled()
    )
    return scenario, run_replication(scenario, seed=11)


def test_passivity_check_reports_a_deleted_switch_off():
    # Under staff control every light change is a manual event, so
    # dropping a MANUAL_LIGHTS_OFF row from an arm's manual columns leaves
    # its room switched off at that minute without one.
    _, result = _staff_replication()
    assert not check_staff_passivity(result)
    positions, codes, rooms = result.manual
    i = codes.index(MANUAL_LIGHTS_OFF)
    room_id = result.building.rooms[rooms[i]].id
    minute = result.record.minute[positions[i] - 1]
    manual = tuple(column[:i] + column[i + 1:] for column in result.manual)
    broken = replace(result, manual=manual)
    assert check_staff_passivity(broken) == [
        f"room {room_id}: light turned off at minute {minute} without a manual event"
    ]


def test_switch_off_check_reports_a_moved_trigger():
    # A switch-off's trigger is the agent event before its position. Moved
    # back by one agent event, the trigger is one that leaves the leaver
    # still in the space, so the replay finds someone left in it.
    _, result = _staff_replication()
    assert not check_staff_switch_offs(result)
    positions, codes, rooms = result.manual
    i = next(
        i for i, code in enumerate(codes)
        if code == MANUAL_LIGHTS_OFF and positions[i] > 1
        and (i == 0 or positions[i - 1] < positions[i])  # the rows stay in order
    )
    room_id = result.building.rooms[rooms[i]].id
    moved = positions[:]
    moved[i] -= 1
    minute = result.record.minute[moved[i] - 1]
    broken = replace(result, manual=(moved, codes, rooms))
    violations = check_staff_switch_offs(broken)
    assert any(
        v.startswith((
            f"room {room_id}: switched off at minute {minute} after ",
            f"corridor room {room_id}: switched off at minute {minute} after ",
        ))
        for v in violations
    ), violations


def test_absence_check_reports_a_computer_event_after_leaving():
    # An agent out of the building emits nothing: a computer row moved to
    # the minute after its agent's LEAVE_BUILDING shows.
    scenario, result = _staff_replication()
    record = copy(result.record)
    agent_id, start = record.computer_agent[0], record.computer_minute[0]
    leave = next(
        m for code, m, a in zip(record.kind, record.minute, record.agent)
        if code == LEAVE_BUILDING and a == agent_id and m >= start
    )
    record.computer_minute = record.computer_minute[:]
    record.computer_minute[0] = leave + 1
    broken = replace(result, record=record)
    assert not check_no_events_while_absent(result, derive_trace(result))
    (violation,) = check_no_events_while_absent(broken, derive_trace(broken))
    assert violation.startswith(f"agent {agent_id} emitted ")
    assert violation.endswith(f" at minute {leave + 1} while out of the building")
