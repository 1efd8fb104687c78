"""Exact relations between runs of one seed (common random numbers).

The goldens pin one building's outputs and the invariants check one run
at a time; these say how two runs of one seed must relate, whatever the
random streams are: a longer off delay never darkens a room, a shorter
horizon is a prefix of a longer one, and emails that raise nobody change
nothing.
"""

import random
from bisect import bisect_left, bisect_right
from dataclasses import replace

import pytest

from officesim import LightingPolicy, run_replication
from officesim.checks import _awareness_replay, pass_network
from officesim.engine import run_replication_arms
from officesim.occupants import MINUTES_PER_DAY

from conftest import random_scenario

DRAWS = 100
OFF_DELAYS = (0, 1, 5, 20, 30)


@pytest.fixture(scope="module")
def draws():
    """``DRAWS`` random scenarios, each with a replication seed; horizons
    of 1-3 days, both policies."""
    rng = random.Random(20)
    return [(random_scenario(rng), rng.randrange(2**31)) for _ in range(DRAWS)]


def _agent_events(record, before=None):
    """The record's agent-event rows, those before minute ``before`` where
    given: the rows are in minute order."""
    end = len(record.minute) if before is None else bisect_left(record.minute, before)
    return [
        column[:end].tolist()
        for column in (record.kind, record.minute, record.agent, record.room)
    ]


def _computer_rows(record, before=None):
    """The record's computer rows in their order, those before minute
    ``before`` where given."""
    rows = zip(record.computer_minute, record.computer_agent, record.computer_power)
    return [row for row in rows if before is None or row[0] < before]


def _clipped(intervals, end):
    """Each room's light intervals clipped to [0, ``end``), the empty ones
    dropped."""
    return {
        room: tuple((a, min(b, end)) for a, b in spans if a < end)
        for room, spans in intervals.items()
    }


def _inside(inner, outer) -> bool:
    """Whether every interval of ``inner`` lies inside one of ``outer``
    (both sorted and disjoint)."""
    starts = [a for a, _ in outer]
    for a, b in inner:
        i = bisect_right(starts, a) - 1
        if i < 0 or outer[i][1] < b:
            return False
    return True


def test_a_longer_off_delay_never_darkens_a_room(draws):
    policies = tuple(LightingPolicy.automated(d) for d in OFF_DELAYS)
    for scenario, seed in draws:
        arms = run_replication_arms(scenario, seed, policies)
        for i, shorter in enumerate(arms):
            for longer in arms[i + 1:]:
                delays = (shorter.policy.off_delay_minutes,
                          longer.policy.off_delay_minutes)
                for room, spans in shorter.light_intervals.items():
                    assert _inside(spans, longer.light_intervals[room]), (
                        scenario, seed, delays, room
                    )
                pairs = zip(shorter.ledger.lights_w, longer.ledger.lights_w)
                assert all(a <= b for a, b in pairs), (scenario, seed, delays)


def test_a_shorter_horizon_is_a_prefix_of_a_longer_one(draws):
    for scenario, seed in draws:
        days = max(2, scenario.horizon_days)
        cut = (days - 1) * MINUTES_PER_DAY
        long = run_replication(replace(scenario, horizon_days=days), seed)
        short = run_replication(replace(scenario, horizon_days=days - 1), seed)
        for name in ("base_w", "lights_w", "computers_w"):
            long_series = getattr(long.ledger, name)[:cut]
            assert long_series == getattr(short.ledger, name), (scenario, seed, name)
        assert _agent_events(long.record, cut) == _agent_events(short.record)
        assert _computer_rows(long.record, cut) == _computer_rows(short.record)
        assert _clipped(long.light_intervals, cut) == short.light_intervals
        by_day, _ = _awareness_replay(long.record, days, pass_network(long.record))
        assert by_day[days - 1].tolist() == short.record.final_awareness.tolist()


def test_emails_that_raise_nobody_change_nothing_but_the_contacts(draws):
    rng = random.Random(21)
    for scenario, seed in draws:
        silent = replace(
            scenario, awareness_delta=0.0, contact_rate=rng.choice([1.0, 50.0, 2000.0])
        )
        unsent = replace(scenario, contact_rate=0.0)
        a, b = run_replication(silent, seed), run_replication(unsent, seed)
        for name in ("base_w", "lights_w", "computers_w"):
            assert getattr(a.ledger, name) == getattr(b.ledger, name), (scenario, seed)
        assert _agent_events(a.record) == _agent_events(b.record)
        assert _computer_rows(a.record) == _computer_rows(b.record)
        assert a.light_intervals == b.light_intervals
        assert [c.tolist() for c in a.manual] == [c.tolist() for c in b.manual]
        for record in (a.record, b.record):
            assert record.final_awareness == record.initial_awareness


AWARENESS_DELTAS = (0.0, 0.5, 2.0, 10.0)
CONTACT_RATE = 2000.0


def _event_bytes(record):
    """The bytes of the record's agent-event columns."""
    return [c.tobytes() for c in (record.kind, record.minute, record.agent, record.room)]


def test_awareness_moves_nobody_and_never_lights_a_room(reference_scenario):
    # Awareness reaches behaviour only through the switch-off rolls, which
    # move nobody: the agent events are the same at every awareness delta
    # and contact rate, and a larger delta can only switch more lights off.
    rng = random.Random(7)
    scenarios = [random_scenario(rng) for _ in range(40)]
    scenarios.append(replace(reference_scenario, horizon_days=3))
    staff = (LightingPolicy.staff_controlled(),)
    for scenario in scenarios:
        (unsent,) = run_replication_arms(replace(scenario, contact_rate=0.0), 11, staff)
        events = _event_bytes(unsent.record)
        lights = None
        for delta in AWARENESS_DELTAS:
            raised = replace(scenario, contact_rate=CONTACT_RATE, awareness_delta=delta)
            (arm,) = run_replication_arms(raised, 11, staff)
            assert _event_bytes(arm.record) == events, (scenario, delta)
            if lights is not None:
                pairs = zip(arm.ledger.lights_w, lights)
                assert all(a <= b for a, b in pairs), (scenario, delta)
            lights = arm.ledger.lights_w
