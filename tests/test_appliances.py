import random

from hypothesis import given, strategies as st

from officesim import (
    EventKind,
    LightingPolicy,
    Scenario,
    manual_exit_decision,
    run_replication,
)
from officesim.appliances import RoomLightBank
from officesim.occupants import BehaviorParams, PopulationMix, Stereotype

from conftest import (
    make_small_building,
    make_small_scenario,
    occupancy_turns,
    run_events,
)
from invariant_checks import check_staff_passivity, check_staff_switch_offs

STAFF = LightingPolicy.staff_controlled()


def run_pattern(pattern: list[bool], off_delay: int = 20, lit: bool = False):
    """One zone bank's automated on-intervals over ``pattern`` (occupied per
    minute), from its occupancy turns; ``lit`` starts it as if occupied
    the minute before. Returns the bank and whether it is on at each
    minute."""
    bank = RoomLightBank()
    turns = occupancy_turns(pattern)
    if lit:
        turns = [minute - 1 for minute in occupancy_turns([True] + pattern)]
    bank.step_automated(turns, off_delay, len(pattern))
    states = [
        any(a <= minute < b for a, b in bank.intervals)
        for minute in range(len(pattern))
    ]
    return bank, states


def closed_form(pattern: list[bool], off_delay: int) -> list[bool]:
    """Lit at minute m iff occupied at some minute in [m - off_delay, m]."""
    return [any(pattern[max(0, m - off_delay):m + 1]) for m in range(len(pattern))]


def test_light_off_after_exactly_twenty_vacant_minutes():
    _, states = run_pattern([False] * 25, lit=True)
    # on through the 20th vacant minute, off from the 21st sample onward
    assert states[:20] == [True] * 20
    assert states[20:] == [False] * 5


def test_light_reoccupied_at_nineteen_minutes_stays_on():
    _, states = run_pattern([False] * 19 + [True] + [False] * 19 + [True], lit=True)
    assert all(states)


def test_light_on_at_every_occupied_minute():
    rng = random.Random(3)
    pattern = [rng.random() < 0.5 for _ in range(500)]
    _, states = run_pattern(pattern)
    assert all(on for on, occ in zip(states, pattern) if occ)


def test_custom_off_delay():
    _, states = run_pattern([False] * 6, off_delay=5, lit=True)
    assert states == [True] * 5 + [False]


@given(
    st.lists(st.booleans(), min_size=1, max_size=200),
    st.integers(min_value=0, max_value=30),
)
def test_bank_matches_single_light_semantics(pattern, off_delay):
    _, states = run_pattern(pattern, off_delay)
    assert states == closed_form(pattern, off_delay)


def test_bank_interval_log_counts_on_minutes():
    pattern = [True] * 10 + [False] * 25 + [True] * 5
    bank, _ = run_pattern(pattern)
    # on from 0: 10 occupied + 20 delay, then off, then on again at 35
    assert bank.intervals == [(0, 30), (35, 40)]


def test_staff_controlled_light_never_moves_on_its_own(monkeypatch):
    # No sensor steps a bank under staff control; every switch is a
    # manual event.
    def sensor_step(*args):
        raise AssertionError("automated step under staff control")

    monkeypatch.setattr(RoomLightBank, "step_automated", sensor_step)
    scenario = make_small_scenario(population_size=5, horizon_days=2, policy=STAFF)
    result = run_replication(scenario, seed=3)
    assert any(ev.kind is EventKind.MANUAL_LIGHTS_OFF for ev in run_events(result))
    assert not check_staff_passivity(result)


def test_manual_exit_decision_frequency():
    rng = random.Random(17)
    n = 10_000
    offs = sum(manual_exit_decision(97.0, rng) for _ in range(n))
    assert abs(offs / n - 0.95) <= 0.0065


def _champion_staff_runs(seeds, **behavior):
    """Staff-controlled replications of environment champions (switch-off
    probability 0.95), so a roll the engine should not make almost surely
    switches something off."""
    building = make_small_building(n_private=3, n_shared=2, shared_desks=4)
    scenario = Scenario(
        building=building,
        population_size=building.total_desk_capacity(),
        mix=PopulationMix(awareness={Stereotype.ENVIRONMENT_CHAMPION: 1.0}),
        policy=STAFF,
        behavior=BehaviorParams(**behavior),
        horizon_days=2,
        master_seed=5,
    )
    return [run_replication(scenario, seed) for seed in seeds]


def test_manual_exit_decision_temporary_never_switches_off():
    # Mostly temporary leaves: none of them may switch a room off.
    runs = _champion_staff_runs(
        range(3), leave_hazard_per_minute=0.05, temporary_leave_fraction=0.95
    )
    temporary = sum(
        ev.kind is EventKind.LEAVE_OFFICE_TEMPORARY for r in runs for ev in run_events(r)
    )
    assert temporary > 100
    for result in runs:
        assert not check_staff_switch_offs(result)


def test_manual_exit_decision_requires_last_occupant():
    # Shared offices and many facility visits: rooms and the corridor are
    # often left by someone who is not the last one out.
    runs = _champion_staff_runs(range(3), other_room_hazard_per_minute=0.05)
    offs = sum(
        ev.kind is EventKind.MANUAL_LIGHTS_OFF for r in runs for ev in run_events(r)
    )
    assert offs > 100
    for result in runs:
        assert not check_staff_switch_offs(result)

