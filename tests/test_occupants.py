import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from officesim import (
    AgentState,
    CapacityError,
    EventKind,
    ValidationError,
    awareness_to_switch_off_prob,
    sample_daily_schedule,
    sample_population,
    step_occupant,
)
from officesim.occupants import (
    BehaviorContext,
    BehaviorParams,
    CorridorMode,
    OccupantAgent,
    PopulationMix,
    POWER_OFF,
    POWER_ON,
    ScheduleClass,
    Stereotype,
    STEREOTYPE_PARAMS,
    computer_switch_off_prob,
)

from conftest import ScriptedRandom, as_occupant_events, make_small_building


def three_sigma(n: int, p: float) -> float:
    return 3.0 * math.sqrt(n * p * (1.0 - p))


# --- band map -------------------------------------------------------------

@pytest.mark.parametrize(
    "awareness,expected",
    [(97, 0.95), (95, 0.95), (94.99, 0.7), (70, 0.7), (69.5, 0.4), (50, 0.4),
     (30, 0.4), (29.99, 0.2), (0, 0.2), (100, 0.95)],
)
def test_switch_off_band_map(awareness, expected):
    assert awareness_to_switch_off_prob(awareness) == expected


def test_switch_off_band_map_rejects_out_of_range():
    with pytest.raises(ValueError):
        awareness_to_switch_off_prob(-0.1)
    with pytest.raises(ValueError):
        awareness_to_switch_off_prob(100.1)


@given(st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100))
def test_switch_off_band_map_monotone(a, b):
    lo, hi = sorted((a, b))
    assert awareness_to_switch_off_prob(lo) <= awareness_to_switch_off_prob(hi)
    assert awareness_to_switch_off_prob(a) in {0.2, 0.4, 0.7, 0.95}


def test_threshold_gates_computer_switch_off():
    params = BehaviorParams(computer_off_threshold=50.0, computer_off_floor_prob=0.05)
    assert computer_switch_off_prob(49.9, params) == 0.05
    assert computer_switch_off_prob(50.0, params) == 0.4
    assert computer_switch_off_prob(97.0, params) == 0.95
    open_params = BehaviorParams(computer_off_threshold=0.0)
    assert computer_switch_off_prob(10.0, open_params) == 0.2


# --- population sampling ---------------------------------------------------

def test_population_fractions_within_three_sigma():
    building = make_small_building(n_private=0, n_shared=1, shared_desks=10500)
    rng = random.Random(2024)
    agents = sample_population(10_000, PopulationMix(), building, rng)
    schedule_counts = Counter(a.schedule_class for a in agents)
    stereotype_counts = Counter(a.stereotype for a in agents)
    for cls, frac in PopulationMix().schedule.items():
        assert abs(schedule_counts[cls] - 10_000 * frac) <= three_sigma(10_000, frac)
    for st_, frac in PopulationMix().awareness.items():
        assert abs(stereotype_counts[st_] - 10_000 * frac) <= three_sigma(10_000, frac)
    for agent in agents:
        band = STEREOTYPE_PARAMS[agent.stereotype]
        assert band.awareness_low <= agent.awareness <= band.awareness_high


def test_population_empty():
    building = make_small_building()
    assert sample_population(0, PopulationMix(), building, random.Random(1)) == []


def test_population_all_big_users_have_low_awareness():
    building = make_small_building(n_private=0, n_shared=1, shared_desks=100)
    mix = PopulationMix(awareness={Stereotype.BIG_USER: 1.0})
    agents = sample_population(100, mix, building, random.Random(5))
    assert all(a.stereotype is Stereotype.BIG_USER for a in agents)
    assert all(0 <= a.awareness <= 29 for a in agents)


def test_population_capacity_error():
    building = make_small_building()  # 2 private + 1 shared(3) = 5 desks
    with pytest.raises(CapacityError):
        sample_population(6, PopulationMix(), building, random.Random(1))


def test_population_mix_must_sum_to_one():
    building = make_small_building()
    bad = PopulationMix(schedule={ScheduleClass.EARLY_BIRD: 0.5})
    with pytest.raises(ValidationError):
        sample_population(1, bad, building, random.Random(1))


def test_round_robin_assignment_and_computers():
    building = make_small_building(n_private=2, n_shared=1, shared_desks=3)
    agents = sample_population(5, PopulationMix(), building, random.Random(3))
    rooms = [a.office_room_id for a in agents]
    # one pass over the three desk rooms, then the shared room fills up
    assert rooms == ["office-p0", "office-p1", "office-s0", "office-s0", "office-s0"]
    assert all(a.computer_id is not None for a in agents)
    assert len({a.computer_id for a in agents}) == 5


# --- daily schedules --------------------------------------------------------

def test_timetable_complier_monday_windows(rng):
    agent = OccupantAgent(0, ScheduleClass.TIMETABLE_COMPLIER,
                          Stereotype.REGULAR_USER, 50.0, "office-p0")
    for _ in range(500):
        arrival, leave = sample_daily_schedule(agent, 0, rng, BehaviorParams())
        assert 540 <= arrival < 600
        assert 1020 <= leave < 1080


def test_early_bird_windows(rng):
    agent = OccupantAgent(0, ScheduleClass.EARLY_BIRD,
                          Stereotype.REGULAR_USER, 50.0, "office-p0")
    for _ in range(500):
        arrival, leave = sample_daily_schedule(agent, 2, rng, BehaviorParams())
        assert 300 <= arrival < 540
        assert 1020 <= leave < 1080


def test_flexible_worker_leave_always_after_arrival(rng):
    agent = OccupantAgent(0, ScheduleClass.FLEXIBLE_WORKER,
                          Stereotype.REGULAR_USER, 50.0, "office-p0")
    for _ in range(2000):
        arrival, leave = sample_daily_schedule(agent, 1, rng, BehaviorParams())
        assert 600 <= arrival < 780
        assert arrival < leave <= 1380


def test_saturday_presence_frequency():
    agent = OccupantAgent(0, ScheduleClass.TIMETABLE_COMPLIER,
                          Stereotype.REGULAR_USER, 50.0, "office-p0")
    rng = random.Random(99)
    n = 100_000
    present = sum(
        sample_daily_schedule(agent, 5, rng, BehaviorParams()) is not None
        for _ in range(n)
    )
    assert abs(present / n - 0.02) <= 0.0015


# --- leave decisions (the leave rule inside step_occupant) -----------------

def _office_agent(computer=None):
    """Agent at its desk on a 540-1020 day; without a computer by default,
    so a minute spent staying draws nothing but the leave hazard."""
    agent = OccupantAgent(0, ScheduleClass.EARLY_BIRD,
                          Stereotype.BIG_USER, 10.0, "office-p0",
                          computer_id=computer)
    agent.today_schedule = (540, 1020)
    agent.state = AgentState.IN_OWN_OFFICE
    return agent


def _leave_kind(agent, minutes_remaining, rng, ctx):
    """Step an agent at its desk once with ``minutes_remaining`` before
    its leave time; returns the leave taken ("stay" if none) and puts the
    agent back at its desk."""
    minute = 1020 - minutes_remaining
    events = []
    step_occupant(agent, minute, minute, ctx, rng, events)
    kinds = [e.kind for e in as_occupant_events(events)]
    agent.state = AgentState.IN_OWN_OFFICE
    agent.corridor_mode = None
    if EventKind.LEAVE_OFFICE_TEMPORARY in kinds:
        return "temporary"
    if EventKind.LEAVE_OFFICE_LONG in kinds:
        return "long"
    return "stay"


def test_forced_departure_at_zero_minutes():
    agent = _office_agent()
    # the hazard would not fire (1.0): at the leave minute it is not drawn
    rng = ScriptedRandom(values=[1.0])
    assert _leave_kind(agent, 0, rng, _ctx()) == "long"
    assert rng.values == [1.0]


def test_leave_hazard_frequency():
    agent = _office_agent()
    rng = random.Random(7)
    ctx = _ctx()
    n = 100_000
    leaves = sum(
        _leave_kind(agent, 400, rng, ctx) != "stay"
        for _ in range(n)
    )
    assert abs(leaves - n * 0.01) <= three_sigma(n, 0.01)


def test_temporary_duration_bounds():
    agent = _office_agent()
    rng = random.Random(11)
    ctx = _ctx()
    seen = set()
    for _ in range(20_000):
        if _leave_kind(agent, 400, rng, ctx) == "temporary":
            assert 5 <= agent.timer <= 19
            seen.add(agent.timer)
    assert seen == set(range(5, 20))


def test_temporary_leave_fraction():
    agent = _office_agent()
    rng = random.Random(17)
    ctx = _ctx()
    kinds = Counter(_leave_kind(agent, 400, rng, ctx) for _ in range(100_000))
    leaves = kinds["temporary"] + kinds["long"]
    assert abs(kinds["temporary"] - leaves * 0.7) <= three_sigma(leaves, 0.7)


def test_only_long_leaves_near_end_of_day():
    agent = _office_agent()
    rng = random.Random(13)
    ctx = _ctx()
    for _ in range(20_000):
        assert _leave_kind(agent, 15, rng, ctx) in ("stay", "long")
    # near the end the split is not drawn: hazard (0.0), then the duration
    scripted = ScriptedRandom(values=[0.0, 0.0], ints=[30])
    assert _leave_kind(agent, 15, scripted, ctx) == "long"
    assert scripted.values == [0.0] and scripted.ints == []


# --- state machine stepping ------------------------------------------------

def _ctx(**over):
    return BehaviorContext(
        params=BehaviorParams(**over), facility_room_ids=("kitchen-0",)
    )


def _step(agent, minute, ctx, rng):
    """One step at ``minute`` of day 0; returns the events emitted."""
    events = []
    emitted = step_occupant(agent, minute, minute, ctx, rng, events)
    assert emitted is bool(events)
    return as_occupant_events(events)


def _fresh_agent(schedule=(540, 1020), computer="K000"):
    agent = OccupantAgent(0, ScheduleClass.TIMETABLE_COMPLIER,
                          Stereotype.REGULAR_USER, 50.0, "office-p0",
                          computer_id=computer)
    agent.today_schedule = schedule
    return agent


def test_no_events_before_arrival():
    agent = _fresh_agent()
    for minute in range(530, 540):
        assert _step(agent, minute, _ctx(), ScriptedRandom()) == []
    assert agent.state is AgentState.OUT_OF_SCHOOL


def test_corridor_transit_takes_exactly_two_minutes():
    agent = _fresh_agent()
    rng = ScriptedRandom(values=[1.0] * 50)
    events = _step(agent, 540, _ctx(), rng)
    assert [e.kind for e in events] == [EventKind.ENTER_BUILDING]
    assert agent.state is AgentState.IN_CORRIDOR
    assert _step(agent, 541, _ctx(), rng) == []
    events = _step(agent, 542, _ctx(), rng)
    assert [e.kind for e in events] == [EventKind.ENTER_OWN_OFFICE]
    assert agent.state is AgentState.IN_OWN_OFFICE


def test_computer_switched_on_two_minutes_after_entering():
    agent = _fresh_agent()
    rng = ScriptedRandom(values=[1.0] * 50)
    for minute in (540, 541, 542, 543):
        _step(agent, minute, _ctx(), rng)
    events = _step(agent, 544, _ctx(), rng)
    assert [e.kind for e in events] == [EventKind.SWITCH_COMPUTER_ON]
    assert agent.computer_power == POWER_ON


def test_agent_without_computer_emits_no_computer_events():
    agent = _fresh_agent(computer=None)
    rng = ScriptedRandom(values=[1.0] * 600)
    kinds = []
    for minute in range(540, 700):
        kinds += [e.kind for e in _step(agent, minute, _ctx(), rng)]
    assert EventKind.SWITCH_COMPUTER_ON not in kinds
    assert EventKind.COMPUTER_TO_STANDBY not in kinds


def test_standby_then_resume_cycle():
    agent = _fresh_agent()
    rng = ScriptedRandom(values=[1.0] * 10)
    for minute in range(540, 545):
        _step(agent, minute, _ctx(), rng)
    assert agent.computer_power == POWER_ON
    # leave-hazard draw stays (1.0), standby draw fires (0.0)
    events = _step(agent, 545, _ctx(), ScriptedRandom(values=[1.0, 0.0]))
    assert [e.kind for e in events] == [EventKind.COMPUTER_TO_STANDBY]
    rng = ScriptedRandom(values=[1.0] * 10)
    assert _step(agent, 546, _ctx(), rng) == []
    events = _step(agent, 547, _ctx(), rng)
    assert [e.kind for e in events] == [EventKind.SWITCH_COMPUTER_ON]


def test_temporary_leave_duration_is_exact():
    agent = _fresh_agent()
    warmup = ScriptedRandom(values=[1.0] * 10)
    for minute in range(540, 545):
        _step(agent, minute, _ctx(), warmup)
    # hazard fires (0.0), split picks temporary (0.0), duration 7
    rng = ScriptedRandom(values=[0.0, 0.0], ints=[7])
    events = _step(agent, 545, _ctx(), rng)
    assert [e.kind for e in events] == [EventKind.LEAVE_OFFICE_TEMPORARY]
    quiet = ScriptedRandom(values=[1.0] * 20)
    for minute in range(546, 552):
        assert _step(agent, minute, _ctx(), quiet) == []
    events = _step(agent, 552, _ctx(), quiet)
    assert [e.kind for e in events] == [EventKind.ENTER_OWN_OFFICE]


def test_long_leave_switches_computer_off_when_roll_succeeds():
    agent = _fresh_agent()
    warmup = ScriptedRandom(values=[1.0] * 10)
    for minute in range(540, 545):
        _step(agent, minute, _ctx(), warmup)
    # hazard fires (0.0), split picks long (0.99), duration 30, off-roll 0.0
    rng = ScriptedRandom(values=[0.0, 0.99, 0.0], ints=[30])
    events = _step(agent, 545, _ctx(computer_off_threshold=0.0), rng)
    assert [e.kind for e in events] == [
        EventKind.SWITCH_COMPUTER_OFF,
        EventKind.LEAVE_OFFICE_LONG,
    ]
    assert agent.computer_power == POWER_OFF
    assert agent.corridor_mode is CorridorMode.LONG_BREAK


def test_other_room_dwell_is_never_longer_than_sampled():
    agent = _fresh_agent()
    agent.state = AgentState.IN_CORRIDOR
    agent.corridor_mode = CorridorMode.LONG_BREAK
    agent.timer = 60
    # visit hazard fires (0.0), room index 0, dwell 10
    rng = ScriptedRandom(values=[0.0], ints=[0, 10])
    events = _step(agent, 600, _ctx(), rng)
    assert [e.kind for e in events] == [EventKind.ENTER_OTHER_ROOM]
    assert events[0].room_id == "kitchen-0"
    quiet = ScriptedRandom(values=[1.0] * 20)
    for minute in range(601, 610):
        assert _step(agent, minute, _ctx(), quiet) == []
    events = _step(agent, 610, _ctx(), quiet)
    assert [e.kind for e in events] == [EventKind.EXIT_OTHER_ROOM]
    assert agent.state is AgentState.IN_CORRIDOR


def test_departure_at_leave_minute_goes_through_corridor():
    agent = _fresh_agent(schedule=(540, 560))
    rng = ScriptedRandom(values=[1.0] * 60)
    for minute in range(540, 560):
        _step(agent, minute, _ctx(), rng)
    assert agent.state is AgentState.IN_OWN_OFFICE
    events = _step(agent, 560, _ctx(), ScriptedRandom(values=[1.0]))
    assert EventKind.LEAVE_OFFICE_LONG in [e.kind for e in events]
    assert agent.state is AgentState.IN_CORRIDOR
    assert agent.corridor_mode is CorridorMode.EXITING
    quiet = ScriptedRandom(values=[1.0] * 5)
    _step(agent, 561, _ctx(), quiet)
    events = _step(agent, 562, _ctx(), quiet)
    assert [e.kind for e in events] == [EventKind.LEAVE_BUILDING]
    assert agent.state is AgentState.OUT_OF_SCHOOL


def test_stepping_active_agent_without_schedule_is_an_error():
    agent = _fresh_agent()
    agent.state = AgentState.IN_CORRIDOR
    agent.corridor_mode = CorridorMode.ENTERING
    agent.timer = 2
    agent.today_schedule = None
    with pytest.raises(RuntimeError):
        _step(agent, 100, _ctx(), ScriptedRandom())
