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
from officesim import run_replication
from officesim.checks import derive_trace
from officesim.occupants import (
    NEVER,
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
    hazard_clock,
    waiting_time,
)

from conftest import (
    LATEST_UNIFORM,
    ScriptedRandom,
    as_occupant_events,
    make_small_building,
    make_small_scenario,
    uniform_for_wait,
)


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


# --- leave decisions (the leave clock and its transition) -----------------

def _office_agent(computer=None):
    """Agent at its desk on a 540-1020 day; without a computer by default,
    so its only clock in the office is the leave clock."""
    agent = OccupantAgent(0, ScheduleClass.EARLY_BIRD,
                          Stereotype.BIG_USER, 10.0, "office-p0",
                          computer_id=computer)
    agent.today_schedule = (540, 1020)
    agent.state = AgentState.IN_OWN_OFFICE
    return agent


def _leave_kind(agent, minutes_remaining, rng, ctx):
    """Fire the leave clock of an agent at its desk with
    ``minutes_remaining`` before its leave time; returns the leave taken
    ("stay" if none) and puts the agent back at its desk."""
    minute = 1020 - minutes_remaining
    agent.leave_at = agent.next_minute = minute
    agent.computer_at = NEVER
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


def _enter_from_break(agent, minute, rng, ctx):
    """Bring an agent back to its desk from a quick break at ``minute``,
    which draws its office clocks."""
    agent.state = AgentState.IN_CORRIDOR
    agent.corridor_mode = CorridorMode.TEMP_BREAK
    agent.next_minute = minute
    events = []
    step_occupant(agent, minute, minute, ctx, rng, events)
    assert [e.kind for e in as_occupant_events(events)] == [EventKind.ENTER_OWN_OFFICE]


def test_forced_departure_at_zero_minutes():
    agent = _office_agent()
    # the leave clock never fires before the leave minute, which is then the
    # departure: nothing is drawn for it
    _enter_from_break(agent, 1000, ScriptedRandom(), _ctx())
    assert agent.leave_at == agent.next_minute == 1020
    rng = ScriptedRandom(values=[0.0])
    assert _leave_kind(agent, 0, rng, _ctx()) == "long"
    assert rng.values == [0.0]


def test_leave_hazard_frequency():
    # The leave hazard is 0.01 per office minute: the clock drawn on
    # entering fires on the first minute with that probability.
    agent = _office_agent()
    rng = random.Random(7)
    ctx = _ctx()
    n = 100_000
    leaves = 0
    for _ in range(n):
        _enter_from_break(agent, 600, rng, ctx)
        leaves += agent.leave_at == 601
    assert abs(leaves - n * 0.01) <= three_sigma(n, 0.01)


def test_leave_clock_is_geometric():
    # P(no leave in the first t minutes) = 0.99**t, up to the leave minute.
    agent = _office_agent()
    rng = random.Random(8)
    ctx = _ctx()
    n = 20_000
    waits = []
    for _ in range(n):
        _enter_from_break(agent, 600, rng, ctx)
        waits.append(agent.leave_at - 601)
    assert max(waits) == 1020 - 601  # capped by the departure
    for t in (10, 50, 100, 300):
        p = 0.99**t
        assert abs(sum(w >= t for w in waits) - n * p) <= three_sigma(n, p)


def test_certain_and_impossible_hazards_draw_nothing():
    rng = ScriptedRandom(values=[0.5])
    assert waiting_time(rng, hazard_clock(1.0)) == 0
    assert waiting_time(rng, hazard_clock(2.5)) == 0
    assert waiting_time(rng, hazard_clock(0.0)) == NEVER
    assert rng.values == [0.5]
    # the largest uniform still gives a finite wait
    assert 0 < waiting_time(ScriptedRandom(), hazard_clock(1e-300)) <= NEVER


def test_temporary_duration_bounds():
    agent = _office_agent()
    rng = random.Random(11)
    ctx = _ctx()
    seen = set()
    for _ in range(20_000):
        if _leave_kind(agent, 400, rng, ctx) == "temporary":
            duration = agent.next_minute - 620
            assert 5 <= duration <= 19
            seen.add(duration)
    assert seen == set(range(5, 20))


def test_temporary_leave_fraction():
    agent = _office_agent()
    rng = random.Random(17)
    ctx = _ctx()
    kinds = Counter(_leave_kind(agent, 400, rng, ctx) for _ in range(100_000))
    leaves = kinds["temporary"] + kinds["long"]
    assert kinds["stay"] == 0
    assert abs(kinds["temporary"] - leaves * 0.7) <= three_sigma(leaves, 0.7)


def test_only_long_leaves_near_end_of_day():
    agent = _office_agent()
    rng = random.Random(13)
    ctx = _ctx()
    for _ in range(20_000):
        assert _leave_kind(agent, 15, rng, ctx) == "long"
    # near the end the split is not drawn: only the duration
    scripted = ScriptedRandom(values=[0.0], ints=[30])
    assert _leave_kind(agent, 15, scripted, ctx) == "long"
    assert scripted.values == [0.0] and scripted.ints == []


# --- state machine transitions ----------------------------------------------

def _ctx(**over):
    return BehaviorContext(
        params=BehaviorParams(**over), facility_room_ids=("kitchen-0",)
    )


def _step(agent, minute, ctx, rng):
    """Fire the agent's clock due at ``minute`` of day 0; returns the
    events emitted."""
    events = []
    emitted = step_occupant(agent, minute, minute, ctx, rng, events)
    assert emitted is bool(events)
    return as_occupant_events(events)


def _fire(agent, ctx, rng):
    """Fire the agent's next clock; returns (minute, events)."""
    minute = agent.next_minute
    return minute, _step(agent, minute, ctx, rng)


def _fresh_agent(schedule=(540, 1020), computer="K000"):
    agent = OccupantAgent(0, ScheduleClass.TIMETABLE_COMPLIER,
                          Stereotype.REGULAR_USER, 50.0, "office-p0",
                          computer_id=computer)
    agent.today_schedule = schedule
    return agent


def test_no_events_before_arrival():
    # An agent out of the building has no clock; the engine fires it first
    # at its arrival, and every agent's day starts with that arrival.
    assert _fresh_agent().next_minute == NEVER
    scenario = make_small_scenario(population_size=5, horizon_days=2)
    result = run_replication(scenario, seed=4)
    schedules = derive_trace(result, scenario).schedules
    first = {}
    for ev in result.events:
        first.setdefault((ev.minute // 1440, ev.agent_id), ev)
    assert first
    for (day, agent_id), ev in first.items():
        arrival, _ = schedules[(day, agent_id)]
        assert ev.kind is EventKind.ENTER_BUILDING
        assert ev.minute == day * 1440 + arrival


def test_corridor_transit_takes_exactly_two_minutes():
    agent = _fresh_agent()
    rng = ScriptedRandom()
    events = _step(agent, 540, _ctx(), rng)
    assert [e.kind for e in events] == [EventKind.ENTER_BUILDING]
    assert agent.state is AgentState.IN_CORRIDOR
    assert agent.next_minute == 542
    minute, events = _fire(agent, _ctx(), rng)
    assert minute == 542
    assert [e.kind for e in events] == [EventKind.ENTER_OWN_OFFICE]
    assert agent.state is AgentState.IN_OWN_OFFICE


def test_computer_switched_on_two_minutes_after_entering():
    agent = _fresh_agent()
    rng = ScriptedRandom()
    _step(agent, 540, _ctx(), rng)
    _fire(agent, _ctx(), rng)  # enters at 542
    minute, events = _fire(agent, _ctx(), rng)
    assert minute == 544
    assert [e.kind for e in events] == [EventKind.SWITCH_COMPUTER_ON]
    assert agent.computer_power == POWER_ON


def test_agent_without_computer_emits_no_computer_events():
    agent = _fresh_agent(computer=None)
    rng = random.Random(21)
    kinds = [e.kind for e in _step(agent, 540, _ctx(), rng)]
    while agent.state is not AgentState.OUT_OF_SCHOOL:
        kinds += [e.kind for e in _fire(agent, _ctx(), rng)[1]]
    assert EventKind.ENTER_OWN_OFFICE in kinds
    assert EventKind.SWITCH_COMPUTER_ON not in kinds
    assert EventKind.COMPUTER_TO_STANDBY not in kinds


def test_standby_then_resume_cycle():
    agent = _fresh_agent()
    # no leave; the standby clock drawn at switch-on fires the next minute
    rng = ScriptedRandom(values=[LATEST_UNIFORM, 0.0])
    _step(agent, 540, _ctx(), rng)
    _fire(agent, _ctx(), rng)  # enters at 542
    _fire(agent, _ctx(), rng)  # switches on at 544
    assert agent.computer_power == POWER_ON
    minute, events = _fire(agent, _ctx(), rng)
    assert (minute, [e.kind for e in events]) == (545, [EventKind.COMPUTER_TO_STANDBY])
    minute, events = _fire(agent, _ctx(), rng)
    assert (minute, [e.kind for e in events]) == (547, [EventKind.SWITCH_COMPUTER_ON])


def test_temporary_leave_duration_is_exact():
    agent = _fresh_agent()
    # leave clock drawn on entering at 542 fires at 545; no standby; the
    # split picks temporary (0.0), duration 7
    rng = ScriptedRandom(
        values=[uniform_for_wait(0.01, 2), LATEST_UNIFORM, 0.0], ints=[7]
    )
    _step(agent, 540, _ctx(), rng)
    _fire(agent, _ctx(), rng)  # enters at 542
    _fire(agent, _ctx(), rng)  # switches on at 544
    minute, events = _fire(agent, _ctx(), rng)
    assert (minute, [e.kind for e in events]) == (
        545, [EventKind.LEAVE_OFFICE_TEMPORARY]
    )
    minute, events = _fire(agent, _ctx(), rng)
    assert (minute, [e.kind for e in events]) == (552, [EventKind.ENTER_OWN_OFFICE])


def test_long_leave_switches_computer_off_when_roll_succeeds():
    agent = _fresh_agent()
    # leave clock fires at 545; split picks long (0.99), duration 30,
    # off-roll 0.0
    rng = ScriptedRandom(
        values=[uniform_for_wait(0.01, 2), LATEST_UNIFORM, 0.99, 0.0], ints=[30]
    )
    ctx = _ctx(computer_off_threshold=0.0)
    _step(agent, 540, ctx, rng)
    _fire(agent, ctx, rng)  # enters at 542
    _fire(agent, ctx, rng)  # switches on at 544
    minute, events = _fire(agent, ctx, rng)
    assert minute == 545
    assert [e.kind for e in events] == [
        EventKind.SWITCH_COMPUTER_OFF,
        EventKind.LEAVE_OFFICE_LONG,
    ]
    assert agent.computer_power == POWER_OFF
    assert agent.corridor_mode is CorridorMode.LONG_BREAK
    assert agent.break_end == 575


def test_other_room_dwell_is_never_longer_than_sampled():
    agent = _fresh_agent()
    agent.state = AgentState.IN_CORRIDOR
    agent.corridor_mode = CorridorMode.LONG_BREAK
    agent.break_end = 660
    # the visit clock fires at 600: room index 0, dwell 10; no second visit
    rng = ScriptedRandom(ints=[0, 10])
    events = _step(agent, 600, _ctx(), rng)
    assert [e.kind for e in events] == [EventKind.ENTER_OTHER_ROOM]
    assert events[0].room_id == "kitchen-0"
    minute, events = _fire(agent, _ctx(), rng)
    assert (minute, [e.kind for e in events]) == (610, [EventKind.EXIT_OTHER_ROOM])
    assert agent.state is AgentState.IN_CORRIDOR
    # the dwell does not count against the break: 60 minutes of it remain
    minute, events = _fire(agent, _ctx(), rng)
    assert (minute, [e.kind for e in events]) == (670, [EventKind.ENTER_OWN_OFFICE])


def test_departure_at_leave_minute_goes_through_corridor():
    agent = _fresh_agent(schedule=(540, 560))
    rng = ScriptedRandom()
    _step(agent, 540, _ctx(), rng)
    _fire(agent, _ctx(), rng)  # enters at 542
    _fire(agent, _ctx(), rng)  # switches on at 544
    assert agent.state is AgentState.IN_OWN_OFFICE
    minute, events = _fire(agent, _ctx(), rng)
    assert minute == 560
    assert EventKind.LEAVE_OFFICE_LONG in [e.kind for e in events]
    assert agent.state is AgentState.IN_CORRIDOR
    assert agent.corridor_mode is CorridorMode.EXITING
    minute, events = _fire(agent, _ctx(), rng)
    assert (minute, [e.kind for e in events]) == (562, [EventKind.LEAVE_BUILDING])
    assert agent.state is AgentState.OUT_OF_SCHOOL
    assert agent.next_minute == NEVER


def test_stepping_active_agent_without_schedule_is_an_error():
    agent = _fresh_agent()
    agent.state = AgentState.IN_CORRIDOR
    agent.corridor_mode = CorridorMode.ENTERING
    agent.next_minute = 100
    agent.today_schedule = None
    with pytest.raises(RuntimeError):
        _step(agent, 100, _ctx(), ScriptedRandom())
