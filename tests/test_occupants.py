import math
import random
from collections import Counter
from dataclasses import replace
from itertools import accumulate

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
from officesim import derive_seed, engine, run_replication
from officesim.building import seat_table
from officesim.checks import derive_trace
from officesim.engine import RunRecord
from officesim.occupants import (
    EVENT_KINDS,
    MINUTES_PER_DAY,
    NEVER,
    BehaviorContext,
    BehaviorParams,
    CorridorMode,
    OccupantAgent,
    PopulationMix,
    ScheduleClass,
    Stereotype,
    STEREOTYPE_PARAMS,
    computer_switch_off_prob,
    hazard_clock,
    waiting_time,
)

from conftest import (
    LATEST_UNIFORM,
    POWER_EVENTS,
    OccupantEvent,
    ScriptedRandom,
    make_small_building,
    make_small_scenario,
    run_events,
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


def _reference_population(n, mix, building, rng):
    """``sample_population``'s draws as first written, a linear scan of the
    running weight per class draw, kept as the reference."""

    def categorical(values, weights):
        u = rng.random()
        acc = 0.0
        for value, w in zip(values, weights):
            acc += w
            if u < acc:
                return value
        return values[-1]

    schedule_weights = [mix.schedule.get(c, 0.0) for c in ScheduleClass]
    stereotype_weights = [mix.awareness.get(s, 0.0) for s in Stereotype]
    agents = []
    for room_id in seat_table(building, n)[0]:
        schedule_class = categorical(tuple(ScheduleClass), schedule_weights)
        stereotype = categorical(tuple(Stereotype), stereotype_weights)
        band = STEREOTYPE_PARAMS[stereotype]
        awareness = rng.uniform(band.awareness_low, band.awareness_high)
        agents.append((schedule_class, stereotype, awareness, room_id))
    return agents


class _EdgeRandom(random.Random):
    """A stream that puts a draw at or next to a class boundary before
    every other one of its own: 0.0, the largest float below 1.0, and the
    running weights of the mixes below."""

    EDGES = (0.0, 1.0 - 2.0**-53, 0.3, 0.8999999999999999, 0.5, 0.08, 0.61)

    def seed(self, a=None, version=2):
        self.calls = 0
        super().seed(a, version)

    def random(self):
        self.calls += 1
        if self.calls % 2:
            return self.EDGES[self.calls // 2 % len(self.EDGES)]
        return super().random()


_S, _T = ScheduleClass, Stereotype


@pytest.mark.parametrize(
    "mix,last_sum",
    [
        (PopulationMix(), 1.0),
        # zero weights, first, inside and last
        (PopulationMix(
            {_S.EARLY_BIRD: 0.0, _S.TIMETABLE_COMPLIER: 1.0, _S.FLEXIBLE_WORKER: 0.0},
            {_T.ENVIRONMENT_CHAMPION: 0.0, _T.ENERGY_SAVER: 0.5,
             _T.REGULAR_USER: 0.0, _T.BIG_USER: 0.5},
        ), 1.0),
        (PopulationMix({_S.EARLY_BIRD: 1.0}, {_T.ENVIRONMENT_CHAMPION: 1.0}), 1.0),
        # running sums that end at 1.0 - 2**-53, one of the edge draws: no
        # class takes that draw, so the last class does
        (PopulationMix(
            {_S.EARLY_BIRD: 0.3, _S.TIMETABLE_COMPLIER: 0.6, _S.FLEXIBLE_WORKER: 0.1},
            {_T.ENVIRONMENT_CHAMPION: 0.3, _T.ENERGY_SAVER: 0.2,
             _T.REGULAR_USER: 0.1, _T.BIG_USER: 0.3999999999999999},
        ), 1.0 - 2.0**-53),
    ],
    ids=["default", "zero-weights", "one-class", "sums-below-one"],
)
def test_population_draws_as_the_reference(mix, last_sum):
    for weights in (mix.schedule.values(), mix.awareness.values()):
        assert list(accumulate(weights))[-1] == last_sum
    building = make_small_building(n_private=3, n_shared=2, shared_desks=60)
    for make_rng in (random.Random, _EdgeRandom):
        for seed in range(5):
            expected_rng, rng = make_rng(seed), make_rng(seed)
            expected = _reference_population(120, mix, building, expected_rng)
            agents = sample_population(120, mix, building, rng)
            assert [
                (a.schedule_class, a.stereotype, a.awareness, a.office_room_id)
                for a in agents
            ] == expected
            assert rng.getstate() == expected_rng.getstate()


def test_round_robin_assignment_and_computers():
    building = make_small_building(n_private=2, n_shared=1, shared_desks=3)
    agents = sample_population(5, PopulationMix(), building, random.Random(3))
    rooms, computers = seat_table(building, 5)
    # one pass over the three desk rooms, then the shared room fills up
    assert rooms == ("office-p0", "office-p1", "office-s0", "office-s0", "office-s0")
    assert [a.office_room_id for a in agents] == list(rooms)
    assert all(cid is not None for cid in computers)
    assert len(set(computers)) == 5


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

def _office_agent():
    """Agent at its desk on a 540-1020 day: its only clock in the office is
    the leave clock."""
    agent = OccupantAgent(0, ScheduleClass.EARLY_BIRD,
                          Stereotype.BIG_USER, 10.0, "office-p0")
    agent.today_schedule = (540, 1020)
    agent.state = AgentState.IN_OWN_OFFICE
    return agent


def _leave_kind(agent, minutes_remaining, rng, ctx):
    """Fire the leave clock of an agent at its desk with
    ``minutes_remaining`` before its leave time; returns the leave taken
    ("stay" if none) and puts the agent back at its desk."""
    minute = 1020 - minutes_remaining
    agent.leave_at = agent.next_minute = minute
    kind = _step(agent, minute, ctx, rng).kind
    agent.state = AgentState.IN_OWN_OFFICE
    agent.corridor_mode = None
    if kind is EventKind.LEAVE_OFFICE_TEMPORARY:
        return "temporary"
    if kind is EventKind.LEAVE_OFFICE_LONG:
        return "long"
    return "stay"


def _enter_from_break(agent, minute, rng, ctx):
    """Bring an agent back to its desk from a quick break at ``minute``,
    which draws its office clocks."""
    agent.state = AgentState.IN_CORRIDOR
    agent.corridor_mode = CorridorMode.TEMP_BREAK
    agent.next_minute = minute
    assert _step(agent, minute, ctx, rng).kind is EventKind.ENTER_OWN_OFFICE


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
    return BehaviorContext(BehaviorParams(**over), ("kitchen-0",))


def _step(agent, minute, ctx, rng):
    """Fire the agent's clock due at ``minute`` of day 0; returns its one
    event."""
    code, room_id = step_occupant(agent, minute, minute, ctx, rng)
    return OccupantEvent(EVENT_KINDS[code], minute, agent.id, room_id)


def _fire(agent, ctx, rng):
    """Fire the agent's next clock; returns (minute, event)."""
    minute = agent.next_minute
    return minute, _step(agent, minute, ctx, rng)


def _computer_events(monkeypatch, stays, rng, desk_computers=True, **over):
    """The transitions of agent 0's computer, as (minute, kind), drawn after
    a pass whose stay table holds its office ``stays`` as (entry, leave,
    awareness at a long leave, else -1), from the computer stream ``rng``;
    agent 0 sits at office-p0, with a computer if ``desk_computers``."""
    scenario = replace(
        make_small_scenario(population_size=1, behavior=BehaviorParams(**over)),
        building=make_small_building(n_private=1, desk_computers=desk_computers),
    )
    record = RunRecord(scenario, 0, (), None)
    for start, end, awareness in stays:
        record.stay_sender.append(0)
        record.stay_start.append(start)
        record.stay_end.append(end)
        record.stay_awareness.append(awareness)
    seeds = []
    monkeypatch.setattr(engine, "Random", lambda seed: seeds.append(seed) or rng)
    engine._draw_computers(record, MINUTES_PER_DAY)
    # its own stream, created at its first stay
    expected = [derive_seed(0, "computer:0")] if desk_computers and stays else []
    assert seeds == expected
    return [
        (m, POWER_EVENTS[p])
        for m, p in zip(record.computer_minute, record.computer_power)
    ]


def _fresh_agent(schedule=(540, 1020)):
    agent = OccupantAgent(0, ScheduleClass.TIMETABLE_COMPLIER,
                          Stereotype.REGULAR_USER, 50.0, "office-p0")
    agent.today_schedule = schedule
    return agent


def test_no_events_before_arrival():
    # An agent out of the building has no clock; the engine fires it first
    # at its arrival, and every agent's day starts with that arrival.
    assert _fresh_agent().next_minute == NEVER
    scenario = make_small_scenario(population_size=5, horizon_days=2)
    result = run_replication(scenario, seed=4)
    schedules = derive_trace(result).schedules
    first = {}
    for ev in run_events(result):
        first.setdefault((ev.minute // 1440, ev.agent_id), ev)
    assert first
    for (day, agent_id), ev in first.items():
        arrival, _ = schedules[(day, agent_id)]
        assert ev.kind is EventKind.ENTER_BUILDING
        assert ev.minute == day * 1440 + arrival


def test_corridor_transit_takes_exactly_two_minutes():
    agent = _fresh_agent()
    rng = ScriptedRandom()
    event = _step(agent, 540, _ctx(), rng)
    assert event.kind is EventKind.ENTER_BUILDING
    assert agent.state is AgentState.IN_CORRIDOR
    assert agent.next_minute == 542
    minute, event = _fire(agent, _ctx(), rng)
    assert minute == 542
    assert event.kind is EventKind.ENTER_OWN_OFFICE
    assert agent.state is AgentState.IN_OWN_OFFICE


def test_computer_switched_on_two_minutes_after_entering(monkeypatch):
    agent = _fresh_agent()
    rng = ScriptedRandom()
    ctx = _ctx()
    _step(agent, 540, ctx, rng)
    _fire(agent, ctx, rng)  # enters at 542
    assert agent.next_minute == agent.leave_at == 1020
    # no standby; the departure's off-roll fails
    stays = [(542, 1020, agent.awareness)]
    assert _computer_events(monkeypatch, stays, ScriptedRandom()) == [
        (544, EventKind.SWITCH_COMPUTER_ON)
    ]


def test_leave_due_with_a_computer_event_fires_first(monkeypatch):
    # The leave clock drawn on entering at 542 fires at 544, the minute the
    # computer would be switched on: the agent leaves and the computer
    # stays off.
    agent = _fresh_agent()
    rng = ScriptedRandom(values=[uniform_for_wait(0.01, 1), 0.0], ints=[7])
    ctx = _ctx()
    _step(agent, 540, ctx, rng)
    _fire(agent, ctx, rng)  # enters at 542
    minute, event = _fire(agent, ctx, rng)
    assert (minute, event.kind) == (544, EventKind.LEAVE_OFFICE_TEMPORARY)
    assert _computer_events(monkeypatch, [(542, 544, -1.0)], ScriptedRandom()) == []


def test_agent_without_computer_emits_no_computer_events(monkeypatch):
    agent = _fresh_agent()
    rng = random.Random(21)
    ctx = _ctx()
    kinds = [_step(agent, 540, ctx, rng).kind]
    stays = []
    while agent.state is not AgentState.OUT_OF_SCHOOL:
        minute, event = _fire(agent, ctx, rng)
        kinds.append(event.kind)
        if event.kind is EventKind.ENTER_OWN_OFFICE:
            stays.append((minute, agent.leave_at, agent.awareness))
    assert EventKind.ENTER_OWN_OFFICE in kinds
    assert EventKind.SWITCH_COMPUTER_ON not in kinds
    assert EventKind.COMPUTER_TO_STANDBY not in kinds
    computer = ScriptedRandom(values=[0.0] * 10)  # would switch everything
    assert _computer_events(monkeypatch, stays, computer, desk_computers=False) == []


def test_standby_then_resume_cycle(monkeypatch):
    agent = _fresh_agent()
    # no leave
    rng = ScriptedRandom(values=[LATEST_UNIFORM])
    ctx = _ctx()
    _step(agent, 540, ctx, rng)
    _fire(agent, ctx, rng)  # enters at 542
    assert agent.leave_at == 1020
    # the standby clock drawn at switch-on fires the next minute
    computer = ScriptedRandom(values=[0.0])
    assert _computer_events(monkeypatch, [(542, 1020, -1.0)], computer) == [
        (544, EventKind.SWITCH_COMPUTER_ON),
        (545, EventKind.COMPUTER_TO_STANDBY),
        (547, EventKind.SWITCH_COMPUTER_ON),
    ]
    assert rng.values == computer.values == []


def test_temporary_leave_duration_is_exact(monkeypatch):
    agent = _fresh_agent()
    # leave clock drawn on entering at 542 fires at 545; the split picks
    # temporary (0.0), duration 7
    rng = ScriptedRandom(values=[uniform_for_wait(0.01, 2), 0.0], ints=[7])
    ctx = _ctx()
    _step(agent, 540, ctx, rng)
    _fire(agent, ctx, rng)  # enters at 542
    minute, event = _fire(agent, ctx, rng)
    assert (minute, event.kind) == (545, EventKind.LEAVE_OFFICE_TEMPORARY)
    minute, event = _fire(agent, ctx, rng)
    assert (minute, event.kind) == (552, EventKind.ENTER_OWN_OFFICE)
    # no standby
    assert _computer_events(monkeypatch, [(542, 545, -1.0)], ScriptedRandom()) == [
        (544, EventKind.SWITCH_COMPUTER_ON)
    ]


def test_long_leave_switches_computer_off_when_roll_succeeds(monkeypatch):
    agent = _fresh_agent()
    # leave clock fires at 545; split picks long (0.99), duration 30
    rng = ScriptedRandom(values=[uniform_for_wait(0.01, 2), 0.99], ints=[30])
    ctx = _ctx(computer_off_threshold=0.0)
    _step(agent, 540, ctx, rng)
    _fire(agent, ctx, rng)  # enters at 542
    minute, event = _fire(agent, ctx, rng)
    assert minute == 545
    assert event.kind is EventKind.LEAVE_OFFICE_LONG
    assert agent.corridor_mode is CorridorMode.LONG_BREAK
    assert agent.break_end == 575
    # no standby; off-roll 0.0 at the leaver's awareness then: the
    # switch-off goes to the computer log, the leave is the event
    computer = ScriptedRandom(values=[LATEST_UNIFORM, 0.0])
    stays = [(542, 545, agent.awareness)]
    assert _computer_events(
        monkeypatch, stays, computer, computer_off_threshold=0.0
    ) == [(544, EventKind.SWITCH_COMPUTER_ON), (545, EventKind.SWITCH_COMPUTER_OFF)]


def test_other_room_dwell_is_never_longer_than_sampled():
    agent = _fresh_agent()
    agent.state = AgentState.IN_CORRIDOR
    agent.corridor_mode = CorridorMode.LONG_BREAK
    agent.break_end = 660
    # the visit clock fires at 600: room index 0, dwell 10; no second visit
    rng = ScriptedRandom(ints=[0, 10])
    event = _step(agent, 600, _ctx(), rng)
    assert event.kind is EventKind.ENTER_OTHER_ROOM
    assert event.room_id == "kitchen-0"
    minute, event = _fire(agent, _ctx(), rng)
    assert (minute, event.kind) == (610, EventKind.EXIT_OTHER_ROOM)
    assert agent.state is AgentState.IN_CORRIDOR
    # the dwell does not count against the break: 60 minutes of it remain
    minute, event = _fire(agent, _ctx(), rng)
    assert (minute, event.kind) == (670, EventKind.ENTER_OWN_OFFICE)


def test_departure_at_leave_minute_goes_through_corridor(monkeypatch):
    agent = _fresh_agent(schedule=(540, 560))
    rng = ScriptedRandom()
    ctx = _ctx()
    _step(agent, 540, ctx, rng)
    _fire(agent, ctx, rng)  # enters at 542
    stays = [(542, 560, agent.awareness)]
    assert _computer_events(monkeypatch, stays, ScriptedRandom()) == [
        (544, EventKind.SWITCH_COMPUTER_ON)
    ]
    assert agent.state is AgentState.IN_OWN_OFFICE
    minute, event = _fire(agent, _ctx(), rng)
    assert minute == 560
    assert event.kind is EventKind.LEAVE_OFFICE_LONG
    assert agent.state is AgentState.IN_CORRIDOR
    assert agent.corridor_mode is CorridorMode.EXITING
    minute, event = _fire(agent, _ctx(), rng)
    assert (minute, event.kind) == (562, EventKind.LEAVE_BUILDING)
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
