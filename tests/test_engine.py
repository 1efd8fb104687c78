import gc
import importlib
import pkgutil
import random
import tracemalloc
from array import array
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

import officesim
from officesim import (
    EventKind,
    LightingPolicy,
    PolicyKind,
    RoomKind,
    Scenario,
    ValidationError,
    compare_policies,
    derive_seed,
    load_building,
    manual_exit_decision,
    run_experiment,
    run_replication,
)
from officesim.accounting import sequential_sum
from officesim.building import seat_table
from officesim.checks import (
    beta_report,
    computer_transitions,
    contact_count,
    contacts,
    derive_trace,
    pass_network,
    roster,
)
from officesim.engine import run_replication_arms
from officesim.occupants import (
    NEVER,
    POWER_OFF,
    POWER_ON,
    POWER_STANDBY,
    BehaviorParams,
    CorridorMode,
    EVENT_KINDS,
    PopulationMix,
    ScheduleClass,
    Stereotype,
    computer_switch_off_prob,
    hazard_clock,
    sample_population,
    waiting_time,
)

from conftest import (
    OccupantEvent,
    make_building_text,
    make_small_building,
    make_small_scenario,
    random_scenario,
    run_events,
    series_bytes,
)
from invariant_checks import (
    check_automated_light_rule,
    check_staff_lit_while_occupied,
    run_all_checks,
)


def _arrival_days(start_day_of_week: int, horizon_days: int) -> set[int]:
    """Days of a run on which anyone enters the building, when nobody
    comes in at the weekend."""
    scenario = make_small_scenario(
        population_size=5,
        horizon_days=horizon_days,
        start_day_of_week=start_day_of_week,
        behavior=BehaviorParams(weekend_presence_prob=0.0),
    )
    result = run_replication(scenario, seed=11)
    return {
        ev.minute // 1440
        for ev in run_events(result)
        if ev.kind is EventKind.ENTER_BUILDING
    }


def test_clock_derivations():
    # The engine's calendar: day d of a run is weekday (start + d) % 7,
    # and days 5 and 6 (Saturday, Sunday) are the weekend.
    assert _arrival_days(4, 2) == {0}  # Friday start: day 1 is a Saturday
    assert _arrival_days(0, 1) == {0}  # Monday start: day 0 is no weekend
    assert _arrival_days(5, 2) == set()  # Saturday, Sunday
    assert _arrival_days(6, 2) == {1}  # Sunday start: day 1 wraps to Monday


def test_empty_population_yields_flat_base_load():
    scenario = make_small_scenario(population_size=0, horizon_days=1)
    result = run_replication(scenario, seed=1)
    assert len(result.ledger) == 1440
    assert (np.asarray(result.ledger.total_w) == 1000).all()
    assert (np.asarray(result.ledger.lights_w) == 0).all()
    assert run_events(result) == []


def test_replication_is_deterministic():
    scenario = make_small_scenario(population_size=5, horizon_days=2)
    a = run_replication(scenario, seed=99)
    b = run_replication(scenario, seed=99)
    assert series_bytes(a.ledger) == series_bytes(b.ledger)
    assert run_events(a) == run_events(b)
    assert roster(a.record) == roster(b.record)
    assert a.light_intervals == b.light_intervals
    assert computer_transitions(a.record) == computer_transitions(b.record)


def test_different_seeds_differ():
    scenario = make_small_scenario(population_size=5, horizon_days=2)
    a = run_replication(scenario, seed=1)
    b = run_replication(scenario, seed=2)
    assert series_bytes(a.ledger) != series_bytes(b.ledger)


def test_series_length_matches_horizon():
    scenario = make_small_scenario(population_size=3, horizon_days=3)
    result = run_replication(scenario, seed=5)
    assert len(result.ledger) == 3 * 1440


def test_invalid_scenario_rejected_before_stepping():
    scenario = make_small_scenario(population_size=3, horizon_days=0)
    with pytest.raises(ValidationError):
        run_replication(scenario, seed=1)


@pytest.mark.parametrize("field", ["contact_rate", "awareness_delta"])
def test_nan_rate_rejected_before_stepping(field):
    with pytest.raises(ValidationError, match=field):
        run_replication(make_small_scenario(**{field: float("nan")}), seed=1)


def test_population_exceeding_capacity_rejected():
    scenario = make_small_scenario(population_size=50)
    with pytest.raises(ValidationError):
        run_replication(scenario, seed=1)


def test_accounting_identity_and_beta_reconstruction():
    scenario = make_small_scenario(population_size=5, horizon_days=2)
    result = run_replication(scenario, seed=17)
    ledger = result.ledger
    total, base, lights, computers = map(
        np.asarray,
        (ledger.total_w, ledger.base_w, ledger.lights_w, ledger.computers_w),
    )
    assert (total - base - lights - computers == 0).all()
    report = beta_report(result)
    flexible = ledger.flexible_energy_wh()
    assert flexible > 0
    assert report.reconstructed_flexible_wh() == pytest.approx(flexible, rel=1e-9)
    # windowed reconstruction agrees with the windowed ledger too
    lo, hi = 600, 2000
    windowed = beta_report(result, lo, hi)
    assert windowed.reconstructed_flexible_wh() == pytest.approx(
        ledger.flexible_energy_wh(lo, hi), rel=1e-9, abs=1e-6
    )


def test_single_early_bird_light_energy_bounds():
    building = make_small_building(n_private=1, n_shared=0, facility_rooms=1)
    scenario = Scenario(
        building=building,
        population_size=1,
        mix=PopulationMix(schedule={ScheduleClass.EARLY_BIRD: 1.0}),
        policy=LightingPolicy.automated(),
        horizon_days=1,
        master_seed=3,
    )
    result = run_replication(scenario, seed=11)
    office = roster(result.record)[0].office_room_id
    presence = 0
    enters = 0
    last_enter = None
    for ev in run_events(result):
        if ev.kind is EventKind.ENTER_OWN_OFFICE:
            last_enter = ev.minute
            enters += 1
        elif ev.kind in (EventKind.LEAVE_OFFICE_TEMPORARY, EventKind.LEAVE_OFFICE_LONG):
            presence += ev.minute - last_enter
    (room,) = [room for room in building.rooms if room.id == office]
    watts = sum(building.lights[lid].watts_on for lid in room.light_ids)
    on_minutes = sum(
        (e if e != -1 else result.n_minutes) - s
        for s, e in result.light_intervals[office]
    )
    energy = watts * on_minutes / 60.0
    excursions = enters  # every entry follows an absence
    assert energy >= watts * presence / 60.0
    assert energy <= watts * (presence + 20 * excursions + 20) / 60.0


def test_experiment_mean_of_single_rep_is_that_rep():
    scenario = make_small_scenario(population_size=4, horizon_days=1)
    result = run_experiment(replace(scenario, replications=1, master_seed=8))
    rep = result.replications[0]
    assert np.array_equal(result.mean_total_w, rep.ledger.total_w)
    assert result.mean_total_kwh == pytest.approx(
        rep.ledger.total_energy_wh() / 1000.0
    )


def test_experiment_seed_independence_under_rep_count():
    scenario = make_small_scenario(population_size=4, horizon_days=1)
    short = run_experiment(replace(scenario, replications=3, master_seed=21))
    longer = run_experiment(replace(scenario, replications=5, master_seed=21))
    for i in range(3):
        assert short.rep_seeds[i] == longer.rep_seeds[i]
        assert series_bytes(short.replications[i].ledger) == series_bytes(
            longer.replications[i].ledger
        )


def test_experiment_different_master_seeds():
    scenario = make_small_scenario(population_size=4, horizon_days=1)
    a = run_experiment(replace(scenario, replications=2, master_seed=1))
    b = run_experiment(replace(scenario, replications=2, master_seed=2))
    assert len(a.mean_total_w) == len(b.mean_total_w)
    assert not np.array_equal(a.mean_total_w, b.mean_total_w)


def test_compare_policies_with_no_agents_is_a_tie():
    scenario = make_small_scenario(population_size=0, horizon_days=1)
    comparison = compare_policies(replace(scenario, replications=2, master_seed=4))
    assert comparison.mean_diff_kwh == 0.0
    assert (np.asarray(comparison.paired_diff_kwh) == 0).all()


def test_compare_policies_shares_populations_and_computers():
    scenario = make_small_scenario(population_size=5, horizon_days=2)
    comparison = compare_policies(replace(scenario, replications=2, master_seed=10))
    auto = comparison.automated.replications[0]
    staff = comparison.staff_controlled.replications[0]
    assert auto.record is staff.record
    assert roster(auto.record) == roster(staff.record)
    assert computer_transitions(auto.record) == computer_transitions(staff.record)
    assert np.array_equal(auto.ledger.computers_w, staff.ledger.computers_w)
    assert comparison.automated.scenario.policy.kind is PolicyKind.AUTOMATED
    assert (
        comparison.staff_controlled.scenario.policy.kind
        is PolicyKind.STAFF_CONTROLLED
    )


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(42, "rep:0") == derive_seed(42, "rep:0")
    assert derive_seed(42, "rep:0") != derive_seed(42, "rep:1")
    assert derive_seed(42, "rep:0") != derive_seed(43, "rep:0")


def test_manual_light_events_only_under_staff_policy():
    scenario = make_small_scenario(
        population_size=5, horizon_days=1, policy=LightingPolicy.automated()
    )
    auto = run_replication(scenario, seed=33)
    assert not any(
        ev.kind in (EventKind.MANUAL_LIGHTS_ON, EventKind.MANUAL_LIGHTS_OFF)
        for ev in run_events(auto)
    )
    staff = run_replication(
        replace(scenario, policy=LightingPolicy.staff_controlled()), seed=33
    )
    assert any(ev.kind is EventKind.MANUAL_LIGHTS_ON for ev in run_events(staff))


def test_big_population_mix_override():
    scenario = make_small_scenario(
        population_size=5,
        horizon_days=1,
        mix=PopulationMix(awareness={Stereotype.BIG_USER: 1.0}),
    )
    result = run_replication(scenario, seed=2)
    assert all(r.stereotype is Stereotype.BIG_USER for r in roster(result.record))


def test_agent_left_in_building_at_midnight_is_a_runtime_error(monkeypatch):
    # An agent heading out never walks out: it stays in the building, and
    # the midnight check must catch it, also under `python -O`.
    from officesim import engine

    real_step = engine.step_occupant

    def step_without_leaving(agent, minute, minute_of_day, ctx, rng):
        event = real_step(agent, minute, minute_of_day, ctx, rng)
        if agent.corridor_mode is CorridorMode.EXITING:
            agent.next_minute = NEVER
        return event

    monkeypatch.setattr(engine, "step_occupant", step_without_leaving)
    scenario = make_small_scenario(population_size=3, horizon_days=2)
    with pytest.raises(RuntimeError, match="midnight"):
        run_replication(scenario, seed=5)


def test_untraced_runs_build_no_event_objects():
    # Agent events and contacts travel as plain tuples and record columns:
    # no module of the package defines an OccupantEvent or a ContactEvent,
    # and only the tests' run_events makes named event tuples.
    modules = [officesim] + [
        importlib.import_module(f"officesim.{info.name}")
        for info in pkgutil.iter_modules(officesim.__path__)
    ]
    for module in modules:
        for name in ("OccupantEvent", "ContactEvent"):
            assert not hasattr(module, name), (module.__name__, name)

    scenario = make_small_scenario(population_size=5, contact_rate=200.0)
    staff = replace(scenario, policy=LightingPolicy.staff_controlled())
    viewed = run_events(run_replication(staff, seed=3))
    assert {e.kind for e in viewed} >= {
        EventKind.ENTER_OWN_OFFICE, EventKind.MANUAL_LIGHTS_ON
    }
    assert all(type(e) is OccupantEvent for e in viewed)
    result = run_replication(scenario, seed=3)
    assert len(contacts(result.record)) == contact_count(result.record) > 0


def test_experiment_replications_pass_every_check():
    # Every pass writes its run record, so the replications of an
    # experiment and of a comparison are traced and checked like any
    # other, and their contacts view replays every email counted.
    scenario = make_small_scenario(population_size=5, contact_rate=50.0)
    results = (
        run_experiment(scenario).replications[0],
        compare_policies(scenario).staff_controlled.replications[0],
    )
    for result in results:
        assert contact_count(result.record) > 0
        assert len(contacts(result.record)) == contact_count(result.record)
        assert not run_all_checks(result)
    assert any(ev.kind is EventKind.MANUAL_LIGHTS_ON for ev in run_events(results[1]))


def test_stays_that_can_raise_nobody_are_recorded_but_not_drawn(
    monkeypatch, reference_scenario
):
    # Awareness never falls and the cap is absorbing, so a pass draws no
    # emails for a stay whose sender's neighbors are all at the cap, nor
    # at awareness delta 0. The stay is still recorded: contact_count and
    # the contacts view replay every stay, and final awareness replays
    # exactly from those contacts.
    from officesim import engine

    drawn = []
    contact_step = engine.contact_step

    def counted(*args):
        drawn.append(args[1])
        return contact_step(*args)

    monkeypatch.setattr(engine, "contact_step", counted)
    social = replace(reference_scenario, contact_rate=2000.0, horizon_days=2)
    silent = make_small_scenario(
        population_size=5, contact_rate=200.0, awareness_delta=0.0
    )
    for scenario, draws in ((social, True), (silent, False)):
        drawn.clear()
        comparison = compare_policies(replace(scenario, replications=1))
        stays = len(comparison.automated.replications[0].record.stay_sender)
        assert len(drawn) < stays
        assert bool(drawn) is draws
        for experiment in (comparison.automated, comparison.staff_controlled):
            (result,) = experiment.replications
            count = contact_count(result.record)
            assert count == len(contacts(result.record)) > 0
            assert not run_all_checks(result)
    assert all(r.final_awareness == r.initial_awareness for r in roster(result.record))


def test_idle_stretches_match_minute_by_minute_recording():
    # A Friday start leaves most minutes idle, and staff-controlled lights
    # may stay lit through them; the trace's light matrix, filled in one
    # slice per idle stretch, must agree with the ledger on every minute.
    scenario = make_small_scenario(
        population_size=5, horizon_days=3, start_day_of_week=4,
        policy=LightingPolicy.staff_controlled(),
    )
    result = run_replication(scenario, seed=8)
    trace = derive_trace(result)
    building = scenario.building
    assert trace.room_ids == tuple(room.id for room in building.rooms)
    watts = np.array([
        sum(building.lights[lid].watts_on for lid in room.light_ids)
        for room in building.rooms
    ])
    assert np.array_equal(watts @ trace.lights_on, result.ledger.lights_w)


def test_shared_pass_arms_equal_solo_replications():
    # Two automated arms with different delays and two staff arms, in
    # alternation: a countdown set, bank or manual-switching stream shared
    # between arms, or a manual event logged into another arm, changes
    # some arm's result.
    rng = random.Random(31337)
    seen = {"delays": set(), "contact_rates": set(), "start_days": set(),
            "no_network": 0, "manual_events": 0}
    for _ in range(24):
        scenario = random_scenario(rng)
        seed = rng.randrange(2**31)
        first, second = rng.sample([5, 20, 30], 2)
        policies = (
            LightingPolicy.automated(first),
            LightingPolicy.staff_controlled(),
            LightingPolicy.automated(second),
            LightingPolicy.staff_controlled(),
        )
        arms = run_replication_arms(scenario, seed, policies)
        assert len(arms) == len(policies)
        for policy, arm in zip(policies, arms):
            solo = run_replication(replace(scenario, policy=policy), seed)
            assert run_events(arm) == run_events(solo)
            for name in ("base_w", "lights_w", "computers_w"):
                assert (getattr(arm.ledger, name).tobytes()
                        == getattr(solo.ledger, name).tobytes()), name
            assert arm.light_intervals == solo.light_intervals
            assert computer_transitions(arm.record) == computer_transitions(
                solo.record
            )
            assert contact_count(arm.record) == contact_count(solo.record)
            assert roster(arm.record) == roster(solo.record)
            seen["manual_events"] += sum(
                ev.kind in (EventKind.MANUAL_LIGHTS_ON, EventKind.MANUAL_LIGHTS_OFF)
                for ev in run_events(arm)
            )
        seen["delays"].update((first, second))
        seen["contact_rates"].add(scenario.contact_rate)
        seen["start_days"].add(scenario.start_day_of_week)
        seen["no_network"] += pass_network(arms[0].record) is None
    assert seen["delays"] == {5, 20, 30}
    assert seen["contact_rates"] == {0.0, 1.0, 50.0}
    assert seen["start_days"] == set(range(7))
    assert seen["no_network"] > 0
    assert seen["manual_events"] > 0


def test_automated_arms_keep_the_rule_at_every_delay():
    # random_scenario draws the delays 5, 20 and 30 only. Here automated
    # arms at delays 0, 1 and one drawn from 2-30 share a pass with a staff
    # arm: each must keep the exact rule and equal its solo run.
    rng = random.Random(8191)
    lit = 0
    for _ in range(8):
        scenario = random_scenario(rng)
        seed = rng.randrange(2**31)
        delays = (0, 1, rng.randint(2, 30))
        policies = (
            *map(LightingPolicy.automated, delays), LightingPolicy.staff_controlled()
        )
        arms = run_replication_arms(scenario, seed, policies)
        for policy, arm in zip(policies, arms[:-1]):
            solo = run_replication(replace(scenario, policy=policy), seed)
            assert arm.light_intervals == solo.light_intervals
            assert arm.ledger.lights_w.tobytes() == solo.ledger.lights_w.tobytes()
            assert arm.policy == policy
            assert not check_automated_light_rule(arm, derive_trace(arm))
            for spans in arm.light_intervals.values():
                # Spans that touch are one: a dark minute separates any two.
                gaps = zip(spans, spans[1:])
                assert all(end < start for (_, end), (start, _) in gaps)
                lit += len(spans)
    assert lit > 100


def test_both_arms_switch_exactly_the_rooms_that_have_lights():
    # A room switches when it has lights, under either policy: the kitchen,
    # whose lights draw 0 W, keeps each arm's rule, and the corridor room
    # hall-2, which has no lights, is never lit nor named by a manual event.
    text = make_building_text(corridor_lights=2, corridor_rooms=3) + (
        "light_overrides: {L002: {watts_on: 0}, L003: {watts_on: 0}}\n"
    )
    scenario = replace(
        make_small_scenario(population_size=5, horizon_days=7),
        building=load_building(text),
    )
    assert [r.id for r in scenario.building.rooms if not r.light_ids] == ["hall-2"]
    policies = (LightingPolicy.automated(), LightingPolicy.staff_controlled())
    automated, staff = run_replication_arms(scenario, 3, policies)
    assert not check_automated_light_rule(automated, derive_trace(automated))
    assert not check_staff_lit_while_occupied(staff, derive_trace(staff))
    for arm in (automated, staff):
        assert arm.light_intervals["kitchen-0"]
        assert arm.light_intervals["hall-2"] == ()
    switched = {room for _, _, room in zip(*staff.manual)}
    assert switched == {
        i for i, room in enumerate(scenario.building.rooms) if room.light_ids
    }


def test_corridor_rooms_switch_as_one_zone():
    # The corridor rooms share one occupancy zone, so under either policy
    # those with lights share their on-intervals, and every staff switch
    # of the corridor names each of them at the same position.
    scenario = replace(
        make_small_scenario(population_size=5, horizon_days=7),
        building=load_building(make_building_text(corridor_lights=2, corridor_rooms=3)),
    )
    rooms = scenario.building.rooms
    halls = [
        i for i, room in enumerate(rooms)
        if room.kind is RoomKind.CORRIDOR and room.light_ids
    ]
    assert [rooms[i].id for i in halls] == ["hall", "hall-1"]
    policies = (LightingPolicy.automated(), LightingPolicy.staff_controlled())
    automated, staff = run_replication_arms(scenario, 3, policies)
    for arm in (automated, staff):
        (spans,) = {arm.light_intervals[rooms[i].id] for i in halls}
        assert spans
    named: dict[tuple[int, int], list[int]] = {}
    for position, code, room in zip(*staff.manual):
        if room in halls:
            named.setdefault((position, code), []).append(room)
    codes = {EVENT_KINDS[code] for _, code in named}
    assert codes == {EventKind.MANUAL_LIGHTS_ON, EventKind.MANUAL_LIGHTS_OFF}
    assert all(switched == halls for switched in named.values())


# Per agent event, in order, the spaces its agent enters (+1) or leaves
# (-1): None is the room the event names, "corridor" every corridor room.
_MOVES = {
    EventKind.ENTER_BUILDING: (("corridor", 1),),
    EventKind.LEAVE_BUILDING: (("corridor", -1),),
    EventKind.ENTER_OWN_OFFICE: ((None, 1), ("corridor", -1)),
    EventKind.ENTER_OTHER_ROOM: ((None, 1), ("corridor", -1)),
    EventKind.LEAVE_OFFICE_TEMPORARY: ((None, -1), ("corridor", 1)),
    EventKind.LEAVE_OFFICE_LONG: ((None, -1), ("corridor", 1)),
    EventKind.EXIT_OTHER_ROOM: ((None, -1), ("corridor", 1)),
}
_LIGHTS_ON = EVENT_KINDS.index(EventKind.MANUAL_LIGHTS_ON)
_LIGHTS_OFF = EVENT_KINDS.index(EventKind.MANUAL_LIGHTS_OFF)


def _replay_staff_lights(result, awareness_delta):
    """The staff-controlled lights of ``result``'s pass, replayed from its
    agent events and contacts alone: anyone entering a space switches on
    its dark lights, in the rooms that have any; the last one out, unless
    on a quick break, rolls ``manual_exit_decision`` once from a fresh
    manual-switching stream at their awareness then, the initial one
    raised once per contact before that minute, capped at 100. Returns
    the light intervals and the manual events as (agent events so far,
    kind code, room index)."""
    record = result.record
    rooms = result.building.rooms
    corridor = [i for i, room in enumerate(rooms) if room.kind is RoomKind.CORRIDOR]
    rng = random.Random(derive_seed(result.seed, "policy"))
    awareness = list(record.initial_awareness)
    emails = iter(contacts(record))
    contact = next(emails, None)
    count = Counter()
    lit_since = [None] * len(rooms)
    intervals = {room.id: [] for room in rooms}
    manual = []
    events = zip(record.kind, record.minute, record.agent, record.room)
    for position, (code, minute, agent_id, room) in enumerate(events, 1):
        while contact is not None and contact[2] < minute:
            receiver_id = contact[1]
            awareness[receiver_id] = min(awareness[receiver_id] + awareness_delta, 100.0)
            contact = next(emails, None)
        kind = EVENT_KINDS[code]
        for space, step in _MOVES[kind]:
            if space is None and room not in corridor:
                space, group = room, [room]
            else:
                space, group = "corridor", corridor
            count[space] += step
            if step > 0:
                for i in group:
                    if rooms[i].light_ids and lit_since[i] is None:
                        lit_since[i] = minute
                        manual.append((position, _LIGHTS_ON, i))
            elif count[space] == 0 and kind is not EventKind.LEAVE_OFFICE_TEMPORARY:
                if manual_exit_decision(awareness[agent_id], rng):
                    for i in group:
                        if lit_since[i] is not None:
                            intervals[rooms[i].id].append((lit_since[i], minute))
                            lit_since[i] = None
                            manual.append((position, _LIGHTS_OFF, i))
    for i, start in enumerate(lit_since):
        if start is not None:
            intervals[rooms[i].id].append((start, result.n_minutes))
    return {rid: tuple(spans) for rid, spans in intervals.items()}, manual


def test_staff_lights_equal_an_independent_replay():
    # The manual-switching oracle: the staff arm's light intervals and
    # manual events equal a replay from the agent events, the contacts and
    # a fresh policy stream. Raised contact rates move awareness across
    # the switch-off bands between rolls, and corridors of several rooms
    # have every corridor room switched.
    rng = random.Random(60221)
    staff = LightingPolicy.staff_controlled()
    seen = {"corridor_rooms": set(), "contact_rates": set(), "switch_offs": 0}
    for i in range(24):
        scenario = replace(random_scenario(rng), policy=staff)
        if i % 3 == 0:
            scenario = replace(scenario, contact_rate=2000.0)
        result = run_replication(scenario, seed=rng.randrange(2**31))
        intervals, manual = _replay_staff_lights(result, scenario.awareness_delta)
        assert result.light_intervals == intervals
        assert list(zip(*result.manual)) == manual
        rooms = scenario.building.rooms
        seen["corridor_rooms"].add(sum(r.kind is RoomKind.CORRIDOR for r in rooms))
        seen["contact_rates"].add(scenario.contact_rate)
        seen["switch_offs"] += result.manual[1].count(_LIGHTS_OFF)
    assert seen["corridor_rooms"] == {1, 2, 3}
    assert 2000.0 in seen["contact_rates"]
    assert seen["switch_offs"] > 50


def _replay_computer_rows(result, awareness_delta):
    """The computer rows of ``result``'s pass as (minute, agent, power),
    replayed from its agent events and contacts alone: each owner's
    office stays in order, from a fresh stream ``computer:{id}`` of its
    own. A machine found on at the entry draws its standby wait then;
    any other is switched on 2 minutes in; each switch-on draws the next
    standby wait, and standby lasts 2 minutes, up to the leave. At a long
    leave a machine that is not off rolls the switch-off at the leaver's
    awareness then, the initial one raised once per contact before that
    minute, capped at 100."""
    record = result.record
    scenario = record.scenario
    owned = scenario.seats[1]
    clock = hazard_clock(scenario.behavior.computer_standby_prob_per_minute)
    awareness = list(record.initial_awareness)
    emails = iter(contacts(record))
    contact = next(emails, None)
    power = [POWER_OFF] * len(owned)
    rngs, entered, rows = {}, {}, []
    for code, minute, agent_id in zip(record.kind, record.minute, record.agent):
        while contact is not None and contact[2] < minute:
            receiver_id = contact[1]
            awareness[receiver_id] = min(awareness[receiver_id] + awareness_delta, 100.0)
            contact = next(emails, None)
        kind = EVENT_KINDS[code]
        if owned[agent_id] is None:
            continue
        if kind is EventKind.ENTER_OWN_OFFICE:
            entered[agent_id] = minute
        if kind not in (EventKind.LEAVE_OFFICE_TEMPORARY, EventKind.LEAVE_OFFICE_LONG):
            continue
        if agent_id not in rngs:
            rngs[agent_id] = random.Random(derive_seed(result.seed, f"computer:{agent_id}"))
        rng, state, at = rngs[agent_id], power[agent_id], entered[agent_id]
        at += 1 + waiting_time(rng, clock) if state == POWER_ON else 2
        while at < minute:
            if state == POWER_ON:
                state, following = POWER_STANDBY, at + 2
            else:
                state, following = POWER_ON, at + 1 + waiting_time(rng, clock)
            rows.append((at, agent_id, state))
            at = following
        p = computer_switch_off_prob(awareness[agent_id], scenario.behavior)
        if kind is EventKind.LEAVE_OFFICE_LONG and state != POWER_OFF and rng.random() < p:
            state = POWER_OFF
            rows.append((minute, agent_id, state))
        power[agent_id] = state
    return rows


def test_computers_equal_an_independent_replay(reference_scenario):
    # The computers' oracle: the record's computer rows equal a replay from
    # the agent events, the contacts and fresh computer streams. Raised
    # contact rates move awareness across the switch-off bands within a
    # stay, so a roll must read the awareness at the leave.
    rng = random.Random(60222)
    scenarios = [random_scenario(rng) for _ in range(24)]
    scenarios = [
        replace(s, contact_rate=2000.0) if i % 3 == 0 else s
        for i, s in enumerate(scenarios)
    ]
    scenarios.append(replace(reference_scenario, contact_rate=2000.0, horizon_days=3))
    switch_offs = 0
    for scenario in scenarios:
        result = run_replication(scenario, seed=rng.randrange(2**31))
        record = result.record
        rows = sorted(
            zip(record.computer_minute, record.computer_agent, record.computer_power)
        )
        assert rows == sorted(_replay_computer_rows(result, scenario.awareness_delta))
        switch_offs += record.computer_power.count(POWER_OFF)
    assert switch_offs > 50


def test_computer_transitions_replay_from_events():
    # Each computer event sets its owner's computer to the building's spec
    # wattage for that state; replaying the events must rebuild the
    # transition log exactly. These buildings' computers draw whole watts,
    # so every partial sum is exact, and the ledger's computer series must
    # be the running total of the watt changes added in the events'
    # (minute, agent id) order, bit for bit.
    spec_watts = {
        EventKind.SWITCH_COMPUTER_ON: "watts_on",
        EventKind.COMPUTER_TO_STANDBY: "watts_standby",
        EventKind.SWITCH_COMPUTER_OFF: "watts_off",
    }
    rng = random.Random(2718)
    seen = set()
    for _ in range(8):
        scenario = random_scenario(rng)
        result = run_replication(scenario, seed=rng.randrange(2**31))
        computers = result.building.computers
        owned = {r.id: r.computer_id for r in roster(result.record)}
        watts = {cid: spec.watts_off for cid, spec in computers.items()}
        rebuilt = {cid: [(0, w)] for cid, w in watts.items()}
        running = 0.0
        for w in watts.values():
            running += w
        series = array("d")
        for ev in sorted(run_events(result), key=lambda e: (e.minute, e.agent_id)):
            field_name = spec_watts.get(ev.kind)
            if field_name is None:
                continue
            seen.add(ev.kind)
            cid = owned[ev.agent_id]
            new_watts = getattr(computers[cid], field_name)
            if new_watts != watts[cid]:
                series.extend([running] * (ev.minute - len(series)))
                running += new_watts - watts[cid]
                watts[cid] = new_watts
                rebuilt[cid].append((ev.minute, new_watts))
        series.extend([running] * (result.n_minutes - len(series)))
        assert {cid: tuple(ts) for cid, ts in rebuilt.items()} == (
            computer_transitions(result.record)
        )
        assert series.tobytes() == result.ledger.computers_w.tobytes()
    assert seen == set(spec_watts)


def test_fractional_computer_watts_sum_exactly_per_minute():
    # Wattages that are not whole watts: each minute's sample is the exact
    # total of the wattages then in effect, rounded once, where a running
    # float sum of the changes drifts (8.099999999999998 for 8.1 W here).
    text = make_building_text() + (
        "defaults: {computer_watts: {off: 0.1, standby: 7.7, on: 33.3}}\n"
    )
    scenario = Scenario(
        building=load_building(text), population_size=5, horizon_days=3
    )
    result = run_replication(scenario, seed=29)
    transitions = computer_transitions(result.record)
    assert sum(map(len, transitions.values())) > 10 * len(transitions)
    deltas = [Fraction(0)] * result.n_minutes
    for changes in transitions.values():
        before = Fraction(0)
        for minute, watts in changes:
            deltas[minute] += Fraction(watts) - before
            before = Fraction(watts)
    exact = [float(total) for total in accumulate(deltas)]
    assert result.ledger.computers_w.tolist() == exact


def test_fractional_light_watts_sum_exactly_per_minute():
    # Light wattages that are not whole watts: under either policy, each
    # minute's sample is the exact total of the lit rooms' wattages,
    # rounded once, where a running float sum of the switches drifts.
    text = make_building_text() + (
        "light_overrides: {L000: {watts_on: 36.6}, L004: {watts_on: 12.1}}\n"
    )
    scenario = Scenario(
        building=load_building(text), population_size=5, horizon_days=3
    )
    building = scenario.building
    policies = (LightingPolicy.automated(), LightingPolicy.staff_controlled())
    for result in run_replication_arms(scenario, 29, policies):
        intervals = result.light_intervals
        assert sum(map(len, intervals.values())) > 10
        deltas = [Fraction(0)] * (result.n_minutes + 1)
        for room in building.rooms:
            watts = sum(
                Fraction(building.lights[lid].watts_on) for lid in room.light_ids
            )
            for start, end in intervals[room.id]:
                deltas[start] += watts
                deltas[end] -= watts
        exact = [float(total) for total in accumulate(deltas[:-1])]
        assert result.ledger.lights_w.tolist() == exact


def test_kept_events_are_in_minute_and_agent_order():
    # An arm's events are its record's agent rows with the computer rows
    # and its manual rows merged in at (minute, agent id). run_events sorts
    # them stably, so the agent rows must come in (minute, agent id) order
    # and the manual rows in trigger order, and no agent has two computer
    # events in one minute.
    policies = (LightingPolicy.automated(), LightingPolicy.staff_controlled())
    rng = random.Random(4711)
    computer_events = 0
    for _ in range(12):
        scenario = random_scenario(rng)
        arms = run_replication_arms(scenario, rng.randrange(2**31), policies)
        for arm in arms:
            record = arm.record
            keys = list(zip(record.minute, record.agent))
            assert keys == sorted(keys)
            positions = list(arm.manual[0])
            assert positions == sorted(positions)
            per_minute = Counter(zip(record.computer_minute, record.computer_agent))
            assert set(per_minute.values()) <= {1}
            computer_events += len(per_minute)
    assert computer_events > 0


def test_reference_replication_releases_its_streams_before_the_computers(
    reference_scenario,
):
    # Once the pass is over, its behaviour and email streams (a Mersenne
    # Twister state of about 2.5 KB each, up to one per agent) are
    # released before the computers seed one stream per owner: the peak
    # of one reference week is about 1.6 MiB. Keeping the pass's streams
    # through the computers took it to 2.6 MiB.
    run_replication(reference_scenario, seed=5)  # the scenario's caches
    gc.collect()
    tracemalloc.start()
    try:
        run_replication(reference_scenario, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * 2**20, peak


def test_unkept_reference_replication_retains_little(reference_scenario):
    # A replication holds its series, light intervals, roster and run
    # record. The record's events, computer transitions and office stays
    # are columns, not a tuple each, and it stores no email: one reference
    # week, and one two-arm pass of it at contact rate 2000, each stay well
    # under 1.5 MB, where a tuple per event and email takes over 20 MB.
    social = replace(reference_scenario, contact_rate=2000.0)
    policies = (LightingPolicy.automated(), LightingPolicy.staff_controlled())
    runs = (
        lambda: (run_replication(reference_scenario, seed=5),),
        lambda: run_replication_arms(social, 11, policies),
    )
    for run in runs:
        gc.collect()
        tracemalloc.start()
        try:
            results = run()
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(results[0].record.computer_minute) > 10_000
        assert retained < 1.5 * 2**20, retained


def test_social_reference_pass_peaks_low(reference_scenario):
    # While it runs, a two-arm pass of the reference week at contact rate
    # 2000 holds its record and series, and briefly the computers' streams
    # and per-minute changes: about 2.3 MB at its peak. Sorting every
    # computer row for the replay took it to 4.8 MB.
    social = replace(reference_scenario, contact_rate=2000.0)
    policies = (LightingPolicy.automated(), LightingPolicy.staff_controlled())
    gc.collect()
    tracemalloc.start()
    try:
        run_replication_arms(social, 11, policies)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20, peak


def test_weekend_experiment_retains_little(reference_scenario):
    # Forty replications of a reference weekend hold their series, light
    # intervals and run records; the roster is four columns of each record,
    # and the offices and computers one seat table of the scenario. An
    # `AgentRecord` per agent and replication retained 3.54 MiB in all.
    weekend = replace(
        reference_scenario, start_day_of_week=5, horizon_days=2, replications=40
    )
    gc.collect()
    tracemalloc.start()
    try:
        result = run_experiment(weekend)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.replications) == 40
    assert retained <= 3.0 * 2**20, retained


def test_roster_views_match_the_population_streams():
    scenario = make_small_scenario(population_size=5, contact_rate=20.0)
    experiment = run_experiment(replace(scenario, replications=3, master_seed=8))
    for rep in experiment.replications:
        rng = random.Random(derive_seed(rep.seed, "population"))
        agents = sample_population(
            scenario.population_size, scenario.mix, scenario.building, rng
        )
        _, computer_ids = seat_table(scenario.building, scenario.population_size)
        assert [
            (r.id, r.schedule_class, r.stereotype, r.office_room_id,
             r.computer_id, r.initial_awareness)
            for r in roster(rep.record)
        ] == [
            (a.id, a.schedule_class, a.stereotype, a.office_room_id,
             computer_id, a.awareness)
            for a, computer_id in zip(agents, computer_ids)
        ]
        final = [r.final_awareness for r in roster(rep.record)]
        assert rep.mean_final_awareness() == sequential_sum(final) / len(final)
