import random
from dataclasses import replace

import numpy as np
import pytest

from officesim import (
    EventKind,
    LightingPolicy,
    PolicyKind,
    Scenario,
    ValidationError,
    compare_policies,
    derive_seed,
    run_experiment,
    run_replication,
)
from officesim.checks import derive_trace, room_occupancy
from officesim.engine import run_replication_arms
from officesim.network import ContactEvent
from officesim.occupants import (
    BehaviorParams,
    OccupantEvent,
    PopulationMix,
    ScheduleClass,
    Stereotype,
)

from conftest import as_occupant_events, make_small_building, make_small_scenario
from invariant_checks import replication_network
from test_invariants import random_scenario


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
        for ev in result.events
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
    assert result.events == ()


def test_replication_is_deterministic():
    scenario = make_small_scenario(population_size=5, horizon_days=2)
    a = run_replication(scenario, seed=99)
    b = run_replication(scenario, seed=99)
    assert a.ledger == b.ledger
    assert a.events == b.events
    assert a.roster == b.roster
    assert a.light_intervals == b.light_intervals
    assert a.computer_transitions == b.computer_transitions


def test_different_seeds_differ():
    scenario = make_small_scenario(population_size=5, horizon_days=2)
    a = run_replication(scenario, seed=1)
    b = run_replication(scenario, seed=2)
    assert a.ledger != b.ledger


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
    report = result.beta_report()
    flexible = ledger.flexible_energy_wh()
    assert flexible > 0
    assert report.reconstructed_flexible_wh() == pytest.approx(flexible, rel=1e-9)
    # windowed reconstruction agrees with the windowed ledger too
    lo, hi = 600, 2000
    windowed = result.beta_report(lo, hi)
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
    office = result.roster[0].office_room_id
    presence = 0
    enters = 0
    last_enter = None
    for ev in result.events:
        if ev.kind is EventKind.ENTER_OWN_OFFICE:
            last_enter = ev.minute
            enters += 1
        elif ev.kind in (EventKind.LEAVE_OFFICE_TEMPORARY, EventKind.LEAVE_OFFICE_LONG):
            presence += ev.minute - last_enter
    watts = sum(
        building.lights[lid].watts_on
        for lid in building.room(office).light_ids
    )
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
    result = run_experiment(scenario, replications=1, master_seed=8)
    rep = result.replications[0]
    assert np.array_equal(result.mean_total_w, rep.ledger.total_w)
    assert result.mean_total_kwh == pytest.approx(
        rep.ledger.total_energy_wh() / 1000.0
    )


def test_experiment_seed_independence_under_rep_count():
    scenario = make_small_scenario(population_size=4, horizon_days=1)
    short = run_experiment(scenario, replications=3, master_seed=21)
    longer = run_experiment(scenario, replications=5, master_seed=21)
    for i in range(3):
        assert short.rep_seeds[i] == longer.rep_seeds[i]
        assert short.replications[i].ledger == longer.replications[i].ledger


def test_experiment_different_master_seeds():
    scenario = make_small_scenario(population_size=4, horizon_days=1)
    a = run_experiment(scenario, replications=2, master_seed=1)
    b = run_experiment(scenario, replications=2, master_seed=2)
    assert len(a.mean_total_w) == len(b.mean_total_w)
    assert not np.array_equal(a.mean_total_w, b.mean_total_w)


def test_compare_policies_with_no_agents_is_a_tie():
    scenario = make_small_scenario(population_size=0, horizon_days=1)
    comparison = compare_policies(scenario, replications=2, master_seed=4)
    assert comparison.mean_diff_kwh == 0.0
    assert (np.asarray(comparison.paired_diff_kwh) == 0).all()


def test_compare_policies_shares_populations_and_computers():
    scenario = make_small_scenario(population_size=5, horizon_days=2)
    comparison = compare_policies(scenario, replications=2, master_seed=10)
    auto = comparison.automated.replications[0]
    staff = comparison.staff_controlled.replications[0]
    assert auto.roster == staff.roster
    assert auto.computer_transitions == staff.computer_transitions
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
        for ev in auto.events
    )
    staff = run_replication(
        replace(scenario, policy=LightingPolicy.staff_controlled()), seed=33
    )
    assert any(ev.kind is EventKind.MANUAL_LIGHTS_ON for ev in staff.events)


def test_big_population_mix_override():
    scenario = make_small_scenario(
        population_size=5,
        horizon_days=1,
        mix=PopulationMix(awareness={Stereotype.BIG_USER: 1.0}),
    )
    result = run_replication(scenario, seed=2)
    assert all(r.stereotype is Stereotype.BIG_USER for r in result.roster)


def test_agent_left_in_building_at_midnight_is_a_runtime_error(monkeypatch):
    # Drop every LEAVE_BUILDING event: the agents never leave the active
    # set, and the midnight check must catch it, also under `python -O`.
    from officesim import engine

    real_step = engine.step_occupant

    def step_without_leaving(agent, minute, minute_of_day, ctx, rng, events):
        own = []
        real_step(agent, minute, minute_of_day, ctx, rng, own)
        events.extend(
            e for e in as_occupant_events(own) if e.kind is not EventKind.LEAVE_BUILDING
        )
        return bool(own)

    monkeypatch.setattr(engine, "step_occupant", step_without_leaving)
    scenario = make_small_scenario(population_size=3, horizon_days=2)
    with pytest.raises(RuntimeError, match="midnight"):
        run_replication(scenario, seed=5)


def test_untraced_runs_build_no_event_objects(monkeypatch):
    # Agent events and contacts travel as plain tuples: a run without kept
    # events must never build an OccupantEvent or a ContactEvent, while
    # kept events and the contacts of a derived trace are named tuples.
    from officesim import engine, network

    def forbidden(*args, **kwargs):
        raise AssertionError("event object built without kept events")

    stub = type(
        "Forbidden", (), {"__new__": forbidden, "_make": staticmethod(forbidden)}
    )
    scenario = make_small_scenario(population_size=5, contact_rate=200.0)
    with monkeypatch.context() as patched:
        patched.setattr(engine, "OccupantEvent", stub)
        patched.setattr(network, "ContactEvent", stub)
        experiment = run_experiment(scenario)
        comparison = compare_policies(scenario)
    assert all(rep.contact_count > 0 for rep in experiment.replications)
    assert all(rep.contact_count > 0 for rep in comparison.staff_controlled.replications)

    staff = replace(scenario, policy=LightingPolicy.staff_controlled())
    kept = run_replication(staff, seed=3, keep_events=True)
    assert {e.kind for e in kept.events} >= {
        EventKind.ENTER_OWN_OFFICE, EventKind.MANUAL_LIGHTS_ON
    }
    assert all(type(e) is OccupantEvent for e in kept.events)
    result = run_replication(scenario, seed=3)
    trace = derive_trace(result, scenario)
    assert len(trace.contact_events) == len(result.contacts) == result.contact_count > 0
    assert all(type(c) is ContactEvent for c in trace.contact_events)


def test_trace_of_a_result_without_kept_events_is_an_error():
    # An experiment keeps no events; deriving a trace from one of its
    # replications once gave every room vacant, lights lit and no
    # transitions, without an error.
    scenario = make_small_scenario(population_size=5, contact_rate=50.0)
    result = run_experiment(scenario).replications[0]
    assert result.events is None and result.contacts is None
    assert result.contact_count > 0
    with pytest.raises(ValueError, match="keep_events"):
        derive_trace(result, scenario)
    with pytest.raises(ValueError, match="keep_events"):
        room_occupancy(result)


def test_idle_stretches_match_minute_by_minute_recording():
    # A Friday start leaves most minutes idle, and staff-controlled lights
    # may stay lit through them; the trace's light matrix, filled in one
    # slice per idle stretch, must agree with the ledger on every minute.
    scenario = make_small_scenario(
        population_size=5, horizon_days=3, start_day_of_week=4,
        policy=LightingPolicy.staff_controlled(),
    )
    result = run_replication(scenario, seed=8)
    trace = derive_trace(result, scenario)
    building = scenario.building
    watts = np.array([
        sum(building.lights[lid].watts_on for lid in building.room(rid).light_ids)
        for rid in trace.room_ids
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
        arms = run_replication_arms(scenario, seed, policies, keep_events=True)
        assert len(arms) == len(policies)
        for policy, arm in zip(policies, arms):
            solo = run_replication(replace(scenario, policy=policy), seed)
            assert arm.events == solo.events
            for name in ("base_w", "lights_w", "computers_w"):
                assert (getattr(arm.ledger, name).tobytes()
                        == getattr(solo.ledger, name).tobytes()), name
            assert arm.light_intervals == solo.light_intervals
            assert arm.computer_transitions == solo.computer_transitions
            assert arm.contact_count == solo.contact_count
            assert arm.roster == solo.roster
            seen["manual_events"] += sum(
                ev.kind in (EventKind.MANUAL_LIGHTS_ON, EventKind.MANUAL_LIGHTS_OFF)
                for ev in arm.events
            )
        seen["delays"].update((first, second))
        seen["contact_rates"].add(scenario.contact_rate)
        seen["start_days"].add(scenario.start_day_of_week)
        seen["no_network"] += replication_network(arms[0], scenario) is None
    assert seen["delays"] == {5, 20, 30}
    assert seen["contact_rates"] == {0.0, 1.0, 50.0}
    assert seen["start_days"] == set(range(7))
    assert seen["no_network"] > 0
    assert seen["manual_events"] > 0


def test_computer_transitions_replay_from_events():
    # Each computer event sets its owner's computer to the building's spec
    # wattage for that state; replaying the events must rebuild the
    # transition log exactly, and the log the ledger's computer series.
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
        owned = {r.id: r.computer_id for r in result.roster}
        watts = {cid: spec.watts_off for cid, spec in computers.items()}
        rebuilt = {cid: [(0, w)] for cid, w in watts.items()}
        for ev in result.events:
            field_name = spec_watts.get(ev.kind)
            if field_name is None:
                continue
            seen.add(ev.kind)
            cid = owned[ev.agent_id]
            new_watts = getattr(computers[cid], field_name)
            if new_watts != watts[cid]:
                watts[cid] = new_watts
                rebuilt[cid].append((ev.minute, new_watts))
        assert {cid: tuple(ts) for cid, ts in rebuilt.items()} == (
            result.computer_transitions
        )
        series = np.zeros(result.n_minutes)
        for transitions in rebuilt.values():
            for (start, w), (end, _) in zip(
                transitions, transitions[1:] + [(result.n_minutes, None)]
            ):
                series[start:end] += w
        assert np.allclose(series, result.ledger.computers_w)
    assert seen == set(spec_watts)
