"""Minute-stepped simulation engine, replication management, and the
policy-comparison driver.

A replication is a pure function of (scenario, seed). Per-purpose RNG
streams (population, schedules, behavior, contacts, manual switching)
are derived from the replication seed so that runs under different
lighting policies share identical populations, schedules, and movement
trajectories and differ only in light switching.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from bisect import bisect_right, insort
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import add, attrgetter, sub
from random import Random
from typing import TYPE_CHECKING

from .accounting import (
    BetaReport,
    EnergyLedger,
    build_beta_report,
    column_means,
    pairwise_mean,
    pairwise_sum,
    sample_std,
    sequential_sum,
)
from .appliances import (
    LightingPolicy,
    PolicyKind,
    RoomLightBank,
    computer_apply_event,
    manual_exit_decision,
)
from .building import BuildingModel, RoomKind
from .errors import ValidationError
from .network import ContactEvent, SocialNetwork, build_small_world, contact_step
from .occupants import (
    MINUTES_PER_DAY,
    AgentState,
    BehaviorContext,
    BehaviorParams,
    EventKind,
    OccupantAgent,
    OccupantEvent,
    PopulationMix,
    ScheduleClass,
    Stereotype,
    sample_daily_schedule,
    sample_population,
    step_occupant,
)

if TYPE_CHECKING:
    import numpy


# Members bound at module level: a global lookup is cheaper than an enum
# class attribute for every event.
_ENTER_BUILDING = EventKind.ENTER_BUILDING
_ENTER_OWN_OFFICE = EventKind.ENTER_OWN_OFFICE
_LEAVE_OFFICE_TEMPORARY = EventKind.LEAVE_OFFICE_TEMPORARY
_LEAVE_OFFICE_LONG = EventKind.LEAVE_OFFICE_LONG
_ENTER_OTHER_ROOM = EventKind.ENTER_OTHER_ROOM
_EXIT_OTHER_ROOM = EventKind.EXIT_OTHER_ROOM
_LEAVE_BUILDING = EventKind.LEAVE_BUILDING

_by_id = attrgetter("id")  # the sort key of the agent lists


def _extend_to(series: array, value: float, end: int) -> None:
    """Extend ``series`` with ``value`` up to length ``end``."""
    series.extend(array("d", (value,)) * (end - len(series)))


def derive_seed(master_seed: int, label: str) -> int:
    """Deterministic 63-bit stream seed from a master seed and a label."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class Scenario:
    """Everything a run depends on; the unit of experiment."""

    building: BuildingModel
    population_size: int
    mix: PopulationMix = field(default_factory=PopulationMix)
    policy: LightingPolicy = field(default_factory=LightingPolicy.automated)
    contact_rate: float = 1.0
    awareness_delta: float = 1.0
    small_world_k: int = 4
    small_world_beta: float = 0.1
    behavior: BehaviorParams = field(default_factory=BehaviorParams)
    horizon_days: int = 7
    start_day_of_week: int = 0
    replications: int = 20
    master_seed: int = 1
    building_path: str | None = None

    def validate(self) -> None:
        problems = []
        if self.horizon_days < 1:
            problems.append(f"horizon_days must be >= 1, got {self.horizon_days}")
        if self.replications < 1:
            problems.append(f"replications must be >= 1, got {self.replications}")
        if self.population_size < 0:
            problems.append("population size must be >= 0")
        if self.population_size > self.building.total_desk_capacity():
            problems.append(
                f"population size {self.population_size} exceeds desk capacity "
                f"{self.building.total_desk_capacity()}"
            )
        if self.contact_rate < 0:
            problems.append(f"contact_rate must be >= 0, got {self.contact_rate}")
        if self.awareness_delta < 0:
            problems.append(
                f"awareness_delta must be >= 0, got {self.awareness_delta}"
            )
        if self.small_world_k < 2 or self.small_world_k % 2:
            problems.append(
                f"small_world_k must be even and >= 2, got {self.small_world_k}"
            )
        if not 0.0 <= self.small_world_beta <= 1.0:
            problems.append(
                f"small_world_beta must be in [0, 1], got {self.small_world_beta}"
            )
        if not 0 <= self.start_day_of_week <= 6:
            problems.append(
                f"start_day_of_week must be in 0..6, got {self.start_day_of_week}"
            )
        if self.policy.is_automated and self.policy.off_delay_minutes < 0:
            problems.append("automated off delay must be >= 0")
        if problems:
            raise ValidationError(problems)
        self.mix.validate()
        self.behavior.validate()

    @property
    def horizon_minutes(self) -> int:
        return self.horizon_days * MINUTES_PER_DAY


@dataclass(frozen=True, slots=True)
class AgentRecord:
    """Immutable per-agent facts captured for the result roster."""

    id: int
    schedule_class: ScheduleClass
    stereotype: Stereotype
    office_room_id: str
    computer_id: str | None
    initial_awareness: float
    final_awareness: float


@dataclass
class RunTrace:
    """Per-minute diagnostics recorded only when tracing is requested.

    The matrices and the daily awareness vectors are numpy arrays; only
    a traced run imports numpy.
    """

    state_transitions: list[tuple[int, int, AgentState, AgentState]] = field(
        default_factory=list
    )
    room_ids: tuple[str, ...] = ()
    room_occupied: numpy.ndarray | None = None  # rooms x minutes, bool
    lights_on: numpy.ndarray | None = None  # rooms x minutes, bool
    schedules: dict[tuple[int, int], tuple[int, int] | None] = field(
        default_factory=dict
    )
    awareness_by_day: list[numpy.ndarray] = field(default_factory=list)
    contact_events: list[ContactEvent] = field(default_factory=list)


@dataclass(frozen=True)
class ReplicationResult:
    seed: int
    n_minutes: int
    ledger: EnergyLedger
    events: tuple[OccupantEvent, ...]
    roster: tuple[AgentRecord, ...]
    light_intervals: dict[str, tuple[tuple[int, int], ...]]  # room -> on-intervals
    computer_transitions: dict[str, tuple[tuple[int, float], ...]]
    contact_count: int
    building: BuildingModel
    trace: RunTrace | None = None

    def appliance_energies(
        self, start: int = 0, end: int | None = None
    ) -> list[tuple[str, float, float]]:
        """(id, max watts, watt-hours) per flexible appliance over
        [start, end), integrated from state-transition logs (a route
        independent of the per-minute ledger)."""
        if end is None:
            end = self.n_minutes
        out: list[tuple[str, float, float]] = []
        for room in self.building.rooms:
            intervals = self.light_intervals.get(room.id, ())
            on_minutes = 0
            for a, b in intervals:
                lo = max(a, start)
                hi = min(b, end)
                if hi > lo:
                    on_minutes += hi - lo
            for lid in room.light_ids:
                watts = self.building.lights[lid].watts_on
                out.append((lid, watts, watts * on_minutes / 60.0))
        for cid, transitions in self.computer_transitions.items():
            spec = self.building.computers[cid]
            wmin = 0.0
            for i, (t, w) in enumerate(transitions):
                t_next = (
                    transitions[i + 1][0] if i + 1 < len(transitions) else self.n_minutes
                )
                lo = max(t, start)
                hi = min(t_next, end)
                if hi > lo:
                    wmin += w * (hi - lo)
            out.append((cid, spec.watts_on, wmin / 60.0))
        return out

    def beta_report(self, start: int = 0, end: int | None = None) -> BetaReport:
        if end is None:
            end = self.n_minutes
        return build_beta_report(self.appliance_energies(start, end), start, end)

    def mean_final_awareness(self) -> float:
        if not self.roster:
            return 0.0
        awareness = [r.final_awareness for r in self.roster]
        return sequential_sum(awareness) / len(awareness)


class _LightingArm:
    """One lighting policy driven by a shared agent pass.

    The arm owns everything its lights touch: the room banks, the
    countdown set of banks whose next automated step may change them, the
    running lights total and its series, the event log and the
    manual-switching stream. Lights never feed back into agents, contacts
    or computers, so an arm evolves exactly as a run of its own would.
    """

    __slots__ = (
        "policy", "banks", "zone_banks", "countdown", "lights_running",
        "lights", "events", "rng",
    )

    def __init__(self, policy, rooms, room_watts, zone_rooms, seed, keep_events):
        self.policy = policy
        self.banks = [
            RoomLightBank(room.id, room.light_ids, watts)
            for room, watts in zip(rooms, room_watts)
        ]
        self.zone_banks = [[self.banks[i] for i in members] for members in zone_rooms]
        self.countdown: set[int] = set()
        self.lights_running = 0.0
        self.lights = array("d")  # written up to the last change
        self.events: list[OccupantEvent] | None = [] if keep_events else None
        self.rng = Random(derive_seed(seed, "policy"))

    def add(self, watts: float, minute: int) -> None:
        """Change the running lights total during ``minute``; the series
        keeps the old total up to that minute."""
        _extend_to(self.lights, self.lights_running, minute)
        self.lights_running += watts

    def switch_on(self, banks, minute: int, agent_id: int) -> None:
        """Staff policy: agent ``agent_id`` switches on whichever of
        ``banks`` is dark."""
        for bank in banks:
            if bank.turn_on(minute):
                self.add(bank.watts_total, minute)
                if self.events is not None:
                    self.events.append(OccupantEvent(
                        EventKind.MANUAL_LIGHTS_ON, minute, agent_id, bank.room_id
                    ))

    def roll_off(self, banks, minute: int, leaver: OccupantAgent) -> None:
        """Staff policy: ``leaver``, the last one out, rolls once to
        switch ``banks`` off."""
        if manual_exit_decision(leaver.awareness, self.rng):
            for bank in banks:
                if bank.turn_off(minute):
                    self.add(-bank.watts_total, minute)
                    if self.events is not None:
                        self.events.append(OccupantEvent(
                            EventKind.MANUAL_LIGHTS_OFF, minute, leaver.id,
                            bank.room_id,
                        ))


def run_replication(
    scenario: Scenario,
    seed: int,
    trace: bool = False,
    keep_events: bool = True,
) -> ReplicationResult:
    """Execute one replication under the scenario's lighting policy."""
    scenario.validate()
    (result,) = run_replication_arms(
        scenario, seed, (scenario.policy,), keep_events=keep_events, trace=trace
    )
    return result


def run_replication_arms(
    scenario: Scenario,
    seed: int,
    policies,
    keep_events: bool = True,
    trace: bool = False,
) -> tuple[ReplicationResult, ...]:
    """One agent pass of a valid scenario driving one lighting arm per
    policy; the scenario's own policy is not used. Arm i's result equals
    ``run_replication`` of the scenario under ``policies[i]``. Tracing
    records the first arm and is meant for one arm.

    Per minute, in fixed order: day-rollover schedule sampling, agent
    steps in id order, event application to appliances, sensor stepping
    of lights, email contacts, and finally the power sample.

    Work whose outcome is known is skipped, never reordered: a light bank
    is stepped only while its step can change it (its zone is occupied
    and it is dark, or its zone is vacant and it is lit), a stretch with
    nobody in the building and no light counting down is skipped up to
    the next arrival or midnight, and the power series are written one
    constant stretch at a time, when their total changes.
    """
    building = scenario.building
    params = scenario.behavior
    n_minutes = scenario.horizon_minutes
    start_dow = scenario.start_day_of_week

    rng_population = Random(derive_seed(seed, "population"))
    rng_network = Random(derive_seed(seed, "network"))
    rng_schedule = Random(derive_seed(seed, "schedule"))
    rng_behavior = Random(derive_seed(seed, "behavior"))
    rng_contact = Random(derive_seed(seed, "contact"))

    agents = sample_population(
        scenario.population_size, scenario.mix, building, rng_population
    )
    initial_awareness = [a.awareness for a in agents]
    network = _build_network(
        len(agents), scenario.small_world_k, scenario.small_world_beta, rng_network
    )
    contacts_on = network is not None and scenario.contact_rate > 0.0

    facility_ids = tuple(r.id for r in building.facility_rooms())
    ctx = BehaviorContext(params=params, facility_room_ids=facility_ids)

    # Zones: rooms that share occupancy. Zone 0 holds every corridor room
    # (an agent in the corridor occupies all of them); every other room is
    # a zone of its own.
    rooms = building.rooms
    corridor = 0
    zone_rooms: list[list[int]] = [[]]
    room_zone: list[int] = []
    for i, room in enumerate(rooms):
        if room.kind is RoomKind.CORRIDOR:
            room_zone.append(corridor)
            zone_rooms[corridor].append(i)
        else:
            room_zone.append(len(zone_rooms))
            zone_rooms.append([i])
    zone_of = {room.id: room_zone[i] for i, room in enumerate(rooms)}
    office_zone = [zone_of[a.office_room_id] for a in agents]
    zone_occupancy = [0] * len(zone_rooms)
    room_watts = [
        sequential_sum(building.lights[lid].watts_on for lid in room.light_ids)
        for room in rooms
    ]

    arms = [
        _LightingArm(policy, rooms, room_watts, zone_rooms, seed, keep_events)
        for policy in policies
    ]
    automated_arms = [arm for arm in arms if arm.policy.is_automated]
    manual_arms = [arm for arm in arms if not arm.policy.is_automated]
    countdowns = [arm.countdown for arm in automated_arms]
    logs = [arm.events for arm in arms] if keep_events else []

    # Automated policy: a bank with lights is stepped while its step may
    # change it. Any other bank is at a fixed point of step_automated
    # (occupied and lit, or vacant and dark) until its zone turns vacant
    # or occupied.
    zone_steppable = [
        [i for i in members if room_watts[i] > 0] for members in zone_rooms
    ]

    # Computers by index, in catalog order; an agent's computer events
    # act on the computer of its desk.
    computer_specs = list(building.computers.values())
    computer_index = {spec.id: c for c, spec in enumerate(computer_specs)}
    agent_computer = [computer_index.get(a.computer_id) for a in agents]
    computer_watts_now = [spec.watts_off for spec in computer_specs]
    computer_transitions = [[(0, spec.watts_off)] for spec in computer_specs]
    computers_running = 0.0
    for watts in computer_watts_now:
        computers_running += watts

    # A minute's sample is the total after all of that minute's changes,
    # so a change at minute m writes the old total up to m.
    computers_arr = array("d")

    contact_count = 0
    active: list[OccupantAgent] = []  # kept sorted by id
    in_office: list[OccupantAgent] = []  # the email senders, kept sorted by id
    arrival_buckets: dict[int, list[OccupantAgent]] = {}
    arrival_minutes: list[int] = []  # sorted keys of arrival_buckets

    run_trace = None
    if trace:
        import numpy as np

        traced_banks = arms[0].banks
        run_trace = RunTrace(
            room_ids=tuple(room.id for room in rooms),
            room_occupied=np.zeros((len(rooms), n_minutes), dtype=bool),
            lights_on=np.zeros((len(rooms), n_minutes), dtype=bool),
        )

    def enter(zone: int, minute: int, agent_id: int) -> None:
        zone_occupancy[zone] += 1
        if zone_occupancy[zone] == 1:
            for countdown in countdowns:
                countdown.update(zone_steppable[zone])
        for arm in manual_arms:
            arm.switch_on(arm.zone_banks[zone], minute, agent_id)

    def leave(zone: int, minute: int, agent_id: int, rolls: bool) -> None:
        zone_occupancy[zone] -= 1
        if zone_occupancy[zone] == 0:
            for countdown in countdowns:
                countdown.update(zone_steppable[zone])
            if rolls:
                for arm in manual_arms:
                    arm.roll_off(arm.zone_banks[zone], minute, agents[agent_id])

    def apply_event(
        kind: EventKind, minute: int, agent_id: int, room_id: str | None
    ) -> None:
        # Staff arms: anyone entering a zone switches on its dark banks;
        # the last one out rolls once to switch them off, unless it is a
        # quick break. A move between a room and the corridor handles the
        # zone the event names first.
        nonlocal computers_running
        if kind is _ENTER_OWN_OFFICE:
            enter(office_zone[agent_id], minute, agent_id)
            leave(corridor, minute, agent_id, True)
            insort(in_office, agents[agent_id], key=_by_id)
        elif kind is _LEAVE_OFFICE_TEMPORARY or kind is _LEAVE_OFFICE_LONG:
            leave(office_zone[agent_id], minute, agent_id, kind is _LEAVE_OFFICE_LONG)
            enter(corridor, minute, agent_id)
            in_office.remove(agents[agent_id])
        elif kind is _ENTER_OTHER_ROOM:
            enter(zone_of[room_id], minute, agent_id)
            leave(corridor, minute, agent_id, True)
        elif kind is _EXIT_OTHER_ROOM:
            leave(zone_of[room_id], minute, agent_id, True)
            enter(corridor, minute, agent_id)
        elif kind is _ENTER_BUILDING:
            enter(corridor, minute, agent_id)
        elif kind is _LEAVE_BUILDING:
            leave(corridor, minute, agent_id, True)
            active.remove(agents[agent_id])
        else:
            # Computer events carry no room; the owner's desk names it.
            c = agent_computer[agent_id]
            old_watts = computer_watts_now[c]
            new_watts = computer_apply_event(computer_specs[c], old_watts, kind)
            if new_watts != old_watts:
                computer_watts_now[c] = new_watts
                _extend_to(computers_arr, computers_running, minute)
                computers_running += new_watts - old_watts
                computer_transitions[c].append((minute, new_watts))

    step = step_occupant
    make_event = OccupantEvent._make if keep_events else None
    minute_events: list[tuple] = []
    minute = 0
    while minute < n_minutes:
        minute_of_day = minute % MINUTES_PER_DAY

        if minute_of_day == 0:
            if active:
                raise RuntimeError(
                    f"{len(active)} agents still in the building at midnight "
                    f"(minute {minute})"
                )
            day = minute // MINUTES_PER_DAY
            dow = (start_dow + day) % 7
            arrival_buckets.clear()
            for agent in agents:
                schedule = sample_daily_schedule(agent, dow, rng_schedule, params)
                agent.today_schedule = schedule
                if schedule is not None:
                    arrival_buckets.setdefault(schedule[0], []).append(agent)
                if run_trace is not None:
                    run_trace.schedules[(day, agent.id)] = schedule
            arrival_minutes = sorted(arrival_buckets)
            if run_trace is not None:
                run_trace.awareness_by_day.append(
                    np.array([a.awareness for a in agents])
                )

        arriving = arrival_buckets.get(minute_of_day)
        if arriving:
            for agent in arriving:
                insort(active, agent, key=_by_id)

        if not active and not any(countdowns):
            # Nobody in the building and no light counting down: nothing
            # changes up to the next arrival or midnight.
            pos = bisect_right(arrival_minutes, minute_of_day)
            next_of_day = (
                arrival_minutes[pos] if pos < len(arrival_minutes) else MINUTES_PER_DAY
            )
            end = min(minute + next_of_day - minute_of_day, n_minutes)
            if run_trace is not None:
                for i, bank in enumerate(traced_banks):
                    run_trace.lights_on[i, minute:end] = bank.is_on
            minute = end
            continue

        if active:
            if run_trace is None:
                for agent in active:
                    step(agent, minute, minute_of_day, ctx, rng_behavior, minute_events)
            else:
                for agent in active:
                    before = agent.state
                    step(agent, minute, minute_of_day, ctx, rng_behavior, minute_events)
                    if agent.state is not before:
                        run_trace.state_transitions.append(
                            (minute, agent.id, before, agent.state)
                        )
            if minute_events:
                for ev in minute_events:
                    if logs:
                        event = make_event(ev)
                        for log in logs:
                            log.append(event)
                    apply_event(*ev)  # may log manual light events right after
                minute_events.clear()

        for arm in automated_arms:
            countdown = arm.countdown
            if countdown:
                # Index order, as a full sweep over the rooms would step them.
                banks = arm.banks
                off_delay = arm.policy.off_delay_minutes
                for idx in sorted(countdown):
                    bank = banks[idx]
                    occupied = zone_occupancy[room_zone[idx]] > 0
                    delta = bank.step_automated(occupied, off_delay, minute)
                    if delta:
                        arm.add(delta * bank.watts_total, minute)
                    if occupied or not bank.is_on:
                        countdown.discard(idx)

        if contacts_on and in_office:
            contacts = contact_step(
                network,
                agents,
                scenario.contact_rate,
                scenario.awareness_delta,
                minute,
                rng_contact,
                senders=in_office,
            )
            if contacts:
                contact_count += len(contacts)
                if run_trace is not None:
                    run_trace.contact_events.extend(map(ContactEvent._make, contacts))

        if run_trace is not None:
            for i in range(len(rooms)):
                run_trace.room_occupied[i, minute] = zone_occupancy[room_zone[i]] > 0
                run_trace.lights_on[i, minute] = traced_banks[i].is_on
        minute += 1

    _extend_to(computers_arr, computers_running, n_minutes)
    base_arr = array("d", (building.base_load_watts,)) * n_minutes
    roster = tuple(
        AgentRecord(
            id=a.id,
            schedule_class=a.schedule_class,
            stereotype=a.stereotype,
            office_room_id=a.office_room_id,
            computer_id=a.computer_id,
            initial_awareness=initial_awareness[a.id],
            final_awareness=a.awareness,
        )
        for a in agents
    )
    computer_log = {
        spec.id: tuple(ts) for spec, ts in zip(computer_specs, computer_transitions)
    }
    results = []
    for arm in arms:
        _extend_to(arm.lights, arm.lights_running, n_minutes)
        for bank in arm.banks:
            bank.finalize(n_minutes)
        results.append(ReplicationResult(
            seed=seed,
            n_minutes=n_minutes,
            ledger=EnergyLedger(base_arr, arm.lights, computers_arr),
            events=tuple(arm.events) if keep_events else (),
            roster=roster,
            light_intervals={b.room_id: tuple(b.intervals) for b in arm.banks},
            computer_transitions=computer_log,
            contact_count=contact_count,
            building=building,
            trace=run_trace,
        ))
    return tuple(results)


def _build_network(n: int, k: int, beta: float, rng) -> SocialNetwork | None:
    """Adapt the configured degree to small populations; None disables
    contacts entirely (fewer than three agents cannot form a ring)."""
    if n < 3:
        return None
    k_eff = min(k, n - 1)
    if k_eff % 2:
        k_eff -= 1
    if k_eff < 2:
        return None
    return build_small_world(n, k_eff, beta, rng)


@dataclass(frozen=True)
class ExperimentResult:
    """Replications and their aggregates. The series (the per-minute
    means and the per-replication totals) are ``array('d')``;
    ``mean_total_w`` is computed on first use."""

    scenario: Scenario
    master_seed: int
    rep_seeds: tuple[int, ...]
    replications: tuple[ReplicationResult, ...]
    mean_base_w: array
    mean_lights_w: array
    mean_computers_w: array
    total_kwh_per_rep: array
    category_kwh_mean: dict[str, float]
    category_kwh_std: dict[str, float]

    @cached_property
    def mean_total_w(self) -> array:
        return column_means([rep.ledger.total_w for rep in self.replications])

    @property
    def mean_total_kwh(self) -> float:
        return pairwise_mean(self.total_kwh_per_rep)

    @property
    def std_total_kwh(self) -> float:
        if len(self.total_kwh_per_rep) > 1:
            return sample_std(self.total_kwh_per_rep)
        return 0.0

    def mean_final_awareness(self) -> float:
        return pairwise_mean([rep.mean_final_awareness() for rep in self.replications])


def run_experiment(
    scenario: Scenario,
    replications: int | None = None,
    master_seed: int | None = None,
    keep_events: bool = False,
) -> ExperimentResult:
    """Run independent replications and aggregate them.

    Replication i always uses the seed derived from (master seed, i), so
    raising the replication count extends the set without disturbing
    earlier replications.
    """
    (result,) = _run_arm_experiments((scenario,), replications, master_seed, keep_events)
    return result


def _run_arm_experiments(
    scenarios: tuple[Scenario, ...],
    replications: int | None,
    master_seed: int | None,
    keep_events: bool,
) -> tuple[ExperimentResult, ...]:
    """One experiment per scenario, for scenarios that differ only in
    their lighting policy: replication i of every one comes from the same
    shared agent pass."""
    for scenario in scenarios:
        scenario.validate()
    first = scenarios[0]
    n_reps = first.replications if replications is None else replications
    if n_reps < 1:
        raise ValidationError(f"replications must be >= 1, got {n_reps}")
    seed = first.master_seed if master_seed is None else master_seed

    rep_seeds = tuple(derive_seed(seed, f"rep:{i}") for i in range(n_reps))
    policies = tuple(s.policy for s in scenarios)
    runs = [
        run_replication_arms(first, rep_seed, policies, keep_events=keep_events)
        for rep_seed in rep_seeds
    ]
    return tuple(
        _aggregate(scenario, seed, rep_seeds, tuple(run[i] for run in runs))
        for i, scenario in enumerate(scenarios)
    )


def _aggregate(
    scenario: Scenario,
    seed: int,
    rep_seeds: tuple[int, ...],
    reps: tuple[ReplicationResult, ...],
) -> ExperimentResult:
    ledgers = [rep.ledger for rep in reps]
    series = {
        "base": [ledger.base_w for ledger in ledgers],
        "lights": [ledger.lights_w for ledger in ledgers],
        "computers": [ledger.computers_w for ledger in ledgers],
    }
    per_rep_kwh = {
        k: [pairwise_sum(s) / 60.0 / 1000.0 for s in v] for k, v in series.items()
    }
    base, lights, computers = per_rep_kwh.values()
    total_kwh = array("d", map(add, map(add, base, lights), computers))
    return ExperimentResult(
        scenario=scenario,
        master_seed=seed,
        rep_seeds=rep_seeds,
        replications=reps,
        mean_base_w=column_means(series["base"]),
        mean_lights_w=column_means(series["lights"]),
        mean_computers_w=column_means(series["computers"]),
        total_kwh_per_rep=total_kwh,
        category_kwh_mean={k: pairwise_mean(v) for k, v in per_rep_kwh.items()},
        category_kwh_std={
            k: (sample_std(v) if len(v) > 1 else 0.0) for k, v in per_rep_kwh.items()
        },
    )


@dataclass(frozen=True)
class PolicyComparison:
    automated: ExperimentResult
    staff_controlled: ExperimentResult
    paired_diff_kwh: array  # staff - automated, per replication

    @property
    def mean_diff_kwh(self) -> float:
        return pairwise_mean(self.paired_diff_kwh)

    @property
    def paired_se_kwh(self) -> float:
        n = len(self.paired_diff_kwh)
        if n < 2:
            return 0.0
        return sample_std(self.paired_diff_kwh) / math.sqrt(n)

    @property
    def lower_policy(self) -> PolicyKind:
        if self.mean_diff_kwh >= 0:
            return PolicyKind.AUTOMATED
        return PolicyKind.STAFF_CONTROLLED


def compare_policies(
    scenario: Scenario,
    replications: int | None = None,
    master_seed: int | None = None,
) -> PolicyComparison:
    """Run the scenario under both lighting policies with shared seeds.

    Each replication is one agent pass driving both arms. Lights never
    feed back into agents, contacts or computers, so both arms see
    identical populations and movement, each exactly as a run of its own
    would, and the per-replication difference isolates the policies'
    lighting behavior.
    """
    policies = (
        LightingPolicy.automated(scenario.policy.off_delay_minutes),
        LightingPolicy.staff_controlled(),
    )
    automated, staff = _run_arm_experiments(
        tuple(replace(scenario, policy=policy) for policy in policies),
        replications,
        master_seed,
        keep_events=False,
    )
    return PolicyComparison(
        automated=automated,
        staff_controlled=staff,
        paired_diff_kwh=array(
            "d", map(sub, staff.total_kwh_per_rep, automated.total_kwh_per_rep)
        ),
    )
