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
from bisect import bisect_right, insort
from dataclasses import dataclass, field, replace
from random import Random

import numpy as np

from .accounting import BetaReport, EnergyLedger, build_beta_report
from .appliances import LightingPolicy, PolicyKind, RoomLightBank, manual_exit_decision
from .building import BuildingModel, RoomKind
from .errors import ValidationError
from .network import ContactEvent, SocialNetwork, build_small_world, contact_step
from .occupants import (
    MINUTES_PER_DAY,
    AgentState,
    BehaviorContext,
    BehaviorParams,
    EventKind,
    LeaveKind,
    OccupantAgent,
    OccupantEvent,
    PopulationMix,
    ScheduleClass,
    Stereotype,
    sample_daily_schedule,
    sample_population,
    step_occupant,
)


def derive_seed(master_seed: int, label: str) -> int:
    """Deterministic 63-bit stream seed from a master seed and a label."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True, slots=True)
class SimClock:
    """Derived calendar facts for an absolute simulation minute."""

    minute: int
    start_day_of_week: int = 0  # 0 = Monday

    @property
    def day_index(self) -> int:
        return self.minute // MINUTES_PER_DAY

    @property
    def minute_of_day(self) -> int:
        return self.minute % MINUTES_PER_DAY

    @property
    def day_of_week(self) -> int:
        return (self.start_day_of_week + self.day_index) % 7

    @property
    def is_weekend(self) -> bool:
        return self.day_of_week >= 5


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
    """Per-minute diagnostics recorded only when tracing is requested."""

    state_transitions: list[tuple[int, int, AgentState, AgentState]] = field(
        default_factory=list
    )
    room_ids: tuple[str, ...] = ()
    room_occupied: np.ndarray | None = None  # rooms x minutes, bool
    lights_on: np.ndarray | None = None  # rooms x minutes, bool
    schedules: dict[tuple[int, int], tuple[int, int] | None] = field(
        default_factory=dict
    )
    awareness_by_day: list[np.ndarray] = field(default_factory=list)
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
    network: SocialNetwork | None = None
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
        return sum(r.final_awareness for r in self.roster) / len(self.roster)


def run_replication(
    scenario: Scenario,
    seed: int,
    trace: bool = False,
    keep_events: bool = True,
) -> ReplicationResult:
    """Execute one replication.

    Per minute, in fixed order: day-rollover schedule sampling, agent
    steps in id order, event application to appliances, sensor stepping
    of lights, email contacts, and finally the power sample.

    Work whose outcome is known is skipped, never reordered: a light bank
    is stepped only while its step can change it (its room is occupied
    and it is dark, or its room is vacant and it is lit), and a stretch
    with nobody in the building and no light counting down is recorded
    in one slice up to the next arrival or midnight.
    """
    scenario.validate()
    building = scenario.building
    params = scenario.behavior
    policy = scenario.policy
    automated = policy.is_automated
    off_delay = policy.off_delay_minutes
    n_minutes = scenario.horizon_minutes
    start_dow = scenario.start_day_of_week

    rng_population = Random(derive_seed(seed, "population"))
    rng_network = Random(derive_seed(seed, "network"))
    rng_schedule = Random(derive_seed(seed, "schedule"))
    rng_behavior = Random(derive_seed(seed, "behavior"))
    rng_contact = Random(derive_seed(seed, "contact"))
    rng_policy = Random(derive_seed(seed, "policy"))

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

    rooms = building.rooms
    room_index = {room.id: i for i, room in enumerate(rooms)}
    occupancy = [0] * len(rooms)
    corridor_occupancy = 0
    is_corridor = [room.kind is RoomKind.CORRIDOR for room in rooms]
    corridor_banks: list[RoomLightBank] = []

    banks: list[RoomLightBank] = []
    for room in rooms:
        watts_total = sum(building.lights[lid].watts_on for lid in room.light_ids)
        bank = RoomLightBank(room.id, room.light_ids, watts_total)
        banks.append(bank)
        if room.kind is RoomKind.CORRIDOR:
            corridor_banks.append(bank)

    # Automated policy: banks whose next step may change them. Any other
    # bank is at a fixed point of step_automated (occupied and lit, or
    # vacant and dark) until its room turns vacant or occupied.
    steppable = [automated and bank.watts_total > 0 for bank in banks]
    corridor_steppable = [i for i, c in enumerate(is_corridor) if c and steppable[i]]
    dirty: set[int] = set()

    computer_watts_now: dict[str, float] = {}
    computer_transitions: dict[str, list[tuple[int, float]]] = {}
    computers_running = 0.0
    for spec in building.computers.values():
        computer_watts_now[spec.id] = spec.watts_off
        computer_transitions[spec.id] = [(0, spec.watts_off)]
        computers_running += spec.watts_off
    lights_running = 0.0

    base_watts = building.base_load_watts
    lights_arr = np.empty(n_minutes, dtype=np.float64)
    computers_arr = np.empty(n_minutes, dtype=np.float64)

    event_log: list[OccupantEvent] = []
    contact_count = 0
    active: list[OccupantAgent] = []  # kept sorted by id
    in_office: list[OccupantAgent] = []  # the email senders, kept sorted by id
    arrival_buckets: dict[int, list[OccupantAgent]] = {}
    arrival_minutes: list[int] = []  # sorted keys of arrival_buckets

    run_trace = None
    if trace:
        run_trace = RunTrace(
            room_ids=tuple(room.id for room in rooms),
            room_occupied=np.zeros((len(rooms), n_minutes), dtype=bool),
            lights_on=np.zeros((len(rooms), n_minutes), dtype=bool),
        )

    computer_specs = building.computers

    def corridor_lights_on(agent_id: int, minute: int) -> None:
        # Staff policy: anyone stepping into a dark corridor switches it on.
        nonlocal lights_running
        for bank in corridor_banks:
            if bank.turn_on(minute):
                lights_running += bank.watts_total
                event_log.append(
                    OccupantEvent(
                        EventKind.MANUAL_LIGHTS_ON, minute, agent_id, bank.room_id
                    )
                )

    def corridor_exit_decision(agent_id: int, minute: int) -> None:
        # Staff policy: one switch-off roll for the whole corridor zone
        # whenever the agent leaving it was the last person in it.
        nonlocal lights_running
        if corridor_occupancy != 0:
            return
        leaver = agents[agent_id]
        if manual_exit_decision(leaver.awareness, LeaveKind.LONG, True, rng_policy):
            for bank in corridor_banks:
                if bank.turn_off(minute):
                    lights_running -= bank.watts_total
                    event_log.append(
                        OccupantEvent(
                            EventKind.MANUAL_LIGHTS_OFF, minute, agent_id, bank.room_id
                        )
                    )

    def enter_room(idx: int) -> None:
        nonlocal corridor_occupancy
        corridor_occupancy -= 1
        occupancy[idx] += 1
        if occupancy[idx] == 1 and steppable[idx]:
            dirty.add(idx)
        if corridor_occupancy == 0:
            dirty.update(corridor_steppable)

    def leave_room(idx: int) -> None:
        nonlocal corridor_occupancy
        occupancy[idx] -= 1
        corridor_occupancy += 1
        if occupancy[idx] == 0 and steppable[idx]:
            dirty.add(idx)
        if corridor_occupancy == 1:
            dirty.update(corridor_steppable)

    def apply_event(ev: OccupantEvent) -> None:
        nonlocal corridor_occupancy, computers_running, lights_running
        kind = ev.kind
        if kind is EventKind.ENTER_OWN_OFFICE or kind is EventKind.ENTER_OTHER_ROOM:
            idx = room_index[ev.room_id]
            enter_room(idx)
            if kind is EventKind.ENTER_OWN_OFFICE:
                insort(in_office, agents[ev.agent_id], key=lambda a: a.id)
            if not automated:
                bank = banks[idx]
                if bank.turn_on(ev.minute):
                    lights_running += bank.watts_total
                    event_log.append(
                        OccupantEvent(
                            EventKind.MANUAL_LIGHTS_ON, ev.minute, ev.agent_id, ev.room_id
                        )
                    )
                corridor_exit_decision(ev.agent_id, ev.minute)
        elif kind is EventKind.LEAVE_OFFICE_TEMPORARY:
            leave_room(room_index[ev.room_id])
            in_office.remove(agents[ev.agent_id])
            if not automated:
                corridor_lights_on(ev.agent_id, ev.minute)
        elif kind is EventKind.LEAVE_OFFICE_LONG or kind is EventKind.EXIT_OTHER_ROOM:
            idx = room_index[ev.room_id]
            leave_room(idx)
            if kind is EventKind.LEAVE_OFFICE_LONG:
                in_office.remove(agents[ev.agent_id])
            if not automated:
                leaver = agents[ev.agent_id]
                if manual_exit_decision(
                    leaver.awareness, LeaveKind.LONG, occupancy[idx] == 0, rng_policy
                ):
                    bank = banks[idx]
                    if bank.turn_off(ev.minute):
                        lights_running -= bank.watts_total
                        event_log.append(
                            OccupantEvent(
                                EventKind.MANUAL_LIGHTS_OFF,
                                ev.minute,
                                ev.agent_id,
                                ev.room_id,
                            )
                        )
                corridor_lights_on(ev.agent_id, ev.minute)
        elif kind is EventKind.ENTER_BUILDING:
            corridor_occupancy += 1
            if corridor_occupancy == 1:
                dirty.update(corridor_steppable)
            if not automated:
                corridor_lights_on(ev.agent_id, ev.minute)
        elif kind is EventKind.LEAVE_BUILDING:
            corridor_occupancy -= 1
            if corridor_occupancy == 0:
                dirty.update(corridor_steppable)
            active.remove(agents[ev.agent_id])
            if not automated:
                corridor_exit_decision(ev.agent_id, ev.minute)
        else:
            # Computer events carry no room; resolve via the owner.
            computer_id = agents[ev.agent_id].computer_id
            spec = computer_specs[computer_id]
            if kind is EventKind.SWITCH_COMPUTER_ON:
                new_watts = spec.watts_on
            elif kind is EventKind.COMPUTER_TO_STANDBY:
                new_watts = spec.watts_standby
            else:
                new_watts = spec.watts_off
            old_watts = computer_watts_now[computer_id]
            if new_watts != old_watts:
                computer_watts_now[computer_id] = new_watts
                computers_running += new_watts - old_watts
                computer_transitions[computer_id].append((ev.minute, new_watts))

    step = step_occupant
    minute_events: list[OccupantEvent] = []
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
                insort(active, agent, key=lambda a: a.id)

        if not active and not dirty:
            # Nobody in the building and no light counting down: every
            # minute up to the next arrival or midnight records the same
            # sample.
            pos = bisect_right(arrival_minutes, minute_of_day)
            next_of_day = (
                arrival_minutes[pos] if pos < len(arrival_minutes) else MINUTES_PER_DAY
            )
            end = min(minute + next_of_day - minute_of_day, n_minutes)
            lights_arr[minute:end] = lights_running
            computers_arr[minute:end] = computers_running
            if run_trace is not None:
                for i, bank in enumerate(banks):
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
                    event_log.append(ev)
                    apply_event(ev)  # may append manual light events right after
                minute_events.clear()

        if dirty:
            # Index order, as a full sweep over the rooms would step them.
            for idx in sorted(dirty):
                bank = banks[idx]
                occupied = (
                    corridor_occupancy if is_corridor[idx] else occupancy[idx]
                ) > 0
                delta = bank.step_automated(occupied, off_delay, minute)
                if delta:
                    lights_running += delta * bank.watts_total
                if occupied or not bank.is_on:
                    dirty.discard(idx)

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
                    run_trace.contact_events.extend(contacts)

        lights_arr[minute] = lights_running
        computers_arr[minute] = computers_running
        if run_trace is not None:
            for i in range(len(rooms)):
                occupied_now = (
                    corridor_occupancy if is_corridor[i] else occupancy[i]
                ) > 0
                run_trace.room_occupied[i, minute] = occupied_now
                run_trace.lights_on[i, minute] = banks[i].is_on
        minute += 1

    for bank in banks:
        bank.finalize(n_minutes)

    ledger = EnergyLedger(
        np.full(n_minutes, base_watts, dtype=np.float64), lights_arr, computers_arr
    )
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
    return ReplicationResult(
        seed=seed,
        n_minutes=n_minutes,
        ledger=ledger,
        events=tuple(event_log) if keep_events else (),
        roster=roster,
        light_intervals={b.room_id: tuple(b.intervals) for b in banks},
        computer_transitions={
            cid: tuple(ts) for cid, ts in computer_transitions.items()
        },
        contact_count=contact_count,
        building=building,
        network=network,
        trace=run_trace,
    )


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
    scenario: Scenario
    master_seed: int
    rep_seeds: tuple[int, ...]
    replications: tuple[ReplicationResult, ...]
    mean_base_w: np.ndarray
    mean_lights_w: np.ndarray
    mean_computers_w: np.ndarray
    mean_total_w: np.ndarray
    total_kwh_per_rep: np.ndarray
    category_kwh_mean: dict[str, float]
    category_kwh_std: dict[str, float]

    @property
    def mean_total_kwh(self) -> float:
        return float(self.total_kwh_per_rep.mean())

    @property
    def std_total_kwh(self) -> float:
        return float(self.total_kwh_per_rep.std(ddof=1)) if len(
            self.total_kwh_per_rep
        ) > 1 else 0.0

    def mean_final_awareness(self) -> float:
        return float(
            np.mean([rep.mean_final_awareness() for rep in self.replications])
        )


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
    scenario.validate()
    n_reps = scenario.replications if replications is None else replications
    if n_reps < 1:
        raise ValidationError(f"replications must be >= 1, got {n_reps}")
    seed = scenario.master_seed if master_seed is None else master_seed

    rep_seeds = tuple(derive_seed(seed, f"rep:{i}") for i in range(n_reps))
    reps = tuple(
        run_replication(scenario, rep_seed, keep_events=keep_events)
        for rep_seed in rep_seeds
    )

    base_stack = np.stack([rep.ledger.base_w for rep in reps])
    lights_stack = np.stack([rep.ledger.lights_w for rep in reps])
    computers_stack = np.stack([rep.ledger.computers_w for rep in reps])
    total_stack = base_stack + lights_stack + computers_stack

    per_rep_kwh = {
        "base": base_stack.sum(axis=1) / 60.0 / 1000.0,
        "lights": lights_stack.sum(axis=1) / 60.0 / 1000.0,
        "computers": computers_stack.sum(axis=1) / 60.0 / 1000.0,
    }
    total_kwh = sum(per_rep_kwh.values())
    return ExperimentResult(
        scenario=scenario,
        master_seed=seed,
        rep_seeds=rep_seeds,
        replications=reps,
        mean_base_w=base_stack.mean(axis=0),
        mean_lights_w=lights_stack.mean(axis=0),
        mean_computers_w=computers_stack.mean(axis=0),
        mean_total_w=total_stack.mean(axis=0),
        total_kwh_per_rep=total_kwh,
        category_kwh_mean={k: float(v.mean()) for k, v in per_rep_kwh.items()},
        category_kwh_std={
            k: (float(v.std(ddof=1)) if len(v) > 1 else 0.0)
            for k, v in per_rep_kwh.items()
        },
    )


@dataclass(frozen=True)
class PolicyComparison:
    automated: ExperimentResult
    staff_controlled: ExperimentResult
    paired_diff_kwh: np.ndarray  # staff - automated, per replication

    @property
    def mean_diff_kwh(self) -> float:
        return float(self.paired_diff_kwh.mean())

    @property
    def paired_se_kwh(self) -> float:
        n = len(self.paired_diff_kwh)
        if n < 2:
            return 0.0
        return float(self.paired_diff_kwh.std(ddof=1) / np.sqrt(n))

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

    Shared seed derivation means both arms see identical populations and
    movement, so the per-replication difference isolates the policies'
    lighting behavior.
    """
    automated_scenario = replace(
        scenario,
        policy=LightingPolicy.automated(scenario.policy.off_delay_minutes),
    )
    staff_scenario = replace(scenario, policy=LightingPolicy.staff_controlled())
    automated_result = run_experiment(automated_scenario, replications, master_seed)
    staff_result = run_experiment(staff_scenario, replications, master_seed)
    return PolicyComparison(
        automated=automated_result,
        staff_controlled=staff_result,
        paired_diff_kwh=staff_result.total_kwh_per_rep
        - automated_result.total_kwh_per_rep,
    )
