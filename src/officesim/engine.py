"""Event-driven simulation engine, replication management, and the
policy-comparison driver.

A replication is a pure function of (scenario, seed). RNG streams are
derived from the replication seed per purpose (population, network,
schedules, manual switching) and per agent (behaviour, emails), so that
runs under different lighting policies share identical populations,
schedules, and movement trajectories and differ only in light switching.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from dataclasses import dataclass, replace
from functools import cached_property
from heapq import heappop, heappush
from operator import add, itemgetter, sub
from random import Random
from typing import NamedTuple

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
from .network import (
    AWARENESS_CAP,
    SocialNetwork,
    build_small_world,
    contact_step,
    raise_awareness,
    send_hazard,
)
from .occupants import (
    MINUTES_PER_DAY,
    BehaviorContext,
    EventKind,
    OccupantAgent,
    OccupantEvent,
    ScheduleClass,
    Stereotype,
    sample_daily_schedule,
    sample_population,
    step_occupant,
)
from .scenario_io import Scenario


# Members bound at module level: a global lookup is cheaper than an enum
# class attribute for every event.
_ENTER_BUILDING = EventKind.ENTER_BUILDING
_ENTER_OWN_OFFICE = EventKind.ENTER_OWN_OFFICE
_SWITCH_COMPUTER_ON = EventKind.SWITCH_COMPUTER_ON
_COMPUTER_TO_STANDBY = EventKind.COMPUTER_TO_STANDBY
_SWITCH_COMPUTER_OFF = EventKind.SWITCH_COMPUTER_OFF
_LEAVE_OFFICE_TEMPORARY = EventKind.LEAVE_OFFICE_TEMPORARY
_LEAVE_OFFICE_LONG = EventKind.LEAVE_OFFICE_LONG
_ENTER_OTHER_ROOM = EventKind.ENTER_OTHER_ROOM
_EXIT_OTHER_ROOM = EventKind.EXIT_OTHER_ROOM
_LEAVE_BUILDING = EventKind.LEAVE_BUILDING


def _extend_to(series: array, value: float, end: int) -> None:
    """Extend ``series`` with ``value`` up to length ``end``."""
    if end > len(series):
        series.extend(array("d", (value,)) * (end - len(series)))


def derive_seed(master_seed: int, label: str) -> int:
    """Deterministic 63-bit stream seed from a master seed and a label."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class AgentRecord(NamedTuple):
    """Immutable per-agent facts captured for the result roster."""

    id: int
    schedule_class: ScheduleClass
    stereotype: Stereotype
    office_room_id: str
    computer_id: str | None
    initial_awareness: float
    final_awareness: float


@dataclass(frozen=True)
class ReplicationResult:
    seed: int
    n_minutes: int
    ledger: EnergyLedger
    events: tuple[OccupantEvent, ...] | None  # None: not kept
    roster: tuple[AgentRecord, ...]
    light_intervals: dict[str, tuple[tuple[int, int], ...]]  # room -> on-intervals
    computer_transitions: dict[str, tuple[tuple[int, float], ...]]
    contact_count: int
    building: BuildingModel
    # Kept with the events (else None): (sender_id, receiver_id, minute) per
    # email, sorted by (minute, sender_id).
    contacts: tuple[tuple[int, int, int], ...] | None

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

    The arm owns everything its lights touch: the room banks, the running
    lights total and its series, the event log and the manual-switching
    stream. Lights never feed back into agents, contacts
    or computers, so an arm evolves exactly as a run of its own would.
    """

    __slots__ = (
        "policy", "banks", "zone_banks", "lights_running", "lights", "events",
        "rng",
    )

    def __init__(self, policy, rooms, room_watts, zone_rooms, seed, keep_events):
        self.policy = policy
        self.banks = [
            RoomLightBank(room.id, room.light_ids, watts)
            for room, watts in zip(rooms, room_watts)
        ]
        self.zone_banks = [[self.banks[i] for i in members] for members in zone_rooms]
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
    scenario: Scenario, seed: int, keep_events: bool = True
) -> ReplicationResult:
    """Execute one replication under the scenario's lighting policy."""
    scenario.validate()
    (result,) = run_replication_arms(
        scenario, seed, (scenario.policy,), keep_events=keep_events
    )
    return result


def run_replication_arms(
    scenario: Scenario,
    seed: int,
    policies,
    keep_events: bool = True,
) -> tuple[ReplicationResult, ...]:
    """One agent pass of a valid scenario driving one lighting arm per
    policy; the scenario's own policy is not used. Arm i's result equals
    ``run_replication`` of the scenario under ``policies[i]``. Keeping
    the events keeps the contacts too; ``checks.derive_trace`` reads both.
    Without kept events, ``events`` and ``contacts`` are None.

    Next-event scheduling: each agent keeps the minute of its next firing
    (``step_occupant`` draws its hazards as waiting times and its
    countdowns as minutes), and each automated light bank of a vacant
    room its switch-off at vacancy plus the off delay. A calendar of
    per-minute buckets holds them, and only minutes with something due
    are visited. Per minute, in fixed order: at midnight the day's
    schedules; the agents due, in id order, each firing and its events
    applied at once; and the light steps of the rooms whose occupancy
    changed or whose switch-off is due.

    Emails are not on the calendar. An office stay ends at the leave
    minute fixed when the agent enters, so all of the stay's emails are
    drawn at the entry (``contact_step``), in the order a clock restarted
    at each email would draw them. Their receivers wait in a per-minute
    inbox: before the agents due at a minute fire, every earlier inbox
    minute is applied in order, so an agent reads the awareness of the
    emails sent before that minute, as when emails were sent after the
    minute's agents. A receiver already at the cap is not queued; the
    cap is absorbing.

    Agents draw from their own behaviour streams and senders from their
    own email streams, each created when it is first needed, so an
    agent's draws do not depend on who else is in the building. The power
    series are written one constant stretch at a time, when their total
    changes.
    """
    building = scenario.building
    params = scenario.behavior
    n_minutes = scenario.horizon_minutes
    start_dow = scenario.start_day_of_week

    rng_population = Random(derive_seed(seed, "population"))
    rng_network = Random(derive_seed(seed, "network"))
    rng_schedule = Random(derive_seed(seed, "schedule"))

    agents = sample_population(
        scenario.population_size, scenario.mix, building, rng_population
    )
    initial_awareness = [a.awareness for a in agents]
    network = _build_network(
        len(agents), scenario.small_world_k, scenario.small_world_beta, rng_network
    )
    contacts_on = network is not None and scenario.contact_rate > 0.0
    awareness_delta = scenario.awareness_delta
    if contacts_on:
        email_p = [send_hazard(a.p_email, scenario.contact_rate) for a in agents]

    facility_ids = tuple(r.id for r in building.facility_rooms())
    ctx = BehaviorContext(params=params, facility_room_ids=facility_ids)

    rooms = building.rooms
    corridor = 0
    zone_rooms, room_zone, zone_of = _zones(rooms)
    office_zone = [zone_of[a.office_room_id] for a in agents]
    zone_occupancy = [0] * len(zone_rooms)
    room_watts = [
        sequential_sum(building.lights[lid].watts_on for lid in room.light_ids)
        for room in rooms
    ]

    contact_log: list[tuple] | None = [] if keep_events else None

    arms = [
        _LightingArm(policy, rooms, room_watts, zone_rooms, seed, keep_events)
        for policy in policies
    ]
    automated_arms = [arm for arm in arms if arm.policy.is_automated]
    manual_arms = [arm for arm in arms if not arm.policy.is_automated]
    logs = [arm.events for arm in arms] if keep_events else []

    # Automated policy: a bank with lights is stepped when its zone turns
    # occupied or vacant, and at its scheduled switch-off.
    zone_steppable = [
        [i for i in members if room_watts[i] > 0] for members in zone_rooms
    ]
    touched: set[int] = set()  # zones whose occupancy changed this minute

    # Computers by index, in catalog order; an agent's computer events
    # act on the computer of its desk.
    computer_specs = list(building.computers.values())
    computer_index = {spec.id: c for c, spec in enumerate(computer_specs)}
    agent_computer = [computer_index.get(a.computer_id) for a in agents]
    # Each computer's transition log; its last entry is the wattage now.
    computer_transitions = [[(0, spec.watts_off)] for spec in computer_specs]
    computers_running = 0.0
    for spec in computer_specs:
        computers_running += spec.watts_off

    # A minute's sample is the total after all of that minute's changes,
    # so a change at minute m writes the old total up to m.
    computers_arr = array("d")

    # The calendar: a heap of minutes, each with buckets of the agents and
    # light banks (arm, bank index) due then.
    heap: list[int] = []
    due_agents: dict[int, list[int]] = {}
    due_lights: dict[int, list[tuple[int, int]]] = {}

    def schedule(bucket: dict, minute: int, item) -> None:
        items = bucket.get(minute)
        if items is None:
            bucket[minute] = [item]
            heappush(heap, minute)
        else:
            items.append(item)

    # The receivers of the emails drawn so far, per minute not yet applied,
    # with a heap of those minutes.
    inbox: dict[int, list[int]] = {}
    inbox_minutes: list[int] = []

    def apply_inbox(before: int) -> None:
        while inbox_minutes and inbox_minutes[0] < before:
            raise_awareness(agents, inbox.pop(heappop(inbox_minutes)), awareness_delta)

    behavior_rngs: list[Random | None] = [None] * len(agents)
    email_rngs: list[Random | None] = [None] * len(agents)
    present = 0  # agents in the building
    contact_count = 0

    def enter(zone: int, minute: int, agent_id: int) -> None:
        zone_occupancy[zone] += 1
        if zone_occupancy[zone] == 1:
            touched.add(zone)
        for arm in manual_arms:
            arm.switch_on(arm.zone_banks[zone], minute, agent_id)

    def leave(zone: int, minute: int, agent_id: int, rolls: bool) -> None:
        zone_occupancy[zone] -= 1
        if zone_occupancy[zone] == 0:
            touched.add(zone)
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
        nonlocal computers_running, present
        if (
            kind is _SWITCH_COMPUTER_ON
            or kind is _COMPUTER_TO_STANDBY
            or kind is _SWITCH_COMPUTER_OFF
        ):
            # Computer events carry no room; the owner's desk names it.
            c = agent_computer[agent_id]
            old_watts = computer_transitions[c][-1][1]
            new_watts = computer_apply_event(computer_specs[c], old_watts, kind)
            if new_watts != old_watts:
                _extend_to(computers_arr, computers_running, minute)
                computers_running += new_watts - old_watts
                computer_transitions[c].append((minute, new_watts))
        elif kind is _ENTER_OWN_OFFICE:
            enter(office_zone[agent_id], minute, agent_id)
            leave(corridor, minute, agent_id, True)
            if contacts_on:
                send_stay(agent_id, minute)
        elif kind is _LEAVE_OFFICE_TEMPORARY or kind is _LEAVE_OFFICE_LONG:
            leave(office_zone[agent_id], minute, agent_id, kind is _LEAVE_OFFICE_LONG)
            enter(corridor, minute, agent_id)
        elif kind is _ENTER_OTHER_ROOM:
            enter(zone_of[room_id], minute, agent_id)
            leave(corridor, minute, agent_id, True)
        elif kind is _EXIT_OTHER_ROOM:
            leave(zone_of[room_id], minute, agent_id, True)
            enter(corridor, minute, agent_id)
        elif kind is _ENTER_BUILDING:
            enter(corridor, minute, agent_id)
            present += 1
        else:  # _LEAVE_BUILDING
            leave(corridor, minute, agent_id, True)
            present -= 1

    def send_stay(agent_id: int, minute: int) -> None:
        # The emails of the office stay the agent begins at ``minute``.
        nonlocal contact_count
        rng = email_rngs[agent_id]
        if rng is None:
            rng = email_rngs[agent_id] = Random(derive_seed(seed, f"email:{agent_id}"))
        contacts = contact_step(
            network, agent_id, email_p[agent_id], minute, agents[agent_id].leave_at,
            rng,
        )
        if not contacts:
            return
        contact_count += len(contacts)
        if contact_log is not None:
            contact_log.extend(contacts)
        # Only neighbors receive; one at the cap stays there.
        uncapped = [
            r for r in network.neighbors[agent_id]
            if agents[r].awareness < AWARENESS_CAP
        ]
        if uncapped:
            for _, receiver_id, at in contacts:
                if receiver_id in uncapped:
                    receivers = inbox.get(at)
                    if receivers is None:
                        inbox[at] = [receiver_id]
                        heappush(inbox_minutes, at)
                    else:
                        receivers.append(receiver_id)

    def step_lights(minute: int) -> None:
        scheduled = due_lights.pop(minute, None)
        changed = [i for zone in touched for i in zone_steppable[zone]]
        for a, arm in enumerate(automated_arms):
            indices = changed
            if scheduled:
                indices = changed + [i for arm_index, i in scheduled if arm_index == a]
            if len(indices) > 1:
                # Index order, as a full sweep over the rooms would step them.
                indices = sorted(set(indices))
            banks = arm.banks
            off_delay = arm.policy.off_delay_minutes
            for idx in indices:
                bank = banks[idx]
                occupied = zone_occupancy[room_zone[idx]] > 0
                delta = bank.step_automated(occupied, off_delay, minute)
                if delta:
                    arm.add(delta * bank.watts_total, minute)
                if bank.is_on and bank.off_at == minute + off_delay:
                    # Vacated this minute: the switch-off is due after the delay.
                    schedule(due_lights, bank.off_at, (a, idx))

    step = step_occupant
    make_event = OccupantEvent._make if logs else None
    minute_events: list[tuple] = []
    for day in range(scenario.horizon_days):
        day_start = day * MINUTES_PER_DAY
        if present:
            raise RuntimeError(
                f"{present} agents still in the building at midnight "
                f"(minute {day_start})"
            )
        dow = (start_dow + day) % 7
        for agent in agents:
            today = sample_daily_schedule(agent, dow, rng_schedule, params)
            agent.today_schedule = today
            if today is not None:
                schedule(due_agents, day_start + today[0], agent.id)

        day_end = day_start + MINUTES_PER_DAY
        last = -1
        while heap and heap[0] < day_end:
            minute = heappop(heap)
            if minute == last:
                continue  # a bucket added during its own minute
            last = minute

            due = due_agents.pop(minute, None)
            if due:
                apply_inbox(minute)
                due.sort()
                minute_of_day = minute - day_start
                for agent_id in due:
                    agent = agents[agent_id]
                    rng = behavior_rngs[agent_id]
                    if rng is None:
                        rng = behavior_rngs[agent_id] = Random(
                            derive_seed(seed, f"agent:{agent_id}")
                        )
                    step(agent, minute, minute_of_day, ctx, rng, minute_events)
                    for ev in minute_events:
                        if logs:
                            event = make_event(ev)
                            for event_log in logs:
                                event_log.append(event)
                        apply_event(*ev)  # may log manual light events right after
                    minute_events.clear()
                    if agent.next_minute < n_minutes:
                        schedule(due_agents, agent.next_minute, agent_id)

            if automated_arms and (touched or minute in due_lights):
                step_lights(minute)
            touched.clear()

    apply_inbox(n_minutes)
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
    contacts = None
    if contact_log is not None:
        # By minute, then sender: two stable sorts on int keys.
        contact_log.sort(key=itemgetter(0))
        contact_log.sort(key=itemgetter(2))
        contacts = tuple(contact_log)
    results = []
    for arm in arms:
        _extend_to(arm.lights, arm.lights_running, n_minutes)
        for bank in arm.banks:
            bank.finalize(n_minutes)
        results.append(ReplicationResult(
            seed=seed,
            n_minutes=n_minutes,
            ledger=EnergyLedger(base_arr, arm.lights, computers_arr),
            events=tuple(arm.events) if keep_events else None,
            roster=roster,
            light_intervals={b.room_id: tuple(b.intervals) for b in arm.banks},
            computer_transitions=computer_log,
            contact_count=contact_count,
            building=building,
            contacts=contacts,
        ))
    return tuple(results)


def _zones(rooms) -> tuple[list[list[int]], list[int], dict[str, int]]:
    """Zones, the rooms that share occupancy, as (room indices per zone,
    zone per room index, zone per room id). Zone 0 is the corridor, all
    its rooms at once; every other room is a zone of its own."""
    zone_rooms: list[list[int]] = [[]]
    room_zone: list[int] = []
    for i, room in enumerate(rooms):
        if room.kind is RoomKind.CORRIDOR:
            room_zone.append(0)
            zone_rooms[0].append(i)
        else:
            room_zone.append(len(zone_rooms))
            zone_rooms.append([i])
    zone_of = {room.id: zone for room, zone in zip(rooms, room_zone)}
    return zone_rooms, room_zone, zone_of


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
) -> ExperimentResult:
    """Run independent replications and aggregate them.

    Replication i always uses the seed derived from (master seed, i), so
    raising the replication count extends the set without disturbing
    earlier replications.
    """
    (result,) = _run_arm_experiments((scenario,), replications, master_seed)
    return result


def _run_arm_experiments(
    scenarios: tuple[Scenario, ...],
    replications: int | None,
    master_seed: int | None,
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
        run_replication_arms(first, rep_seed, policies, keep_events=False)
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
    )
    return PolicyComparison(
        automated=automated,
        staff_controlled=staff,
        paired_diff_kwh=array(
            "d", map(sub, staff.total_kwh_per_rep, automated.total_kwh_per_rep)
        ),
    )
