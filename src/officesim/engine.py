"""Event-driven simulation engine, replication management, and the
policy-comparison driver.

A replication is a pure function of (scenario, seed). RNG streams are
derived from the replication seed per purpose (population, network,
schedules, manual switching) and per agent (behaviour, emails, computer),
so that runs under different lighting policies share identical
populations, schedules, and movement trajectories and differ only in
light switching, and movement does not depend on awareness.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from functools import cached_property
from heapq import heappop, heappush
from itertools import accumulate, repeat
from operator import add, sub, truediv
from random import Random
from typing import NamedTuple

from . import sha256
from .accounting import (
    EnergyLedger,
    column_means,
    integer_units,
    pairwise_mean,
    pairwise_sum,
    sample_std,
    sequential_sum,
)
from .appliances import (
    LightingPolicy,
    PolicyKind,
    RoomLightBank,
    manual_exit_decision,
)
from .building import BuildingModel, RoomKind
from .network import (
    AWARENESS_CAP,
    SocialNetwork,
    build_small_world,
    contact_step,
    network_degree,
    raise_awareness,
)
from .occupants import (
    COMPUTER_SWITCH_ON_MINUTES,
    ENTER_BUILDING,
    ENTER_OTHER_ROOM,
    ENTER_OWN_OFFICE,
    LEAVE_BUILDING,
    LEAVE_OFFICE_LONG,
    LEAVE_OFFICE_TEMPORARY,
    MANUAL_LIGHTS_OFF,
    MANUAL_LIGHTS_ON,
    MINUTES_PER_DAY,
    POWER_OFF,
    POWER_ON,
    POWER_STANDBY,
    BehaviorContext,
    ScheduleClass,
    Stereotype,
    computer_switch_off_prob,
    hazard_clock,
    sample_daily_schedule,
    sample_population,
    step_occupant,
    waiting_time,
)
from .scenario_io import Scenario


# Every schedule class and stereotype, by its code in a record.
SCHEDULE_CLASSES = tuple(ScheduleClass)
STEREOTYPES = tuple(Stereotype)


def derive_seed(master_seed: int, label: str) -> int:
    """Deterministic 63-bit stream seed from a master seed and a label: the
    top 63 bits of the package's (built-in) ``sha256`` of ``master:label``."""
    digest = sha256(f"{master_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _columns(typecodes: str) -> tuple[array, ...]:
    return tuple(array(typecode) for typecode in typecodes)


class RunRecord:
    """What one agent pass did, in ``array`` columns (the agents' desks are
    the scenario's ``seats``); the results of its arms share it. Each
    arm's lights and the computers are built from it once the pass ends;
    ``officesim.checks`` derives the roster, contacts and computer
    transitions from it. The int32 columns hold any run that fits in
    memory: a minute past 2**31 needs float64 series of 16 GiB each."""

    def __init__(self, scenario, seed, agents, email_p):
        self.scenario = scenario  # its lighting policy is not used
        self.seed = seed
        self.email_p = email_p  # per sender, its email hazard; None: no emails
        # The roster by agent id: the schedule class and stereotype codes,
        # and the awareness at the start and, once the pass ends, at the end.
        classes, stereotypes = SCHEDULE_CLASSES.index, STEREOTYPES.index
        self.schedule_class = array("b", [classes(a.schedule_class) for a in agents])
        self.stereotype = array("b", [stereotypes(a.stereotype) for a in agents])
        self.initial_awareness = array("d", [a.awareness for a in agents])
        self.final_awareness = array("d")
        # Agent events in the calendar's (minute, agent id) order: the code
        # in EVENT_KINDS, and the index in the building's rooms (-1: none).
        self.kind, self.minute, self.agent, self.room = _columns("biii")
        # Office stays in the order entered, each agent's in time order: the
        # agent, the minutes it enters and leaves, and at a long leave the
        # leaver's awareness then (else -1). contact_step draws each stay's
        # emails, and the computer of its owner draws a cycle over it.
        self.stay_sender, self.stay_start, self.stay_end, self.stay_awareness = (
            _columns("iiid")
        )
        # Computer transitions, drawn after the pass over the stays in their
        # order (``_draw_computers``): the power state entered, POWER_*.
        self.computer_minute, self.computer_agent, self.computer_power = (
            _columns("iib")
        )
        # Zone turns, each zone's occupied and vacant in turn from vacant:
        # the number of agent events up to the one that made it, its zone,
        # and for a vacancy whose leaver rolls the staff switch-off, the
        # leaver's awareness then (else -1).
        self.turn_position, self.turn_zone, self.turn_awareness = _columns("iid")


@dataclass(frozen=True)
class ReplicationResult:
    """One arm of one agent pass: its lighting policy, ledger, light
    intervals and manual light events, and the ``record`` it shares with
    the other arms."""

    seed: int
    policy: LightingPolicy
    n_minutes: int
    ledger: EnergyLedger
    light_intervals: dict[str, tuple[tuple[int, int], ...]]  # room -> on-intervals
    building: BuildingModel
    record: RunRecord  # shared by the arms of one agent pass
    # The manual light events: the number of agent events up to the one
    # that triggered each, its kind code and its room index; none under
    # the automated policy.
    manual: tuple[array, array, array]

    def mean_final_awareness(self) -> float:
        awareness = self.record.final_awareness
        return sequential_sum(awareness) / len(awareness) if awareness else 0.0


def run_replication(scenario: Scenario, seed: int) -> ReplicationResult:
    """Execute one replication under the scenario's lighting policy."""
    scenario.validate()
    (result,) = run_replication_arms(scenario, seed, (scenario.policy,))
    return result


def run_replication_arms(
    scenario: Scenario, seed: int, policies
) -> tuple[ReplicationResult, ...]:
    """One agent pass of a valid scenario, and from its ``RunRecord`` one
    lighting arm per policy; the scenario's own policy is not used. Arm
    i's result equals ``run_replication`` of the scenario under
    ``policies[i]``. Every arm's result holds the record.

    Next-event scheduling: each agent keeps the minute of its next firing
    (``step_occupant`` draws its hazards as waiting times and its
    countdowns as minutes). A calendar of per-minute buckets holds the
    agents, and only minutes with agents due are visited. Per minute, in
    fixed order: at midnight the day's schedules; then the agents due, in
    id order, each firing's one event (``step_occupant`` returns it as a
    kind code and a room id) applied at once: the record takes it, and the
    zone of the room it names and the corridor take their counts.

    Lights are not in the pass: no agent, email or computer reads one.
    The pass logs each zone's turns into the record, the agent events at
    which its count turns positive or back to zero, with the leaver's
    awareness where the leaver of a vacancy rolls the staff switch-off.
    After the last day each arm's lights are built from that log alone,
    one state per zone: automated, a zone with lights (``Layout.light_rooms``)
    takes its on-intervals from its turn minutes in closed form
    (``RoomLightBank.step_automated``); staff-controlled, a walk of the log
    switches the zones (``_staff_lights``). Each room with lights gets its
    zone's intervals, and the lights series is their exact total
    (``_replay_lights``).

    Emails are not on the calendar. An office stay ends at the leave
    minute fixed when the agent enters, so all of the stay's emails are
    drawn at the entry (``contact_step``), in the order a clock restarted
    at each email would draw them. Their receivers wait in a per-minute
    inbox: before the agents due at a minute fire, every earlier inbox
    minute is applied in order, so an agent reads the awareness of the
    emails sent before that minute, as when emails were sent after the
    minute's agents. A receiver already at the cap is not queued; the
    cap is absorbing. A stay whose sender's neighbors are all at the cap,
    or any stay at awareness delta 0, is recorded but not drawn: it can
    raise nobody. ``checks.contacts`` replays every recorded stay.

    Computers are not in the pass either: the record keeps every office
    stay, with the leaver's awareness at a long leave, and after the last
    day each owner's computer cycle is drawn over its stays, and the
    computers series built, in one walk (``_draw_computers``).

    Agents draw from their own behaviour streams, senders from their own
    email streams and computer owners from their own computer streams,
    each created when it is first needed (a sender's at its first drawn
    stay), so an agent's draws do not depend on who else is in the
    building, and its movement not on its awareness.
    """
    building = scenario.building
    params = scenario.behavior
    n_minutes = scenario.horizon_minutes
    start_dow = scenario.start_day_of_week

    rng_population = Random(derive_seed(seed, "population"))
    rng_network = Random(derive_seed(seed, "network"))
    rng_schedule = Random(derive_seed(seed, "schedule"))

    agents = sample_population(
        scenario.population_size, scenario.mix, building, rng_population,
        seats=scenario.seats,
    )
    network = build_network(
        len(agents), scenario.small_world_k, scenario.small_world_beta, rng_network,
        scenario.lattice,
    )
    awareness_delta = scenario.awareness_delta
    raising = awareness_delta > 0.0  # else no email changes anything
    hazards = scenario.email_hazards  # by stereotype code
    contacts_on = hazards is not None
    email_p = None
    if contacts_on:
        email_p = array("d", [hazards[STEREOTYPES.index(a.stereotype)] for a in agents])
    record = RunRecord(scenario, seed, agents, email_p)

    facility_ids, light_rooms, room_zone, room_index, per_watt, zone_units = (
        scenario.layout
    )
    ctx = BehaviorContext(params, facility_ids)
    corridor = 0
    zone_occupancy = [0] * len(light_rooms)

    # The calendar: a heap of minutes, each with the agents due then.
    heap: list[int] = []
    due_agents: dict[int, list[int]] = {}

    def schedule(minute: int, agent_id: int) -> None:
        due = due_agents.get(minute)
        if due is None:
            due_agents[minute] = [agent_id]
            heappush(heap, minute)
        else:
            due.append(agent_id)

    # The receivers of the emails drawn so far, per minute not yet applied,
    # with a heap of those minutes.
    inbox: dict[int, list[int]] = {}
    inbox_minutes: list[int] = []

    def apply_inbox(before: int) -> None:
        while inbox_minutes and inbox_minutes[0] < before:
            raise_awareness(agents, inbox.pop(heappop(inbox_minutes)), awareness_delta)

    behavior_rngs: list[Random | None] = [None] * len(agents)
    # A sender's email stream: None until first drawn, False once done.
    email_rngs: list[Random | bool | None] = [None] * len(agents)
    present = 0  # agents in the building

    kinds, minutes, agent_ids, room_indices = (
        record.kind, record.minute, record.agent, record.room
    )
    stay_senders, stay_starts, stay_ends, stay_awareness = (
        record.stay_sender, record.stay_start, record.stay_end, record.stay_awareness
    )
    open_stay = [0] * len(agents)  # per agent, the row of its last stay
    turn_positions, turn_zones, turn_awareness = (
        record.turn_position, record.turn_zone, record.turn_awareness
    )

    def enter(zone: int) -> None:
        zone_occupancy[zone] += 1
        if zone_occupancy[zone] == 1:
            turn_positions.append(len(kinds))
            turn_zones.append(zone)
            turn_awareness.append(-1.0)

    def leave(zone: int, agent_id: int, rolls: bool) -> None:
        zone_occupancy[zone] -= 1
        if zone_occupancy[zone] == 0:
            turn_positions.append(len(kinds))
            turn_zones.append(zone)
            turn_awareness.append(agents[agent_id].awareness if rolls else -1.0)

    def send_stay(agent_id: int, minute: int) -> None:
        # The emails of the office stay the agent begins at ``minute``.
        leave_at = agents[agent_id].leave_at
        # Only neighbors receive, and only those below the cap can be
        # raised. A stay that can raise nobody is not drawn: awareness
        # never falls and the cap is absorbing, so its sender is done and
        # its stream released, and what it drew stays in step with the
        # replay of every stay (checks.contacts).
        rng = email_rngs[agent_id]
        if not raising or rng is False:
            return
        neighbors = network.neighbors[agent_id]
        uncapped = [r for r in neighbors if agents[r].awareness < AWARENESS_CAP]
        if not uncapped:
            email_rngs[agent_id] = False
            return
        if rng is None:
            rng = email_rngs[agent_id] = Random(derive_seed(seed, f"email:{agent_id}"))
        contacts = contact_step(
            network, agent_id, email_p[agent_id], minute, leave_at, rng
        )
        for _, receiver_id, at in contacts:
            if receiver_id in uncapped:
                receivers = inbox.get(at)
                if receivers is None:
                    inbox[at] = [receiver_id]
                    heappush(inbox_minutes, at)
                else:
                    receivers.append(receiver_id)

    step = step_occupant
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
                schedule(day_start + today[0], agent.id)

        day_end = day_start + MINUTES_PER_DAY
        while heap and heap[0] < day_end:
            minute = heappop(heap)
            due = due_agents.pop(minute)
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
                code, room_id = step(agent, minute, minute_of_day, ctx, rng)
                # The event goes to the record first, ahead of the zone
                # turns it makes. The last one out of a zone rolls the staff
                # switch-off, unless it is a quick break. A move between a
                # room and the corridor handles the zone the event names
                # first.
                room = room_index[room_id]
                kinds.append(code)
                minutes.append(minute)
                agent_ids.append(agent_id)
                room_indices.append(room)
                if code == ENTER_BUILDING:
                    enter(corridor)
                    present += 1
                elif code == LEAVE_BUILDING:
                    leave(corridor, agent_id, True)
                    present -= 1
                elif code == ENTER_OWN_OFFICE or code == ENTER_OTHER_ROOM:
                    enter(room_zone[room])
                    leave(corridor, agent_id, True)
                    if code == ENTER_OWN_OFFICE:
                        open_stay[agent_id] = len(stay_senders)
                        stay_senders.append(agent_id)
                        stay_starts.append(minute)
                        stay_ends.append(agent.leave_at)
                        stay_awareness.append(-1.0)
                        if contacts_on:
                            send_stay(agent_id, minute)
                else:  # a leave of the room it names, into the corridor
                    leave(room_zone[room], agent_id, code != LEAVE_OFFICE_TEMPORARY)
                    enter(corridor)
                    if code == LEAVE_OFFICE_LONG:
                        stay_awareness[open_stay[agent_id]] = agent.awareness
                if agent.next_minute < n_minutes:
                    schedule(agent.next_minute, agent_id)

    apply_inbox(n_minutes)
    # Release the pass's streams, so that they are not alive at the peak
    # with the streams the computers draw from.
    behavior_rngs = email_rngs = rng = None
    computers_arr = _draw_computers(record, n_minutes)
    record.final_awareness.extend([a.awareness for a in agents])
    zone_turns = _zone_turn_minutes(record, len(light_rooms))
    room_ids = [room.id for room in building.rooms]
    results = []
    for policy in policies:
        if policy.is_automated:
            zone_spans = []
            for turns, rooms in zip(zone_turns, light_rooms):
                bank = RoomLightBank()
                if rooms:
                    bank.step_automated(turns, policy.off_delay_minutes, n_minutes)
                zone_spans.append(bank.intervals)
            manual = _columns("ibi")
        else:
            zone_spans, manual = _staff_lights(record, n_minutes)
        light_intervals = dict.fromkeys(room_ids, ())
        for rooms, spans in zip(light_rooms, zone_spans):
            spans = tuple(spans)
            for i in rooms:
                light_intervals[room_ids[i]] = spans
        lights = _replay_lights(zone_spans, zone_units, per_watt, n_minutes)
        results.append(ReplicationResult(
            seed=seed,
            policy=policy,
            n_minutes=n_minutes,
            ledger=EnergyLedger(scenario.base_load_w, lights, computers_arr),
            light_intervals=light_intervals,
            building=building,
            record=record,
            manual=manual,
        ))
    return tuple(results)


def _zone_turn_minutes(record: RunRecord, n_zones: int) -> list[list[int]]:
    """Per zone, the minutes of its turns in ``record``, occupied and
    vacant in turn. A firing emits one event and an agent fires again a
    minute later at the earliest, so a zone never turns occupied and
    vacant within one minute; vacant and occupied again leaves an empty
    run, which the closed form's merge absorbs."""
    turns: list[list[int]] = [[] for _ in range(n_zones)]
    minutes = record.minute
    for position, zone in zip(record.turn_position, record.turn_zone):
        turns[zone].append(minutes[position - 1])
    return turns


def _staff_lights(
    record: RunRecord, n_minutes: int
) -> tuple[list[list[tuple[int, int]]], tuple[array, array, array]]:
    """The staff-controlled on-intervals of ``record``'s pass by zone, and
    its manual light events (``ReplicationResult.manual``), one per room
    with lights (``Layout.light_rooms``) that a zone's switch reaches,
    from its zone turns in order. A dark zone turning occupied switches
    on, and a vacancy whose leaver rolls switches off if
    ``manual_exit_decision`` says so, drawing from the pass's own
    manual-switching stream. So a zone is lit while occupied, as when
    everyone entering switches on, and only a lit zone turns vacant."""
    light_rooms = record.scenario.layout.light_rooms
    spans: list[list[tuple[int, int]]] = [[] for _ in light_rooms]
    lit_at = [-1] * len(light_rooms)  # per zone: the minute it was lit; -1: dark
    manual = _columns("ibi")
    positions, codes, rooms = manual
    rng = Random(derive_seed(record.seed, "policy"))
    minutes = record.minute
    turns = zip(record.turn_position, record.turn_zone, record.turn_awareness)
    for position, zone, awareness in turns:
        minute = minutes[position - 1]
        if lit_at[zone] < 0:  # dark, so this turn is to occupied
            lit_at[zone], code = minute, MANUAL_LIGHTS_ON
        elif awareness >= 0.0 and manual_exit_decision(awareness, rng):
            spans[zone].append((lit_at[zone], minute))
            lit_at[zone], code = -1, MANUAL_LIGHTS_OFF
        else:
            continue
        switched = light_rooms[zone]
        positions.extend(repeat(position, len(switched)))
        codes.extend(repeat(code, len(switched)))
        rooms.extend(switched)
    for zone_spans, start in zip(spans, lit_at):
        if start >= 0:
            zone_spans.append((start, n_minutes))
    return spans, manual


def _exact_series(deltas: list[int], per_watt: int) -> array:
    """The running totals of ``deltas``, changes per minute in whole
    counts of ``1 / per_watt`` W (``accounting.integer_units``), each
    rounded once to the nearest float: minute m's sample is the exact
    total after all of that minute's changes, in whatever order they came.
    Where every total is a whole wattage, it is the running float sum of
    the changes."""
    return array("d", map(truediv, accumulate(deltas), repeat(per_watt)))


def _draw_computers(record: RunRecord, n_minutes: int) -> array:
    """Draw each owner's computer over its office stays in ``record``, in
    order, from its own stream (``computer:{id}``, created at its first
    stay), into the record's computer columns; returns the computers
    series, minute m's sample the exact total wattage after all of that
    minute's changes (``_exact_series``). A machine switches on
    ``COMPUTER_SWITCH_ON_MINUTES`` after the entry or after going to
    standby, and goes to standby a drawn wait after switching on or after
    an entry that finds it on. A transition due at the stay's end or later
    does not happen; at a long leave, a machine that is not off is
    switched off with the ``computer_switch_off_prob`` of the leaver's
    awareness then."""
    scenario = record.scenario
    params = scenario.behavior
    per_watt, _, levels, off_units = scenario.computer_levels
    clock = hazard_clock(params.computer_standby_prob_per_minute)
    add_minute, add_owner, add_power = (
        record.computer_minute.append, record.computer_agent.append,
        record.computer_power.append,
    )
    deltas = [0] * n_minutes
    deltas[0] = off_units
    rngs: list[Random | None] = [None] * len(levels)
    powers = [POWER_OFF] * len(levels)  # per agent: as its last stay ended
    stays = zip(
        record.stay_sender, record.stay_start, record.stay_end, record.stay_awareness
    )
    for owner, at, end, awareness in stays:
        units = levels[owner]
        if units is None:
            continue
        rng = rngs[owner]
        if rng is None:
            rng = rngs[owner] = Random(derive_seed(record.seed, f"computer:{owner}"))
        power = powers[owner]
        while True:  # ``at``: the entry, then the minute of the last change
            if power == POWER_ON:
                at += 1 + waiting_time(rng, clock)
            else:
                at += COMPUTER_SWITCH_ON_MINUTES
            if at < end:  # the cycle's next change, else the leave's roll
                after = POWER_STANDBY if power == POWER_ON else POWER_ON
            elif (
                awareness >= 0.0
                and power != POWER_OFF
                and rng.random() < computer_switch_off_prob(awareness, params)
            ):
                at, after = end, POWER_OFF
            else:
                break
            add_minute(at)
            add_owner(owner)
            add_power(after)
            deltas[at] += units[after] - units[power]
            power = after
        powers[owner] = power
    return _exact_series(deltas, per_watt)


def _replay_lights(zone_spans, zone_units, per_watt: int, n_minutes: int) -> array:
    """A lights series: minute m's sample is the exact total wattage of
    the zones lit at m in ``zone_spans`` (``_exact_series``), each drawing
    ``zone_units`` in the units of ``Layout.per_watt``."""
    deltas = [0] * (n_minutes + 1)  # the last: switch-offs at the end
    for spans, units in zip(zone_spans, zone_units):
        for start, end in spans:
            deltas[start] += units
            deltas[end] -= units
    del deltas[n_minutes]
    return _exact_series(deltas, per_watt)


class Layout(NamedTuple):
    """``building_layout``: rooms by index in the building's file order.
    A zone is the rooms that share occupancy: zone 0 is the corridor, all
    its rooms at once; every other room is a zone of its own. Lights are
    switched per zone, under either policy, and a zone's switching
    reaches its rooms that have lights."""

    facility_ids: tuple[str, ...]
    light_rooms: list[list[int]]  # by zone, the indices of its rooms with lights
    room_zone: list[int]  # by room index
    room_index: dict[str | None, int]  # by room id; None: -1
    per_watt: int  # the light wattages' denominator, accounting.integer_units
    zone_units: list[int]  # by zone, its lights' wattage in those units


def building_layout(building: BuildingModel) -> Layout:
    """The rooms and zones of ``building`` as a run uses them; held per
    scenario as ``Scenario.layout``."""
    rooms = building.rooms
    light_rooms: list[list[int]] = [[]]  # zone 0: the corridor
    room_zone: list[int] = []
    for i, room in enumerate(rooms):
        if room.kind is RoomKind.CORRIDOR:
            room_zone.append(0)
        else:
            room_zone.append(len(light_rooms))
            light_rooms.append([])
        if room.light_ids:
            light_rooms[room_zone[i]].append(i)
    per_watt, zone_units = integer_units(
        [building.lights[lid].watts_on for i in zone for lid in rooms[i].light_ids]
        for zone in light_rooms
    )
    room_index = {room.id: i for i, room in enumerate(rooms)}
    room_index[None] = -1
    return Layout(
        tuple(r.id for r in building.facility_rooms()),
        light_rooms, room_zone, room_index, per_watt, list(map(sum, zone_units)),
    )


def build_network(
    n: int, k: int, beta: float, rng, lattice=None
) -> SocialNetwork | None:
    """The network at the degree adapted to the population
    (``network_degree``), rewired from ``lattice`` where given (the
    scenario's); None disables contacts entirely (fewer than three agents
    cannot form a ring)."""
    k = network_degree(n, k)
    return build_small_world(n, k, beta, rng, lattice=lattice) if k else None


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


def run_experiment(scenario: Scenario) -> ExperimentResult:
    """Run the scenario's replications and aggregate them.

    Replication i always uses the seed derived from (master seed, i), so
    raising the replication count extends the set without disturbing
    earlier replications.
    """
    (result,) = _run_arm_experiments((scenario,))
    return result


def _run_arm_experiments(
    scenarios: tuple[Scenario, ...],
) -> tuple[ExperimentResult, ...]:
    """One experiment per scenario, for scenarios that differ only in
    their lighting policy: replication i of every one comes from the same
    shared agent pass."""
    for scenario in scenarios:
        scenario.validate()
    first = scenarios[0]
    n_reps = first.replications
    seed = first.master_seed

    rep_seeds = tuple(derive_seed(seed, f"rep:{i}") for i in range(n_reps))
    policies = tuple(s.policy for s in scenarios)
    runs = [run_replication_arms(first, rep_seed, policies) for rep_seed in rep_seeds]
    # Every ledger holds the scenario's constant base series: per minute,
    # the mean of n_reps copies of its one sample.
    base = first.base_load_w
    base_kwh = [pairwise_sum(base) / 60.0 / 1000.0] * n_reps
    mean_base = column_means([base[:1]] * n_reps) * len(base)
    # The arms of a pass share its computers series.
    computers_kwh, mean_computers = _kwh_and_means(
        [run[0].ledger.computers_w for run in runs]
    )
    experiments = []
    for i, scenario in enumerate(scenarios):
        reps = tuple(run[i] for run in runs)
        lights_kwh, mean_lights = _kwh_and_means([rep.ledger.lights_w for rep in reps])
        kwh = {"base": base_kwh, "lights": lights_kwh, "computers": computers_kwh}
        experiments.append(ExperimentResult(
            scenario=scenario,
            master_seed=seed,
            rep_seeds=rep_seeds,
            replications=reps,
            mean_base_w=mean_base,
            mean_lights_w=mean_lights,
            mean_computers_w=mean_computers,
            total_kwh_per_rep=array(
                "d", map(add, map(add, base_kwh, lights_kwh), computers_kwh)
            ),
            category_kwh_mean={k: pairwise_mean(v) for k, v in kwh.items()},
            category_kwh_std={
                k: (sample_std(v) if len(v) > 1 else 0.0) for k, v in kwh.items()
            },
        ))
    return tuple(experiments)


def _kwh_and_means(series: list[array]) -> tuple[list[float], array]:
    """The kWh of each replication's series, and their per-minute means."""
    return [pairwise_sum(s) / 60.0 / 1000.0 for s in series], column_means(series)


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


def compare_policies(scenario: Scenario) -> PolicyComparison:
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
        tuple(replace(scenario, policy=policy) for policy in policies)
    )
    return PolicyComparison(
        automated=automated,
        staff_controlled=staff,
        paired_diff_kwh=array(
            "d", map(sub, staff.total_kwh_per_rep, automated.total_kwh_per_rep)
        ),
    )
