"""Diagnostics of any replication, derived from its run record: the
roster, the contacts, the computer transitions, the per-appliance
energies, and the per-minute ``RunTrace``, whose pass part the arms of
a pass share. The simulation never runs this code; it is the one module
of the package that imports numpy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count
from operator import itemgetter
from random import Random
from typing import NamedTuple

import numpy as np

from .accounting import BetaReport, build_beta_report
from .engine import ReplicationResult, RunRecord, build_network, derive_seed
from .network import AWARENESS_CAP, SocialNetwork, contact_step
from .occupants import (
    EVENT_KINDS,
    MINUTES_PER_DAY,
    POWER_OFF,
    SCHEDULE_CLASSES,
    STEREOTYPES,
    AgentState,
    EventKind,
    ScheduleClass,
    Stereotype,
    sample_daily_schedule,
)


class AgentRecord(NamedTuple):
    """One agent's facts in a pass, as ``roster`` lists them."""

    id: int
    schedule_class: ScheduleClass
    stereotype: Stereotype
    office_room_id: str
    computer_id: str | None
    initial_awareness: float
    final_awareness: float


def roster(record: RunRecord) -> tuple[AgentRecord, ...]:
    """Each agent's facts by id, from the record's roster columns and the
    scenario's ``Layout``."""
    layout = record.scenario.layout
    classes = map(SCHEDULE_CLASSES.__getitem__, record.schedule_class)
    stereotypes = map(STEREOTYPES.__getitem__, record.stereotype)
    return tuple(map(
        AgentRecord, count(), classes, stereotypes, layout.office_ids,
        layout.computer_ids, record.initial_awareness, record.final_awareness,
    ))


def pass_network(record: RunRecord) -> SocialNetwork | None:
    """The social network of ``record``'s pass, built again from the
    pass's network stream, which feeds nothing else; None where the
    population is too small for one."""
    return build_network(record.scenario, Random(derive_seed(record.seed, "network")))


def _stay_emails(record: RunRecord, network: SocialNetwork | None):
    """Each recorded office stay's emails, in the order of the stays,
    drawn by ``contact_step`` on ``network`` (``pass_network``) from a
    fresh email stream of its sender; none where contacts are off. Nothing
    else draws from those streams, and the pass draws each sender's stays
    up to the first that can raise nobody, and none after it, so the
    emails the pass drew come out the same."""
    hazards = record.scenario.layout.email_hazards  # by stereotype code
    if hazards is None:
        return
    rngs: dict[int, Random] = {}
    stays = zip(record.stay_sender, record.stay_start, record.stay_end)
    for sender, start, end in stays:
        rng = rngs.get(sender)
        if rng is None:
            rng = rngs[sender] = Random(derive_seed(record.seed, f"email:{sender}"))
        p = hazards[record.stereotype[sender]]
        yield contact_step(network, sender, p, start, end, rng)


def contacts(record: RunRecord) -> tuple[tuple[int, int, int], ...]:
    """Every email of every recorded office stay as ``(sender_id,
    receiver_id, minute)``, sorted by minute, then sender."""
    rows: list[tuple[int, int, int]] = []
    for emails in _stay_emails(record, pass_network(record)):
        rows += emails
    rows.sort(key=itemgetter(2, 0))
    return tuple(rows)


def contact_count(record: RunRecord) -> int:
    """The number of ``contacts``, counted without building them."""
    return sum(map(len, _stay_emails(record, pass_network(record))))


def computer_transitions(record: RunRecord) -> dict[str, tuple]:
    """Each computer's wattage changes as (minute, watts), from
    (0, off watts), in catalog order."""
    layout = record.scenario.layout
    levels = layout.computer_watts
    transitions = {cid: [(0, ws[POWER_OFF])] for cid, ws in levels.items()}
    owned = layout.computer_ids
    rows = zip(record.computer_minute, record.computer_agent, record.computer_power)
    for minute, agent_id, power in rows:
        cid = owned[agent_id]
        watts = levels[cid][power]
        if watts != transitions[cid][-1][1]:
            transitions[cid].append((minute, watts))
    return {cid: tuple(ts) for cid, ts in transitions.items()}


def appliance_energies(
    result: ReplicationResult, start: int = 0, end: int | None = None,
    transitions=None,
) -> list[tuple[str, float, float]]:
    """(id, max watts, watt-hours) per flexible appliance of ``result``
    over [start, end), integrated from state-transition logs (a route
    independent of the per-minute ledger); ``transitions`` is its
    record's ``computer_transitions``, built here where not given."""
    end = result.n_minutes if end is None else end
    if transitions is None:
        transitions = computer_transitions(result.record)
    building = result.building
    out: list[tuple[str, float, float]] = []
    for room in building.rooms:
        intervals = result.light_intervals.get(room.id, ())
        on_minutes = sum(max(0, min(b, end) - max(a, start)) for a, b in intervals)
        for lid in room.light_ids:
            watts = building.lights[lid].watts_on
            out.append((lid, watts, watts * on_minutes / 60.0))
    for cid, changes in transitions.items():
        ends = [t for t, _ in changes[1:]] + [result.n_minutes]
        wmin = 0.0
        for (t, w), t_next in zip(changes, ends):
            lo, hi = max(t, start), min(t_next, end)
            if hi > lo:
                wmin += w * (hi - lo)
        out.append((cid, building.computers[cid].watts_on, wmin / 60.0))
    return out


def beta_report(
    result: ReplicationResult, start: int = 0, end: int | None = None,
    transitions=None,
) -> BetaReport:
    """The duty coefficients of ``result``'s ``appliance_energies``."""
    end = result.n_minutes if end is None else end
    energies = appliance_energies(result, start, end, transitions)
    return build_beta_report(energies, start, end)


@dataclass
class PassTrace:
    """What an agent pass decided, derived from its record by
    ``trace_pass``; the traces of all its arms share it. The occupancy
    matrix and the daily awareness vectors are numpy arrays."""

    state_transitions: list[tuple[int, int, AgentState, AgentState]]
    room_ids: tuple[str, ...]
    room_occupied: np.ndarray  # rooms x minutes, bool
    schedules: dict[tuple[int, int], tuple[int, int] | None]
    # Per agent, its [start, end) spans in its own office and in the building.
    office_stays: dict[int, list[tuple[int, int]]]
    building_stays: dict[int, list[tuple[int, int]]]
    computer_transitions: dict[str, tuple[tuple[int, float], ...]]
    awareness_by_day: list[np.ndarray]  # at each midnight
    awareness_at_end: list[float]
    network: SocialNetwork | None  # pass_network


@dataclass
class RunTrace(PassTrace):
    """Per-minute diagnostics of one arm, by ``derive_trace``: its pass's
    ``PassTrace`` and its own lights."""

    lights_on: np.ndarray  # rooms x minutes, bool


# The state an agent event leaves and the state it enters.
_STATE_EDGES = {
    EventKind.ENTER_BUILDING: (AgentState.OUT_OF_SCHOOL, AgentState.IN_CORRIDOR),
    EventKind.ENTER_OWN_OFFICE: (AgentState.IN_CORRIDOR, AgentState.IN_OWN_OFFICE),
    EventKind.LEAVE_OFFICE_TEMPORARY: (
        AgentState.IN_OWN_OFFICE, AgentState.IN_CORRIDOR
    ),
    EventKind.LEAVE_OFFICE_LONG: (AgentState.IN_OWN_OFFICE, AgentState.IN_CORRIDOR),
    EventKind.ENTER_OTHER_ROOM: (AgentState.IN_CORRIDOR, AgentState.IN_OTHER_ROOMS),
    EventKind.EXIT_OTHER_ROOM: (AgentState.IN_OTHER_ROOMS, AgentState.IN_CORRIDOR),
    EventKind.LEAVE_BUILDING: (AgentState.IN_CORRIDOR, AgentState.OUT_OF_SCHOOL),
}


# _STATE_EDGES by event kind code; every agent event has an edge.
_CODE_EDGES = tuple(_STATE_EDGES.get(kind, (None, None)) for kind in EVENT_KINDS)


def _steps(states) -> list[int]:
    """Per event kind code: 1 if an event of that kind enters any of
    ``states`` from outside them, -1 if it leaves them, else 0."""
    return [(after in states) - (before in states) for before, after in _CODE_EDGES]


# Per event kind code: the step an event of that kind adds to the
# occupancy of the room it names, and to that of the corridor.
_ROOM_STEP = np.array(_steps({AgentState.IN_OWN_OFFICE, AgentState.IN_OTHER_ROOMS}))
_CORRIDOR_STEP = np.array(_steps({AgentState.IN_CORRIDOR}))


def room_occupancy(result: ReplicationResult) -> np.ndarray:
    """Rooms x minutes, bool: whether each room is occupied after each
    minute's events, replayed over the zones from the agent event columns
    of ``result``'s record. Corridor rooms share the corridor's
    occupancy."""
    record = result.record
    layout = record.scenario.layout
    room_zone = layout.room_zone
    kinds = np.frombuffer(record.kind, dtype=np.int8)
    minutes = np.frombuffer(record.minute, dtype=np.int32)
    rooms = np.frombuffer(record.room, dtype=np.int32)
    named = rooms >= 0
    delta = np.zeros((len(layout.light_rooms), result.n_minutes), dtype=np.int64)
    np.add.at(
        delta,
        (np.array(room_zone, dtype=np.intp)[rooms[named]], minutes[named]),
        _ROOM_STEP[kinds[named]],
    )
    np.add.at(delta[0], minutes, _CORRIDOR_STEP[kinds])  # zone 0: the corridor
    return (np.cumsum(delta, axis=1) > 0)[room_zone]


def _stays(record: RunRecord, n_minutes: int, states) -> dict[int, list]:
    """Per agent, the [start, end) spans it spends in any of ``states``,
    from its agent events. A leave with no entry before it, which only a
    broken chain has (``_STATE_EDGES``), makes no span."""
    steps = _steps(states)
    spans: dict[int, list[tuple[int, int]]] = {}
    entered: dict[int, int] = {}
    for code, minute, agent_id in zip(record.kind, record.minute, record.agent):
        if steps[code] == 1:
            entered[agent_id] = minute
        elif steps[code] == -1 and agent_id in entered:
            spans.setdefault(agent_id, []).append((entered.pop(agent_id), minute))
    for agent_id, start in entered.items():
        spans.setdefault(agent_id, []).append((start, n_minutes))
    return spans


def _awareness_replay(record: RunRecord, n_days: int, network: SocialNetwork | None):
    """The awareness at each midnight and at the end: the initial one
    raised by the awareness delta per email received before then, capped
    at 100. Every email adds the same delta under the same cap, so an
    agent's awareness depends only on how many emails reached it, not on
    their order; and a stay's emails fall on the day it begins, as it
    ends by midnight. ``network`` is the pass's (``pass_network``)."""
    received: list[list[int]] = [[] for _ in range(n_days)]
    for emails in _stay_emails(record, network):
        if emails:
            received[emails[0][2] // MINUTES_PER_DAY] += map(itemgetter(1), emails)
    delta = record.scenario.awareness_delta
    awareness = list(record.initial_awareness)
    by_day = []
    for receivers in received:
        by_day.append(np.array(awareness))
        for agent_id, n in Counter(receivers).items():
            level = awareness[agent_id]
            for _ in range(n):
                raised = level + delta
                level = raised if raised < AWARENESS_CAP else AWARENESS_CAP
            awareness[agent_id] = level
    return by_day, awareness


def trace_pass(result: ReplicationResult) -> PassTrace:
    """What the agent pass of ``result``, any of its arms, decided, from
    its record. The state transitions are the agent events, mapped by
    kind, and the stays their spans; the schedules are drawn again from
    the pass's schedule stream, which feeds nothing else, and the network
    (``pass_network``) once for the awareness replay and the trace."""
    record = result.record
    scenario = record.scenario
    n_minutes = result.n_minutes
    events = zip(record.kind, record.minute, record.agent)
    transitions = [
        (minute, agent_id, *_CODE_EDGES[code]) for code, minute, agent_id in events
    ]
    n_days = n_minutes // MINUTES_PER_DAY
    agents, rng = roster(record), Random(derive_seed(record.seed, "schedule"))
    start_dow = scenario.start_day_of_week
    schedules = {
        (day, agent.id): sample_daily_schedule(
            agent, (start_dow + day) % 7, rng, scenario.behavior
        )
        for day in range(n_days)
        for agent in agents
    }
    in_building = frozenset(AgentState) - {AgentState.OUT_OF_SCHOOL}
    network = pass_network(record)
    return PassTrace(
        transitions,
        tuple(room.id for room in result.building.rooms),
        room_occupancy(result),
        schedules,
        _stays(record, n_minutes, {AgentState.IN_OWN_OFFICE}),
        _stays(record, n_minutes, in_building),
        computer_transitions(record),
        *_awareness_replay(record, n_days, network),
        network,
    )


def derive_trace(result: ReplicationResult, shared=None) -> RunTrace:
    """The per-minute diagnostics of ``result``: ``shared``, the
    ``trace_pass`` of its pass (derived here where not given), and its
    lights, from its light intervals."""
    if shared is None:
        shared = trace_pass(result)
    rooms = result.building.rooms
    lights_on = np.zeros((len(rooms), result.n_minutes), dtype=bool)
    for i, room in enumerate(rooms):
        for start, end in result.light_intervals[room.id]:
            lights_on[i, start:end] = True
    return RunTrace(**vars(shared), lights_on=lights_on)
