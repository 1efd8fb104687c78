"""Diagnostics of any replication, derived from its run record: the
per-minute ``RunTrace`` and the room occupancy replayed from the agent
event columns. The simulation never runs this code; it is the one module
of the package that imports numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

import numpy as np

from .engine import ReplicationResult, derive_seed
from .network import AWARENESS_CAP
from .occupants import (
    EVENT_KINDS,
    MINUTES_PER_DAY,
    AgentState,
    EventKind,
    sample_daily_schedule,
)
from .scenario_io import Scenario


@dataclass
class RunTrace:
    """Per-minute diagnostics of a run, derived from its record by
    ``derive_trace``; the matrices and the daily awareness vectors are
    numpy arrays."""

    state_transitions: list[tuple[int, int, AgentState, AgentState]]
    room_ids: tuple[str, ...]
    room_occupied: np.ndarray  # rooms x minutes, bool
    lights_on: np.ndarray  # rooms x minutes, bool
    schedules: dict[tuple[int, int], tuple[int, int] | None]
    awareness_by_day: list[np.ndarray]


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
_CODE_EDGES = tuple(_STATE_EDGES.get(kind) for kind in EVENT_KINDS)

# Per event kind code: the step an event of that kind adds to the
# occupancy of the room it names, and to that of the corridor.
_ROOM_STEP = np.array([
    1 if kind in (EventKind.ENTER_OWN_OFFICE, EventKind.ENTER_OTHER_ROOM)
    else -1 if kind in (
        EventKind.LEAVE_OFFICE_TEMPORARY,
        EventKind.LEAVE_OFFICE_LONG,
        EventKind.EXIT_OTHER_ROOM,
    )
    else 0
    for kind in EVENT_KINDS
])
_CORRIDOR_STEP = -_ROOM_STEP
_CORRIDOR_STEP[EVENT_KINDS.index(EventKind.ENTER_BUILDING)] = 1
_CORRIDOR_STEP[EVENT_KINDS.index(EventKind.LEAVE_BUILDING)] = -1


def room_occupancy(result: ReplicationResult) -> np.ndarray:
    """Rooms x minutes, bool: whether each room is occupied after each
    minute's events, replayed over the zones from the agent event columns
    of ``result``'s record. Corridor rooms share the corridor's
    occupancy."""
    record = result.record
    layout = result.record.scenario.layout
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


def derive_trace(result: ReplicationResult, scenario: Scenario) -> RunTrace:
    """The per-minute diagnostics of ``result``, a replication of
    ``scenario``, from its record:

    - the state transitions are the agent events, mapped by kind;
    - room occupancy is ``room_occupancy``;
    - the lights come from the light intervals;
    - the schedules are drawn again from the replication's schedule
      stream, which feeds nothing else;
    - the awareness at each midnight is the initial awareness plus the
      capped contact increments before it.
    """
    rooms = result.building.rooms
    n_minutes = result.n_minutes
    events = zip(result.record.kind, result.record.minute, result.record.agent)
    transitions = [
        (minute, agent_id, *_CODE_EDGES[code]) for code, minute, agent_id in events
    ]

    lights_on = np.zeros((len(rooms), n_minutes), dtype=bool)
    for i, room in enumerate(rooms):
        for start, end in result.light_intervals[room.id]:
            lights_on[i, start:end] = True

    n_days = n_minutes // MINUTES_PER_DAY
    rng_schedule = Random(derive_seed(result.seed, "schedule"))
    schedules = {}
    for day in range(n_days):
        dow = (scenario.start_day_of_week + day) % 7
        for record in result.roster:
            schedules[(day, record.id)] = sample_daily_schedule(
                record, dow, rng_schedule, scenario.behavior
            )

    awareness = [record.initial_awareness for record in result.roster]
    awareness_by_day = []
    pending = iter(result.contacts)
    contact = next(pending, None)
    for day in range(n_days):
        midnight = day * MINUTES_PER_DAY
        while contact is not None and contact[2] < midnight:
            receiver_id = contact[1]
            raised = awareness[receiver_id] + scenario.awareness_delta
            awareness[receiver_id] = raised if raised < AWARENESS_CAP else AWARENESS_CAP
            contact = next(pending, None)
        awareness_by_day.append(np.array(awareness))

    return RunTrace(
        state_transitions=transitions,
        room_ids=tuple(room.id for room in rooms),
        room_occupied=room_occupancy(result),
        lights_on=lights_on,
        schedules=schedules,
        awareness_by_day=awareness_by_day,
    )
