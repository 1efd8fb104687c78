"""Diagnostics of a replication, derived from its kept events: the
per-minute ``RunTrace`` and the room occupancy replayed from the agent
events. The simulation never runs this code; it is the one module of
the package that imports numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

import numpy as np

from .engine import (
    _ENTER_BUILDING,
    _ENTER_OTHER_ROOM,
    _ENTER_OWN_OFFICE,
    _EXIT_OTHER_ROOM,
    _LEAVE_BUILDING,
    _LEAVE_OFFICE_LONG,
    _LEAVE_OFFICE_TEMPORARY,
    ReplicationResult,
    _zones,
    derive_seed,
)
from .network import AWARENESS_CAP, ContactEvent
from .occupants import MINUTES_PER_DAY, AgentState, sample_daily_schedule
from .scenario_io import Scenario


@dataclass
class RunTrace:
    """Per-minute diagnostics of a run, derived from its kept events by
    ``derive_trace``; the matrices and the daily awareness vectors are
    numpy arrays."""

    state_transitions: list[tuple[int, int, AgentState, AgentState]]
    room_ids: tuple[str, ...]
    room_occupied: np.ndarray  # rooms x minutes, bool
    lights_on: np.ndarray  # rooms x minutes, bool
    schedules: dict[tuple[int, int], tuple[int, int] | None]
    awareness_by_day: list[np.ndarray]
    contact_events: list[ContactEvent]


# The state an agent event leaves and the state it enters.
_STATE_EDGES = {
    _ENTER_BUILDING: (AgentState.OUT_OF_SCHOOL, AgentState.IN_CORRIDOR),
    _ENTER_OWN_OFFICE: (AgentState.IN_CORRIDOR, AgentState.IN_OWN_OFFICE),
    _LEAVE_OFFICE_TEMPORARY: (AgentState.IN_OWN_OFFICE, AgentState.IN_CORRIDOR),
    _LEAVE_OFFICE_LONG: (AgentState.IN_OWN_OFFICE, AgentState.IN_CORRIDOR),
    _ENTER_OTHER_ROOM: (AgentState.IN_CORRIDOR, AgentState.IN_OTHER_ROOMS),
    _EXIT_OTHER_ROOM: (AgentState.IN_OTHER_ROOMS, AgentState.IN_CORRIDOR),
    _LEAVE_BUILDING: (AgentState.IN_CORRIDOR, AgentState.OUT_OF_SCHOOL),
}


def _require_kept_events(result: ReplicationResult) -> None:
    if result.events is None:
        raise ValueError(
            f"replication {result.seed} was run without its events kept; "
            "run it with keep_events=True"
        )


def room_occupancy(result: ReplicationResult) -> np.ndarray:
    """Rooms x minutes, bool: whether each room is occupied after each
    minute's events, replayed over the zones from the agent events of
    ``result``, a replication run with its events kept. Corridor rooms
    share the corridor's occupancy."""
    _require_kept_events(result)
    rooms = result.building.rooms
    zone_rooms, room_zone, zone_of = _zones(rooms)
    zones, minutes, steps = [], [], []
    corridor_minutes, corridor_steps = [], []
    # Identity tests, not a dict of kinds: an enum's hash is Python code.
    for kind, minute, _, room_id in result.events:
        if kind is _ENTER_BUILDING or kind is _LEAVE_BUILDING:
            corridor_minutes.append(minute)
            corridor_steps.append(1 if kind is _ENTER_BUILDING else -1)
            continue
        if kind is _ENTER_OWN_OFFICE or kind is _ENTER_OTHER_ROOM:
            step = 1
        elif kind in (_LEAVE_OFFICE_TEMPORARY, _LEAVE_OFFICE_LONG, _EXIT_OTHER_ROOM):
            step = -1
        else:
            continue
        zones.append(zone_of[room_id])
        minutes.append(minute)
        steps.append(step)
        corridor_minutes.append(minute)
        corridor_steps.append(-step)
    delta = np.zeros((len(zone_rooms), result.n_minutes), dtype=np.int64)
    np.add.at(delta, (zones, minutes), steps)
    np.add.at(delta[0], corridor_minutes, corridor_steps)  # zone 0: the corridor
    return (np.cumsum(delta, axis=1) > 0)[room_zone]


def derive_trace(result: ReplicationResult, scenario: Scenario) -> RunTrace:
    """The per-minute diagnostics of ``result``, a replication of
    ``scenario`` run with its events (and so its contacts) kept:

    - the state transitions are the agent events, mapped by kind;
    - room occupancy is ``room_occupancy``;
    - the lights come from the light intervals;
    - the schedules are drawn again from the replication's schedule
      stream, which feeds nothing else;
    - the awareness at each midnight is the initial awareness plus the
      capped contact increments before it.
    """
    _require_kept_events(result)
    rooms = result.building.rooms
    n_minutes = result.n_minutes
    transitions = []
    for kind, minute, agent_id, _ in result.events:
        edge = _STATE_EDGES.get(kind)
        if edge is not None:
            transitions.append((minute, agent_id, *edge))

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
        contact_events=[ContactEvent._make(c) for c in result.contacts],
    )
