"""State-machine and accounting invariant checks over any run.

Each check returns a list of violation messages (empty means the
invariant held) so callers can aggregate across many replications.
Checks of what a pass decided read the ``PassTrace`` that ``trace_pass``
derives from its run record once for all its arms; checks of an arm's
lights read the ``RunTrace`` that ``derive_trace`` adds them to.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from officesim import AgentState, BetaReport, ReplicationResult, RoomKind
from officesim.checks import (
    PassTrace,
    RunTrace,
    beta_report,
    derive_trace,
    trace_pass,
)
from officesim.occupants import (
    ENTER_BUILDING,
    ENTER_OTHER_ROOM,
    ENTER_OWN_OFFICE,
    EVENT_KINDS,
    EXIT_OTHER_ROOM,
    LEAVE_BUILDING,
    LEAVE_OFFICE_LONG,
    LEAVE_OFFICE_TEMPORARY,
    MANUAL_LIGHTS_OFF,
    MANUAL_LIGHTS_ON,
    MINUTES_PER_DAY,
)

from conftest import POWER_EVENTS

# By power code (``occupants.POWER_*``), the kind code of the computer
# event that enters that power state.
POWER_CODES = np.array([EVENT_KINDS.index(kind) for kind in POWER_EVENTS])


def check_edge_legality(trace: PassTrace) -> list[str]:
    """Each agent's transitions chain: the first leaves the out-of-school
    state, each starts in the state the one before it entered, and the
    last returns the agent out of school."""
    violations = []
    state: dict[int, AgentState] = {}
    for minute, agent_id, before, after in trace.state_transitions:
        current = state.get(agent_id, AgentState.OUT_OF_SCHOOL)
        if before is not current:
            violations.append(
                f"agent {agent_id} minute {minute}: leaves {before.value} "
                f"while in {current.value}"
            )
        state[agent_id] = after
    for agent_id, current in state.items():
        if current is not AgentState.OUT_OF_SCHOOL:
            violations.append(f"agent {agent_id} ends the run {current.value}")
    return violations


def check_schedule_containment(trace: PassTrace) -> list[str]:
    violations = []
    schedules = trace.schedules
    for agent_id, intervals in trace.office_stays.items():
        for start, end in intervals:
            day = start // MINUTES_PER_DAY
            if end > (day + 1) * MINUTES_PER_DAY:
                violations.append(
                    f"agent {agent_id}: office interval [{start}, {end}) "
                    "crosses midnight"
                )
                continue
            schedule = schedules.get((day, agent_id))
            if schedule is None:
                violations.append(
                    f"agent {agent_id}: in office on day {day} without a schedule"
                )
                continue
            arrival, leave = schedule
            day_base = day * MINUTES_PER_DAY
            if start < day_base + arrival or end - 1 > day_base + leave:
                violations.append(
                    f"agent {agent_id} day {day}: office [{start}, {end}) outside "
                    f"schedule [{arrival}, {leave}]"
                )
    return violations


def check_no_events_while_absent(
    result: ReplicationResult, trace: PassTrace
) -> list[str]:
    """An agent out of the building emits nothing: every event of an
    agent falls inside one of its presence spans. The events are the rows
    of the record's computer and agent columns and of the result's manual
    columns, a manual row at its trigger's minute and agent (agent row
    ``position - 1``); violations come in the events' (minute, agent id)
    order."""
    record = result.record
    positions, codes, _ = result.manual
    trigger = np.asarray(positions, dtype=np.intp) - 1
    minutes, agents = np.asarray(record.minute), np.asarray(record.agent)
    # The computer, agent and manual rows, in that order.
    minute = np.concatenate(
        [record.computer_minute, minutes, minutes[trigger]]
    ).astype(np.int64)
    agent = np.concatenate(
        [record.computer_agent, agents, agents[trigger]]
    ).astype(np.int64)
    kind = np.concatenate([
        POWER_CODES[np.asarray(record.computer_power, dtype=np.intp)],
        record.kind,
        codes,
    ])
    rank = np.repeat([0, 1, 2], [len(record.computer_minute), len(minutes), len(codes)])
    # Each agent's spans on one axis, agent by agent; (-1, -1) precedes all.
    stride = result.n_minutes + 1
    spans = sorted(
        (agent_id * stride + a, agent_id * stride + b)
        for agent_id, intervals in trace.building_stays.items()
        for a, b in intervals
    )
    starts, ends = np.array([(-1, -1), *spans], dtype=np.int64).T
    at = agent * stride + minute
    outside = at > ends[np.searchsorted(starts, at, side="right") - 1]
    bad = np.flatnonzero(outside)
    bad = bad[np.lexsort((rank[bad], agent[bad], minute[bad]))]
    return [
        f"agent {agent[j]} emitted {EVENT_KINDS[kind[j]].value} at minute "
        f"{minute[j]} while out of the building"
        for j in bad
    ]


def check_automated_light_rule(result: ReplicationResult, trace: RunTrace) -> list[str]:
    """The exact automated rule at the off delay of ``result``'s policy: a
    room with lights is lit at minute m iff it was occupied at some minute
    in [m - off_delay, m]; a room without lights is never lit."""
    off_delay = result.policy.off_delay_minutes
    violations = []
    for i, room_id in enumerate(trace.room_ids):
        lights_on = trace.lights_on[i]
        if result.building.rooms[i].light_ids:
            # sliding any() over the trailing (off_delay + 1)-sample window
            padded = np.concatenate(
                [np.zeros(off_delay, dtype=bool), trace.room_occupied[i]]
            )
            expected = np.lib.stride_tricks.sliding_window_view(
                padded, off_delay + 1
            ).any(axis=1)
        else:
            expected = np.zeros_like(lights_on)
        bad = lights_on != expected
        if bad.any():
            first = int(np.argmax(bad))
            state = "lit" if lights_on[first] else "dark"
            violations.append(
                f"room {room_id}: {state} at minute {first}, against the "
                f"{off_delay}-minute rule"
            )
    return violations


def check_staff_passivity(result: ReplicationResult) -> list[str]:
    """Under staff control, light state changes only at manual events,
    each at its trigger's minute (agent row ``position - 1``)."""
    room_ids = [room.id for room in result.building.rooms]
    minutes = result.record.minute
    on_minutes: dict[str, set[int]] = {}
    off_minutes: dict[str, set[int]] = {}
    for position, code, room in zip(*result.manual):
        if code == MANUAL_LIGHTS_ON:
            on_minutes.setdefault(room_ids[room], set()).add(minutes[position - 1])
        elif code == MANUAL_LIGHTS_OFF:
            off_minutes.setdefault(room_ids[room], set()).add(minutes[position - 1])
    violations = []
    for room_id, intervals in result.light_intervals.items():
        for start, end in intervals:
            if start not in on_minutes.get(room_id, ()):
                violations.append(
                    f"room {room_id}: light turned on at minute {start} "
                    "without a manual event"
                )
            if end not in (-1, result.n_minutes) and end not in off_minutes.get(
                room_id, ()
            ):
                violations.append(
                    f"room {room_id}: light turned off at minute {end} "
                    "without a manual event"
                )
    return violations


def check_staff_lit_while_occupied(
    result: ReplicationResult, trace: RunTrace
) -> list[str]:
    """Under staff control anyone entering a space switches on its dark
    lights, and only the last one out switches them off: a room with
    lights is lit at every minute it is occupied."""
    violations = []
    for i, room_id in enumerate(trace.room_ids):
        if not result.building.rooms[i].light_ids:
            continue
        dark = trace.room_occupied[i] & ~trace.lights_on[i]
        if dark.any():
            violations.append(
                f"room {room_id}: dark while occupied at {int(dark.sum())} "
                f"minutes, the first {int(np.argmax(dark))}"
            )
    return violations


def check_staff_switch_offs(result: ReplicationResult) -> list[str]:
    """Under staff control only the last one out switches off, and never
    for a quick break: every MANUAL_LIGHTS_OFF of a room is triggered by a
    LEAVE_OFFICE_LONG or EXIT_OTHER_ROOM that left that room empty, and
    one of a corridor room by an event that left the corridor empty. A
    manual row's trigger is agent row ``position - 1``; occupancy is
    replayed from the agent event columns alone."""
    room_leaves = (LEAVE_OFFICE_LONG, EXIT_OTHER_ROOM)
    corridor_leaves = (LEAVE_BUILDING, ENTER_OWN_OFFICE, ENTER_OTHER_ROOM)
    building_rooms = result.building.rooms
    room_ids = [room.id for room in building_rooms] + [None]  # -1: none
    record = result.record
    kinds, minutes, rooms = record.kind, record.minute, record.room
    switch_offs = sorted(
        ((position, room)
         for position, code, room in zip(*result.manual)
         if code == MANUAL_LIGHTS_OFF),
        key=itemgetter(0),
    )
    occupancy = [0] * len(building_rooms)
    in_corridor = 0
    replayed = 0  # agent rows
    violations = []
    for position, room in switch_offs:
        room_id = room_ids[room]
        for row in range(replayed, position):
            kind, at = kinds[row], rooms[row]
            if kind == ENTER_BUILDING:
                in_corridor += 1
            elif kind == LEAVE_BUILDING:
                in_corridor -= 1
            elif kind == ENTER_OWN_OFFICE or kind == ENTER_OTHER_ROOM:
                occupancy[at] += 1
                in_corridor -= 1
            elif kind == LEAVE_OFFICE_TEMPORARY or kind in room_leaves:
                occupancy[at] -= 1
                in_corridor += 1
        replayed = position
        trigger, minute = kinds[position - 1], minutes[position - 1]
        trigger_room = rooms[position - 1]
        if building_rooms[room].kind is RoomKind.CORRIDOR:
            if trigger not in corridor_leaves or in_corridor:
                violations.append(
                    f"corridor room {room_id}: switched off at minute "
                    f"{minute} after {EVENT_KINDS[trigger].value} with "
                    f"{in_corridor} in the corridor"
                )
        elif trigger not in room_leaves or trigger_room != room or occupancy[room]:
            violations.append(
                f"room {room_id}: switched off at minute {minute} "
                f"after {EVENT_KINDS[trigger].value} of room "
                f"{room_ids[trigger_room]} with {occupancy[room]} left in it"
            )
    return violations


def check_awareness_monotone(result: ReplicationResult, trace: PassTrace) -> list[str]:
    """Awareness never falls nor passes 100, and each agent's final
    awareness is exactly its initial one raised by the awareness delta per
    email it received, capped at 100 (``trace.awareness_at_end``)."""
    violations = []
    final = result.record.final_awareness
    series = np.stack(trace.awareness_by_day + [np.array(final)])
    if (np.diff(series, axis=0) < 0).any():
        violations.append("awareness decreased during the run")
    if (series > 100.0).any():
        violations.append("awareness exceeded the cap of 100")
    for agent_id, (recorded, replayed) in enumerate(zip(final, trace.awareness_at_end)):
        if recorded != replayed:
            violations.append(
                f"agent {agent_id}: final awareness {recorded!r}, "
                f"{replayed!r} replayed from its contacts"
            )
    return violations


def check_stereotype_immutable(result: ReplicationResult) -> list[str]:
    # Stereotype is a frozen-by-construction field; the roster carries a
    # single value per agent, so equality with itself is trivially true.
    # What can drift is awareness leaving [0, 100].
    violations = []
    for agent_id, final in enumerate(result.record.final_awareness):
        if not 0.0 <= final <= 100.0:
            violations.append(
                f"agent {agent_id}: final awareness {final} outside [0, 100]"
            )
    return violations


def check_network_edges(trace: PassTrace) -> list[str]:
    network = trace.network
    if network is None:
        return []
    expected = network.n * network.k // 2
    if len(network.edges) != expected:
        return [
            f"network has {len(network.edges)} edges, expected {expected}"
        ]
    for i, j in network.edges:
        if i == j:
            return [f"self-loop at node {i}"]
    return []


def check_betas_in_range(report: BetaReport) -> list[str]:
    bad = [e for e in report.entries if not 0.0 <= e.beta <= 1.0]
    return [f"appliance {e.appliance_id} beta {e.beta}" for e in bad]


def check_wattage_lattice(result: ReplicationResult) -> list[str]:
    """Flexible draw stays within [0, every appliance at full power]."""
    ceiling = result.building.max_flexible_watts()
    ledger = result.ledger
    flexible = np.asarray(ledger.lights_w) + np.asarray(ledger.computers_w)
    if (flexible < 0).any() or (flexible > ceiling).any():
        return [f"flexible draw left [0, {ceiling}]"]
    return []


def check_accounting_identity(
    result: ReplicationResult, report: BetaReport
) -> list[str]:
    """The ledger's total is its parts at every minute, and ``report``,
    the result's beta report, reconstructs its flexible energy."""
    ledger = result.ledger
    total, base, lights, computers = map(
        np.asarray,
        (ledger.total_w, ledger.base_w, ledger.lights_w, ledger.computers_w),
    )
    residual = total - base - lights - computers
    if (residual != 0).any():
        return ["per-minute total != base + lights + computers"]
    reconstructed = report.reconstructed_flexible_wh()
    flexible = ledger.flexible_energy_wh()
    if flexible == 0.0:
        if abs(reconstructed) > 1e-9:
            return [f"reconstruction {reconstructed} for zero flexible energy"]
        return []
    rel = abs(reconstructed - flexible) / flexible
    if rel > 1e-9:
        return [
            f"flexible energy reconstruction off by relative {rel:.3e} "
            f"({reconstructed} vs {flexible})"
        ]
    return []


def run_all_checks(*arms: ReplicationResult) -> list[str]:
    """Every check on ``arms``, one or more results of one agent pass,
    each under its own policy: what the pass decided is derived and
    checked once (``trace_pass``), and each arm's lights and manual
    events on their own."""
    first = arms[0]
    if any(arm.record is not first.record for arm in arms):
        raise ValueError("the arms come from different passes")
    shared = trace_pass(first)
    violations = check_edge_legality(shared)
    if violations:
        return violations  # the checks below replay stays from whole chains
    violations += check_schedule_containment(shared)
    violations += check_awareness_monotone(first, shared)
    violations += check_stereotype_immutable(first)
    violations += check_network_edges(shared)
    for result in arms:
        trace = derive_trace(result, shared)
        violations += check_no_events_while_absent(result, trace)
        if result.policy.is_automated:
            violations += check_automated_light_rule(result, trace)
        else:
            violations += check_staff_passivity(result)
            violations += check_staff_lit_while_occupied(result, trace)
            violations += check_staff_switch_offs(result)
        try:
            report = beta_report(result, transitions=shared.computer_transitions)
        except Exception as exc:  # AccountingError means a beta left [0, 1]
            violations.append(f"beta report failed: {exc}")
            report = None
        else:
            violations += check_betas_in_range(report)
        violations += check_wattage_lattice(result)
        if report is not None:
            violations += check_accounting_identity(result, report)
    return violations
