"""State-machine and accounting invariant checks over runs with their
events kept.

Each check returns a list of violation messages (empty means the
invariant held) so callers can aggregate across many replications.
Checks of per-minute facts read the ``RunTrace`` that ``derive_trace``
builds from the kept events.
"""

from __future__ import annotations

from random import Random

import numpy as np

from officesim import AgentState, EventKind, ReplicationResult, Scenario
from officesim.checks import RunTrace, derive_trace
from officesim.engine import _build_network, derive_seed
from officesim.occupants import MINUTES_PER_DAY


def check_edge_legality(trace: RunTrace) -> list[str]:
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


OFFICE = frozenset({AgentState.IN_OWN_OFFICE})
IN_BUILDING = frozenset(AgentState) - {AgentState.OUT_OF_SCHOOL}


def stays(
    result: ReplicationResult, trace: RunTrace, states: frozenset[AgentState]
) -> dict[int, list[tuple[int, int]]]:
    """Per-agent [start, end) intervals spent in any of ``states``."""
    intervals: dict[int, list[tuple[int, int]]] = {}
    entered: dict[int, int] = {}
    for minute, agent_id, before, after in trace.state_transitions:
        if after in states and before not in states:
            entered[agent_id] = minute
        elif before in states and after not in states:
            intervals.setdefault(agent_id, []).append((entered.pop(agent_id), minute))
    for agent_id, start in entered.items():
        intervals.setdefault(agent_id, []).append((start, result.n_minutes))
    return intervals


def check_schedule_containment(result: ReplicationResult, trace: RunTrace) -> list[str]:
    violations = []
    schedules = trace.schedules
    for agent_id, intervals in stays(result, trace, OFFICE).items():
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
    result: ReplicationResult, trace: RunTrace
) -> list[str]:
    """An agent out of the building emits nothing: every event of an
    agent falls inside one of its presence spans."""
    spans = stays(result, trace, IN_BUILDING)
    violations = []
    for ev in result.events:
        inside = any(
            a <= ev.minute <= b for a, b in spans.get(ev.agent_id, ())
        )
        if not inside:
            violations.append(
                f"agent {ev.agent_id} emitted {ev.kind.value} at minute "
                f"{ev.minute} while out of the building"
            )
    return violations


def check_automated_light_rule(
    result: ReplicationResult, trace: RunTrace, off_delay: int
) -> list[str]:
    """The exact automated rule: a room with lights is lit at minute m iff
    it was occupied at some minute in [m - off_delay, m]; a room without
    lights is never lit."""
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
    """Under staff control, light state changes only at manual events."""
    on_minutes: dict[str, set[int]] = {}
    off_minutes: dict[str, set[int]] = {}
    for ev in result.events:
        if ev.kind is EventKind.MANUAL_LIGHTS_ON:
            on_minutes.setdefault(ev.room_id, set()).add(ev.minute)
        elif ev.kind is EventKind.MANUAL_LIGHTS_OFF:
            off_minutes.setdefault(ev.room_id, set()).add(ev.minute)
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


def check_staff_switch_offs(result: ReplicationResult) -> list[str]:
    """Under staff control only the last one out switches off, and never
    for a quick break: every MANUAL_LIGHTS_OFF of a room falls right after
    a LEAVE_OFFICE_LONG or EXIT_OTHER_ROOM that left that room empty, and
    one of a corridor room right after an event that left the corridor
    empty. Occupancy is replayed from the events alone."""
    room_leaves = (EventKind.LEAVE_OFFICE_LONG, EventKind.EXIT_OTHER_ROOM)
    corridor_leaves = (
        EventKind.LEAVE_BUILDING, EventKind.ENTER_OWN_OFFICE, EventKind.ENTER_OTHER_ROOM
    )
    corridor_ids = {r.id for r in result.building.corridor_rooms()}
    occupancy: dict[str, int] = {}
    in_corridor = 0
    last = None  # the latest agent event
    violations = []
    for ev in result.events:
        kind = ev.kind
        if kind is EventKind.MANUAL_LIGHTS_OFF:
            if last is None or (last.minute, last.agent_id) != (
                ev.minute, ev.agent_id
            ):
                violations.append(
                    f"room {ev.room_id}: switched off at minute {ev.minute} "
                    "with no event of that agent"
                )
            elif ev.room_id in corridor_ids:
                if last.kind not in corridor_leaves or in_corridor:
                    violations.append(
                        f"corridor room {ev.room_id}: switched off at minute "
                        f"{ev.minute} after {last.kind.value} with "
                        f"{in_corridor} in the corridor"
                    )
            elif (
                last.kind not in room_leaves
                or last.room_id != ev.room_id
                or occupancy.get(ev.room_id, 0)
            ):
                violations.append(
                    f"room {ev.room_id}: switched off at minute {ev.minute} "
                    f"after {last.kind.value} of room {last.room_id} with "
                    f"{occupancy.get(ev.room_id, 0)} left in it"
                )
            continue
        if kind is EventKind.MANUAL_LIGHTS_ON:
            continue
        last = ev
        if kind is EventKind.ENTER_BUILDING:
            in_corridor += 1
        elif kind is EventKind.LEAVE_BUILDING:
            in_corridor -= 1
        elif kind in (EventKind.ENTER_OWN_OFFICE, EventKind.ENTER_OTHER_ROOM):
            occupancy[ev.room_id] = occupancy.get(ev.room_id, 0) + 1
            in_corridor -= 1
        elif kind is EventKind.LEAVE_OFFICE_TEMPORARY or kind in room_leaves:
            occupancy[ev.room_id] -= 1
            in_corridor += 1
    return violations


def check_awareness_monotone(
    result: ReplicationResult, trace: RunTrace, awareness_delta: float
) -> list[str]:
    """Awareness never falls nor passes 100, and each agent's final
    awareness is exactly its initial one raised by ``awareness_delta`` per
    kept contact it received, in order, capped at 100."""
    violations = []
    days = trace.awareness_by_day
    series = np.stack(days + [np.array([r.final_awareness for r in result.roster])])
    if (np.diff(series, axis=0) < 0).any():
        violations.append("awareness decreased during the run")
    if (series > 100.0).any():
        violations.append("awareness exceeded the cap of 100")
    awareness = [r.initial_awareness for r in result.roster]
    for _, receiver_id, _ in result.contacts:
        raised = awareness[receiver_id] + awareness_delta
        awareness[receiver_id] = raised if raised < 100.0 else 100.0
    for record, replayed in zip(result.roster, awareness):
        if record.final_awareness != replayed:
            violations.append(
                f"agent {record.id}: final awareness {record.final_awareness!r}, "
                f"{replayed!r} replayed from its contacts"
            )
    return violations


def check_stereotype_immutable(result: ReplicationResult) -> list[str]:
    # Stereotype is a frozen-by-construction field; the roster carries a
    # single value per agent, so equality with itself is trivially true.
    # What can drift is awareness leaving [0, 100].
    violations = []
    for record in result.roster:
        if not 0.0 <= record.final_awareness <= 100.0:
            violations.append(
                f"agent {record.id}: final awareness {record.final_awareness} "
                "outside [0, 100]"
            )
    return violations


def replication_network(result: ReplicationResult, scenario: Scenario):
    """The replication's social network, rebuilt from its own stream (the
    network stream feeds nothing else); None where contacts are off."""
    return _build_network(
        len(result.roster),
        scenario.small_world_k,
        scenario.small_world_beta,
        Random(derive_seed(result.seed, "network")),
    )


def check_network_edges(result: ReplicationResult, scenario: Scenario) -> list[str]:
    network = replication_network(result, scenario)
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


def check_betas_in_range(result: ReplicationResult) -> list[str]:
    try:
        report = result.beta_report()
    except Exception as exc:  # AccountingError means a beta left [0, 1]
        return [f"beta report failed: {exc}"]
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


def check_accounting_identity(result: ReplicationResult) -> list[str]:
    ledger = result.ledger
    total, base, lights, computers = map(
        np.asarray,
        (ledger.total_w, ledger.base_w, ledger.lights_w, ledger.computers_w),
    )
    residual = total - base - lights - computers
    if (residual != 0).any():
        return ["per-minute total != base + lights + computers"]
    report = result.beta_report()
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


def run_all_checks(result: ReplicationResult, scenario: Scenario):
    """Every check on a replication ``result`` of ``scenario`` run with
    its events kept; the trace is derived once and shared."""
    trace = derive_trace(result, scenario)
    violations = check_edge_legality(trace)
    if violations:
        return violations  # the checks below replay stays from whole chains
    violations += check_schedule_containment(result, trace)
    violations += check_no_events_while_absent(result, trace)
    if scenario.policy.is_automated:
        violations += check_automated_light_rule(
            result, trace, scenario.policy.off_delay_minutes
        )
    else:
        violations += check_staff_passivity(result)
        violations += check_staff_switch_offs(result)
    violations += check_awareness_monotone(result, trace, scenario.awareness_delta)
    violations += check_stereotype_immutable(result)
    violations += check_network_edges(result, scenario)
    violations += check_betas_in_range(result)
    violations += check_wattage_lattice(result)
    violations += check_accounting_identity(result)
    return violations
