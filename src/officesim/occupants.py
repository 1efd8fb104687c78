"""Occupant agents: stereotype sampling, daily schedules, and the
event-driven behavioral state machine that emits appliance events.

An agent cycles through four states: out of the building, in the
corridor, in its own office (working with or without its computer), or
in a facility room (toilet / kitchen / lab). Every stochastic rule is a
constant per-minute hazard, drawn as a geometric waiting time when its
state is entered, and every countdown is a scheduled minute; the agent
keeps the minute of its next firing. All randomness flows through the
caller-supplied ``random.Random`` so runs are reproducible.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .building import BuildingModel
from .errors import CapacityError, ValidationError

MINUTES_PER_DAY = 1440
CORRIDOR_TRANSIT_MINUTES = 2
COMPUTER_SWITCH_ON_MINUTES = 2
LATEST_LEAVE_MINUTE = 23 * 60  # flexible workers are gone by 23:00
NEVER = 1 << 62  # the minute of a clock that never fires

# The power state of an agent's computer (ints for speed); in the office
# the agent works with its computer while it is on.
POWER_OFF = 0
POWER_STANDBY = 1
POWER_ON = 2


class ScheduleClass(enum.Enum):
    EARLY_BIRD = "early_bird"
    TIMETABLE_COMPLIER = "timetable_complier"
    FLEXIBLE_WORKER = "flexible_worker"


# Arrival windows [start, end) in minutes of day.
ARRIVAL_WINDOWS = {
    ScheduleClass.EARLY_BIRD: (5 * 60, 9 * 60),
    ScheduleClass.TIMETABLE_COMPLIER: (9 * 60, 10 * 60),
    ScheduleClass.FLEXIBLE_WORKER: (10 * 60, 13 * 60),
}

# Fixed leave window for the two timetable-bound classes.
FIXED_LEAVE_WINDOW = (17 * 60, 18 * 60)


class Stereotype(enum.Enum):
    ENVIRONMENT_CHAMPION = "environment_champion"
    ENERGY_SAVER = "energy_saver"
    REGULAR_USER = "regular_user"
    BIG_USER = "big_user"


class StereotypeParams(NamedTuple):
    awareness_low: float
    awareness_high: float
    p_switch_off: float
    p_email: float


STEREOTYPE_PARAMS = {
    Stereotype.ENVIRONMENT_CHAMPION: StereotypeParams(95, 100, 0.95, 0.9),
    Stereotype.ENERGY_SAVER: StereotypeParams(70, 94, 0.7, 0.6),
    Stereotype.REGULAR_USER: StereotypeParams(30, 69, 0.4, 0.2),
    Stereotype.BIG_USER: StereotypeParams(0, 29, 0.2, 0.05),
}

DEFAULT_SCHEDULE_MIX = {
    ScheduleClass.EARLY_BIRD: 0.08,
    ScheduleClass.TIMETABLE_COMPLIER: 0.53,
    ScheduleClass.FLEXIBLE_WORKER: 0.39,
}

DEFAULT_AWARENESS_MIX = {
    Stereotype.ENVIRONMENT_CHAMPION: 0.01,
    Stereotype.ENERGY_SAVER: 0.08,
    Stereotype.REGULAR_USER: 0.31,
    Stereotype.BIG_USER: 0.60,
}


def awareness_to_switch_off_prob(awareness: float) -> float:
    """Band map from awareness to switch-off probability.

    Piecewise constant and monotone non-decreasing over [0, 100].
    """
    if not 0.0 <= awareness <= 100.0:
        raise ValueError(f"awareness must be in [0, 100], got {awareness}")
    if awareness >= 95.0:
        return 0.95
    if awareness >= 70.0:
        return 0.7
    if awareness >= 30.0:
        return 0.4
    return 0.2


@dataclass(frozen=True)
class PopulationMix:
    schedule: dict[ScheduleClass, float] = field(
        default_factory=lambda: dict(DEFAULT_SCHEDULE_MIX)
    )
    awareness: dict[Stereotype, float] = field(
        default_factory=lambda: dict(DEFAULT_AWARENESS_MIX)
    )

    def validate(self) -> None:
        problems = []
        for name, dist, keys in (
            ("schedule_mix", self.schedule, tuple(ScheduleClass)),
            ("awareness_mix", self.awareness, tuple(Stereotype)),
        ):
            for key in dist:
                if key not in keys:
                    problems.append(f"{name} has unknown entry {key!r}")
            for key, p in dist.items():
                if not 0.0 <= p <= 1.0:
                    problems.append(f"{name}[{key.value}] = {p} outside [0, 1]")
            total = sum(dist.values())
            if abs(total - 1.0) > 1e-9:
                problems.append(f"{name} fractions sum to {total}, expected 1")
        if problems:
            raise ValidationError(problems)


@dataclass(frozen=True)
class BehaviorParams:
    """Scenario-level behavioral constants. All hazards are per minute."""

    leave_hazard_per_minute: float = 0.01
    temporary_leave_fraction: float = 0.7
    temporary_leave_min: int = 5
    temporary_leave_max: int = 19
    long_leave_min: int = 20
    long_leave_max: int = 90
    other_room_hazard_per_minute: float = 0.005
    other_room_dwell_min: int = 1
    other_room_dwell_max: int = 10
    computer_standby_prob_per_minute: float = 0.05
    computer_off_threshold: float = 50.0
    computer_off_floor_prob: float = 0.05
    weekend_presence_prob: float = 0.02

    def validate(self) -> None:
        problems = []
        for name in (
            "leave_hazard_per_minute",
            "temporary_leave_fraction",
            "other_room_hazard_per_minute",
            "computer_standby_prob_per_minute",
            "computer_off_floor_prob",
            "weekend_presence_prob",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                problems.append(f"behavior.{name} = {value} outside [0, 1]")
        if not 0.0 <= self.computer_off_threshold <= 100.0:
            problems.append(
                f"behavior.computer_off_threshold = "
                f"{self.computer_off_threshold} outside [0, 100]"
            )
        if not 0 < self.temporary_leave_min <= self.temporary_leave_max < 20:
            problems.append("temporary leave bounds must satisfy 0 < min <= max < 20")
        if not 20 <= self.long_leave_min <= self.long_leave_max:
            problems.append("long leave bounds must satisfy 20 <= min <= max")
        if not 1 <= self.other_room_dwell_min <= self.other_room_dwell_max:
            problems.append("other-room dwell bounds must satisfy 1 <= min <= max")
        if problems:
            raise ValidationError(problems)


def computer_switch_off_prob(awareness: float, params: BehaviorParams) -> float:
    """Probability of powering the computer down on a long leave.

    Above the scenario threshold the band map applies; below it the
    agent rarely bothers (floor probability).
    """
    if awareness >= params.computer_off_threshold:
        return awareness_to_switch_off_prob(awareness)
    return params.computer_off_floor_prob


class AgentState(enum.Enum):
    OUT_OF_SCHOOL = "out_of_school"
    IN_CORRIDOR = "in_corridor"
    IN_OWN_OFFICE = "in_own_office"
    IN_OTHER_ROOMS = "in_other_rooms"


class CorridorMode(enum.Enum):
    ENTERING = "entering"        # walk from the entrance to the office
    TEMP_BREAK = "temp_break"    # short absence, no switch-off behavior
    LONG_BREAK = "long_break"    # >= 20 min absence, switch-offs considered
    EXITING = "exiting"          # walk out of the building


class EventKind(enum.Enum):
    ENTER_BUILDING = "enter_building"
    ENTER_OWN_OFFICE = "enter_own_office"
    SWITCH_COMPUTER_ON = "switch_computer_on"
    COMPUTER_TO_STANDBY = "computer_to_standby"
    SWITCH_COMPUTER_OFF = "switch_computer_off"
    LEAVE_OFFICE_TEMPORARY = "leave_office_temporary"
    LEAVE_OFFICE_LONG = "leave_office_long"
    ENTER_OTHER_ROOM = "enter_other_room"
    EXIT_OTHER_ROOM = "exit_other_room"
    LEAVE_BUILDING = "leave_building"
    MANUAL_LIGHTS_ON = "manual_lights_on"
    MANUAL_LIGHTS_OFF = "manual_lights_off"


class OccupantEvent(NamedTuple):
    """One agent event. ``step_occupant`` emits plain tuples in this
    field order; the engine makes the named tuple only for the events it
    keeps."""

    kind: EventKind
    minute: int
    agent_id: int
    room_id: str | None = None


class OccupantAgent:
    """One electricity user. Identity fields are fixed for the whole
    run; the remaining fields are the current machine state, its clocks
    as absolute minutes.

    Compared by identity: an agent belongs to exactly one replication.
    """

    __slots__ = (
        "id", "schedule_class", "stereotype", "awareness", "office_room_id",
        "computer_id", "state", "corridor_mode", "next_minute", "leave_at",
        "computer_at", "break_end", "break_timer", "visiting_room_id",
        "today_schedule", "computer_power", "p_email",
    )

    def __init__(
        self,
        id: int,
        schedule_class: ScheduleClass,
        stereotype: Stereotype,
        awareness: float,
        office_room_id: str,
        computer_id: str | None = None,
    ):
        self.id = id
        self.schedule_class = schedule_class
        self.stereotype = stereotype
        self.awareness = awareness
        self.office_room_id = office_room_id
        self.computer_id = computer_id
        self.state = AgentState.OUT_OF_SCHOOL
        self.corridor_mode: CorridorMode | None = None
        self.next_minute = NEVER  # the agent's next firing, the earliest clock
        self.leave_at = NEVER  # in the office: the leave clock or the departure
        self.computer_at = NEVER  # in the office: the next computer event
        self.break_end = NEVER  # on a long break: the return to the office
        self.break_timer = 0  # minutes of break left, kept during a visit
        self.visiting_room_id: str | None = None
        self.today_schedule: tuple[int, int] | None = None
        self.computer_power = POWER_OFF
        # The stereotype's expected emails per office day, looked up once.
        self.p_email = STEREOTYPE_PARAMS[stereotype].p_email


def hazard_clock(p: float) -> float:
    """The factor turning ``-log(1 - U)`` into the waiting time of a
    per-minute hazard ``p``: 0.0 for a hazard that fires at once (p >= 1),
    inf for one that never fires (p <= 0)."""
    if p >= 1.0:
        return 0.0
    if p <= 0.0:
        return math.inf
    return -1.0 / math.log1p(-p)


def waiting_time(rng, clock: float) -> int:
    """Whole minutes a per-minute hazard with factor ``clock``
    (``hazard_clock(p)``) waits before it fires: T = floor(log U /
    log(1 - p)) with U uniform on (0, 1], so P(T >= t) = (1 - p)**t, the
    first success of one Bernoulli(p) draw per minute. A hazard that fires
    at once or never draws nothing."""
    if clock == 0.0:
        return 0
    if clock == math.inf:
        return NEVER
    wait = -math.log(1.0 - rng.random()) * clock
    return int(wait) if wait < NEVER else NEVER


class BehaviorContext:
    """Static per-run context shared by every agent transition; the
    hazards' waiting-time factors are computed once."""

    __slots__ = (
        "params", "facility_room_ids", "leave_clock", "standby_clock",
        "visit_clock",
    )

    def __init__(self, params: BehaviorParams, facility_room_ids: tuple[str, ...]):
        self.params = params
        self.facility_room_ids = facility_room_ids
        self.leave_clock = hazard_clock(params.leave_hazard_per_minute)
        self.standby_clock = hazard_clock(params.computer_standby_prob_per_minute)
        self.visit_clock = (
            hazard_clock(params.other_room_hazard_per_minute)
            if facility_room_ids
            else math.inf
        )


def sample_population(
    n: int, mix: PopulationMix, building: BuildingModel, rng
) -> list[OccupantAgent]:
    """Create ``n`` agents with sampled stereotypes and desk assignments.

    Desks are filled round-robin over the building's desk rooms in file
    order; an agent owns a computer while its room still has unclaimed
    ones. Raises CapacityError if ``n`` exceeds total desk capacity.
    """
    if n < 0:
        raise ValidationError(f"population size must be >= 0, got {n}")
    mix.validate()
    capacity = building.total_desk_capacity()
    if n > capacity:
        raise CapacityError(
            f"population size {n} exceeds total desk capacity {capacity}"
        )

    schedule_classes = tuple(ScheduleClass)
    schedule_weights = [mix.schedule.get(c, 0.0) for c in schedule_classes]
    stereotypes = tuple(Stereotype)
    stereotype_weights = [mix.awareness.get(s, 0.0) for s in stereotypes]

    desk_rooms = building.desk_rooms()
    assigned = {room.id: 0 for room in desk_rooms}

    def seats() -> tuple[str, str | None]:
        # Round-robin over desk rooms; repeated passes fill deeper desks.
        while True:
            progress = False
            for room in desk_rooms:
                taken = assigned[room.id]
                if taken < room.desk_capacity:
                    assigned[room.id] = taken + 1
                    computer = (
                        room.computer_ids[taken]
                        if taken < len(room.computer_ids)
                        else None
                    )
                    progress = True
                    yield room.id, computer
            if not progress:
                return

    seat_iter = seats()
    agents: list[OccupantAgent] = []
    for agent_id in range(n):
        schedule_class = _categorical(schedule_classes, schedule_weights, rng)
        stereotype = _categorical(stereotypes, stereotype_weights, rng)
        band = STEREOTYPE_PARAMS[stereotype]
        awareness = rng.uniform(band.awareness_low, band.awareness_high)
        room_id, computer_id = next(seat_iter)
        agents.append(
            OccupantAgent(
                id=agent_id,
                schedule_class=schedule_class,
                stereotype=stereotype,
                awareness=awareness,
                office_room_id=room_id,
                computer_id=computer_id,
            )
        )
    return agents


def _categorical(values, weights, rng):
    u = rng.random()
    acc = 0.0
    for value, w in zip(values, weights):
        acc += w
        if u < acc:
            return value
    return values[-1]


def sample_daily_schedule(
    agent: OccupantAgent, day_of_week: int, rng, params: BehaviorParams
) -> tuple[int, int] | None:
    """Arrival/leave minutes-of-day for one day, or None if absent.

    Weekdays (day_of_week 0-4) the agent always shows up; Saturday and
    Sunday only with a small probability. Leave is strictly after
    arrival.
    """
    if day_of_week >= 5 and rng.random() >= params.weekend_presence_prob:
        return None
    lo, hi = ARRIVAL_WINDOWS[agent.schedule_class]
    arrival = rng.randrange(lo, hi)
    if agent.schedule_class is ScheduleClass.FLEXIBLE_WORKER:
        leave = rng.randint(arrival + 1, LATEST_LEAVE_MINUTE)
    else:
        leave = rng.randrange(*FIXED_LEAVE_WINDOW)
    return arrival, leave


# Members bound at module level: a global lookup is cheaper than an
# enum class attribute in every transition.
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
_OUT = AgentState.OUT_OF_SCHOOL
_CORRIDOR = AgentState.IN_CORRIDOR
_OFFICE = AgentState.IN_OWN_OFFICE
_OTHER_ROOMS = AgentState.IN_OTHER_ROOMS
_ENTERING = CorridorMode.ENTERING
_TEMP_BREAK = CorridorMode.TEMP_BREAK
_LONG_BREAK = CorridorMode.LONG_BREAK
_EXITING = CorridorMode.EXITING


def step_occupant(
    agent: OccupantAgent,
    minute: int,
    minute_of_day: int,
    ctx: BehaviorContext,
    rng,
    events: list[tuple],
) -> bool:
    """Fire the clock of ``agent`` due at ``minute`` (its ``next_minute``,
    or its arrival when it is out), appending the events it emits to
    ``events``, and draw the clocks of the state it enters from ``rng``;
    ``agent.next_minute`` is then its next firing, NEVER once it has left
    for the day. Returns True iff it emitted any event. An event is a
    plain tuple ``(kind, minute, agent_id, room_id)`` in ``OccupantEvent``'s
    field order, ``room_id`` None where the event names no room.

    Requires today's schedule to have been sampled already. Light
    switching is not decided here; the engine derives manual light events
    from entry/exit events and the active policy.

    The rules, each a per-minute hazard or a countdown:

    - Arrival at the schedule's arrival minute, then a corridor transit of
      ``CORRIDOR_TRANSIT_MINUTES`` to the office, or back out if the day
      has ended by then.
    - In the office, from the minute after entering: at the leave minute
      the agent departs. Before it, a leave hazard triggers a leave,
      temporary with probability ``temporary_leave_fraction`` and long
      otherwise; when no more than ``temporary_leave_max`` minutes remain
      only long leaves are offered, so a temporary break always ends
      before the leave time. A long leave that would outlast the day is
      the departure.
    - The computer, in the office: a standby hazard while working with
      it, and ``COMPUTER_SWITCH_ON_MINUTES`` to switch it back on. A leave
      and a computer event due at the same minute: the leave fires.
    - On a long break, a facility-visit hazard until the break ends; the
      visit's dwell does not count against the break, and at the leave
      minute the agent heads out.
    """
    schedule = agent.today_schedule
    if schedule is None:
        raise RuntimeError(f"agent {agent.id} is active without a schedule")
    leave_minute = minute - minute_of_day + schedule[1]
    state = agent.state

    if state is _OFFICE:
        if minute < agent.leave_at:
            _computer_event(agent, minute, ctx, rng, events)
        elif minute >= leave_minute:
            _leave_office_long(agent, minute, events, rng, ctx.params)
            _head_out(agent, minute)
        else:
            _leave_office(agent, minute, leave_minute, ctx, rng, events)
        return True

    if state is _CORRIDOR:
        mode = agent.corridor_mode
        if mode is _EXITING:
            agent.state = _OUT
            agent.corridor_mode = None
            agent.next_minute = NEVER
            events.append((_LEAVE_BUILDING, minute, agent.id, None))
        elif mode is _LONG_BREAK and minute < agent.break_end:
            _visit_facility(agent, minute, ctx, rng, events)
        else:
            _enter_office(agent, minute, leave_minute, ctx, rng, events)
        return True

    if state is _OTHER_ROOMS:
        events.append((_EXIT_OTHER_ROOM, minute, agent.id, agent.visiting_room_id))
        agent.visiting_room_id = None
        agent.state = _CORRIDOR
        agent.corridor_mode = _LONG_BREAK
        agent.break_end = minute + agent.break_timer
        _resume_break(agent, minute + 1, leave_minute, ctx, rng)
        return True

    # Out of the building: the arrival.
    agent.state = _CORRIDOR
    events.append((_ENTER_BUILDING, minute, agent.id, None))
    reached = minute + CORRIDOR_TRANSIT_MINUTES
    if reached >= leave_minute:
        # The day ends before the office is reached; head out.
        _head_out(agent, reached)
    else:
        agent.corridor_mode = _ENTERING
        agent.next_minute = reached
    return True


def _head_out(agent: OccupantAgent, minute: int) -> None:
    """Walk out of the building, starting at ``minute``."""
    agent.corridor_mode = _EXITING
    agent.next_minute = minute + CORRIDOR_TRANSIT_MINUTES


def _enter_office(
    agent: OccupantAgent, minute: int, leave_minute: int, ctx, rng, events: list
) -> None:
    agent.state = _OFFICE
    agent.corridor_mode = None
    events.append((_ENTER_OWN_OFFICE, minute, agent.id, agent.office_room_id))
    agent.leave_at = min(minute + 1 + waiting_time(rng, ctx.leave_clock), leave_minute)
    if agent.computer_id is None:
        agent.computer_at = NEVER
    elif agent.computer_power == POWER_ON:
        # Machine kept running during the absence; resume right away.
        agent.computer_at = minute + 1 + waiting_time(rng, ctx.standby_clock)
    else:
        agent.computer_at = minute + COMPUTER_SWITCH_ON_MINUTES
    # A leave due at the same minute as a computer event fires first.
    agent.next_minute = min(agent.leave_at, agent.computer_at)


def _computer_event(agent: OccupantAgent, minute: int, ctx, rng, events: list) -> None:
    if agent.computer_power == POWER_ON:
        agent.computer_power = POWER_STANDBY
        agent.computer_at = minute + COMPUTER_SWITCH_ON_MINUTES
        events.append((_COMPUTER_TO_STANDBY, minute, agent.id, None))
    else:
        agent.computer_power = POWER_ON
        agent.computer_at = minute + 1 + waiting_time(rng, ctx.standby_clock)
        events.append((_SWITCH_COMPUTER_ON, minute, agent.id, None))
    agent.next_minute = min(agent.leave_at, agent.computer_at)


def _leave_office(
    agent: OccupantAgent, minute: int, leave_minute: int, ctx, rng, events: list
) -> None:
    """The leave hazard fired before the leave minute."""
    params = ctx.params
    if (
        leave_minute - minute > params.temporary_leave_max
        and rng.random() < params.temporary_leave_fraction
    ):
        agent.state = _CORRIDOR
        agent.corridor_mode = _TEMP_BREAK
        agent.next_minute = minute + rng.randint(
            params.temporary_leave_min, params.temporary_leave_max
        )
        events.append((_LEAVE_OFFICE_TEMPORARY, minute, agent.id, agent.office_room_id))
        return
    duration = rng.randint(params.long_leave_min, params.long_leave_max)
    _leave_office_long(agent, minute, events, rng, params)
    if minute + duration >= leave_minute:
        # Break would outlast the working day: this is the departure.
        _head_out(agent, minute)
    else:
        agent.corridor_mode = _LONG_BREAK
        agent.break_end = minute + duration
        _resume_break(agent, minute + 1, leave_minute, ctx, rng)


def _resume_break(
    agent: OccupantAgent, start: int, leave_minute: int, ctx, rng
) -> None:
    """Schedule the long break from minute ``start`` on: a facility visit
    at a minute before both the break's end and the leave minute, else the
    walk out at the leave minute if the break reaches it, else the return
    to the office at the break's end."""
    end = agent.break_end
    visit = start + waiting_time(rng, ctx.visit_clock)
    if visit < end and visit < leave_minute:
        agent.next_minute = visit
        return
    heading_out = max(start, leave_minute)
    if heading_out <= end:
        _head_out(agent, heading_out)
    else:
        agent.next_minute = end


def _visit_facility(agent: OccupantAgent, minute: int, ctx, rng, events: list) -> None:
    facility_ids = ctx.facility_room_ids
    room_id = facility_ids[rng.randrange(len(facility_ids))]
    agent.break_timer = agent.break_end - minute  # resumes after the visit
    agent.state = _OTHER_ROOMS
    agent.visiting_room_id = room_id
    agent.next_minute = minute + rng.randint(
        ctx.params.other_room_dwell_min, ctx.params.other_room_dwell_max
    )
    events.append((_ENTER_OTHER_ROOM, minute, agent.id, room_id))


def _leave_office_long(
    agent: OccupantAgent, minute: int, events: list, rng, params: BehaviorParams
) -> None:
    """Long leave out of the office: consider killing the computer, then go."""
    if agent.computer_id is not None and agent.computer_power != POWER_OFF:
        if rng.random() < computer_switch_off_prob(agent.awareness, params):
            agent.computer_power = POWER_OFF
            events.append((_SWITCH_COMPUTER_OFF, minute, agent.id, None))
    agent.state = _CORRIDOR
    events.append((_LEAVE_OFFICE_LONG, minute, agent.id, agent.office_room_id))
