import random
from operator import itemgetter
from typing import NamedTuple

import pytest

from officesim import (
    BuildingModel,
    EventKind,
    LightingPolicy,
    Scenario,
    load_building,
    parse_scenario,
)
from officesim import reference_scenario_path
from officesim.occupants import EVENT_KINDS, BehaviorParams


class OccupantEvent(NamedTuple):
    """One event of a run, as ``run_events`` lists them."""

    kind: EventKind
    minute: int
    agent_id: int
    room_id: str | None = None


class ContactEvent(NamedTuple):
    """One email, in the field order of ``contact_step``'s plain tuples."""

    sender_id: int
    receiver_id: int
    minute: int


# The computer event that enters each power state, by its code
# (``occupants.POWER_*``) in a run record's computer rows.
POWER_EVENTS = (
    EventKind.SWITCH_COMPUTER_OFF,
    EventKind.COMPUTER_TO_STANDBY,
    EventKind.SWITCH_COMPUTER_ON,
)


def as_contact_events(rows) -> list[ContactEvent]:
    """``contact_step``'s plain contact tuples as named ``ContactEvent``s."""
    return [ContactEvent._make(row) for row in rows]


def run_events(result) -> list[OccupantEvent]:
    """Every event of a replication ``result``, one per row of its
    record's computer and agent columns and of its manual columns (a
    manual row at its trigger's minute and agent: agent row
    ``position - 1``), in one stable sort on (minute, agent id, rank),
    the rank 0 for computer, 1 for agent and 2 for manual rows: a
    switch-off on leaving precedes the leave, and the lights it makes
    someone switch follow it."""
    record = result.record
    room_ids = [room.id for room in result.building.rooms] + [None]  # -1: none
    computers = zip(
        record.computer_minute, record.computer_agent, record.computer_power
    )
    keyed = [
        ((m, a, 0), OccupantEvent(POWER_EVENTS[power], m, a))
        for m, a, power in computers
    ]
    agents = zip(record.kind, record.minute, record.agent, record.room)
    keyed += [
        ((m, a, 1), OccupantEvent(EVENT_KINDS[code], m, a, room_ids[room]))
        for code, m, a, room in agents
    ]
    for position, code, room in zip(*result.manual):
        m, a = record.minute[position - 1], record.agent[position - 1]
        event = OccupantEvent(EVENT_KINDS[code], m, a, room_ids[room])
        keyed.append(((m, a, 2), event))
    keyed.sort(key=itemgetter(0))
    return [event for _, event in keyed]


def series_bytes(ledger) -> tuple[bytes, bytes, bytes]:
    """The bytes of a ledger's three series, to compare ledgers by."""
    series = (ledger.base_w, ledger.lights_w, ledger.computers_w)
    return tuple(s.tobytes() for s in series)


def occupancy_turns(pattern) -> list[int]:
    """The minutes at which an occupancy ``pattern`` (occupied or not, per
    minute, from vacant) turns occupied and vacant in turn: the turns the
    engine logs per zone for ``RoomLightBank.step_automated``."""
    turns = []
    for minute, occupied in enumerate(pattern):
        if occupied != len(turns) % 2:  # occupied after an odd count of turns
            turns.append(minute)
    return turns


def make_building_text(
    n_private: int = 2,
    n_shared: int = 1,
    shared_desks: int = 3,
    corridor_lights: int = 4,
    facility_rooms: int = 1,
    base_load_watts: float = 1000,
    corridor_rooms: int = 1,
    desk_computers: bool = True,
) -> str:
    """Small building in the file format, for fast test scenarios. The
    corridor lights are dealt in turn over ``corridor_rooms`` rooms, so a
    room gets none where there are fewer lights than rooms: the first
    room, ``hall``, comes first in the file and the others, ``hall-1``
    and on, last. Every desk has a computer, or none does."""
    lights: list[str] = []
    computers: list[str] = []
    rooms = []

    def take_lights(n):
        start = len(lights)
        ids = [f"L{start + i:03d}" for i in range(n)]
        lights.extend(ids)
        return ids

    def take_computers(n):
        if not desk_computers:
            return []
        start = len(computers)
        ids = [f"K{start + i:03d}" for i in range(n)]
        computers.extend(ids)
        return ids

    corridor = take_lights(corridor_lights)
    halls = [
        (f"hall-{i}" if i else "hall", "corridor", 0, corridor[i::corridor_rooms], [])
        for i in range(corridor_rooms)
    ]
    rooms.append(halls[0])
    for i in range(facility_rooms):
        rooms.append((f"kitchen-{i}", "kitchen", 0, take_lights(2), []))
    for i in range(n_private):
        rooms.append(
            (f"office-p{i}", "private_office", 1, take_lights(1), take_computers(1))
        )
    for i in range(n_shared):
        rooms.append(
            (
                f"office-s{i}",
                "shared_office",
                shared_desks,
                take_lights(2),
                take_computers(shared_desks),
            )
        )

    rooms += halls[1:]

    lines = [
        f"base_load_watts: {base_load_watts}",
        f"max_occupants: {sum(r[2] for r in rooms)}",
        "lights: [" + ", ".join(lights) + "]",
        "computers: [" + ", ".join(computers) + "]",
        "rooms:",
    ]
    for rid, kind, desks, ls, cs in rooms:
        lines.append(f"  - id: {rid}")
        lines.append(f"    kind: {kind}")
        lines.append(f"    desk_capacity: {desks}")
        if ls:
            lines.append("    lights: [" + ", ".join(ls) + "]")
        if cs:
            lines.append("    computers: [" + ", ".join(cs) + "]")
    return "\n".join(lines) + "\n"


def make_small_building(**kwargs) -> BuildingModel:
    return load_building(make_building_text(**kwargs))


def make_small_scenario(
    population_size: int = 4,
    horizon_days: int = 2,
    policy: LightingPolicy | None = None,
    seed: int = 7,
    **scenario_kwargs,
) -> Scenario:
    return Scenario(
        building=make_small_building(),
        population_size=population_size,
        policy=policy or LightingPolicy.automated(),
        horizon_days=horizon_days,
        master_seed=seed,
        replications=2,
        **scenario_kwargs,
    )


def random_scenario(rng: random.Random) -> Scenario:
    """A small scenario with its building, policy, behaviour, contacts,
    horizon (1-3 days), start day and seed drawn from ``rng``."""
    building = make_small_building(
        n_private=rng.randint(1, 3),
        n_shared=rng.randint(1, 2),
        shared_desks=rng.randint(2, 6),
        corridor_lights=rng.randint(1, 6),
        facility_rooms=rng.randint(0, 2),
        base_load_watts=rng.choice([0, 500, 2000]),
        corridor_rooms=rng.randint(1, 3),
    )
    policy = (
        LightingPolicy.automated(rng.choice([5, 20, 30]))
        if rng.random() < 0.5
        else LightingPolicy.staff_controlled()
    )
    behavior = BehaviorParams(
        leave_hazard_per_minute=rng.choice([0.005, 0.01, 0.03]),
        other_room_hazard_per_minute=rng.choice([0.0, 0.005, 0.02]),
        computer_off_threshold=rng.choice([0.0, 50.0, 80.0]),
    )
    return Scenario(
        building=building,
        population_size=rng.randint(0, building.total_desk_capacity()),
        policy=policy,
        contact_rate=rng.choice([0.0, 1.0, 50.0]),
        awareness_delta=rng.choice([0.5, 1.0, 5.0]),
        behavior=behavior,
        horizon_days=rng.randint(1, 3),
        start_day_of_week=rng.randint(0, 6),
        master_seed=rng.randrange(2**31),
    )


@pytest.fixture(scope="session")
def reference_scenario() -> Scenario:
    return parse_scenario(reference_scenario_path())


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


# The largest value random() returns: a hazard's waiting time drawn from
# it is as long as one gets, far beyond a working day.
LATEST_UNIFORM = 1.0 - 2.0**-53


def uniform_for_wait(p: float, minutes: int) -> float:
    """The uniform from which a per-minute hazard ``p`` waits exactly
    ``minutes`` (``occupants.waiting_time``)."""
    return 1.0 - (1.0 - p) ** (minutes + 0.5)


class ScriptedRandom:
    """random.Random stand-in returning queued values, for driving the
    occupant state machine down chosen branches. Once its values run out,
    random() returns ``LATEST_UNIFORM``: no hazard fires, no roll succeeds."""

    def __init__(self, values=(), ints=()):
        self.values = list(values)  # consumed by random()
        self.ints = list(ints)  # consumed by randint / randrange

    def random(self) -> float:
        return self.values.pop(0) if self.values else LATEST_UNIFORM

    def randint(self, a, b) -> int:
        if self.ints:
            value = self.ints.pop(0)
            assert a <= value <= b, f"scripted int {value} outside [{a}, {b}]"
            return value
        return a

    def randrange(self, *args) -> int:
        if self.ints:
            return self.ints.pop(0)
        return args[0] if len(args) > 1 else 0
