"""The two lighting policies and the room light bank the engine runs.

Lights are either sensor-driven (on with presence, off after a fixed
delay of vacancy) or staff-controlled (state changes only through
manual switch events). Computers move between off / standby / on purely
in response to their owner's events (``computer_apply_event``); the
engine replays their wattages from the run's computer log.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, NamedTuple

from .occupants import EventKind, awareness_to_switch_off_prob

if TYPE_CHECKING:
    from .building import ComputerSpec

AUTOMATED_OFF_DELAY_MINUTES = 20


class PolicyKind(str, enum.Enum):
    AUTOMATED = "automated"
    STAFF_CONTROLLED = "staff_controlled"


class LightingPolicy(NamedTuple):
    kind: PolicyKind
    off_delay_minutes: int = AUTOMATED_OFF_DELAY_MINUTES

    @classmethod
    def automated(cls, off_delay_minutes: int = AUTOMATED_OFF_DELAY_MINUTES):
        return cls(PolicyKind.AUTOMATED, off_delay_minutes)

    @classmethod
    def staff_controlled(cls):
        return cls(PolicyKind.STAFF_CONTROLLED)

    @property
    def is_automated(self) -> bool:
        return self.kind is PolicyKind.AUTOMATED


def manual_exit_decision(leaving_awareness: float, rng) -> bool:
    """Whether the last occupant leaving a space flips its lights off
    (staff policy), with the probability of the leaver's awareness band.

    The engine asks only on a long leave that empties the space; nobody
    switches off for a quick break.
    """
    return rng.random() < awareness_to_switch_off_prob(leaving_awareness)


_SWITCH_COMPUTER_ON = EventKind.SWITCH_COMPUTER_ON
_COMPUTER_TO_STANDBY = EventKind.COMPUTER_TO_STANDBY
_SWITCH_COMPUTER_OFF = EventKind.SWITCH_COMPUTER_OFF


def computer_apply_event(spec: ComputerSpec, watts: float, kind: EventKind) -> float:
    """The wattage of computer ``spec``, now drawing ``watts``, after its
    owner's event ``kind``: the spec's on, standby or off wattage for a
    computer event, ``watts`` unchanged for any other event."""
    if kind is _SWITCH_COMPUTER_ON:
        return spec.watts_on
    if kind is _COMPUTER_TO_STANDBY:
        return spec.watts_standby
    if kind is _SWITCH_COMPUTER_OFF:
        return spec.watts_off
    return watts


class RoomLightBank:
    """All lights of one room stepped as a unit.

    Lights in a room share occupancy sensing and switches, so they are
    on or off together; the bank keeps their combined wattage and an
    interval log of on-periods for per-appliance energy accounting.
    """

    __slots__ = ("room_id", "light_ids", "watts_total", "is_on", "off_at", "intervals")

    def __init__(self, room_id: str, light_ids: tuple[str, ...], watts_total: float):
        self.room_id = room_id
        self.light_ids = light_ids
        self.watts_total = watts_total
        self.is_on = False
        self.off_at: int | None = None  # automated switch-off, once vacant
        self.intervals: list[tuple[int, int]] = []  # [start, end), -1 = open

    def turn_on(self, minute: int) -> bool:
        if self.is_on:
            return False
        self.is_on = True
        self.off_at = None
        self.intervals.append((minute, -1))
        return True

    def turn_off(self, minute: int) -> bool:
        if not self.is_on:
            return False
        self.is_on = False
        self.off_at = None
        start, _ = self.intervals[-1]
        self.intervals[-1] = (start, minute)
        return True

    def step_automated(self, occupied: bool, off_delay: int, minute: int) -> int:
        """The automated policy at ``minute``: presence holds the lights
        on, and they stay on through the first ``off_delay`` vacant
        minutes and go off on the next, at ``off_at``. Stepping every
        minute, or only when the room turns occupied or vacant and at
        ``off_at``, gives the same lights. Returns +1/-1 on a switch,
        else 0."""
        if occupied:
            self.off_at = None
            return 1 if self.turn_on(minute) else 0
        if not self.is_on:
            return 0
        if self.off_at is None:
            self.off_at = minute + off_delay
        if minute < self.off_at:
            return 0
        self.turn_off(minute)
        return -1

    def finalize(self, end_minute: int) -> None:
        if self.is_on and self.intervals and self.intervals[-1][1] == -1:
            start, _ = self.intervals[-1]
            self.intervals[-1] = (start, end_minute)
