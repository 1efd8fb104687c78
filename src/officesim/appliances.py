"""The two lighting policies and the room light bank the engine runs.

Lights are either sensor-driven (on with presence, off after a fixed
delay of vacancy: a closed form of the room's occupancy turns) or
staff-controlled (state changes only through manual switch events).
Computers move between off / standby / on purely in response to their
owner's events (``computer_apply_event``); the engine replays their
wattages from the run's computer log.
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
    """The lights of one room, switched as a unit, and the log of their
    on-intervals. Lights in a room share occupancy sensing and switches,
    so they are on or off together. Under staff control the engine
    switches the bank during its pass (``turn_on``, ``turn_off``); under
    the automated policy the intervals follow from the room's occupancy
    once the pass is over (``step_automated``).
    """

    __slots__ = ("room_id", "is_on", "intervals")

    def __init__(self, room_id: str):
        self.room_id = room_id
        self.is_on = False
        self.intervals: list[tuple[int, int]] = []  # [start, end), -1 = open

    def turn_on(self, minute: int) -> bool:
        if self.is_on:
            return False
        self.is_on = True
        self.intervals.append((minute, -1))
        return True

    def turn_off(self, minute: int) -> bool:
        if not self.is_on:
            return False
        self.is_on = False
        start, _ = self.intervals[-1]
        self.intervals[-1] = (start, minute)
        return True

    def step_automated(self, turns, off_delay: int, end: int) -> int:
        """The automated policy's on-intervals up to minute ``end``, from
        ``turns``, the minutes at which the room turns occupied and vacant
        in turn: an occupied run [a, b) lights [a, min(b + off_delay,
        end)), so the room is lit at minute m iff it was occupied at some
        minute in [m - off_delay, m]. A run that starts at or before the
        end of the lit span before it joins that span. Returns the number
        of on-intervals."""
        intervals = self.intervals
        runs = iter(turns)
        for a in runs:
            off = min(next(runs, end) + off_delay, end)
            if intervals and a <= intervals[-1][1]:
                intervals[-1] = (intervals[-1][0], off)
            else:
                intervals.append((a, off))
        return len(intervals)

    def finalize(self, end_minute: int) -> None:
        if self.is_on:
            start, _ = self.intervals[-1]
            self.intervals[-1] = (start, end_minute)
