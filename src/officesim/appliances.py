"""The two lighting policies and the zone light bank the engine builds
once an agent pass is over, from the pass's zone-turn log.

Lights are either sensor-driven (on with presence, off after a fixed
delay of vacancy: a closed form of the zone's occupancy turns) or
staff-controlled (state changes only through manual switch events).
Computers have no model here: the engine replays each one's spec
wattages (off, standby, on) from the run's computer log.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .occupants import awareness_to_switch_off_prob

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


class RoomLightBank:
    """The on-intervals of one zone's lights. The rooms of a zone share
    occupancy, sensing and switches, so their lights are on or off
    together. Once the agent pass is over, an automated bank takes its
    intervals from its zone's occupancy turns (``step_automated``).
    """

    __slots__ = ("intervals",)

    def __init__(self):
        self.intervals: list[tuple[int, int]] = []  # [start, end)

    def step_automated(self, turns, off_delay: int, end: int) -> int:
        """The automated policy's on-intervals up to minute ``end``, from
        ``turns``, the minutes at which the zone turns occupied and vacant
        in turn: an occupied run [a, b) lights [a, min(b + off_delay,
        end)), so the zone is lit at minute m iff it was occupied at some
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
