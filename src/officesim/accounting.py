"""Energy accounting: per-minute power decomposition, watt-hour
integration, half-hourly binning, duty coefficients, and category
proportions.

Power is sampled once per minute and treated as constant over that
minute, so energy per category is exactly sum(samples) / 60 watt-hours.
Totals always decompose as base + lights + computers.

Series are ``array('d')`` (float64; ``tobytes()`` equals a float64
ndarray's). Every sum, mean and standard deviation of float series goes
through the reductions below, which give numpy's float64 results bit for
bit, so the outputs do not depend on whether numpy is installed or on
the Python version (builtin ``sum()`` on floats is compensated from
Python 3.12 on).
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache, reduce
from itertools import compress
from operator import add
from typing import NamedTuple

from .errors import AccountingError

MINUTES_PER_BIN = 30
WH_PER_WMIN = 1.0 / 60.0

_PAIRWISE_BLOCK = 128  # numpy's PW_BLOCKSIZE


def pairwise_sum(values, lo: int = 0, hi: int | None = None) -> float:
    """numpy's float64 ``values[lo:hi].sum()``, bit for bit.

    numpy adds contiguous float64 data pairwise: below 8 elements in
    sequence; up to 128 in 8 strided lanes combined as a tree, then the
    tail in sequence; above 128 it splits at half the length, rounded
    down to a multiple of 8, and recurses. The reduction starts from 0.0.

    The ledger series are piecewise constant, so on an ``array('d')`` a
    stretch of 8 or more samples with one bit pattern is summed once per
    pattern and length.
    """
    if hi is None:
        hi = len(values)
    is_series = isinstance(values, array) and values.typecode == "d"
    data = values.tobytes() if is_series else None
    return 0.0 + _pairwise(values, lo, hi, data)


def _pairwise(a, lo: int, hi: int, data: bytes | None) -> float:
    n = hi - lo
    if n < 8:
        res = 0.0
        for i in range(lo, hi):
            res += a[i]
        return res
    if data is not None:
        word = data[8 * lo:8 * lo + 8]
        if data[8 * hi - 8:8 * hi] == word and data[8 * lo:8 * hi] == word * n:
            return _constant_sum(word, n)
    if n <= _PAIRWISE_BLOCK:
        m = hi - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = [
            reduce(add, a[lo + j:m:8]) for j in range(8)
        ]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(m, hi):
            res += a[i]
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise(a, lo, lo + n2, data) + _pairwise(a, lo + n2, hi, data)


@lru_cache(maxsize=1024)
def _constant_sum(word: bytes, n: int) -> float:
    """``_pairwise`` of n samples with the bit pattern ``word``."""
    return _pairwise(array("d", word) * n, 0, n, None)


def sequential_sum(values):
    """Left-to-right sum from 0, as builtin ``sum()`` gives it before
    Python 3.12 (for outputs pinned with that order)."""
    return reduce(add, values, 0)


def pairwise_mean(values) -> float:
    """numpy's float64 ``values.mean()``: the pairwise sum over n."""
    return pairwise_sum(values) / len(values)


def sample_std(values) -> float:
    """numpy's float64 ``values.std(ddof=1)``: the pairwise mean, the
    pairwise sum of the squared deviations over n - 1, its square root."""
    mean = pairwise_mean(values)
    squares = [(x - mean) * (x - mean) for x in values]
    return math.sqrt(pairwise_sum(squares) / (len(values) - 1))


def column_means(rows) -> array:
    """numpy's float64 ``np.stack(rows).mean(axis=0)`` for rows of two or
    more columns: per column, the rows added in order to 0.0, over their
    count."""
    acc = [0.0] * len(rows[0])
    for row in rows:
        acc = list(map(add, acc, row))
    n = len(rows)
    return array("d", [x / n for x in acc])


def masked_sum(values, mask) -> float:
    """numpy's float64 ``values[mask].sum()`` for a sequence of bools."""
    return pairwise_sum(array("d", compress(values, mask)))


def _series(values) -> array:
    if isinstance(values, array) and values.typecode == "d":
        return values
    return array("d", values)


def _has_negative(series) -> bool:
    """Whether any sample is below zero. NaN samples are admitted; builtin
    ``min`` returns a leading NaN, so such a series is scanned in full."""
    low = min(series, default=0.0)
    if low == low:
        return low < 0
    return any(map((0.0).__gt__, series))


class EnergyLedger:
    """Contiguous per-minute power samples starting at minute 0, each
    category an ``array('d')`` (other sequences are converted)."""

    __slots__ = ("base_w", "lights_w", "computers_w")

    def __init__(self, base_w, lights_w, computers_w):
        self.base_w = _series(base_w)
        self.lights_w = _series(lights_w)
        self.computers_w = _series(computers_w)
        if not (len(self.base_w) == len(self.lights_w) == len(self.computers_w)):
            raise AccountingError("ledger component arrays differ in length")
        if any(map(_has_negative, (self.base_w, self.lights_w, self.computers_w))):
            raise AccountingError("ledger contains negative power samples")

    def __len__(self) -> int:
        return len(self.base_w)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnergyLedger):
            return NotImplemented
        return (
            self.base_w == other.base_w
            and self.lights_w == other.lights_w
            and self.computers_w == other.computers_w
        )

    @property
    def total_w(self) -> array:
        return array(
            "d", map(add, map(add, self.base_w, self.lights_w), self.computers_w)
        )

    def energy_wh(self, start: int = 0, end: int | None = None) -> dict[str, float]:
        """Watt-hours per category over [start, end)."""
        if end is None:
            end = len(self)
        return {
            "base": pairwise_sum(self.base_w, start, end) * WH_PER_WMIN,
            "lights": pairwise_sum(self.lights_w, start, end) * WH_PER_WMIN,
            "computers": pairwise_sum(self.computers_w, start, end) * WH_PER_WMIN,
        }

    def total_energy_wh(self, start: int = 0, end: int | None = None) -> float:
        return sequential_sum(self.energy_wh(start, end).values())

    def flexible_energy_wh(self, start: int = 0, end: int | None = None) -> float:
        per_category = self.energy_wh(start, end)
        return per_category["lights"] + per_category["computers"]


class HalfHourBin(NamedTuple):
    start_minute: int
    base_kwh: float
    lights_kwh: float
    computers_kwh: float

    @property
    def total_kwh(self) -> float:
        return self.base_kwh + self.lights_kwh + self.computers_kwh


def half_hour_bins(ledger: EnergyLedger) -> list[HalfHourBin]:
    """Aggregate the ledger into 30-minute kWh bins.

    A trailing partial bin (ledger length not a multiple of 30) is
    dropped.
    """
    n_bins = len(ledger) // MINUTES_PER_BIN
    bins: list[HalfHourBin] = []
    for i in range(n_bins):
        lo = i * MINUTES_PER_BIN
        hi = lo + MINUTES_PER_BIN
        base, lights, computers = (
            pairwise_sum(series, lo, hi) * WH_PER_WMIN / 1000.0
            for series in (ledger.base_w, ledger.lights_w, ledger.computers_w)
        )
        bins.append(HalfHourBin(lo, base, lights, computers))
    return bins


def realized_beta(
    energy_wh: float, max_power_watts: float, window_hours: float
) -> float:
    """Fraction of the maximum possible energy actually consumed.

    0 means the appliance stayed off over the window, 1 means it ran at
    full power throughout. A value outside [0, 1] indicates broken
    bookkeeping and raises rather than clamping.
    """
    if max_power_watts <= 0:
        raise ValueError(f"max_power_watts must be > 0, got {max_power_watts}")
    if window_hours <= 0:
        raise ValueError(f"window_hours must be > 0, got {window_hours}")
    beta = energy_wh / (max_power_watts * window_hours)
    if not -1e-12 <= beta <= 1.0 + 1e-12:
        raise AccountingError(
            f"duty coefficient {beta} outside [0, 1]; "
            f"energy={energy_wh} Wh, max={max_power_watts} W, T={window_hours} h"
        )
    return min(max(beta, 0.0), 1.0)


class BetaEntry(NamedTuple):
    appliance_id: str
    max_power_watts: float
    energy_wh: float
    beta: float


class BetaReport(NamedTuple):
    window_start: int
    window_end: int
    entries: tuple[BetaEntry, ...]

    @property
    def window_hours(self) -> float:
        return (self.window_end - self.window_start) / 60.0

    def reconstructed_flexible_wh(self) -> float:
        """Sum over appliances of beta * max power * window duration."""
        hours = self.window_hours
        return sequential_sum(
            e.beta * e.max_power_watts * hours for e in self.entries
        )


def build_beta_report(
    appliance_energies: list[tuple[str, float, float]], start: int, end: int
) -> BetaReport:
    """Duty coefficients from (id, max watts, watt-hours) triples over
    the window [start, end)."""
    if end <= start:
        raise ValueError(f"empty window [{start}, {end})")
    hours = (end - start) / 60.0
    entries = tuple(
        BetaEntry(appliance_id, max_watts, wh, realized_beta(wh, max_watts, hours))
        for appliance_id, max_watts, wh in appliance_energies
    )
    return BetaReport(start, end, entries)


def category_proportions(
    ledger: EnergyLedger, start: int, end: int
) -> tuple[float, float, float]:
    """Fractions of (base, lights, computers) energy over [start, end)."""
    if not 0 <= start < end <= len(ledger):
        raise ValueError(f"window [{start}, {end}) invalid for {len(ledger)} samples")
    per_category = ledger.energy_wh(start, end)
    return _proportions(per_category)


def category_proportions_masked(
    ledger: EnergyLedger, mask
) -> tuple[float, float, float]:
    """Same as category_proportions over an arbitrary minute mask, a
    sequence of bools (one per minute)."""
    if len(mask) != len(ledger) or not any(mask):
        raise ValueError("mask must match ledger length and select >= 1 minute")
    per_category = {
        "base": masked_sum(ledger.base_w, mask) * WH_PER_WMIN,
        "lights": masked_sum(ledger.lights_w, mask) * WH_PER_WMIN,
        "computers": masked_sum(ledger.computers_w, mask) * WH_PER_WMIN,
    }
    return _proportions(per_category)


def _proportions(per_category: dict[str, float]) -> tuple[float, float, float]:
    total = per_category["base"] + per_category["lights"] + per_category["computers"]
    if total <= 0:
        raise ValueError("window has zero energy; proportions undefined")
    return (
        per_category["base"] / total,
        per_category["lights"] / total,
        per_category["computers"] / total,
    )
