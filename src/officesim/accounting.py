"""Energy accounting: per-minute power decomposition, watt-hour
integration, half-hourly binning, duty coefficients, and category
proportions.

Power is sampled once per minute and treated as constant over that
minute, so energy per category is exactly sum(samples) / 60 watt-hours.
Totals always decompose as base + lights + computers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AccountingError

MINUTES_PER_BIN = 30
WH_PER_WMIN = 1.0 / 60.0


class EnergyLedger:
    """Contiguous per-minute power samples starting at minute 0."""

    __slots__ = ("base_w", "lights_w", "computers_w")

    def __init__(self, base_w, lights_w, computers_w):
        self.base_w = np.asarray(base_w, dtype=np.float64)
        self.lights_w = np.asarray(lights_w, dtype=np.float64)
        self.computers_w = np.asarray(computers_w, dtype=np.float64)
        if not (len(self.base_w) == len(self.lights_w) == len(self.computers_w)):
            raise AccountingError("ledger component arrays differ in length")
        if min(self.base_w.min(initial=0), self.lights_w.min(initial=0),
               self.computers_w.min(initial=0)) < 0:
            raise AccountingError("ledger contains negative power samples")

    def __len__(self) -> int:
        return len(self.base_w)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnergyLedger):
            return NotImplemented
        return (
            np.array_equal(self.base_w, other.base_w)
            and np.array_equal(self.lights_w, other.lights_w)
            and np.array_equal(self.computers_w, other.computers_w)
        )

    @property
    def total_w(self) -> np.ndarray:
        return self.base_w + self.lights_w + self.computers_w

    def energy_wh(self, start: int = 0, end: int | None = None) -> dict[str, float]:
        """Watt-hours per category over [start, end)."""
        if end is None:
            end = len(self)
        return {
            "base": float(self.base_w[start:end].sum()) * WH_PER_WMIN,
            "lights": float(self.lights_w[start:end].sum()) * WH_PER_WMIN,
            "computers": float(self.computers_w[start:end].sum()) * WH_PER_WMIN,
        }

    def total_energy_wh(self, start: int = 0, end: int | None = None) -> float:
        return sum(self.energy_wh(start, end).values())

    def flexible_energy_wh(self, start: int = 0, end: int | None = None) -> float:
        per_category = self.energy_wh(start, end)
        return per_category["lights"] + per_category["computers"]


@dataclass(frozen=True, slots=True)
class HalfHourBin:
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
        bins.append(
            HalfHourBin(
                start_minute=lo,
                base_kwh=float(ledger.base_w[lo:hi].sum()) * WH_PER_WMIN / 1000.0,
                lights_kwh=float(ledger.lights_w[lo:hi].sum()) * WH_PER_WMIN / 1000.0,
                computers_kwh=float(ledger.computers_w[lo:hi].sum())
                * WH_PER_WMIN
                / 1000.0,
            )
        )
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


@dataclass(frozen=True, slots=True)
class BetaEntry:
    appliance_id: str
    max_power_watts: float
    energy_wh: float
    beta: float


@dataclass(frozen=True)
class BetaReport:
    window_start: int
    window_end: int
    entries: tuple[BetaEntry, ...]

    @property
    def window_hours(self) -> float:
        return (self.window_end - self.window_start) / 60.0

    def reconstructed_flexible_wh(self) -> float:
        """Sum over appliances of beta * max power * window duration."""
        hours = self.window_hours
        return sum(e.beta * e.max_power_watts * hours for e in self.entries)


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
    ledger: EnergyLedger, mask: np.ndarray
) -> tuple[float, float, float]:
    """Same as category_proportions over an arbitrary minute mask."""
    if len(mask) != len(ledger) or not mask.any():
        raise ValueError("mask must match ledger length and select >= 1 minute")
    per_category = {
        "base": float(ledger.base_w[mask].sum()) * WH_PER_WMIN,
        "lights": float(ledger.lights_w[mask].sum()) * WH_PER_WMIN,
        "computers": float(ledger.computers_w[mask].sum()) * WH_PER_WMIN,
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
