"""Frozen distributional fixture: per-replication statistics of the engine.

    PYTHONPATH=src python tests/golden/make_distribution.py

rewrites ``distribution.json`` next to this file. The golden fingerprints
pin the bytes of one random stream; this fixture pins the distribution
the paper's claims rest on, so that a change which consumes randomness
differently can be judged against it. ``tests/test_distribution.py``
draws fresh replications on seeds the fixture did not use and compares
every statistic with ``compare_samples``. Regenerate the fixture only from
an engine whose distribution is not meant to change, and say so in
CHANGES.md.

Setup: the reference building over 2 days, for each cell of a Monday or
Friday start and a contact rate of 1 or 2000. Each replication is one
agent pass driving both lighting policies (``run_replication_arms``), so
the fixture also holds the paired policy difference.

Per replication:

- shared by both arms: agent events by kind, computer on and standby
  minutes, computer kWh, contacts, mean final awareness, its mean gain
  over the initial awareness and the gain per contact;
- per arm: lights kWh, and light on-minutes per room kind, split into
  minutes with the room occupied and vacant;
- automated arm: the mean lag from a room turning vacant to its lights
  going off;
- staff arm: manual switch-ons and switch-offs;
- paired: staff minus automated total kWh.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_right
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
DISTRIBUTION = HERE / "distribution.json"

DAYS = 2
STARTS = {"monday": 0, "friday": 4}
CONTACT_RATES = {"rate1": 1.0, "rate2000": 2000.0}
FIXTURE_REPS = 64  # per cell
SEED_LABEL = "fixture"

# Statistics that are counts are compared by chi-square over binned
# values; the rest by the two-sample Kolmogorov-Smirnov test.
COUNT_PREFIXES = ("events:", "manual:", "contacts")
FAMILY_ALPHA = 0.01  # Bonferroni-corrected over every comparison
CHI2_BINS = 5


def cells() -> dict[str, object]:
    """Cell name -> 2-day reference scenario of that start and rate."""
    from officesim import parse_scenario, reference_scenario_path

    ref = replace(parse_scenario(reference_scenario_path()), horizon_days=DAYS)
    return {
        f"{start}/{rate_name}": replace(ref, start_day_of_week=dow, contact_rate=rate)
        for start, dow in STARTS.items()
        for rate_name, rate in CONTACT_RATES.items()
    }


def cell_seed(cell: str, index: int, label: str = SEED_LABEL) -> int:
    from officesim import derive_seed

    return derive_seed(20100904, f"distribution:{label}:{cell}:{index}")


def _off_lag(result, occupied) -> float:
    """Mean minutes from a room turning vacant to its lights going off,
    over the switch-offs of ``result``'s automated arm."""
    import numpy as np

    lags = []
    for i, room in enumerate(result.building.rooms):
        for _, end in result.light_intervals.get(room.id, ()):
            if end < result.n_minutes:
                vacated = np.flatnonzero(occupied[i, :end])[-1] + 1
                lags.append(end - int(vacated))
    return sum(lags) / len(lags) if lags else 0.0


def _lit_minutes(result, occupied) -> dict[str, float]:
    """Light on-minutes per room kind, split by the room's occupancy
    (``occupied``: rooms x minutes)."""
    import numpy as np

    rooms = result.building.rooms
    lit = np.zeros((len(rooms), result.n_minutes), dtype=bool)
    for i, room in enumerate(rooms):
        for start, end in result.light_intervals.get(room.id, ()):
            lit[i, start:end] = True
    out: dict[str, float] = {}
    for kind in sorted({room.kind.value for room in rooms}):
        rows = [i for i, room in enumerate(rooms) if room.kind.value == kind]
        out[f"lit_occupied:{kind}"] = int((lit[rows] & occupied[rows]).sum())
        out[f"lit_vacant:{kind}"] = int((lit[rows] & ~occupied[rows]).sum())
    return out


def replication_stats(automated, staff) -> dict[str, float]:
    """The fixture's statistics of one pass: ``automated`` and ``staff``
    are its two arms."""
    from officesim import EventKind
    from officesim.checks import (
        computer_transitions,
        contact_count,
        room_occupancy,
        roster,
    )
    from officesim.occupants import EVENT_KINDS

    from conftest import POWER_EVENTS

    # Counted from the run record's columns: one event per row.
    stats: dict[str, float] = {}
    record = automated.record
    manual = (EventKind.MANUAL_LIGHTS_ON, EventKind.MANUAL_LIGHTS_OFF)
    for kind in EventKind:
        if kind in POWER_EVENTS:
            count = record.computer_power.count(POWER_EVENTS.index(kind))
        elif kind not in manual:
            count = record.kind.count(EVENT_KINDS.index(kind))
        else:
            continue
        stats[f"events:{kind.value}"] = count
    _, staff_kinds, _ = staff.manual
    stats["manual:lights_on"] = staff_kinds.count(EVENT_KINDS.index(manual[0]))
    stats["manual:lights_off"] = staff_kinds.count(EVENT_KINDS.index(manual[1]))

    computers = automated.building.computers
    on = standby = 0
    for cid, transitions in computer_transitions(record).items():
        spec = computers[cid]
        ends = [t for t, _ in transitions[1:]] + [automated.n_minutes]
        for (start, watts), end in zip(transitions, ends):
            if watts == spec.watts_on:
                on += end - start
            elif watts == spec.watts_standby:
                standby += end - start
    stats["computer_on_minutes"] = on
    stats["computer_standby_minutes"] = standby
    stats["kwh:computers"] = automated.ledger.energy_wh()["computers"] / 1000.0
    contacts = contact_count(record)
    stats["contacts"] = contacts
    agents = roster(record)
    final = [r.final_awareness for r in agents]
    gain = sum(final) - sum(r.initial_awareness for r in agents)
    stats["awareness:final_mean"] = sum(final) / len(final)
    stats["awareness:gain_mean"] = gain / len(final)
    # Below the cap each contact adds the awareness delta; rounded, so that
    # summation noise is no difference.
    stats["awareness:gain_per_contact"] = round(gain / contacts, 9) if contacts else 0.0

    occupancy = room_occupancy(automated)
    stats["automated/off_lag_minutes"] = round(_off_lag(automated, occupancy), 9)
    for arm_name, arm in (("automated", automated), ("staff", staff)):
        stats[f"{arm_name}/kwh:lights"] = arm.ledger.energy_wh()["lights"] / 1000.0
        for key, value in _lit_minutes(arm, occupancy).items():
            stats[f"{arm_name}/{key}"] = value
    stats["paired:staff_minus_automated_kwh"] = (
        staff.ledger.total_energy_wh() - automated.ledger.total_energy_wh()
    ) / 1000.0
    return stats


def sample_cell(scenario, seeds) -> dict[str, list[float]]:
    """Statistic -> its value in one pass per seed, both policies in each
    pass."""
    from officesim import LightingPolicy
    from officesim.engine import run_replication_arms

    policies = (
        LightingPolicy.automated(scenario.policy.off_delay_minutes),
        LightingPolicy.staff_controlled(),
    )
    scenario.validate()
    out: dict[str, list[float]] = {}
    for seed in seeds:
        automated, staff = run_replication_arms(scenario, seed, policies)
        for stat, value in replication_stats(automated, staff).items():
            out.setdefault(stat, []).append(value)
    return out


def _chi2_pvalue(a: list[float], b: list[float]) -> float:
    """Chi-square homogeneity of two samples of counts, binned at the
    pooled quantiles (tied values never split across bins)."""
    from scipy.stats import chi2_contingency

    pooled = sorted(a + b)
    edges = sorted(
        {pooled[len(pooled) * k // CHI2_BINS] for k in range(1, CHI2_BINS)}
        - {pooled[0]}
    )
    if not edges:
        return 1.0  # one value in both samples: nothing differs
    table = [[0] * (len(edges) + 1) for _ in range(2)]
    for row, values in zip(table, (a, b)):
        for value in values:
            row[bisect_right(edges, value)] += 1
    return float(chi2_contingency(table).pvalue)


def compare_samples(
    fixture: dict[str, dict[str, list[float]]],
    fresh: dict[str, dict[str, list[float]]],
) -> list[tuple[str, str, float, float]]:
    """(cell, statistic, p-value, per-test alpha) for every comparison of
    ``fresh`` against ``fixture``, cell by cell; a p-value below its alpha
    rejects. Each statistic is compared by KS, or chi-square for counts,
    at the Bonferroni share of ``FAMILY_ALPHA``."""
    from scipy.stats import ks_2samp

    pairs = [(cell, stat) for cell, columns in fresh.items() for stat in columns]
    alpha = FAMILY_ALPHA / len(pairs)
    results = []
    for cell, stat in pairs:
        a = fixture[cell][stat]
        b = fresh[cell][stat]
        if stat.startswith(COUNT_PREFIXES):
            p = _chi2_pvalue(a, b)
        elif len(set(a)) == 1 and set(a) == set(b):
            p = 1.0
        else:
            p = float(ks_2samp(a, b).pvalue)
        results.append((cell, stat, p, alpha))
    return results


def main() -> int:
    fixture = {
        cell: sample_cell(scenario, [cell_seed(cell, i) for i in range(FIXTURE_REPS)])
        for cell, scenario in cells().items()
    }
    DISTRIBUTION.write_text(
        json.dumps(
            {"days": DAYS, "reps_per_cell": FIXTURE_REPS, "cells": fixture},
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {DISTRIBUTION}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent))  # for conftest's POWER_EVENTS
    sys.exit(main())
