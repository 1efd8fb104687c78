"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The reference-scenario
experiments are computed once per session and shared across criteria.
"""

import math
import random
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from officesim import (
    EnergyLedger,
    LightingPolicy,
    category_proportions_masked,
    compare_policies,
    emit_experiment,
    run_experiment,
    run_replication,
    sample_population,
    window_mask,
)
from officesim.appliances import RoomLightBank
from officesim.checks import beta_report
from officesim.engine import PolicyComparison
from officesim.occupants import (
    MINUTES_PER_DAY,
    PopulationMix,
    STEREOTYPE_PARAMS,
)

from conftest import make_small_building, occupancy_turns
from invariant_checks import run_all_checks
from test_invariants import random_scenario

RAISED_CONTACT_RATE = 2000.0


def _passed(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


@pytest.fixture(scope="module")
def automated_experiment(reference_scenario):
    start = time.perf_counter()
    result = run_experiment(reference_scenario)
    elapsed = time.perf_counter() - start
    return result, elapsed


@pytest.fixture(scope="module")
def staff_experiment(reference_scenario):
    staff = replace(reference_scenario, policy=LightingPolicy.staff_controlled())
    return run_experiment(staff)


@pytest.fixture(scope="module")
def raised_awareness_comparison(reference_scenario):
    raised = replace(reference_scenario, contact_rate=RAISED_CONTACT_RATE)
    return compare_policies(raised)


def test_criterion_1_accounting_identity(automated_experiment):
    result, _ = automated_experiment
    rep = result.replications[0]
    ledger = rep.ledger
    total, base, lights, computers = map(
        np.asarray,
        (ledger.total_w, ledger.base_w, ledger.lights_w, ledger.computers_w),
    )
    residual = total - base - lights - computers
    assert (residual == 0).all()

    flexible = ledger.flexible_energy_wh()
    reconstructed = beta_report(rep).reconstructed_flexible_wh()
    assert abs(reconstructed - flexible) / flexible <= 1e-9

    lo, hi = 2 * MINUTES_PER_DAY, 5 * MINUTES_PER_DAY
    windowed = beta_report(rep, lo, hi).reconstructed_flexible_wh()
    window_flexible = ledger.flexible_energy_wh(lo, hi)
    assert abs(windowed - window_flexible) / window_flexible <= 1e-9
    _passed(1, "per-minute identity exact; duty-coefficient reconstruction "
               f"within 1e-9 (flexible {flexible / 1000:.1f} kWh)")


def test_criterion_2_automated_light_rule():
    # one office, one occupant, scripted long leave at minute 300
    occupied = [True] * 300 + [False] * 100
    bank = RoomLightBank()
    policy = LightingPolicy.automated()
    bank.step_automated(
        occupancy_turns(occupied), policy.off_delay_minutes, len(occupied)
    )
    on_series = [
        any(a <= minute < b for a, b in bank.intervals)
        for minute in range(len(occupied))
    ]
    assert all(on_series[m] for m in range(300)), "on at every occupied minute"
    assert all(on_series[m] for m in range(300, 320)), "burns through the delay"
    assert not any(on_series[m] for m in range(320, 400)), "off exactly at +20"
    _passed(2, "light off exactly 20 minutes after vacancy, on at every "
               "occupied minute")


def test_criterion_3_population_statistics():
    building = make_small_building(n_private=0, n_shared=1, shared_desks=10_500)
    agents = sample_population(10_000, PopulationMix(), building, random.Random(77))
    schedule_counts = Counter(a.schedule_class for a in agents)
    stereotype_counts = Counter(a.stereotype for a in agents)
    mix = PopulationMix()
    for cls, frac in mix.schedule.items():
        bound = 3 * math.sqrt(10_000 * frac * (1 - frac))
        assert abs(schedule_counts[cls] - 10_000 * frac) <= bound, cls
    for stereotype, frac in mix.awareness.items():
        bound = 3 * math.sqrt(10_000 * frac * (1 - frac))
        assert abs(stereotype_counts[stereotype] - 10_000 * frac) <= bound, stereotype
    for agent in agents:
        band = STEREOTYPE_PARAMS[agent.stereotype]
        assert band.awareness_low <= agent.awareness <= band.awareness_high
    _passed(3, "all schedule and awareness fractions within 3-sigma at n=10,000; "
               "awareness inside stereotype bands")


def test_criterion_4_determinism(reference_scenario, automated_experiment,
                                 tmp_path_factory):
    result_a, elapsed = automated_experiment
    assert elapsed < 120, f"20 replications took {elapsed:.0f}s (budget 120s)"

    result_b = run_experiment(reference_scenario)
    dir_a = tmp_path_factory.mktemp("run_a")
    dir_b = tmp_path_factory.mktemp("run_b")
    emit_experiment(result_a, dir_a)
    emit_experiment(result_b, dir_b)
    files_a = sorted(p for p in dir_a.rglob("*") if p.is_file())
    assert files_a
    for path in files_a:
        twin = dir_b / path.relative_to(dir_a)
        assert twin.read_bytes() == path.read_bytes(), path.name

    extended = run_experiment(replace(reference_scenario, replications=21))
    dir_c = tmp_path_factory.mktemp("run_c")
    emit_experiment(extended, dir_c)
    for i in range(20):
        name = f"reps/rep_{i:03d}_minutes.csv"
        assert (dir_c / name).read_bytes() == (dir_a / name).read_bytes(), name
    _passed(4, f"byte-identical re-run and rep-count extension "
               f"(20 reps in {elapsed:.1f}s)")


def test_criterion_5_staff_controlled_consumes_more(automated_experiment,
                                                    staff_experiment):
    automated, _ = automated_experiment
    comparison = PolicyComparison(
        automated=automated,
        staff_controlled=staff_experiment,
        paired_diff_kwh=np.asarray(staff_experiment.total_kwh_per_rep)
        - np.asarray(automated.total_kwh_per_rep),
    )
    diff = comparison.mean_diff_kwh
    se = comparison.paired_se_kwh
    assert diff > 0, "staff-controlled must consume more at baseline awareness"
    assert diff > se, f"difference {diff:.1f} kWh must exceed SE {se:.1f} kWh"
    _passed(5, f"staff-controlled exceeds automated by {diff:.0f} kWh "
               f"(SE {se:.1f} kWh) over one week x 20 reps")


def test_criterion_6_reversal_under_raised_awareness(raised_awareness_comparison):
    comparison = raised_awareness_comparison
    awareness = comparison.staff_controlled.mean_final_awareness()
    assert awareness >= 70, f"mean end-of-run awareness {awareness:.1f} below 70"
    auto_kwh = comparison.automated.mean_total_kwh
    staff_kwh = comparison.staff_controlled.mean_total_kwh
    assert staff_kwh < auto_kwh, (
        f"expected reversal, got staff {staff_kwh:.1f} vs automated {auto_kwh:.1f}"
    )
    _passed(6, f"with contact rate {RAISED_CONTACT_RATE:.0f} (mean awareness "
               f"{awareness:.0f}) staff-controlled drops below automated by "
               f"{auto_kwh - staff_kwh:.0f} kWh")


def test_criterion_7_computers_dominate_off_hours(automated_experiment,
                                                  reference_scenario):
    result, _ = automated_experiment
    ledger = EnergyLedger(
        result.mean_base_w, result.mean_lights_w, result.mean_computers_w
    )
    mask = window_mask(
        "night-weekend",
        reference_scenario.horizon_days,
        reference_scenario.start_day_of_week,
    )
    base, lights, computers = category_proportions_masked(ledger, mask)
    assert computers > lights
    _passed(7, f"night+weekend shares: computers {computers:.2f} > "
               f"lights {lights:.2f} (base {base:.2f})")


def test_criterion_8_diurnal_shape(automated_experiment, reference_scenario):
    result, _ = automated_experiment
    n = len(result.mean_total_w)
    minutes = np.arange(n)
    minute_of_day = minutes % MINUTES_PER_DAY
    day_of_week = (
        reference_scenario.start_day_of_week + minutes // MINUTES_PER_DAY
    ) % 7
    day_mask = (
        (day_of_week < 5) & (minute_of_day >= 600) & (minute_of_day < 960)
    )
    night_mask = (minute_of_day >= 60) & (minute_of_day < 300)
    mean_total_w = np.asarray(result.mean_total_w)
    day_mean = mean_total_w[day_mask].mean()
    night_mean = mean_total_w[night_mask].mean()
    ratio = day_mean / night_mean
    assert ratio >= 1.5, f"day/night ratio {ratio:.2f} below 1.5"
    _passed(8, f"weekday 10:00-16:00 mean {day_mean / 1000:.1f} kW vs "
               f"01:00-05:00 mean {night_mean / 1000:.1f} kW (ratio {ratio:.2f})")


def test_criterion_9_state_machine_properties():
    start = time.perf_counter()
    rng = random.Random(20260811)
    total_violations = []
    for _ in range(100):
        scenario = random_scenario(rng)
        result = run_replication(scenario, seed=rng.randrange(2**31))
        total_violations += run_all_checks(result)
    elapsed = time.perf_counter() - start
    assert not total_violations, total_violations[:10]
    assert elapsed < 600
    _passed(9, f"zero violations across 100 randomized replications "
               f"({elapsed:.0f}s)")
