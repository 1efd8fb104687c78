import math
import random
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from officesim import (
    EnergyLedger,
    category_proportions_masked,
    half_hour_bins,
    realized_beta,
)
from officesim.accounting import (
    build_beta_report,
    column_means,
    masked_sum,
    pairwise_mean,
    pairwise_sum,
    sample_std,
)
from officesim.errors import AccountingError

from conftest import series_bytes


def ledger_from_rows(rows):
    base, lights, computers = zip(*rows)
    return EnergyLedger(base, lights, computers)


def constant_ledger(minutes, base=0, lights=0, computers=0):
    return ledger_from_rows([(base, lights, computers)] * minutes)


def window_proportions(ledger, start, end):
    """The category proportions over the minutes [start, end), through a
    mask as long as the ledger or, where ``end`` passes it, as ``end``."""
    minutes = range(max(len(ledger), end))
    return category_proportions_masked(ledger, [start <= m < end for m in minutes])


def test_sample_decomposition_identity():
    ledger = EnergyLedger([5000, 5000], [0, 239 * 60], [0, 180 * 400])
    assert ledger.total_w[0] == 5000
    # everything on
    assert ledger.total_w[1] == 5000 + 14340 + 72000


def test_single_light_with_no_base():
    assert EnergyLedger([0], [60], [0]).total_w[0] == 60


def test_negative_component_rejected():
    for column in range(3):
        samples = [[0, 0], [0, 0], [0, 0]]
        samples[column][1] = -1
        with pytest.raises(AccountingError):
            EnergyLedger(*samples)


@pytest.mark.parametrize("column", range(3))
@pytest.mark.parametrize("samples", [[math.nan, -5.0], [-5.0, math.nan]])
def test_negative_sample_rejected_beside_nan(column, samples):
    # A NaN sample must not hide a negative one, wherever either sits.
    columns = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    columns[column] = samples
    with pytest.raises(AccountingError):
        EnergyLedger(*columns)


@pytest.mark.parametrize("column", range(3))
def test_non_finite_samples_are_admitted(column):
    columns = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    columns[column] = [math.nan, -0.0, math.inf]
    ledger = EnergyLedger(*columns)
    assert len(ledger) == 3


def test_ledger_identity_holds_per_minute():
    rng = np.random.default_rng(4)
    base = rng.integers(0, 5000, 100)
    lights = rng.integers(0, 14000, 100)
    computers = rng.integers(0, 70000, 100)
    ledger = EnergyLedger(base, lights, computers)
    total, base, lights, computers = map(
        np.asarray,
        (ledger.total_w, ledger.base_w, ledger.lights_w, ledger.computers_w),
    )
    assert (total - base - lights - computers == 0).all()


def test_ledger_energy_integration():
    ledger = constant_ledger(60, base=1200, lights=600, computers=0)
    energy = ledger.energy_wh()
    assert energy == {"base": 1200.0, "lights": 600.0, "computers": 0.0}
    assert ledger.flexible_energy_wh() == 600.0
    assert ledger.total_energy_wh() == 1800.0


def test_half_hour_bin_of_constant_load():
    bins = half_hour_bins(constant_ledger(30, base=6000))
    assert len(bins) == 1
    assert bins[0].total_kwh == pytest.approx(3.0)
    assert bins[0].base_kwh == pytest.approx(3.0)


def test_half_hour_bins_all_zero():
    bins = half_hour_bins(constant_ledger(120))
    assert all(b.total_kwh == 0 for b in bins)


def test_half_hour_bins_step_profile():
    rows = [(0, 60, 0)] * 60 + [(0, 0, 0)] * 60
    bins = half_hour_bins(ledger_from_rows(rows))
    assert [b.lights_kwh for b in bins] == pytest.approx([0.03, 0.03, 0.0, 0.0])
    assert [b.start_minute for b in bins] == [0, 30, 60, 90]


def test_partial_trailing_bin_is_dropped():
    ledger = constant_ledger(75, base=6000)
    bins = half_hour_bins(ledger)
    assert len(bins) == 2
    assert sum(b.total_kwh for b in bins) == pytest.approx(
        ledger.total_energy_wh(0, 60) / 1000.0
    )


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=9000))
def test_binning_conserves_energy(minutes, watts):
    ledger = constant_ledger(minutes, base=watts)
    bins = half_hour_bins(ledger)
    covered = (minutes // 30) * 30
    assert sum(b.total_kwh for b in bins) * 1000 == pytest.approx(
        ledger.total_energy_wh(0, covered), rel=1e-12, abs=1e-12
    )


def test_beta_endpoints_and_midpoint():
    assert realized_beta(60.0 * 24, 60.0, 24.0) == 1.0
    assert realized_beta(0.0, 60.0, 24.0) == 0.0
    assert realized_beta(720.0, 60.0, 24.0) == 0.5


def test_beta_rejects_impossible_energy():
    with pytest.raises(AccountingError):
        realized_beta(2000.0, 60.0, 24.0)


def test_beta_rejects_degenerate_window():
    with pytest.raises(ValueError):
        realized_beta(10.0, 0.0, 24.0)
    with pytest.raises(ValueError):
        realized_beta(10.0, 60.0, 0.0)


@given(
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=1, max_value=1000),
    st.floats(min_value=0.1, max_value=100),
)
def test_beta_recovers_duty_fraction(duty, max_watts, hours):
    energy = duty * max_watts * hours
    assert realized_beta(energy, max_watts, hours) == pytest.approx(duty, abs=1e-9)


def test_beta_report_reconstructs_flexible_energy():
    entries = [("L1", 60.0, 720.0), ("K1", 400.0, 4800.0), ("K2", 400.0, 0.0)]
    report = build_beta_report(entries, 0, 1440)
    assert report.window_hours == 24.0
    assert report.reconstructed_flexible_wh() == pytest.approx(720.0 + 4800.0)
    betas = {e.appliance_id: e.beta for e in report.entries}
    assert betas == pytest.approx({"L1": 0.5, "K1": 0.5, "K2": 0.0})


def test_beta_report_leaves_out_zero_watt_appliances():
    # A 0 W appliance draws nothing and has no duty: the report leaves it
    # out, and realized_beta still refuses it.
    entries = [("L1", 60.0, 720.0), ("L0", 0.0, 0.0)]
    report = build_beta_report(entries, 0, 1440)
    assert [e.appliance_id for e in report.entries] == ["L1"]
    assert report.reconstructed_flexible_wh() == pytest.approx(720.0)
    with pytest.raises(ValueError, match="max_power_watts must be > 0"):
        realized_beta(0.0, 0.0, 24.0)


def test_proportions_base_only():
    ledger = constant_ledger(10, base=500)
    assert window_proportions(ledger, 0, 10) == (1.0, 0.0, 0.0)


def test_proportions_equal_thirds():
    ledger = constant_ledger(10, base=70, lights=70, computers=70)
    fractions = window_proportions(ledger, 0, 10)
    assert fractions == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    assert abs(sum(fractions) - 1.0) <= 1e-12


def test_proportions_window_validation():
    ledger = constant_ledger(10, base=1)
    with pytest.raises(ValueError):
        window_proportions(ledger, 5, 5)
    with pytest.raises(ValueError):
        window_proportions(ledger, 0, 11)


def test_proportions_zero_energy_window_rejected():
    ledger = constant_ledger(10)
    with pytest.raises(ValueError):
        window_proportions(ledger, 0, 10)


def test_masked_proportions_match_range():
    rows = [(100, 50, 0)] * 6 + [(0, 0, 300)] * 6
    ledger = ledger_from_rows(rows)
    mask = np.zeros(12, dtype=bool)
    mask[:6] = True
    assert category_proportions_masked(ledger, mask) == window_proportions(
        ledger, 0, 6
    )
    with pytest.raises(ValueError):
        category_proportions_masked(ledger, np.zeros(12, dtype=bool))


def test_ledger_equality_and_sample_access():
    a = constant_ledger(5, base=10, lights=20, computers=30)
    b = constant_ledger(5, base=10, lights=20, computers=30)
    assert series_bytes(a) == series_bytes(b)
    assert (a.base_w[3], a.lights_w[3], a.computers_w[3]) == (10, 20, 30)
    assert a.total_w[3] == 60


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _values(kind: str, n: int, rng: random.Random) -> list[float]:
    """n float64 values of one kind: non-dyadic fractions, wide magnitudes
    of both signs, signed zeros, or piecewise-constant stretches (the
    shape of a ledger series)."""
    if kind == "thirds":
        return [rng.randrange(10**6) / 3 for _ in range(n)]
    if kind == "fortieths":
        return [rng.randrange(10**6) / 40 for _ in range(n)]
    if kind == "wide":
        return [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in range(n)]
    if kind == "zeros":
        return [rng.choice((0.0, -0.0)) for _ in range(n)]
    values: list[float] = []
    while len(values) < n:
        value = rng.choice((0.0, -0.0, 60.0, 1 / 3, rng.randrange(10**4) / 40))
        values += [value] * rng.randint(1, 300)
    return values[:n]


_KINDS = st.sampled_from(["thirds", "fortieths", "wide", "zeros", "runs"])
_LENGTHS = st.one_of(
    st.sampled_from([0, 1, 7, 8, 9, 15, 16, 127, 128, 129, 136, 137, 255, 256, 257,
                     2880, 8192, 8193, 10080, 20000]),
    st.integers(0, 20000),
)


def test_column_means_of_many_rows_equal_numpy_bit_for_bit():
    # column_means stores its lazy sums every 256 rows; across those points
    # the rows are still added in order, as numpy's mean over axis 0 does.
    rng = random.Random(5)
    rows = [
        array("d", (rng.random() * 10 ** rng.randint(-3, 9) for _ in range(5)))
        for _ in range(600)
    ]
    stack = np.stack([np.asarray(row) for row in rows])
    assert column_means(rows).tobytes() == stack.mean(axis=0).tobytes()


@settings(max_examples=120, deadline=None)
@given(kind=_KINDS, n=_LENGTHS, seed=st.integers(0, 2**32), cut=st.floats(0, 1))
@example(kind="zeros", n=129, seed=0, cut=0.0)
@example(kind="runs", n=20000, seed=1, cut=0.5)
def test_reductions_equal_numpy_bit_for_bit(kind, n, seed, cut):
    # numpy's float64 sum, mean, std(ddof=1), axis reductions and masked
    # sums are the reference; the pure-Python reductions must give them
    # bit for bit, for lists and for array('d') (which takes the
    # constant-stretch path), and on slices at non-zero offsets.
    rng = random.Random(seed)
    values = _values(kind, n, rng)
    ref = np.array(values, dtype=np.float64)
    series = array("d", values)
    for data in (values, series):
        assert _bits(pairwise_sum(data)) == _bits(ref.sum())
        lo = int(cut * n)
        hi = lo + int(rng.random() * (n - lo))
        assert _bits(pairwise_sum(data, lo, hi)) == _bits(ref[lo:hi].sum())
        assert _bits(pairwise_sum(data, lo)) == _bits(ref[lo:].sum())
    if n >= 1:
        assert _bits(pairwise_mean(series)) == _bits(ref.mean())
    if n >= 2:
        assert _bits(sample_std(series)) == _bits(ref.std(ddof=1))
        assert _bits(sample_std(values)) == _bits(ref.std(ddof=1))
        rows = [series] + [
            array("d", _values(kind, n, rng)) for _ in range(rng.randint(0, 4))
        ]
        stack = np.stack([np.asarray(row) for row in rows])
        assert column_means(rows).tobytes() == stack.mean(axis=0).tobytes()
        assert [_bits(pairwise_sum(row)) for row in rows] == [
            _bits(x) for x in stack.sum(axis=1)
        ]
    mask = [rng.random() < cut for _ in range(n)]
    selected = ref[np.array(mask, dtype=bool)]
    assert _bits(masked_sum(series, mask)) == _bits(selected.sum())
