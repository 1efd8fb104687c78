"""Statistical-equivalence gate: fresh replications against the frozen
distributional fixture (``tests/golden/distribution.json``).

The fresh replications run on seeds the fixture did not use. Every
statistic of every cell is compared by the two-sample KS test, or by
chi-square over binned values for counts, at a Bonferroni-corrected
alpha; the paired policy difference is one of the statistics. See
``tests/golden/make_distribution.py`` for the setup and the statistics.
"""

import json

import pytest

from golden.make_distribution import (
    DISTRIBUTION,
    FAMILY_ALPHA,
    cell_seed,
    cells,
    compare_samples,
    sample_cell,
)

FRESH_REPS = 16  # per cell: the smallest size the power study needed (CHANGES.md)
FRESH_LABEL = "fresh"


@pytest.fixture(scope="module")
def fixture():
    return json.loads(DISTRIBUTION.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def comparisons(fixture):
    fresh = {
        cell: sample_cell(
            scenario, [cell_seed(cell, i, FRESH_LABEL) for i in range(FRESH_REPS)]
        )
        for cell, scenario in cells().items()
    }
    return compare_samples(fixture["cells"], fresh)


def test_fixture_covers_the_design(fixture):
    assert set(fixture["cells"]) == set(cells())
    assert fixture["reps_per_cell"] * len(fixture["cells"]) >= 200
    for columns in fixture["cells"].values():
        assert "paired:staff_minus_automated_kwh" in columns
        assert all(len(v) == fixture["reps_per_cell"] for v in columns.values())


def test_fresh_replications_match_the_fixture(comparisons):
    rejected = [
        f"{cell} {stat}: p={p:.2e} < {alpha:.2e}"
        for cell, stat, p, alpha in comparisons
        if p < alpha
    ]
    assert not rejected, rejected
    assert len({alpha for *_, alpha in comparisons}) == 1
    assert comparisons[0][3] * len(comparisons) == pytest.approx(FAMILY_ALPHA)
