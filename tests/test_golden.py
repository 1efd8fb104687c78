"""Golden fingerprints: outputs must stay bit-identical to the pinned ones.

A change that alters the random streams on purpose re-pins them with
`PYTHONPATH=src python tests/golden/make_goldens.py` and says so in
CHANGES.md; any other change must leave them untouched.
"""

import json

import pytest

from golden.make_goldens import FINGERPRINTS, compute_fingerprints


@pytest.fixture(scope="module")
def fingerprints():
    return compute_fingerprints()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FINGERPRINTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("section", ["cli", "engine"])
def test_outputs_match_pinned_fingerprints(section, fingerprints, pinned):
    assert set(fingerprints[section]) == set(pinned[section])
    for run, hashes in pinned[section].items():
        assert fingerprints[section][run] == hashes, run
