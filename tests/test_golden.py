"""Golden fingerprints: outputs must stay bit-identical to the pinned ones.

A change that alters the random streams on purpose re-pins them with
`PYTHONPATH=src python tests/golden/make_goldens.py` and says so in
CHANGES.md; any other change must leave them untouched.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import officesim
from golden.make_goldens import FINGERPRINTS, compute_fingerprints

# Recomputes the fingerprints into argv[1]; refuses to run without -O.
_UNDER_O = """
import json, sys
if not sys.flags.optimize:
    sys.exit("not running under -O")
from golden.make_goldens import compute_fingerprints
with open(sys.argv[1], "w", encoding="utf-8") as f:
    json.dump(compute_fingerprints(), f)
"""


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


def test_fingerprints_hold_under_python_O(tmp_path, pinned):
    # -O strips assert statements: no invariant the outputs rely on may
    # live in one.
    paths = [
        str(Path(officesim.__file__).resolve().parents[1]),
        str(Path(__file__).resolve().parent),
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = tmp_path / "fingerprints.json"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O, str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text(encoding="utf-8")) == pinned
