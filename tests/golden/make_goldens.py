"""Golden fingerprints of the engine's outputs on the reference building.

    PYTHONPATH=src python tests/golden/make_goldens.py

rewrites ``fingerprints.json`` next to this file; ``tests/test_golden.py``
recomputes the same fingerprints and requires them to be equal. Re-pin
only in a change that alters the random streams on purpose, and say so
in CHANGES.md.

Pinned, for two starts (Monday, and Friday so that the weekday-to-weekend
idle stretch and the midnight reset are covered), 2 days, 3 replications:

- the sha256 of every file that ``simulate`` (both lighting policies) and
  ``compare --contact-rate 2000`` emit. ``manifest.json`` holds the
  scenario's absolute building path, so it is hashed with its
  ``scenario_path`` and ``scenario_sha256`` fields blanked; every other
  field, the output hashes included, is kept;
- a digest of one ``run_replication`` per start and policy: events
  (``conftest.run_events``), ledger arrays, light intervals, computer
  transitions, contact count and final awareness;
- a digest of the trace derived from one replication: state transitions,
  per-room occupancy and light matrices, schedules, awareness by day and
  contacts.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

HERE = Path(__file__).resolve().parent
FINGERPRINTS = HERE / "fingerprints.json"

DAYS = 2
REPS = 3
STARTS = {"monday": 0, "friday": 4}
POLICIES = ("automated", "staff_controlled")
CONTACT_RATE = 2000.0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _lines_sha(lines) -> str:
    return _sha("\n".join(lines).encode("utf-8"))


def _scenario_file(workdir: Path, start_dow: int, policy: str) -> Path:
    from officesim import reference_scenario_path

    ref = Path(reference_scenario_path())
    doc = yaml.safe_load(ref.read_text(encoding="utf-8"))
    doc["building"] = str((ref.parent / doc["building"]).resolve())
    doc["start_day_of_week"] = start_dow
    doc["lighting_policy"] = policy
    path = workdir / f"scenario_{start_dow}_{policy}.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return path


def _output_hashes(out: Path) -> dict[str, str]:
    hashes = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        data = path.read_bytes()
        if rel == "manifest.json":
            manifest = json.loads(data)
            manifest["scenario_path"] = None
            manifest["scenario_sha256"] = None
            data = json.dumps(manifest, sort_keys=True).encode("utf-8")
        hashes[rel] = _sha(data)
    return hashes


def _cli_fingerprints(workdir: Path) -> dict:
    from officesim.cli import main

    common = ["--days", str(DAYS), "--reps", str(REPS)]
    runs = {}
    for start_name, dow in STARTS.items():
        for policy in POLICIES:
            scenario = _scenario_file(workdir, dow, policy)
            out = workdir / f"simulate_{start_name}_{policy}"
            argv = ["simulate", "--scenario", str(scenario), "--out", str(out)]
            if main(argv + common) != 0:
                raise RuntimeError(f"simulate failed for {start_name}/{policy}")
            runs[f"simulate/{start_name}/{policy}"] = _output_hashes(out)
        scenario = _scenario_file(workdir, dow, "automated")
        out = workdir / f"compare_{start_name}"
        argv = ["compare", "--scenario", str(scenario), "--out", str(out),
                "--contact-rate", str(CONTACT_RATE)]
        if main(argv + common) != 0:
            raise RuntimeError(f"compare failed for {start_name}")
        runs[f"compare/{start_name}"] = _output_hashes(out)
    return runs


def _replication_digest(result) -> dict[str, str]:
    from officesim.checks import computer_transitions, contact_count, roster

    from conftest import run_events

    return {
        "events": _lines_sha(
            f"{e.kind.value},{e.minute},{e.agent_id},{e.room_id}"
            for e in run_events(result)
        ),
        "ledger": _sha(
            result.ledger.lights_w.tobytes() + result.ledger.computers_w.tobytes()
        ),
        "light_intervals": _lines_sha(
            f"{room}:{intervals!r}"
            for room, intervals in sorted(result.light_intervals.items())
        ),
        "computer_transitions": _lines_sha(
            f"{cid}:{ts!r}"
            for cid, ts in sorted(computer_transitions(result.record).items())
        ),
        "contacts_and_awareness": _lines_sha(
            [str(contact_count(result.record))]
            + [f"{r.id}:{r.final_awareness!r}" for r in roster(result.record)]
        ),
    }


def _trace_digest(result, trace) -> dict[str, str]:
    from officesim.checks import contacts

    return {
        "state_transitions": _lines_sha(
            f"{m},{a},{before.value},{after.value}"
            for m, a, before, after in trace.state_transitions
        ),
        "room_occupied": _sha(
            repr(trace.room_ids).encode("utf-8")
            + np.ascontiguousarray(trace.room_occupied, dtype=np.uint8).tobytes()
        ),
        "lights_on": _sha(
            np.ascontiguousarray(trace.lights_on, dtype=np.uint8).tobytes()
        ),
        "schedules": _lines_sha(
            f"{key!r}:{value!r}" for key, value in sorted(trace.schedules.items())
        ),
        "awareness_by_day": _sha(b"".join(a.tobytes() for a in trace.awareness_by_day)),
        "contact_events": _lines_sha(
            f"{sender_id},{receiver_id},{minute}"
            for sender_id, receiver_id, minute in contacts(result.record)
        ),
    }


def _engine_fingerprints() -> dict:
    from officesim import LightingPolicy, derive_seed, parse_scenario, run_replication
    from officesim import reference_scenario_path
    from officesim.checks import derive_trace

    ref = replace(parse_scenario(reference_scenario_path()), horizon_days=DAYS)
    seed = derive_seed(ref.master_seed, "rep:0")
    runs = {}
    for start_name, dow in STARTS.items():
        for policy in POLICIES:
            lighting = (
                LightingPolicy.automated()
                if policy == "automated"
                else LightingPolicy.staff_controlled()
            )
            scenario = replace(
                ref, start_day_of_week=dow, policy=lighting, contact_rate=CONTACT_RATE
            )
            result = run_replication(scenario, seed)
            runs[f"replication/{start_name}/{policy}"] = _replication_digest(result)
    friday = replace(ref, start_day_of_week=STARTS["friday"], contact_rate=CONTACT_RATE)
    result = run_replication(friday, seed)
    runs["trace/friday/automated"] = _trace_digest(result, derive_trace(result))
    return runs


def compute_fingerprints() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        cli = _cli_fingerprints(Path(tmp))
    return {"cli": cli, "engine": _engine_fingerprints()}


def main() -> int:
    fingerprints = compute_fingerprints()
    FINGERPRINTS.write_text(
        json.dumps(fingerprints, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {FINGERPRINTS}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent))  # for conftest's run_events
    sys.exit(main())
