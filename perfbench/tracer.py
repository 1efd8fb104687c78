"""Run one officesim CLI command with timing wrappers at layer boundaries.

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json simulate --scenario ...

The package imports names directly (`from .occupants import
step_occupant`), so each function is wrapped in the namespace of the
module that calls it, and methods on their class. Every wrapper keeps
call counts, inclusive (busy) time and self time, where self time is
busy time minus the time of wrapped calls made inside it. Spans are kept
in memory and written to TRACE.json when the command ends; the
originals are put back first and the file records whether they were.
The exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _truthy(result) -> int:
    return 1 if result else 0


def _length(result) -> int:
    return len(result)


def _bytes_written(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def wrap_targets():
    """(owner, attribute, metric prefix, outcome counter, keep durations)."""
    from officesim import appliances, cli, engine, scenario_io

    return (
        (engine, "step_occupant", "occupants.step_occupant", _truthy, False),
        (engine, "sample_daily_schedule", "occupants.sample_daily_schedule", None, False),
        (engine, "sample_population", "occupants.sample_population", None, False),
        (appliances.RoomLightBank, "step_automated", "appliances.step_automated", _truthy, False),
        (engine, "manual_exit_decision", "appliances.manual_exit_decision", _truthy, False),
        (engine, "contact_step", "network.contact_step", _length, False),
        (engine, "build_small_world", "network.build_small_world", None, False),
        (engine, "run_replication", "engine.run_replication", None, True),
        (engine, "run_experiment", "engine.run_experiment", None, False),
        (cli, "run_experiment", "engine.run_experiment", None, False),
        (cli, "emit_experiment", "scenario_io.emit", _bytes_written, False),
        (cli, "emit_comparison", "scenario_io.emit", _bytes_written, False),
        (scenario_io, "half_hour_bins", "accounting.half_hour_bins", None, False),
        (
            scenario_io,
            "category_proportions_masked",
            "accounting.category_proportions_masked",
            None,
            False,
        ),
        (cli, "parse_scenario", "scenario_io.parse_scenario", None, False),
        (scenario_io, "load_building_file", "building.load_building_file", None, False),
    )


class Recorder:
    """Counters and span times per wrapped name for one process."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._stack: list[float] = []  # child time accumulated per open span
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, outcome, keep_durations):
        st = self.stats.setdefault(
            name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "outcomes": 0}
        )
        if keep_durations:
            st.setdefault("durations_s", [])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                st["calls"] += 1
                st["busy_s"] += dt
                st["self_s"] += dt - child
                if keep_durations:
                    st["durations_s"].append(dt)
            if outcome is not None:
                st["outcomes"] += outcome(result)
            return result

        return wrapper

    def install(self, targets) -> list[str]:
        """Wrap every target that exists; returns the ones missing."""
        missing = []
        for owner, attr, name, outcome, keep_durations in targets:
            original = owner.__dict__.get(attr)
            if original is None:
                missing.append(f"{owner.__name__}.{attr}")
                continue
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, outcome, keep_durations))
        return missing

    def restore(self) -> bool:
        """Put the originals back; True if every one is in place again."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        return all(owner.__dict__.get(attr) is original for owner, attr, original in self._originals)


def main(argv: list[str]) -> int:
    trace_path, cli_args = Path(argv[0]), argv[1:]
    from officesim import cli

    recorder = Recorder()
    missing = recorder.install(wrap_targets())
    try:
        code = cli.main(cli_args)
    finally:
        restored = recorder.restore()
        trace_path.write_text(
            json.dumps(
                {
                    "stats": recorder.stats,
                    "missing": missing,
                    "restored": restored,
                },
                sort_keys=True,
            )
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
