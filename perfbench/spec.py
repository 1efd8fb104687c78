"""What the officesim benchmark measures: workloads, metrics, bounds.

`BENCHMARK.json` at the repository root is generated from this file:

    python3 perfbench/spec.py > BENCHMARK.json

Each per-layer metric also names the end-to-end metrics and workloads it
is expected to move (`MOVES`). BENCHMARK.json has a fixed set of keys, so
that map lives here; `python3 perfbench/spec.py --layer-map` prints it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

RUN_SECONDS = 50
# officesim validate runs this many times before each workload command,
# so set-up is sampled across the whole run; setup_s is their median.
SETUP_PER_COMMAND = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # officesim subcommand
    replications: int
    scenario_overrides: dict = field(default_factory=dict)
    extra_args: tuple[str, ...] = ()


# Replication counts are sized from per-replication costs on a 2-core
# Xeon: a weekday replication takes 1.3-2.2 s, a weekend one about
# 0.05 s plus 0.012 s of CSV emission. Each command then takes 2.5-10 s,
# so a 50 s run holds 4-13 commands with their set-up repeats.
#
# Two workloads, each the other's bypass: agent stepping, contacts and
# manual switching run heavily only in compare-social; per-replication
# emission, the half-hour and proportion aggregates and many-replication
# fixed costs only in weekend-standby. compare-social's automated arm is
# the reference week under automated lights, the paper's main experiment,
# so that code path is measured there.
WORKLOADS = (
    Workload(
        name="compare-social",
        why=(
            "officesim compare --contact-rate 2000 on the reference week: the "
            "reversal experiment; agent stepping, contact_step ~19% of traced "
            "replication time, manual switching in the staff arm, 3 output files"
        ),
        command="compare",
        replications=2,
        extra_args=("--contact-rate", "2000"),
    ),
    Workload(
        name="weekend-standby",
        why=(
            "simulate over a 2-day weekend with many cheap replications: "
            "agent loop idle, light stepping, the empty minute loop and "
            "per-replication emission dominate"
        ),
        command="simulate",
        replications=40,
        scenario_overrides={"start_day_of_week": 5, "horizon_days": 2},
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)

# name -> (unit, better, bound). Bounds are the share of the parent's
# median by which a metric may worsen before a change is rejected. On the
# shared 2-vCPU host the benchmark was tuned on, the speed of the same
# CPU-bound code drifts by 10-40% over minutes (neighbours on the host
# cores), so run-to-run spreads of times reach 0.1-0.2; the time bounds
# are therefore the widest allowed.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
    # 1 - fail_ratio: BENCHMARK.json metrics must never be 0, and the
    # failure share is 0 on a correct program.
    "success_ratio": ("ratio", "higher", 0.01),
}

ALL = WORKLOAD_NAMES

# Which end-to-end metrics each group of layer metrics should move, on
# which workloads, most affected first. Performance changes cite these
# predictions; "none" lists workloads where the prediction is no
# change.
MOVES = {
    "agents": (
        {"wall_s": ("compare-social",), "cpu_s": ("compare-social",),
         "none": ("weekend-standby",)},
        "agent stepping and daily schedules",
    ),
    "lights": (
        {"wall_s": ("weekend-standby", "compare-social")},
        "automated light stepping; on compare-social only its automated arm",
    ),
    "manual": (
        {"wall_s": ("compare-social",), "none": ("weekend-standby",)},
        "manual switching runs only in the staff-controlled arm",
    ),
    "contacts": (
        {"wall_s": ("compare-social", "weekend-standby")},
        "email contacts and the small-world graph",
    ),
    "engine": (
        {"wall_s": ALL, "cpu_s": ALL, "peak_rss_mb": ALL},
        "cpu_s and peak_rss_mb move when replications run in a process pool",
    ),
    "emit": (
        {"wall_s": ("weekend-standby",), "none": ("compare-social",)},
        "per-replication CSV emission and its aggregates; compare-social "
        "writes 3 files and calls neither aggregate",
    ),
    "setup": ({"setup_s": ALL}, "scenario and building parsing"),
    "trace": ({}, "cost of the tracing wrappers; compare traced with traced only"),
}

# name -> (unit, better, MOVES group)
PER_LAYER = {
    "occupants.step_occupant.calls": ("count", "lower", "agents"),
    "occupants.step_occupant.busy_s": ("s", "lower", "agents"),
    "occupants.step_occupant.event_ratio": ("ratio", "higher", "agents"),
    "occupants.sample_daily_schedule.calls": ("count", "lower", "agents"),
    "occupants.sample_daily_schedule.busy_s": ("s", "lower", "agents"),
    "occupants.sample_population.busy_s": ("s", "lower", "agents"),
    "appliances.step_automated.calls": ("count", "lower", "lights"),
    "appliances.step_automated.busy_s": ("s", "lower", "lights"),
    "appliances.step_automated.switch_ratio": ("ratio", "higher", "lights"),
    "appliances.manual_exit_decision.calls": ("count", "lower", "manual"),
    "appliances.manual_exit_decision.busy_s": ("s", "lower", "manual"),
    "appliances.manual_exit_decision.off_ratio": ("ratio", "higher", "manual"),
    "network.contact_step.calls": ("count", "lower", "contacts"),
    "network.contact_step.busy_s": ("s", "lower", "contacts"),
    "network.contact_step.contacts": ("count", "higher", "contacts"),
    "network.build_small_world.busy_s": ("s", "lower", "contacts"),
    "engine.run_replication.calls": ("count", "higher", "engine"),
    "engine.run_replication.busy_s": ("s", "lower", "engine"),
    "engine.run_replication.p50_s": ("s", "lower", "engine"),
    "engine.run_replication.p90_s": ("s", "lower", "engine"),
    "engine.self_s": ("s", "lower", "engine"),
    "engine.run_experiment.self_s": ("s", "lower", "engine"),
    "scenario_io.emit.busy_s": ("s", "lower", "emit"),
    "scenario_io.emit.bytes": ("bytes", "lower", "emit"),
    "accounting.half_hour_bins.busy_s": ("s", "lower", "emit"),
    "accounting.category_proportions_masked.busy_s": ("s", "lower", "emit"),
    "scenario_io.parse_scenario.busy_s": ("s", "lower", "setup"),
    "building.load_building_file.busy_s": ("s", "lower", "setup"),
    "trace.overhead_s": ("s", "lower", "trace"),
}


def layer_map() -> dict:
    """Per-layer metric -> the end-to-end metrics and workloads it moves."""
    return {
        name: {"moves": MOVES[group][0], "note": MOVES[group][1]}
        for name, (_, _, group) in PER_LAYER.items()
    }


def benchmark_json() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _) in PER_LAYER.items()
        ],
    }


if __name__ == "__main__":
    import sys

    doc = layer_map() if sys.argv[1:] == ["--layer-map"] else benchmark_json()
    print(json.dumps(doc, indent=2))
