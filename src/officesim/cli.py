"""Command-line entry points.

Exit codes: 0 success, 1 configuration/validation error (including bad
flags), 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .building import building_summary
from .errors import ConfigError
from .scenario_io import (
    WINDOW_PRESETS,
    emit_comparison,
    emit_experiment,
    parse_scenario,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


# The engine is imported by the first command that runs it, so `validate`
# and `summary` never load it. These forwarders are module globals, and
# the commands call them as such, so that perfbench/tracer.py can wrap
# them in this module's namespace.
def run_experiment(scenario):
    from .engine import run_experiment

    return run_experiment(scenario)


def compare_policies(scenario):
    from .engine import compare_policies

    return compare_policies(scenario)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="officesim",
        description="Agent-based office building electricity simulator.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_out: bool = True):
        p.add_argument("--scenario", required=True, help="scenario YAML file")
        p.add_argument("--days", type=int, help="override horizon_days")
        p.add_argument("--reps", type=int, help="override replications (default 20)")
        p.add_argument("--seed", type=int, help="override the master seed")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")

    p_sim = sub.add_parser("simulate", help="run replications and export series")
    common(p_sim)

    p_cmp = sub.add_parser(
        "compare", help="run both lighting policies with shared seeds"
    )
    common(p_cmp)
    p_cmp.add_argument(
        "--contact-rate", type=float, help="override the social contact rate"
    )

    p_prop = sub.add_parser(
        "proportions", help="report category proportions over a window"
    )
    common(p_prop)
    p_prop.add_argument(
        "--window",
        default="all",
        choices=WINDOW_PRESETS,
        help="analysis window preset",
    )

    p_val = sub.add_parser("validate", help="check a scenario file and exit")
    common(p_val, needs_out=False)

    p_sum = sub.add_parser("summary", help="print the building inventory")
    common(p_sum, needs_out=False)

    return parser


def _load(args):
    from dataclasses import replace

    scenario = parse_scenario(args.scenario)
    overrides = {}
    if args.days is not None:
        overrides["horizon_days"] = args.days
    if args.reps is not None:
        overrides["replications"] = args.reps
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "contact_rate", None) is not None:
        overrides["contact_rate"] = args.contact_rate
    if overrides:
        scenario = replace(scenario, **overrides)
        scenario.validate()
    return scenario


def _cmd_simulate(args) -> int:
    scenario = _load(args)
    result = run_experiment(scenario)
    paths = emit_experiment(result, args.out, scenario_path=args.scenario)
    print(f"wrote {len(paths)} files to {args.out}")
    print(
        f"mean total over {len(result.replications)} replications: "
        f"{result.mean_total_kwh:.3f} kWh"
    )
    return EXIT_OK


def _cmd_compare(args) -> int:
    scenario = _load(args)
    comparison = compare_policies(scenario)
    paths = emit_comparison(comparison, args.out, scenario_path=args.scenario)
    auto_kwh = comparison.automated.mean_total_kwh
    staff_kwh = comparison.staff_controlled.mean_total_kwh
    print(f"wrote {len(paths)} files to {args.out}")
    print(f"automated:        {auto_kwh:.3f} kWh")
    print(f"staff_controlled: {staff_kwh:.3f} kWh")
    print(
        f"lower consumption: {comparison.lower_policy.value} "
        f"(diff {abs(comparison.mean_diff_kwh):.3f} kWh, "
        f"paired SE {comparison.paired_se_kwh:.3f} kWh)"
    )
    return EXIT_OK


def _cmd_proportions(args) -> int:
    import json

    scenario = _load(args)
    result = run_experiment(scenario)
    paths = emit_experiment(
        result, args.out, command="proportions", window=args.window,
        scenario_path=args.scenario,
    )
    report = json.loads((Path(args.out) / "proportions.json").read_text())
    fractions = report["fractions"]
    print(f"wrote {len(paths)} files to {args.out}")
    print(
        f"window {args.window}: base {fractions['base']:.3f}, "
        f"lights {fractions['lights']:.3f}, computers {fractions['computers']:.3f}"
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    scenario = _load(args)
    print(
        f"OK: {scenario.population_size} occupants, "
        f"{len(scenario.building.rooms)} rooms, "
        f"{scenario.horizon_days} days, policy {scenario.policy.kind.value}"
    )
    return EXIT_OK


def _cmd_summary(args) -> int:
    import json

    scenario = _load(args)
    print(json.dumps(building_summary(scenario.building), indent=2, sort_keys=True))
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "proportions": _cmd_proportions,
    "validate": _cmd_validate,
    "summary": _cmd_summary,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; bad flags are config errors here
        if exc.code not in (0, None):
            return EXIT_CONFIG
        return EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
