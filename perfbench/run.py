#!/usr/bin/env python3
"""officesim benchmark: one workload, one run.

    python3 perfbench/run.py --workload compare-social --seed 1 --seconds 50 --trace 0

Load model: a closed loop with one client. The CLI (`python -m
officesim.cli`, with PYTHONPATH set to this checkout's src/, not an
installed copy) is started as a real process, and the next command
starts only after the previous one has exited. The scenario YAML is
generated from --seed into a scratch directory under the checkout, and
the program sees only that file and a copy of the reference building.

--trace 0 runs the workload command until --seconds have passed, each
time after `officesim validate` (set-up), and reports the end-to-end
metrics as medians over the commands. --trace 1 runs the command
untraced and under perfbench/tracer.py in turn, at least twice each, and
reports the per-layer metrics. Every command's outputs are checked (see check_outputs); the
last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "officesim" / "data"
SCRATCH = ROOT / ".perfbench_runs"
TRACER = Path(__file__).resolve().parent / "tracer.py"

# A run must end within 180 s; stop starting commands well before.
RUN_BUDGET_S = 165.0
MIN_COMMANDS = 3
MIN_TRACED = 2
CSV_HEADER = ["minute", "base_w", "lights_w", "computers_w", "total_w"]


@dataclass
class Sample:
    """One CLI process: its cost and what it printed."""

    args: list[str]
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    problems: list[str]


def run_cli(argv: list[str], cwd: Path, env: dict, timeout_s: float) -> Sample:
    """Start one process and time it from spawn to exit; rusage from
    os.wait4 covers the process and the children it waited for."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    lock = threading.Lock()
    exited = False

    def kill_on_timeout():
        with lock:
            if not exited:
                os.kill(proc.pid, signal.SIGKILL)

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout_s, kill_on_timeout)
        timer.start()
        try:
            # Wait without reaping, so the pid cannot be reused before
            # the timer is disarmed.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            raise
        finally:
            with lock:
                exited = True
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    sample = Sample(
        args=argv[1:],
        code=code,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
        problems=[],
    )
    if code != 0:
        sample.problems.append(f"exit code {code}: {sample.stderr.strip()[-500:]}")
    return sample


# --------------------------------------------------------------- inputs


def write_inputs(work: Path, workload: spec.Workload, seed: int) -> dict:
    """Write the workload's scenario and building into `work`."""
    import yaml

    scenario = yaml.safe_load((DATA / "reference_scenario.yaml").read_text())
    shutil.copyfile(DATA / "reference_building.yaml", work / "building.yaml")
    scenario.update(
        building="building.yaml",
        seed=seed,
        replications=workload.replications,
        **workload.scenario_overrides,
    )
    (work / "scenario.yaml").write_text(yaml.safe_dump(scenario, sort_keys=False))
    building = yaml.safe_load((work / "building.yaml").read_text())
    return {
        "base_load_w": float(building["base_load_watts"]),
        "minutes": int(scenario["horizon_days"]) * 1440,
        "replications": workload.replications,
        "population": int(scenario["population"]["size"]),
        "start_day": int(scenario["start_day_of_week"]),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# --------------------------------------------------------------- checks


def tree_digest(out_dir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def check_minute_csv(path: Path, facts: dict) -> list[str]:
    """total = base + lights + computers on every row, base = base load.

    The tolerance covers the two formats the program writes: %.6f
    (4 roundings of 5e-7) and %.10g (relative 5e-10 per value)."""
    problems = []
    base_w = facts["base_load_w"]
    with path.open(newline="") as f:
        rows = csv.reader(f)
        if next(rows, None) != CSV_HEADER:
            return [f"{path.name}: header is not {CSV_HEADER}"]
        n = 0
        for n, row in enumerate(rows):
            minute, base, lights, computers, total = (float(v) for v in row)
            tol = 2.5e-6 + 1e-9 * (base + lights + computers + abs(total))
            if minute != n:
                problems.append(f"{path.name}: row {n} has minute {row[0]}")
            elif abs(total - (base + lights + computers)) > tol:
                problems.append(f"{path.name}: minute {n}: total_w != sum of categories")
            elif abs(base - base_w) > tol or min(lights, computers) < 0:
                problems.append(f"{path.name}: minute {n}: bad base_w or negative watts")
            if problems:
                return problems
        if n + 1 != facts["minutes"]:
            problems.append(f"{path.name}: {n + 1} rows, expected {facts['minutes']}")
    return problems


def working_hours_lights_kwh(path: Path, start_day: int) -> float:
    """Lights energy over weekdays 09:00-17:00 of a minute series."""
    watt_minutes = 0.0
    with path.open(newline="") as f:
        for row in csv.DictReader(f):
            minute = int(row["minute"])
            weekday = (start_day + minute // 1440) % 7 < 5
            if weekday and 9 * 60 <= minute % 1440 < 17 * 60:
                watt_minutes += float(row["lights_w"])
    return watt_minutes / 60.0 / 1000.0


def check_outputs(workload: spec.Workload, out_dir: Path, facts: dict) -> list[str]:
    """Checks that hold for any correct engine; no output hash is pinned."""
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return ["no manifest.json"]
    manifest = json.loads(manifest_path.read_text())
    problems = []
    listed = set()
    for entry in manifest["outputs"]:
        path = out_dir / entry["path"]
        listed.add(entry["path"])
        if not path.is_file():
            problems.append(f"manifest lists missing {entry['path']}")
            continue
        data = path.read_bytes()
        if len(data) != entry["bytes"] or hashlib.sha256(data).hexdigest() != entry["sha256"]:
            problems.append(f"{entry['path']} does not match its manifest entry")
    unlisted = set(tree_digest(out_dir)) - listed - {"manifest.json"}
    if unlisted:
        problems.append(f"files not in the manifest: {sorted(unlisted)}")
    if problems:
        return problems

    minute_csvs = sorted(p for p in out_dir.rglob("*minutes*.csv"))
    for path in minute_csvs:
        problems += check_minute_csv(path, facts)
    base_kwh = facts["base_load_w"] * facts["minutes"] / 60.0 / 1000.0
    reps = facts["replications"]
    if workload.command == "simulate":
        if len(list((out_dir / "reps").glob("rep_*_minutes.csv"))) != reps:
            problems.append(f"expected {reps} per-replication series")
        report = json.loads((out_dir / "proportions.json").read_text())
        if not _close(report["kwh"]["base"], base_kwh):
            problems.append(f"base kWh {report['kwh']['base']} != base load x minutes {base_kwh}")
    else:
        if len(minute_csvs) != 2:
            problems.append("expected one mean minute series per policy")
        report = json.loads((out_dir / "comparison.json").read_text())
        for name, arm in report["policies"].items():
            if not _close(arm["category_kwh_mean"]["base"], base_kwh):
                problems.append(f"{name}: base kWh != base load x minutes {base_kwh}")
            if arm["replications"] != reps:
                problems.append(f"{name}: {arm['replications']} replications, expected {reps}")
        if workload.name == "compare-social":
            # The reversal (acceptance criterion 6): with awareness raised by
            # heavy emailing, staff switching beats the sensors. Over many
            # replications it shows in total kWh (lower_consumption_policy),
            # but with the 2 replications run here lights left on overnight
            # swing the totals either way: on seed 20 the automated arm is
            # lower by 0.8 kWh with a paired SE of 21 kWh. On weekday working
            # hours staff lights are lower by ~30 kWh (6%) on every seed.
            auto, staff = (
                working_hours_lights_kwh(out_dir / f"{arm}_minutes_mean.csv", facts["start_day"])
                for arm in ("automated", "staff_controlled")
            )
            if not staff < auto:
                problems.append(f"no reversal: weekday working-hours lights staff "
                                f"{staff:.1f} kWh >= automated {auto:.1f} kWh")
            for name, arm in report["policies"].items():
                if arm["mean_final_awareness"] < 70:
                    problems.append(f"{name}: mean final awareness below 70")
    return problems


def check_against_reference(sample: Sample, out_dir: Path, reference: dict | None,
                            workload: spec.Workload, facts: dict) -> dict:
    """Check a command's outputs in full, or, when a reference tree from
    the same seed exists, require them to be byte-identical to it."""
    if sample.code != 0:
        return reference
    if reference is None:
        try:
            sample.problems += check_outputs(workload, out_dir, facts)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            sample.problems.append(f"malformed outputs: {exc!r}")
        if not sample.problems:
            reference = tree_digest(out_dir)
    elif tree_digest(out_dir) != reference:
        sample.problems.append("outputs differ from the first run with the same seed")
    shutil.rmtree(out_dir, ignore_errors=True)
    return reference


# ------------------------------------------------------------- metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def workload_argv(workload: spec.Workload, out: str) -> list[str]:
    return [workload.command, "--scenario", "scenario.yaml", *workload.extra_args, "--out", out]


def remaining(started: float) -> float:
    return RUN_BUDGET_S - (time.perf_counter() - started)


def closed_loop(run_one, min_rounds: int, seconds: float, started: float) -> None:
    """Call run_one(i) back to back until `seconds` have passed and at
    least `min_rounds` rounds have run; stop early rather than overrun
    the budget."""
    durations: list[float] = []
    loop_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_one(len(durations))
        durations.append(time.perf_counter() - t0)
        typical = statistics.median(durations)
        if remaining(started) < typical + 5.0:
            return
        if len(durations) >= min_rounds and time.perf_counter() - loop_start + typical > seconds:
            return


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "officesim.cli", *args]


def timed_run(workload, facts, work, env, seconds, started) -> tuple[dict, list[Sample]]:
    """The workload command in a closed loop, with set-up repeats
    (`officesim validate`) before each command, so that drift in the
    host's speed over the run reaches setup_s as it reaches wall_s."""
    setup: list[Sample] = []
    samples: list[Sample] = []
    reference = None

    def run_one(i):
        nonlocal reference
        for _ in range(spec.SETUP_PER_COMMAND):
            s = run_cli(cli_argv("validate", "--scenario", "scenario.yaml"), work, env,
                        max(remaining(started), 1.0))
            if s.code == 0 and not s.stdout.startswith(f"OK: {facts['population']} occupants"):
                s.problems.append(f"unexpected validate output: {s.stdout.strip()}")
            setup.append(s)
        out = f"out-{i}"
        s = run_cli(cli_argv(*workload_argv(workload, out)), work, env,
                    max(remaining(started), 1.0))
        reference = check_against_reference(s, work / out, reference, workload, facts)
        samples.append(s)

    closed_loop(run_one, MIN_COMMANDS, seconds, started)
    stats = {
        name: quartiles([getattr(x, name) for x in samples])
        for name in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    stats["setup_s"] = quartiles([x.wall_s for x in setup])
    attempted = samples + setup
    failed = sum(1 for x in attempted if x.problems)
    metrics = {name: q[1] for name, q in stats.items()}
    metrics["success_ratio"] = 1.0 - failed / len(attempted)
    detail = {
        "quartiles": stats,
        "commands": len(samples),
        "setup_commands": len(setup),
        "fail_ratio": failed / len(attempted),
    }
    return {"metrics": metrics, "detail": detail}, attempted


def layer_values(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command."""
    stats = trace["stats"]
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "outcomes": 0}

    def get(name):
        return stats.get(name, empty)

    def ratio(name):
        st = get(name)
        return st["outcomes"] / st["calls"] if st["calls"] else 0.0

    durations = get("engine.run_replication").get("durations_s") or [0.0]
    deciles = (statistics.quantiles(durations, n=10, method="inclusive")
               if len(durations) > 1 else durations * 9)
    values = {}
    for name in spec.PER_LAYER:
        prefix, _, field = name.rpartition(".")
        if field in ("calls", "busy_s"):
            values[name] = get(prefix)[field]
    values.update({
        "occupants.step_occupant.event_ratio": ratio("occupants.step_occupant"),
        "appliances.step_automated.switch_ratio": ratio("appliances.step_automated"),
        "appliances.manual_exit_decision.off_ratio": ratio("appliances.manual_exit_decision"),
        "network.contact_step.contacts": get("network.contact_step")["outcomes"],
        "engine.run_replication.p50_s": deciles[4],
        "engine.run_replication.p90_s": deciles[8],
        "engine.self_s": get("engine.run_replication")["self_s"],
        "engine.run_experiment.self_s": get("engine.run_experiment")["self_s"],
        "scenario_io.emit.bytes": get("scenario_io.emit")["outcomes"],
    })
    return values


def traced_run(workload, facts, work, env, seconds, started) -> tuple[dict, list[Sample]]:
    """Untraced and traced commands in turn, all with the same seed. The
    first untraced command is checked in full and every later one must
    match it byte for byte."""
    untraced: list[Sample] = []
    traced: list[Sample] = []
    per_command, missing = [], set()
    reference = None

    def run_one(i):
        nonlocal reference
        out = f"out-ref-{i}"
        s = run_cli(cli_argv(*workload_argv(workload, out)), work, env,
                    max(remaining(started), 1.0))
        reference = check_against_reference(s, work / out, reference, workload, facts)
        untraced.append(s)

        out, trace_path = f"out-{i}", work / f"trace-{i}.json"
        s = run_cli([sys.executable, str(TRACER), trace_path.name,
                     *workload_argv(workload, out)], work, env, max(remaining(started), 1.0))
        traced.append(s)
        if reference is None and s.code == 0:
            s.problems.append("no untraced reference to compare with")
        reference = check_against_reference(s, work / out, reference, workload, facts)
        if not trace_path.is_file():
            s.problems.append("tracer wrote no trace")
            return
        trace = json.loads(trace_path.read_text())
        if not trace["restored"]:
            s.problems.append("tracing wrappers did not restore the originals")
        missing.update(trace["missing"])
        per_command.append(layer_values(trace))

    closed_loop(run_one, MIN_TRACED, seconds, started)
    metrics = {}
    counts_repeat = True
    for name, (unit, _, _) in spec.PER_LAYER.items():
        if name == "trace.overhead_s":
            continue
        values = [v[name] for v in per_command] or [0.0]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            counts_repeat &= all(v == values[0] for v in values)
    metrics["trace.overhead_s"] = (statistics.median(x.wall_s for x in traced)
                                   - statistics.median(x.wall_s for x in untraced))
    attempted = untraced + traced
    if not counts_repeat:
        attempted[-1].problems.append("per-layer counts differ between traced runs")
    detail = {
        "traced_commands": len(traced),
        "untraced_wall_s": [x.wall_s for x in untraced],
        "traced_wall_s": [x.wall_s for x in traced],
        "per_command": per_command,
        "counts_repeat": counts_repeat,
        "unwrapped_missing": sorted(missing),
    }
    return {"metrics": metrics, "detail": detail}, attempted


# ------------------------------------------------------------- machine


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (a
    checkout that is not a repository must not pick up a parent's)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_info(work: Path, env: dict) -> dict:
    """Machine and build facts, as seen by the interpreter the CLI runs in."""
    probe = (
        "import json, sys, numpy, yaml, officesim; print(json.dumps({"
        "'python': sys.version.split()[0], 'numpy': numpy.__version__, "
        "'pyyaml': yaml.__version__, 'officesim_file': officesim.__file__}))"
    )
    s = run_cli([sys.executable, "-c", probe], work, env, 60.0)
    info = json.loads(s.stdout) if s.code == 0 else {"officesim_file": None}
    imported = Path(info["officesim_file"] or "/").resolve()
    info["officesim_file"] = (
        str(imported.relative_to(ROOT)) if imported.is_relative_to(SRC) else str(imported)
    )
    sources = sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for p in sources:
        digest.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    info.update(
        nproc=len(os.sched_getaffinity(0)),
        cpu_model=_cpu_model(),
        git_commit=_git_commit(),
        src_sha256=digest.hexdigest(),
        measured_code="the checkout's src/ via PYTHONPATH, not an installed copy",
    )
    return info


# ----------------------------------------------------------------- main


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", help="also write the full result set here (JSON)")
    return p.parse_args(argv)


def print_summary(workload, seed, trace, result, attempted, machine):
    failed = sum(1 for x in attempted if x.problems)
    print(f"workload {workload.name}  seed {seed}  trace {trace}  "
          f"processes {len(attempted)}  failed {failed}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for x in attempted:
        command = next((a for a in x.args if a in ("simulate", "compare", "validate")), "")
        traced = "traced " if str(TRACER) in x.args else ""
        for problem in x.problems:
            print(f"  FAIL {traced}{command}: {problem}")
    if trace:
        for name in result["detail"]["unwrapped_missing"]:
            print(f"  not wrapped, no such function: {name}")
        for name, value in result["metrics"].items():
            print(f"  {name:48s} {value:.6g} {spec.PER_LAYER[name][0]}")
        return
    q = result["detail"]["quartiles"]
    for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s"):
        p25, p50, p75 = q[name]
        unit = spec.END_TO_END[name][0]
        n = result["detail"]["setup_commands" if name == "setup_s" else "commands"]
        print(f"  {name:12s} {p50:10.4f} {unit:3s} (p25 {p25:.4f}, p75 {p75:.4f}, n={n})")
    print(f"  {'fail_ratio':12s} {result['detail']['fail_ratio']:10.4f} ratio "
          f"({failed} of {len(attempted)})")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "officesim" / "cli.py").is_file() or not DATA.is_dir():
        print(f"error: no officesim sources under {SRC}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so the running command is killed and
    # the scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.perf_counter()
    workload = next(w for w in spec.WORKLOADS if w.name == args.workload)
    work = SCRATCH / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        facts = write_inputs(work, workload, args.seed)
        env = child_env()
        machine = machine_info(work, env)
        run = traced_run if args.trace else timed_run
        result, attempted = run(workload, facts, work, env, args.seconds, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is using it

    if not machine["officesim_file"].startswith("src/"):
        attempted[0].problems.append(f"officesim imported from {machine['officesim_file']}")
    failed = sum(1 for x in attempted if x.problems)
    print_summary(workload, args.seed, args.trace, result, attempted, machine)
    if args.report:
        Path(args.report).write_text(json.dumps({
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": machine,
            "metrics": result["metrics"],
            "detail": result["detail"],
            "processes": [
                {"args": x.args, "code": x.code, "wall_s": x.wall_s, "cpu_s": x.cpu_s,
                 "peak_rss_mb": x.peak_rss_mb, "problems": x.problems}
                for x in attempted
            ],
        }, indent=2, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {
            name: {"value": value,
                   "unit": (spec.PER_LAYER if args.trace else spec.END_TO_END)[name][0]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
