"""The scenario, its file format, window presets, CSV/report emission,
and the run manifest.

``Scenario`` lives here, with the parser and serializer of its file, so
that checking a scenario file loads no simulation code: this module
names the engine's result types only for annotations.

Scenario files are YAML and reference a building file by path (relative
paths are resolved against the scenario file's directory):

    building: reference_building.yaml
    seed: 20100904
    horizon_days: 7
    start_day_of_week: 0          # 0 = Monday
    replications: 20
    lighting_policy: automated    # automated | staff_controlled
    automated_off_delay_minutes: 20
    population:
      size: 200
      schedule_mix:  {early_bird: 0.08, timetable_complier: 0.53,
                      flexible_worker: 0.39}
      awareness_mix: {environment_champion: 0.01, energy_saver: 0.08,
                      regular_user: 0.31, big_user: 0.60}
    social:
      contact_rate: 1.0
      awareness_delta: 1.0
      small_world_k: 4
      small_world_beta: 0.1
    behavior:
      leave_hazard_per_minute: 0.01
      temporary_leave_fraction: 0.7
      temporary_leave_min: 5
      temporary_leave_max: 19
      long_leave_min: 20
      long_leave_max: 90
      other_room_hazard_per_minute: 0.005
      other_room_dwell_min: 1
      other_room_dwell_max: 10
      computer_standby_prob_per_minute: 0.05
      computer_off_threshold: 50
      computer_off_floor_prob: 0.05
      weekend_presence_prob: 0.02

`building`, `horizon_days` and `population.size` are required; every
other field falls back to the defaults shown by `serialize_scenario`.
All emitted files are deterministic for a given result: fixed float
formatting, LF line endings, sorted JSON keys, no timestamps.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import compress, count
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, sha256
from .accounting import (
    EnergyLedger,
    category_proportions_masked,
    half_hour_bins,
    masked_sum,
)
from .appliances import LightingPolicy, PolicyKind, computer_apply_event
from .building import (
    dump_yaml,
    load_building_file,
    read_field,
    read_section,
    read_yaml,
    reject_unknown,
    serialize_building,
)
from .errors import ParseError, ValidationError
from .occupants import (
    MINUTES_PER_DAY,
    POWER_EVENTS,
    BehaviorParams,
    PopulationMix,
    ScheduleClass,
    Stereotype,
    seat_table,
)

if TYPE_CHECKING:
    from .building import BuildingModel
    from .engine import ExperimentResult, PolicyComparison

WINDOW_PRESETS = ("all", "weekday-day", "night", "weekend", "night-weekend")

# ISO weekday labels, index 0 = Monday (matching start_day_of_week).
DAY_NAMES = (
    "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday",
)


@dataclass(frozen=True)
class Scenario:
    """Everything a run depends on; the unit of experiment."""

    building: BuildingModel
    population_size: int
    mix: PopulationMix = field(default_factory=PopulationMix)
    policy: LightingPolicy = field(default_factory=LightingPolicy.automated)
    contact_rate: float = 1.0
    awareness_delta: float = 1.0
    small_world_k: int = 4
    small_world_beta: float = 0.1
    behavior: BehaviorParams = field(default_factory=BehaviorParams)
    horizon_days: int = 7
    start_day_of_week: int = 0
    replications: int = 20
    master_seed: int = 1
    building_path: str | None = None

    def validate(self) -> None:
        problems = []
        if self.horizon_days < 1:
            problems.append(f"horizon_days must be >= 1, got {self.horizon_days}")
        if self.replications < 1:
            problems.append(f"replications must be >= 1, got {self.replications}")
        if self.population_size < 0:
            problems.append("population size must be >= 0")
        if self.population_size > self.building.total_desk_capacity():
            problems.append(
                f"population size {self.population_size} exceeds desk capacity "
                f"{self.building.total_desk_capacity()}"
            )
        if not self.contact_rate >= 0:
            problems.append(f"contact_rate must be >= 0, got {self.contact_rate}")
        if not self.awareness_delta >= 0:
            problems.append(
                f"awareness_delta must be >= 0, got {self.awareness_delta}"
            )
        if self.small_world_k < 2 or self.small_world_k % 2:
            problems.append(
                f"small_world_k must be even and >= 2, got {self.small_world_k}"
            )
        if not 0.0 <= self.small_world_beta <= 1.0:
            problems.append(
                f"small_world_beta must be in [0, 1], got {self.small_world_beta}"
            )
        if not 0 <= self.start_day_of_week <= 6:
            problems.append(
                f"start_day_of_week must be in 0..6, got {self.start_day_of_week}"
            )
        if self.policy.is_automated and self.policy.off_delay_minutes < 0:
            problems.append("automated off delay must be >= 0")
        if problems:
            raise ValidationError(problems)
        self.mix.validate()
        self.behavior.validate()

    @property
    def horizon_minutes(self) -> int:
        return self.horizon_days * MINUTES_PER_DAY

    @cached_property
    def base_load_w(self) -> array:
        """The base-load series of a run, one sample per minute; built on
        first use and shared by the ledgers of every run of the scenario."""
        return array("d", (self.building.base_load_watts,)) * self.horizon_minutes

    @cached_property
    def seats(self) -> tuple[tuple[str, ...], tuple[str | None, ...]]:
        """``occupants.seat_table`` for the scenario's population: the desks
        do not depend on the seed. Built on first use, shared by every run."""
        return seat_table(self.building, self.population_size)

    @cached_property
    def computer_levels(self) -> tuple[int, dict, dict]:
        """``(per_watt, watts, units)``: per computer, in catalog order, its
        wattage by power code (``occupants.POWER_*``) as written, and as a
        whole count of ``1 / per_watt`` W, the wattages' common power-of-two
        denominator. Built on first use, shared by every run."""
        watts = {
            cid: tuple(computer_apply_event(s, s.watts_off, k) for k in POWER_EVENTS)
            for cid, s in self.building.computers.items()
        }
        ratios = {cid: [w.as_integer_ratio() for w in ws] for cid, ws in watts.items()}
        per_watt = max((d for rs in ratios.values() for _, d in rs), default=1)
        units = {
            cid: tuple(n * (per_watt // d) for n, d in rs) for cid, rs in ratios.items()
        }
        return per_watt, watts, units


# Field name -> int or float, from the annotations of BehaviorParams.
_BEHAVIOR_FIELDS = {
    name: int if f.type in ("int", int) else float
    for name, f in BehaviorParams.__dataclass_fields__.items()
}
# Field name -> default; its type is the field's type.
_SOCIAL_FIELDS = {
    "contact_rate": 1.0,
    "awareness_delta": 1.0,
    "small_world_k": 4,
    "small_world_beta": 0.1,
}
_TOP_LEVEL_FIELDS = frozenset(
    {
        "building",
        "seed",
        "horizon_days",
        "start_day_of_week",
        "replications",
        "lighting_policy",
        "automated_off_delay_minutes",
        "population",
        "social",
        "behavior",
    }
)


def parse_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file, applying documented defaults."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario_text(text, base_dir=path.parent, source=str(path))


def parse_scenario_text(
    text: str, base_dir: str | Path = ".", source: str = "<string>"
) -> Scenario:
    raw = read_yaml(text, source)
    if not isinstance(raw, dict):
        raise ParseError(f"{source}: scenario file must be a mapping")

    problems: list[str] = []
    reject_unknown(raw, _TOP_LEVEL_FIELDS, problems)

    building_ref = raw.get("building")
    if building_ref is None:
        problems.append("missing required field 'building'")
    elif not isinstance(building_ref, str):
        problems.append(f"field 'building' must be a path, got {building_ref!r}")
    horizon_days = read_field(raw, "horizon_days", int, problems)
    start_day_of_week = read_field(raw, "start_day_of_week", int, problems, default=0)
    replications = read_field(raw, "replications", int, problems, default=20)
    master_seed = read_field(raw, "seed", int, problems, default=1)

    population = read_section(raw, "population", problems)
    size = read_field(population, "size", int, problems, prefix="population.")
    schedule_mix = _parse_mix(population, "schedule_mix", ScheduleClass, problems)
    awareness_mix = _parse_mix(population, "awareness_mix", Stereotype, problems)

    policy_name = raw.get("lighting_policy", PolicyKind.AUTOMATED.value)
    try:
        policy_kind = PolicyKind(policy_name)
    except ValueError:
        problems.append(
            f"lighting_policy must be one of "
            f"{[k.value for k in PolicyKind]}, got {policy_name!r}"
        )
        policy_kind = PolicyKind.AUTOMATED
    off_delay = read_field(raw, "automated_off_delay_minutes", int, problems, default=20)

    behavior_raw = read_section(raw, "behavior", problems)
    reject_unknown(behavior_raw, _BEHAVIOR_FIELDS, problems, "behavior.")
    behavior_values = {
        key: read_field(
            behavior_raw, key, kind, problems, default=None, prefix="behavior."
        )
        for key, kind in _BEHAVIOR_FIELDS.items()
    }

    social = read_section(raw, "social", problems)
    reject_unknown(social, _SOCIAL_FIELDS, problems, "social.")
    social_values = {
        key: read_field(social, key, type(default), problems, default=default,
                        prefix="social.")
        for key, default in _SOCIAL_FIELDS.items()
    }

    if problems:
        raise ValidationError([f"{source}: {p}" for p in problems])

    building_path = Path(base_dir) / building_ref
    building = load_building_file(building_path)
    scenario = Scenario(
        building=building,
        population_size=size,
        mix=PopulationMix(schedule=schedule_mix, awareness=awareness_mix),
        policy=LightingPolicy(policy_kind, off_delay),
        contact_rate=float(social_values["contact_rate"]),
        awareness_delta=float(social_values["awareness_delta"]),
        small_world_k=social_values["small_world_k"],
        small_world_beta=float(social_values["small_world_beta"]),
        behavior=BehaviorParams(
            **{k: v for k, v in behavior_values.items() if v is not None}
        ),
        horizon_days=horizon_days,
        start_day_of_week=start_day_of_week,
        replications=replications,
        master_seed=master_seed,
        building_path=str(building_path.resolve()),
    )
    try:
        scenario.validate()
    except ValidationError as exc:
        raise ValidationError([f"{source}: {p}" for p in exc.problems]) from exc
    return scenario


def _parse_mix(population, key, enum_cls, problems):
    if population.get(key) is None:
        return dict(
            PopulationMix().schedule
            if enum_cls is ScheduleClass
            else PopulationMix().awareness
        )
    where = f"population.{key}"
    section = read_section(population, key, problems, prefix="population.")
    out = {}
    valid = {member.value: member for member in enum_cls}
    for name in section:
        member = valid.get(str(name))
        if member is None:
            problems.append(f"{where} has unknown entry '{name}'")
            continue
        out[member] = float(read_field(section, name, float, problems, prefix=f"{where}."))
    for member in enum_cls:
        out.setdefault(member, 0.0)
    return out


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario back to the file format (building by path)."""
    doc = {
        "building": scenario.building_path or "building.yaml",
        "seed": scenario.master_seed,
        "horizon_days": scenario.horizon_days,
        "start_day_of_week": scenario.start_day_of_week,
        "replications": scenario.replications,
        "lighting_policy": scenario.policy.kind.value,
        "automated_off_delay_minutes": scenario.policy.off_delay_minutes,
        "population": {
            "size": scenario.population_size,
            "schedule_mix": {
                c.value: scenario.mix.schedule.get(c, 0.0) for c in ScheduleClass
            },
            "awareness_mix": {
                s.value: scenario.mix.awareness.get(s, 0.0) for s in Stereotype
            },
        },
        "social": {
            "contact_rate": scenario.contact_rate,
            "awareness_delta": scenario.awareness_delta,
            "small_world_k": scenario.small_world_k,
            "small_world_beta": scenario.small_world_beta,
        },
        "behavior": asdict(scenario.behavior),
    }
    return dump_yaml(doc)


def scenario_fingerprint(scenario: Scenario) -> str:
    """Content hash covering the scenario and its building."""
    payload = serialize_scenario(scenario) + serialize_building(scenario.building)
    return sha256(payload.encode("utf-8")).hexdigest()


def window_mask(
    preset: str, horizon_days: int, start_day_of_week: int = 0
) -> list[bool]:
    """Minute mask for a named analysis window: a list of bools, one per
    minute of the horizon.

    weekday-day: Mon-Fri 09:00-17:00; night: 19:00-07:00 every day;
    weekend: all of Saturday and Sunday; night-weekend: their union.
    """
    if preset not in WINDOW_PRESETS:
        raise ValidationError(
            f"unknown window '{preset}'; expected one of {WINDOW_PRESETS}"
        )
    whole = [True] * MINUTES_PER_DAY
    none = [False] * MINUTES_PER_DAY
    night = [True] * (7 * 60) + [False] * (12 * 60) + [True] * (5 * 60)
    office = [False] * (9 * 60) + [True] * (8 * 60) + [False] * (7 * 60)
    weekday_day, weekend_day = {  # preset -> (Mon-Fri, Sat-Sun)
        "all": (whole, whole),
        "weekday-day": (office, none),
        "night": (night, night),
        "weekend": (none, whole),
        "night-weekend": (night, whole),
    }[preset]
    mask: list[bool] = []
    for day in range(horizon_days):
        mask += weekend_day if (start_day_of_week + day) % 7 >= 5 else weekday_day
    return mask


@dataclass(frozen=True)
class RunManifest:
    artifact_version: str
    command: str
    scenario_path: str | None
    scenario_sha256: str
    master_seed: int
    replications: int
    horizon_days: int
    start_day: str
    outputs: tuple[dict, ...]  # {"path": relative, "sha256": ..., "bytes": ...}


def _fmt_watts(value: float) -> str:
    return f"{value:.10g}"


def _fmt_float(value: float) -> str:
    return f"{value:.6f}"


# Minutes per chunk of a minute CSV: small next to the run's series.
_CHUNK_ROWS = 1024


def _write_atomic(path: Path, chunks) -> tuple[Path, str, int]:
    """Write the text ``chunks`` to ``path`` through a temporary file,
    hashing each as it is written; returns (path, sha256, bytes)."""
    digest = sha256()
    size = 0
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                data = chunk.encode("utf-8")
                digest.update(data)
                f.write(data)
                size += len(data)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)
    return path, digest.hexdigest(), size


def _run_starts(columns, n: int) -> list[int]:
    """Indices past 0 where any of the ``array('d')`` columns, n samples
    each, has a bit pattern other than the one before.

    Read as one integer, a column XOR itself shifted down one sample has
    8-byte word i zero exactly where sample i + 1 repeats sample i; OR-ed
    over the columns, the nonzero words but the last are the run starts.
    """
    changed = 0
    for column in columns:
        bits = int.from_bytes(column, "little")
        changed |= bits ^ (bits >> 64)
    words = memoryview(changed.to_bytes(8 * n, "little")).cast("Q")[:-1]
    return list(compress(count(1), words))


def _minute_csv_chunks(ledger: EnergyLedger, fmt):
    """The minute series as CSV text, in chunks of ``_CHUNK_ROWS`` minutes
    (the header goes with the first), formatting each constant run of a
    chunk once.

    A run ends where any column's bit pattern changes, so ``-0.0`` and
    ``0.0`` stay apart and NaNs do not split runs the way ``==`` would.
    The total is a function of the other three columns, so their runs
    are its runs.
    """
    header = "minute,base_w,lights_w,computers_w,total_w\n"
    n = len(ledger)
    if not n:
        yield header
        return
    columns = (ledger.base_w, ledger.lights_w, ledger.computers_w)
    for lo in range(0, n, _CHUNK_ROWS):
        chunk = base_w, lights_w, computers_w = [c[lo:lo + _CHUNK_ROWS] for c in columns]
        # The runs of the chunk; the first may have begun before it.
        cuts = [0, *_run_starts(chunk, len(base_w)), len(base_w)]
        rows = [header] if lo == 0 else []
        for start, end in zip(cuts, cuts[1:]):
            base = base_w[start]
            lights = lights_w[start]
            computers = computers_w[start]
            total = base + lights + computers
            suffix = f",{fmt(base)},{fmt(lights)},{fmt(computers)},{fmt(total)}\n"
            rows += [f"{m}{suffix}" for m in range(lo + start, lo + end)]
        yield "".join(rows)


def _half_hourly_csv(ledger: EnergyLedger) -> str:
    parts = ["bin_start,base_kwh,lights_kwh,computers_kwh,total_kwh\n"]
    for b in half_hour_bins(ledger):
        parts.append(
            f"{b.start_minute},{b.base_kwh:.9f},{b.lights_kwh:.9f},"
            f"{b.computers_kwh:.9f},{b.total_kwh:.9f}\n"
        )
    return "".join(parts)


def _proportions_payload(
    ledger: EnergyLedger, preset: str, horizon_days: int, start_dow: int
) -> dict:
    mask = window_mask(preset, horizon_days, start_dow)
    base, lights, computers = category_proportions_masked(ledger, mask)
    minutes = mask.count(True)
    return {
        "window": preset,
        "window_minutes": minutes,
        "horizon_days": horizon_days,
        "start_day": DAY_NAMES[start_dow],
        "fractions": {"base": base, "lights": lights, "computers": computers},
        "kwh": {
            "base": masked_sum(ledger.base_w, mask) / 60.0 / 1000.0,
            "lights": masked_sum(ledger.lights_w, mask) / 60.0 / 1000.0,
            "computers": masked_sum(ledger.computers_w, mask) / 60.0 / 1000.0,
        },
    }


def _json_text(payload) -> str:
    import json

    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _mean_ledger(result: ExperimentResult) -> EnergyLedger:
    return EnergyLedger(
        result.mean_base_w, result.mean_lights_w, result.mean_computers_w
    )


def emit_experiment(
    result: ExperimentResult,
    out_dir: str | Path,
    command: str = "simulate",
    window: str = "all",
    scenario_path: str | None = None,
) -> list[Path]:
    """Write the standard file set for one experiment run.

    Produces a mean minute series, mean half-hourly series, a category
    proportion report, one minute series per replication, and the run
    manifest. Each file is written as it is formatted, the manifest last.
    Byte-identical for identical results.
    """
    out = Path(out_dir)
    (out / "reps").mkdir(parents=True, exist_ok=True)
    scenario = result.scenario
    mean_ledger = _mean_ledger(result)
    proportions = _proportions_payload(
        mean_ledger, window, scenario.horizon_days, scenario.start_day_of_week
    )
    written = [
        _write_atomic(
            out / "minutes_mean.csv", _minute_csv_chunks(mean_ledger, _fmt_float)
        ),
        _write_atomic(out / "half_hourly_mean.csv", (_half_hourly_csv(mean_ledger),)),
        _write_atomic(out / "proportions.json", (_json_text(proportions),)),
    ]
    for i, rep in enumerate(result.replications):
        written.append(
            _write_atomic(
                out / "reps" / f"rep_{i:03d}_minutes.csv",
                _minute_csv_chunks(rep.ledger, _fmt_watts),
            )
        )
    _emit_manifest(out, written, result, command, scenario_path)
    return [path for path, _, _ in written] + [out / "manifest.json"]


def emit_comparison(
    comparison: PolicyComparison,
    out_dir: str | Path,
    scenario_path: str | None = None,
) -> list[Path]:
    """Write the policy-comparison report plus per-policy mean series,
    each file as it is formatted, and the manifest last."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    automated = comparison.automated
    staff = comparison.staff_controlled
    payload = {
        "policies": {
            "automated": _experiment_payload(automated),
            "staff_controlled": _experiment_payload(staff),
        },
        "paired_diff_kwh": comparison.paired_diff_kwh.tolist(),
        "mean_diff_kwh": comparison.mean_diff_kwh,
        "paired_se_kwh": comparison.paired_se_kwh,
        "lower_consumption_policy": comparison.lower_policy.value,
    }
    written = [
        _write_atomic(out / "comparison.json", (_json_text(payload),)),
        _write_atomic(
            out / "automated_minutes_mean.csv",
            _minute_csv_chunks(_mean_ledger(automated), _fmt_float),
        ),
        _write_atomic(
            out / "staff_controlled_minutes_mean.csv",
            _minute_csv_chunks(_mean_ledger(staff), _fmt_float),
        ),
    ]
    _emit_manifest(out, written, automated, "compare", scenario_path)
    return [path for path, _, _ in written] + [out / "manifest.json"]


def _experiment_payload(result: ExperimentResult) -> dict:
    return {
        "mean_total_kwh": result.mean_total_kwh,
        "std_total_kwh": result.std_total_kwh,
        "total_kwh_per_rep": result.total_kwh_per_rep.tolist(),
        "category_kwh_mean": result.category_kwh_mean,
        "category_kwh_std": result.category_kwh_std,
        "mean_final_awareness": result.mean_final_awareness(),
        "replications": len(result.replications),
    }


def _emit_manifest(
    out: Path,
    written: list[tuple[Path, str, int]],
    result: ExperimentResult,
    command: str,
    scenario_path: str | None,
) -> None:
    """Write manifest.json from the (path, sha256, bytes) of each output."""
    scenario = result.scenario
    outputs = tuple(
        {"path": str(path.relative_to(out)), "sha256": digest, "bytes": size}
        for path, digest, size in sorted(written)
    )
    manifest = RunManifest(
        artifact_version=__version__,
        command=command,
        scenario_path=scenario_path,
        scenario_sha256=scenario_fingerprint(scenario),
        master_seed=result.master_seed,
        replications=len(result.replications),
        horizon_days=scenario.horizon_days,
        start_day=DAY_NAMES[scenario.start_day_of_week],
        outputs=outputs,
    )
    _write_atomic(out / "manifest.json", (_json_text(asdict(manifest)),))
