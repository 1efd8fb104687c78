"""The scenario, its file format, window presets, CSV/report emission,
and the run manifest.

``Scenario`` lives here, with the parser and serializer of its file, so
that checking a scenario file loads no simulation code: this module
names the engine's result types only for annotations.

A scenario file is YAML and names its building file by path, relative
to the scenario file's directory. README's "File formats" section
documents it; ``_FIELDS`` lists its fields, and drives reading, type
checks, unknown-field rejection and serialization. A field left out
takes the default of the attribute it fills.

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
from typing import TYPE_CHECKING, NamedTuple

from . import __version__, sha256
from .accounting import (
    EnergyLedger,
    category_proportions_masked,
    half_hour_bins,
    masked_sum,
)
from .appliances import LightingPolicy, PolicyKind, computer_apply_event
from .building import (
    ABSENT,
    Choice,
    Field,
    Number,
    dump_yaml,
    load_building_file,
    read_fields,
    read_section,
    read_yaml,
    serialize_building,
    write_fields,
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
        """Check the bounds of every field, for a scenario read from a
        file, built in code or given command-line overrides."""
        capacity = self.building.total_desk_capacity()
        bounds = (
            (self.horizon_days >= 1,
             f"horizon_days must be >= 1, got {self.horizon_days}"),
            (self.replications >= 1,
             f"replications must be >= 1, got {self.replications}"),
            (self.population_size >= 0, "population size must be >= 0"),
            (self.population_size <= capacity,
             f"population size {self.population_size} exceeds desk capacity "
             f"{capacity}"),
            (self.contact_rate >= 0,
             f"contact_rate must be >= 0, got {self.contact_rate}"),
            (self.awareness_delta >= 0,
             f"awareness_delta must be >= 0, got {self.awareness_delta}"),
            (self.small_world_k >= 2 and not self.small_world_k % 2,
             f"small_world_k must be even and >= 2, got {self.small_world_k}"),
            (0.0 <= self.small_world_beta <= 1.0,
             f"small_world_beta must be in [0, 1], got {self.small_world_beta}"),
            (0 <= self.start_day_of_week <= 6,
             f"start_day_of_week must be in 0..6, got {self.start_day_of_week}"),
            # compare runs an automated arm from the delay whatever the policy
            (self.policy.off_delay_minutes >= 0, "automated off delay must be >= 0"),
        )
        problems = [message for ok, message in bounds if not ok]
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


_INT = Number(int)
_FLOAT = Number(float, coerce=True)
_FRACTION = Number(float, coerce=True, required=True)


class _Mix(NamedTuple):
    """A mapping from ``enum`` values to fractions, read as floats; a
    member left out has fraction 0."""

    enum: type

    def read(self, section, key, prefix, problems):
        if section.get(key) is None:
            return ABSENT
        where = prefix + key
        entries = read_section(section, key, problems, prefix)
        valid = {member.value: member for member in self.enum}
        mix = {}
        for name in entries:
            member = valid.get(str(name))
            if member is None:
                problems.append(f"{where} has unknown entry '{name}'")
                continue
            mix[member] = _FRACTION.read(entries, name, f"{where}.", problems)
        for member in self.enum:
            mix.setdefault(member, 0.0)
        return mix

    def write(self, value):
        return {member.value: value.get(member, 0.0) for member in self.enum}


class _Path:
    """A path, as a non-empty string (required); a scenario built without
    one is written with ``building.yaml``."""

    def read(self, section, key, prefix, problems):
        value = section.get(key)
        if value is None:
            problems.append(f"missing required field '{prefix}{key}'")
        elif not isinstance(value, str) or not value:
            problems.append(f"field '{prefix}{key}' must be a path, got {value!r}")
        else:
            return value
        return ABSENT

    def write(self, value):
        return value or "building.yaml"


# The scenario file's fields, in file order: key path, ``Scenario``
# attribute (through its policy, mix and behavior records), kind. Social
# rates and mix fractions are read as floats, behavior numbers as written.
_FIELDS = (
    Field("building", "building_path", _Path()),
    Field("seed", "master_seed", _INT),
    Field("horizon_days", "horizon_days", Number(int, required=True)),
    Field("start_day_of_week", "start_day_of_week", _INT),
    Field("replications", "replications", _INT),
    Field("lighting_policy", "policy.kind", Choice(PolicyKind)),
    Field("automated_off_delay_minutes", "policy.off_delay_minutes", _INT),
    Field("population.size", "population_size", Number(int, required=True)),
    Field("population.schedule_mix", "mix.schedule", _Mix(ScheduleClass)),
    Field("population.awareness_mix", "mix.awareness", _Mix(Stereotype)),
    Field("social.contact_rate", "contact_rate", _FLOAT),
    Field("social.awareness_delta", "awareness_delta", _FLOAT),
    Field("social.small_world_k", "small_world_k", _INT),
    Field("social.small_world_beta", "small_world_beta", _FLOAT),
    *(
        Field(f"behavior.{name}", f"behavior.{name}",
              _INT if f.type in ("int", int) else Number(float))
        for name, f in BehaviorParams.__dataclass_fields__.items()
    ),
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
    # unknown population fields stay accepted: rejecting them would fail
    # scenario files that load today
    values = read_fields(raw, _FIELDS, problems, lenient=("population",))
    if problems:
        raise ValidationError([f"{source}: {p}" for p in problems])

    building_path = Path(base_dir) / values.pop("building_path")
    scenario = Scenario(
        building=load_building_file(building_path),
        building_path=str(building_path.resolve()),
        policy=LightingPolicy.automated()._replace(**values.pop("policy", {})),
        mix=PopulationMix(**values.pop("mix", {})),
        behavior=BehaviorParams(**values.pop("behavior", {})),
        **values,
    )
    try:
        scenario.validate()
    except ValidationError as exc:
        raise ValidationError([f"{source}: {p}" for p in exc.problems]) from exc
    return scenario


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario back to the file format (building by path)."""
    return dump_yaml(write_fields(_FIELDS, scenario))


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
