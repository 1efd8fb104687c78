import csv
import hashlib
import io
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from officesim import (
    ParseError,
    PolicyKind,
    ValidationError,
    compare_policies,
    emit_comparison,
    emit_experiment,
    load_building,
    parse_scenario,
    reference_scenario_path,
    run_experiment,
    serialize_building,
    serialize_scenario,
    window_mask,
)
from officesim.accounting import EnergyLedger
from officesim.occupants import MINUTES_PER_DAY
from officesim.scenario_io import (
    WINDOW_PRESETS,
    _fmt_float,
    _fmt_watts,
    _CHUNK_ROWS,
    _minute_csv_chunks,
    _minute_labels,
    parse_scenario_text,
    scenario_fingerprint,
)

from conftest import make_building_text, make_small_scenario

MINIMAL = """
building: building.yaml
horizon_days: 2
population:
  size: 3
"""


@pytest.fixture
def scenario_dir(tmp_path):
    (tmp_path / "building.yaml").write_text(make_building_text())
    return tmp_path


def write_scenario(scenario_dir, text):
    path = scenario_dir / "scenario.yaml"
    path.write_text(text)
    return path


def test_reference_scenario_fields(reference_scenario):
    assert len(reference_scenario.building.rooms) == 47
    assert reference_scenario.building.max_occupants == 213
    assert reference_scenario.policy.kind is PolicyKind.AUTOMATED
    assert reference_scenario.population_size == 200
    assert reference_scenario.replications == 20
    assert reference_scenario.horizon_days == 7


def test_defaults_applied_for_omitted_fields(scenario_dir):
    scenario = parse_scenario(write_scenario(scenario_dir, MINIMAL))
    assert scenario.policy.kind is PolicyKind.AUTOMATED
    assert scenario.policy.off_delay_minutes == 20
    assert scenario.contact_rate == 1.0
    assert scenario.replications == 20
    assert scenario.behavior.computer_off_threshold == 50.0
    assert scenario.awareness_delta == 1.0
    assert scenario.small_world_k == 4
    assert scenario.master_seed == 1
    assert scenario.start_day_of_week == 0


def test_missing_required_fields_are_named(scenario_dir):
    with pytest.raises(ValidationError) as err:
        parse_scenario(write_scenario(scenario_dir, "population: {size: 1}\n"))
    message = str(err.value)
    assert "building" in message and "horizon_days" in message
    with pytest.raises(ValidationError) as err:
        parse_scenario(
            write_scenario(scenario_dir, "building: building.yaml\nhorizon_days: 1\n")
        )
    assert "population.size" in str(err.value)


def test_probability_out_of_range_names_field(scenario_dir):
    text = MINIMAL + "behavior:\n  weekend_presence_prob: 1.5\n"
    with pytest.raises(ValidationError) as err:
        parse_scenario(write_scenario(scenario_dir, text))
    assert "weekend_presence_prob" in str(err.value)


def test_mix_fraction_out_of_range_names_field(scenario_dir):
    text = MINIMAL + "  awareness_mix: {big_user: 1.5}\n"
    with pytest.raises(ValidationError) as err:
        parse_scenario(write_scenario(scenario_dir, text))
    assert "awareness_mix" in str(err.value)


def test_unknown_fields_rejected(scenario_dir):
    with pytest.raises(ValidationError) as err:
        parse_scenario(write_scenario(scenario_dir, MINIMAL + "tariff: 3\n"))
    assert "tariff" in str(err.value)
    with pytest.raises(ValidationError) as err:
        parse_scenario(
            write_scenario(scenario_dir, MINIMAL + "behavior: {lunch_hour: 12}\n")
        )
    assert "lunch_hour" in str(err.value)


def test_bad_policy_name_rejected(scenario_dir):
    with pytest.raises(ValidationError):
        parse_scenario(
            write_scenario(scenario_dir, MINIMAL + "lighting_policy: hybrid\n")
        )


def test_null_policy_takes_the_default(scenario_dir):
    # A null scalar counts as left out, the lighting policy's included.
    scenario = parse_scenario(
        write_scenario(scenario_dir, MINIMAL + "lighting_policy: null\n")
    )
    assert scenario.policy.kind is PolicyKind.AUTOMATED
    # A room's kind has no default: null is reported as an unknown kind.
    text = make_building_text().replace("kind: kitchen", "kind: null", 1)
    with pytest.raises(ValidationError) as err:
        load_building(text)
    assert "room 'kitchen-0' has unknown kind None" in str(err.value)


def test_yaml_parse_error_reports_location(scenario_dir):
    with pytest.raises(ParseError) as err:
        parse_scenario(write_scenario(scenario_dir, "a: [1,\n"))
    assert "scenario.yaml" in str(err.value)


def test_roundtrip_through_serialization(tmp_path, reference_scenario):
    text = serialize_scenario(reference_scenario)
    # the serialized form references the building by absolute path
    reparsed = parse_scenario_text(text, base_dir=tmp_path)
    assert reparsed == reference_scenario
    assert scenario_fingerprint(reparsed) == scenario_fingerprint(reference_scenario)


@pytest.mark.parametrize("preset", WINDOW_PRESETS)
def test_window_mask_matches_calendar_formula(preset):
    # The calendar rules written per minute, as numpy arrays: the mask
    # built day by day must agree at every minute.
    for horizon_days in (0, 1, 2, 7, 9):
        for start_day in range(7):
            minutes = np.arange(horizon_days * MINUTES_PER_DAY)
            minute_of_day = minutes % MINUTES_PER_DAY
            weekend = (start_day + minutes // MINUTES_PER_DAY) % 7 >= 5
            night = (minute_of_day >= 19 * 60) | (minute_of_day < 7 * 60)
            office = ~weekend & (minute_of_day >= 9 * 60) & (minute_of_day < 17 * 60)
            expected = {
                "all": np.ones(len(minutes), dtype=bool),
                "weekday-day": office,
                "night": night,
                "weekend": weekend,
                "night-weekend": night | weekend,
            }[preset]
            mask = window_mask(preset, horizon_days, start_day)
            assert type(mask) is list
            assert mask == expected.tolist(), (horizon_days, start_day)


def test_window_mask_arithmetic():
    horizon = 7
    weekday_day = np.asarray(window_mask("weekday-day", horizon, start_day_of_week=0))
    assert weekday_day.sum() == 5 * 8 * 60
    night = np.asarray(window_mask("night", horizon))
    assert night.sum() == 7 * 12 * 60
    weekend = np.asarray(window_mask("weekend", horizon, start_day_of_week=0))
    assert weekend.sum() == 2 * 1440
    union = np.asarray(window_mask("night-weekend", horizon, start_day_of_week=0))
    assert union.sum() == night.sum() + weekend.sum() - 2 * 12 * 60
    assert np.asarray(window_mask("all", 2)).all()
    # start day shifts which days are the weekend
    saturday_start = np.asarray(window_mask("weekend", 2, start_day_of_week=5))
    assert saturday_start.all()
    # with a Friday start, minute 1441 (day 1, 00:01) is a Saturday
    assert np.asarray(window_mask("weekend", 2, start_day_of_week=4))[1441]
    assert not np.asarray(window_mask("weekend", 1, start_day_of_week=0))[100]


def test_window_mask_rejects_unknown_preset():
    with pytest.raises(ValidationError):
        window_mask("lunch", 7)


def test_emit_experiment_files_and_determinism(tmp_path):
    scenario = make_small_scenario(population_size=4, horizon_days=1)
    result = run_experiment(replace(scenario, replications=2, master_seed=5))

    out_a = tmp_path / "a"
    paths = emit_experiment(result, out_a)
    names = {p.name for p in paths}
    assert {"minutes_mean.csv", "half_hourly_mean.csv", "proportions.json",
            "manifest.json"} <= names
    minute_rows = (out_a / "minutes_mean.csv").read_text().splitlines()
    assert minute_rows[0] == "minute,base_w,lights_w,computers_w,total_w"
    assert len(minute_rows) == 1 + 1440
    half_rows = (out_a / "half_hourly_mean.csv").read_text().splitlines()
    assert half_rows[0] == "bin_start,base_kwh,lights_kwh,computers_kwh,total_kwh"
    assert len(half_rows) == 1 + 48
    assert (out_a / "reps" / "rep_000_minutes.csv").exists()
    assert (out_a / "reps" / "rep_001_minutes.csv").exists()

    result_again = run_experiment(replace(scenario, replications=2, master_seed=5))
    out_b = tmp_path / "b"
    emit_experiment(result_again, out_b)
    for path in sorted(out_a.rglob("*")):
        if path.is_file():
            twin = out_b / path.relative_to(out_a)
            assert twin.read_bytes() == path.read_bytes(), path.name


def test_manifest_lists_outputs_with_hashes(tmp_path):
    # Both emitters hash each file as they write it; the manifest must
    # match the files on disk, list every one of them, and no temporary
    # file may be left behind.
    import hashlib
    import json

    small = make_small_scenario(population_size=2, horizon_days=3)
    simulated = replace(small, replications=1, master_seed=3)
    compared = replace(small, replications=2, master_seed=3)
    result = run_experiment(simulated)
    comparison = compare_policies(compared)
    runs = (
        (tmp_path / "simulate", simulated, 1, result.master_seed,
         lambda out: emit_experiment(result, out, scenario_path="scenario.yaml")),
        (tmp_path / "compare", compared, 2, comparison.automated.master_seed,
         lambda out: emit_comparison(comparison, out, scenario_path="scenario.yaml")),
    )
    for out, scenario, replications, master_seed, emit in runs:
        paths = emit(out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["replications"] == replications
        assert manifest["scenario_sha256"] == scenario_fingerprint(scenario)
        assert manifest["scenario_path"] == "scenario.yaml"
        assert manifest["master_seed"] == master_seed
        for entry in manifest["outputs"]:
            data = (out / entry["path"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]
            assert len(data) == entry["bytes"]
        on_disk = sorted(p for p in out.rglob("*") if p.is_file())
        assert on_disk == sorted(paths)
        assert [e["path"] for e in manifest["outputs"]] == sorted(
            str(p.relative_to(out)) for p in paths if p.name != "manifest.json"
        )
        assert not list(out.rglob("*.tmp"))


def test_emit_comparison_names_lower_policy(tmp_path):
    scenario = make_small_scenario(population_size=4, horizon_days=1)
    comparison = compare_policies(replace(scenario, replications=2, master_seed=6))
    emit_comparison(comparison, tmp_path)
    import json

    report = json.loads((tmp_path / "comparison.json").read_text())
    assert report["lower_consumption_policy"] in ("automated", "staff_controlled")
    assert report["lower_consumption_policy"] == comparison.lower_policy.value
    assert len(report["paired_diff_kwh"]) == 2
    assert (tmp_path / "automated_minutes_mean.csv").exists()
    assert (tmp_path / "staff_controlled_minutes_mean.csv").exists()


def test_proportions_payload_window(tmp_path):
    scenario = make_small_scenario(population_size=4, horizon_days=2)
    result = run_experiment(replace(scenario, replications=1, master_seed=9))
    emit_experiment(result, tmp_path, command="proportions", window="night")
    import json

    report = json.loads((tmp_path / "proportions.json").read_text())
    assert report["window"] == "night"
    fractions = report["fractions"]
    assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-12)


def _minute_csv_rows(ledger, fmt):
    """The per-row csv.writer loop the run writer replaced; the reference."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["minute", "base_w", "lights_w", "computers_w", "total_w"])
    base, lights, computers = ledger.base_w, ledger.lights_w, ledger.computers_w
    total = ledger.total_w
    for m in range(len(ledger)):
        writer.writerow(
            [m, fmt(base[m]), fmt(lights[m]), fmt(computers[m]), fmt(total[m])]
        )
    return buf.getvalue().encode("utf-8")


NEGATIVE_NAN = -math.nan
_watts = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, math.nan, NEGATIVE_NAN, 60.0]),
    st.floats(min_value=0.0, max_value=1e12),
)
# (minutes, base, lights, computers) per constant stretch; stretches may
# repeat the previous values.
_stretches = st.lists(
    st.tuples(st.one_of(st.just(1), st.integers(1, 600)), _watts, _watts, _watts),
    max_size=12,
)


def _stretch_ledger(stretches):
    lengths = [n for n, *_ in stretches]
    columns = [
        np.repeat(np.array([s[i] for s in stretches], dtype=np.float64), lengths)
        for i in (1, 2, 3)
    ]
    return EnergyLedger(*columns)


@settings(max_examples=150, deadline=None)
@given(files=st.lists(_stretches, min_size=1, max_size=3))
@example(files=[[]])
@example(files=[[(1, -0.0, math.nan, math.inf)]])
@example(files=[[(3, 0.0, 0.0, 0.0), (2, -0.0, 0.0, 0.0), (1, 0.0, 0.0, 0.0)]])
@example(files=[[(4, math.nan, 1.0, 2.0), (4, NEGATIVE_NAN, 1.0, 2.0)]])
# runs across a chunk boundary, and runs ending and starting at one
@example(files=[
    [(1000, 0.0, 1.0, 2.0), (100, 0.0, 1.0, 3.0), (1000, 0.0, 1.0, 2.0)],
    [(1024, -0.0, 60.0, 0.0), (1024, 0.0, 60.0, 0.0), (1, -0.0, 60.0, 0.0)],
])
def test_run_writer_matches_row_writer(files):
    # The files of one emission share one list of minute labels.
    ledgers = [_stretch_ledger(stretches) for stretches in files]
    labels = _minute_labels(max(map(len, ledgers)))
    for ledger in ledgers:
        for fmt in (_fmt_watts, _fmt_float):
            chunks = list(_minute_csv_chunks(ledger, fmt, labels))
            assert "".join(chunks).encode("utf-8") == _minute_csv_rows(ledger, fmt)
            # _CHUNK_ROWS minutes a chunk, the last one fewer; the header first
            minutes = [c.count("\n") for c in chunks]
            minutes[0] -= 1
            full, last = divmod(len(ledger), _CHUNK_ROWS)
            expected = [_CHUNK_ROWS] * full + ([last] if last or not full else [])
            assert minutes == expected


_PINNED_BUILDING = """\
base_load_watts: 1500.5
max_occupants: 3
defaults:
  light_watts_on: 60
  computer_watts: {off: 0, standby: 20, on: 400}
lights: [L1, L2, L3]
computers: [K1, K2]
light_overrides: {L1: {watts_on: 80.5}, L3: {watts_on: 0}}
computer_overrides: {K1: {watts_off: 1.25, watts_on: 250}}
rooms:
  - id: hall
    kind: corridor
    desk_capacity: 0
    lights: [L1]
  - id: office
    kind: shared_office
    desk_capacity: 3
    lights: [L2, L3]
    computers: [K1, K2]
"""


def _pinned_scenario(*edits):
    path = reference_scenario_path()
    text = Path(path).read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    scenario = parse_scenario_text(text, base_dir=Path(path).parent)
    return replace(scenario, building_path="reference_building.yaml")


@pytest.mark.parametrize(
    "render,digest",
    [
        (lambda: serialize_scenario(_pinned_scenario()),
         "db0039a70756d899e404b26e83038c1a82938311d16ff310f0f54a88215aa16e"),
        (lambda: serialize_scenario(
            _pinned_scenario(("contact_rate: 1.0", "contact_rate: 2000"))),
         "6e64a99a36910ba1543e067c3db3d4ca0549a46768477d221de0948cd7a0d4d4"),
        (lambda: serialize_building(load_building(_PINNED_BUILDING)),
         "622b31f57811c83cc9e785cb87cf22eae9e3eafa1b7cbe7434bafdf44b49df3f"),
    ],
    ids=["reference-scenario", "int-contact-rate", "building-overrides"],
)
def test_serialized_bytes_are_pinned(render, digest):
    # The manifest's scenario_sha256 hashes these bytes, and the goldens
    # blank it: any change to the serializers' output shows here.
    assert hashlib.sha256(render().encode("utf-8")).hexdigest() == digest
