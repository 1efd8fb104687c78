import json
import os
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import officesim
from officesim.cli import main

from conftest import make_building_text

SMALL_SCENARIO = """
building: building.yaml
seed: 5
horizon_days: 1
replications: 2
population:
  size: 4
"""


@pytest.fixture
def scenario_path(tmp_path):
    (tmp_path / "building.yaml").write_text(make_building_text())
    path = tmp_path / "scenario.yaml"
    path.write_text(SMALL_SCENARIO)
    return path


# Runs the CLI on argv[1:] and exits 3 if any numpy module got loaded.
_CLI_WITHOUT_NUMPY = """
import sys
from officesim.cli import main
code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
if loaded:
    print("numpy modules loaded:", loaded[:5], file=sys.stderr)
    sys.exit(3)
sys.exit(code)
"""


@pytest.mark.parametrize("command", ["validate", "summary", "simulate", "compare",
                                     "proportions"])
def test_cli_commands_do_not_import_numpy(scenario_path, tmp_path, command):
    # numpy costs ~0.15 s and ~13 MB per process; only derived traces use it.
    argv = [command, "--scenario", str(scenario_path)]
    if command not in ("validate", "summary"):
        argv += ["--out", str(tmp_path / "out")]
    src = Path(officesim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_WITHOUT_NUMPY, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# Runs the CLI on argv[1:] and exits 3 if OpenSSL's hashlib backend got loaded.
_CLI_WITHOUT_OPENSSL = """
import sys
from officesim.cli import main
code = main(sys.argv[1:])
if "_hashlib" in sys.modules:
    print("_hashlib loaded", file=sys.stderr)
    sys.exit(3)
sys.exit(code)
"""


@pytest.mark.skipif(
    not any(find_spec(name) for name in ("_sha2", "_sha256")),
    reason="no built-in SHA-256 module",
)
@pytest.mark.parametrize("command", ["validate", "summary", "simulate", "compare",
                                     "proportions"])
def test_cli_commands_do_not_load_openssl(scenario_path, tmp_path, command):
    # libcrypto costs ~3.6 MB per process; seeds and digests need only SHA-256.
    argv = [command, "--scenario", str(scenario_path)]
    if command not in ("validate", "summary"):
        argv += ["--out", str(tmp_path / "out")]
    src = Path(officesim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_WITHOUT_OPENSSL, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "chunks", [[b""], [bytes(range(64))], [b"officesim", b"", bytes(200), b"x" * 65]]
)
def test_package_sha256_equals_hashlib(chunks):
    import hashlib

    ours, reference = officesim.sha256(), hashlib.sha256()
    for chunk in chunks:
        ours.update(chunk)
        reference.update(chunk)
    assert ours.digest() == reference.digest()
    assert ours.hexdigest() == reference.hexdigest()


# Runs the CLI on argv[1:] (after a bare `import officesim`, which must load
# no submodule) and prints the simulation modules loaded at exit.
_CLI_LEAN_START = """
import sys
import officesim
bare = sorted(m for m in sys.modules if m.startswith("officesim."))
from officesim.cli import main
code = main(sys.argv[1:])
heavy = ("officesim.engine", "officesim.network", "officesim.checks", "numpy")
print(bare, sorted(m for m in heavy if m in sys.modules))
sys.exit(code)
"""


@pytest.mark.parametrize("command", ["validate", "summary", "--version"])
def test_cli_commands_without_a_run_load_no_simulation_code(scenario_path, command):
    # Checking a scenario needs only the parsing layers; process start is
    # most of what such a command costs.
    argv = [command]
    if command != "--version":
        argv += ["--scenario", str(scenario_path)]
    src = Path(officesim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_LEAN_START, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] []"


def test_validate_ok(scenario_path, capsys):
    assert main(["validate", "--scenario", str(scenario_path)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_rejects_bad_scenario(tmp_path, capsys):
    path = tmp_path / "scenario.yaml"
    path.write_text("horizon_days: 1\n")
    assert main(["validate", "--scenario", str(path)]) == 1
    assert "building" in capsys.readouterr().err


def test_missing_scenario_file_is_config_error(tmp_path):
    assert main(["validate", "--scenario", str(tmp_path / "nope.yaml")]) == 1


def test_unknown_flag_rejected(scenario_path):
    assert main(["validate", "--scenario", str(scenario_path), "--frobnicate"]) == 1


def test_unknown_command_rejected():
    assert main(["launch"]) == 1


def test_summary_prints_inventory(scenario_path, capsys):
    assert main(["summary", "--scenario", str(scenario_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["rooms"] == 5
    assert summary["computers"] == 5


def test_simulate_writes_outputs(scenario_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scenario_path),
                 "--out", str(out)]) == 0
    assert (out / "minutes_mean.csv").exists()
    assert (out / "manifest.json").exists()
    assert len((out / "minutes_mean.csv").read_text().splitlines()) == 1441
    assert "mean total" in capsys.readouterr().out


def test_simulate_reruns_byte_identically(scenario_path, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--scenario", str(scenario_path), "--out", str(out_a)]) == 0
    assert main(["simulate", "--scenario", str(scenario_path), "--out", str(out_b)]) == 0
    for path in sorted(out_a.rglob("*")):
        if path.is_file():
            assert (out_b / path.relative_to(out_a)).read_bytes() == path.read_bytes()


def test_simulate_overrides_days_and_reps(scenario_path, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scenario_path), "--days", "2",
                 "--reps", "1", "--seed", "77", "--out", str(out)]) == 0
    assert len((out / "minutes_mean.csv").read_text().splitlines()) == 1 + 2880
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["replications"] == 1
    assert manifest["master_seed"] == 77


def test_compare_reports_lower_policy(scenario_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["compare", "--scenario", str(scenario_path),
                 "--contact-rate", "2.0", "--out", str(out)]) == 0
    report = json.loads((out / "comparison.json").read_text())
    assert report["lower_consumption_policy"] in ("automated", "staff_controlled")
    assert "lower consumption" in capsys.readouterr().out


def test_proportions_window_flag(scenario_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["proportions", "--scenario", str(scenario_path),
                 "--window", "night", "--out", str(out)]) == 0
    report = json.loads((out / "proportions.json").read_text())
    assert report["window"] == "night"


def test_bad_window_value_rejected(scenario_path, tmp_path):
    assert main(["proportions", "--scenario", str(scenario_path),
                 "--window", "lunch", "--out", str(tmp_path / "o")]) == 1


def test_runtime_error_exit_code(scenario_path, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = main(["simulate", "--scenario", str(scenario_path),
                 "--out", str(blocker / "sub")])
    assert code == 2


@pytest.mark.parametrize(
    "override,field",
    [
        ({"population": [1]}, "population"),
        ({"population": {"size": "abc"}}, "population.size"),
        ({"behavior": {"leave_hazard_per_minute": "0.01"}},
         "behavior.leave_hazard_per_minute"),
        ({"automated_off_delay_minutes": "20"}, "automated_off_delay_minutes"),
        ({"seed": 1.7}, "seed"),
        ({"horizon_days": True}, "horizon_days"),
        ({"building": ["building.yaml"]}, "building"),
        ({"building": "missing.yaml"}, "missing.yaml"),
        ({"social": {"small_world_k": 4.5}}, "social.small_world_k"),
        ({"population": {"size": 4, "awareness_mix": {"big_user": "most"}}},
         "population.awareness_mix.big_user"),
        ({"building.yaml": {"lights": 5}}, "lights"),
        ({"building.yaml": {"computers": 3}}, "computers"),
        ({"building.yaml": {"rooms": {"id": "hall"}}}, "field 'rooms'"),
        ({"building.yaml": {"rooms": [{"id": "hall", "kind": "corridor",
                                       "lights": 5}]}}, "rooms[0].lights"),
        ({"building.yaml": {"light_overrides": {"L000": {"watts_on": "x"}}}},
         "light_overrides.L000.watts_on"),
        ({"building.yaml": {"light_overrides": {"L000": 80}}},
         "light_overrides.L000"),
        ({"building.yaml": {"computer_overrides": {"K000": {"watts_on": "x"}}}},
         "computer_overrides.K000.watts_on"),
        ({"building.yaml": {"computer_overrides": {"K000": {"watts_off": -1}}}},
         "computer_overrides.K000.watts_off"),
        ({"building.yaml": {"colour": "red"}}, "unknown field 'colour'"),
        ({"building.yaml": {"defaults": {"light_watt_on": 80}}},
         "unknown field 'defaults.light_watt_on'"),
        ({"building.yaml": {"defaults": {"computer_watts": {"of": 5}}}},
         "unknown field 'defaults.computer_watts.of'"),
        ({"building.yaml": {"rooms": [{"id": "hall", "kind": "corridor",
                                       "colour": "red"}]}},
         "unknown field 'rooms[0].colour'"),
        ({"building.yaml": {"light_overrides": {"L000": {"watt_on": 80}}}},
         "unknown field 'light_overrides.L000.watt_on'"),
        ({"building.yaml": {"computer_overrides": {"K000": {"watts_sleep": 1}}}},
         "unknown field 'computer_overrides.K000.watts_sleep'"),
        ({"building.yaml": {"rooms": [{"id": "office", "kind": "private_office",
                                       "desk_capacity": True}]}},
         "rooms[0].desk_capacity"),
        ({"building.yaml": {"max_occupants": 2.5}}, "max_occupants"),
        ({"social": {"contact_rate": float("nan")}},
         "'social.contact_rate' must be finite"),
        ({"social": {"contact_rate": float("inf")}},
         "'social.contact_rate' must be finite"),
        ({"social": {"awareness_delta": float("nan")}},
         "'social.awareness_delta' must be finite"),
        ({"building.yaml": {"base_load_watts": float("nan")}},
         "'base_load_watts' must be finite"),
        ({"building.yaml": {"light_overrides": {"L000": {"watts_on": float("inf")}}}},
         "'light_overrides.L000.watts_on' must be finite"),
        # compare always runs an automated arm from the delay
        ({"lighting_policy": "staff_controlled", "automated_off_delay_minutes": -5},
         "automated off delay must be >= 0"),
        # a null or empty reference names no room, light or building file
        ({"building.yaml": {"rooms": [{"id": None, "kind": "corridor"}]}},
         "rooms[0] missing 'id'"),
        ({"building.yaml": {"rooms": [{"id": "", "kind": "corridor"}]}},
         "rooms[0] missing 'id'"),
        ({"building.yaml": {"lights": ["L000", None]}},
         "field 'lights' must list ids, got None"),
        ({"building.yaml": {"computers": ["K000", ""]}},
         "field 'computers' must list ids, got ''"),
        ({"building.yaml": {"rooms": [{"id": "hall", "kind": "corridor",
                                       "lights": [None]}]}},
         "field 'rooms[0].lights' must list ids, got None"),
        ({"building": ""}, "field 'building' must be a path, got ''"),
    ],
)
def test_malformed_field_is_a_config_error_naming_it(tmp_path, capsys, override, field):
    # Keys are scenario fields, except "building.yaml", whose value is
    # merged into the building file.
    override = dict(override)
    building = yaml.safe_load(make_building_text())
    building.update(override.pop("building.yaml", {}))
    (tmp_path / "building.yaml").write_text(yaml.safe_dump(building))
    doc = yaml.safe_load(SMALL_SCENARIO)
    doc.update(override)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["validate", "--scenario", str(path)]) == 1
    assert field in capsys.readouterr().err


def test_unknown_fields_of_mixed_key_types_are_named(scenario_path, capsys):
    # YAML keys need not be strings; sorting them for the message must not
    # compare an int with a str.
    scenario_path.write_text(SMALL_SCENARIO + "1: 2\nextra: 3\n")
    assert main(["validate", "--scenario", str(scenario_path)]) == 1
    err = capsys.readouterr().err
    assert "unknown field '1'" in err and "unknown field 'extra'" in err


@pytest.mark.parametrize(
    "target,extra,expected",
    [
        ("building.yaml", "defaults: {computer_watts: {yes: 300}}\n",
         "unknown field 'defaults.computer_watts.yes'"),
        ("building.yaml", "defaults: {computer_watts: {true: 300}}\n",
         "unknown field 'defaults.computer_watts.True'"),
        ("building.yaml", "defaults: {computer_watts: {off: 5, 'off': 6}}\n",
         "duplicate key 'off'"),
        ("building.yaml", "base_load_watts: 7\n", "duplicate key 'base_load_watts'"),
        ("scenario.yaml", "seed: 6\n", "duplicate key 'seed'"),
    ],
    ids=["yes-key", "true-key", "duplicate-off", "duplicate-base-load",
         "duplicate-seed"],
)
def test_yaml_boolean_or_duplicate_key_is_a_config_error(
    scenario_path, capsys, target, extra, expected
):
    # Only true/false are booleans, so {yes: 300} and {true: 300} are not
    # read as `on`; a repeated key is an error naming it and its line,
    # instead of silently keeping the last value.
    path = scenario_path.parent / target
    text = path.read_text() + extra
    path.write_text(text)
    assert main(["validate", "--scenario", str(scenario_path)]) == 1
    err = capsys.readouterr().err
    assert expected in err
    if expected.startswith("duplicate"):
        assert f"{target}:{text.count(chr(10))}:" in err


_yaml_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 300), st.floats(-2, 300),
    st.text(max_size=4), st.lists(st.integers(0, 3), max_size=2),
)
_sections = st.dictionaries(
    st.sampled_from(["size", "contact_rate", "small_world_k", "big_user",
                     "leave_hazard_per_minute", "long_leave_min", "other"]),
    _yaml_scalars, max_size=3,
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    fields=st.dictionaries(
        st.sampled_from(["seed", "horizon_days", "start_day_of_week",
                         "replications", "lighting_policy",
                         "automated_off_delay_minutes", "extra"]),
        _yaml_scalars, max_size=4,
    ),
    sections=st.dictionaries(
        st.sampled_from(["population", "social", "behavior"]),
        st.one_of(_yaml_scalars, _sections), max_size=3,
    ),
)
def test_fuzzed_scenario_never_gives_a_runtime_error(tmp_path, fields, sections):
    (tmp_path / "building.yaml").write_text(make_building_text())
    doc = {"building": "building.yaml", **fields, **sections}
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["validate", "--scenario", str(path)]) in (0, 1)
