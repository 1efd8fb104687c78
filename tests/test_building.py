import re
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from officesim import (
    ParseError,
    ValidationError,
    building_summary,
    load_building,
    serialize_building,
)
from officesim import parse_scenario, reference_scenario_path, serialize_scenario
from officesim import building
from officesim.building import RoomKind, load_building_file, read_yaml

from conftest import make_building_text, make_small_building

REFERENCE_BUILDING = str(
    __import__("pathlib").Path(reference_scenario_path()).parent
    / "reference_building.yaml"
)


def test_reference_inventory_counts():
    model = load_building_file(REFERENCE_BUILDING)
    summary = building_summary(model)
    assert summary["rooms"] == 47
    assert summary["lights"] == 239
    assert summary["computers"] == 180
    assert summary["max_occupants"] == 213
    assert summary["desks"] == 213


def test_empty_building_is_valid():
    model = load_building("base_load_watts: 0\nmax_occupants: 0\nrooms: []\n")
    summary = building_summary(model)
    assert summary["rooms"] == 0
    assert summary["lights"] == 0
    assert summary["computers"] == 0
    assert summary["base_load_watts"] == 0


def test_dangling_light_reference_is_named():
    text = (
        "base_load_watts: 0\nmax_occupants: 1\n"
        "lights: [L001]\n"
        "rooms:\n"
        "  - id: office-1\n    kind: private_office\n    desk_capacity: 1\n"
        "    lights: [L001, L999]\n"
    )
    with pytest.raises(ValidationError) as err:
        load_building(text)
    assert "L999" in str(err.value)


def test_duplicate_room_assignment_rejected():
    text = (
        "base_load_watts: 0\nmax_occupants: 2\n"
        "lights: [L001]\n"
        "rooms:\n"
        "  - {id: a, kind: private_office, desk_capacity: 1, lights: [L001]}\n"
        "  - {id: b, kind: private_office, desk_capacity: 1, lights: [L001]}\n"
    )
    with pytest.raises(ValidationError) as err:
        load_building(text)
    assert "L001" in str(err.value)


def test_unplaced_catalog_entry_rejected():
    text = "base_load_watts: 0\nmax_occupants: 0\nlights: [L001]\nrooms: []\n"
    with pytest.raises(ValidationError) as err:
        load_building(text)
    assert "not placed" in str(err.value)


def test_desks_forbidden_in_deskless_kinds():
    text = (
        "base_load_watts: 0\nmax_occupants: 1\n"
        "rooms:\n"
        "  - {id: hall, kind: corridor, desk_capacity: 2}\n"
    )
    with pytest.raises(ValidationError) as err:
        load_building(text)
    assert "desk_capacity 0" in str(err.value)


def test_validation_collects_all_problems():
    text = (
        "base_load_watts: -5\nmax_occupants: 1\n"
        "lights: [L001, L001]\n"
        "rooms:\n"
        "  - {id: hall, kind: corridor, desk_capacity: 3, lights: [L001, LX]}\n"
    )
    with pytest.raises(ValidationError) as err:
        load_building(text)
    assert len(err.value.problems) >= 3


def test_parse_error_carries_line_context():
    with pytest.raises(ParseError) as err:
        load_building("rooms:\n  - id: [unclosed\n", source="bad.yaml")
    assert "bad.yaml" in str(err.value)


def test_serialize_roundtrip_identity():
    model = load_building_file(REFERENCE_BUILDING)
    reloaded = load_building(serialize_building(model))
    assert reloaded == model
    assert load_building(serialize_building(reloaded)) == reloaded


def test_roundtrip_preserves_wattage_overrides():
    text = make_building_text() + "light_overrides: {L000: {watts_on: 80}}\n"
    model = load_building(text)
    assert model.lights["L000"].watts_on == 80
    assert load_building(serialize_building(model)) == model


def test_summary_groups_by_room_kind():
    text = (
        "base_load_watts: 0\nmax_occupants: 0\n"
        "lights: [" + ", ".join(f"L{i}" for i in range(10)) + "]\n"
        "rooms:\n"
        "  - id: hall\n    kind: corridor\n    desk_capacity: 0\n"
        "    lights: [" + ", ".join(f"L{i}" for i in range(10)) + "]\n"
    )
    summary = building_summary(load_building(text))
    assert summary["lights_by_kind"]["corridor"] == 10


def test_room_light_totals_match_catalog():
    model = load_building_file(REFERENCE_BUILDING)
    assert sum(len(r.light_ids) for r in model.rooms) == len(model.lights)
    assert sum(len(r.computer_ids) for r in model.rooms) == len(model.computers)


def test_helper_views():
    model = make_small_building()
    assert all(r.kind is not RoomKind.CORRIDOR for r in model.facility_rooms())
    assert model.max_flexible_watts() == pytest.approx(
        sum(s.watts_on for s in model.lights.values())
        + sum(s.watts_on for s in model.computers.values())
    )


@pytest.mark.parametrize(
    "defaults,field",
    [
        ("{light_watts_on: '60'}", "defaults.light_watts_on"),
        ("{computer_watts: {standby: -1}}", "defaults.computer_watts.standby"),
        ("{computer_watts: [0, 25, 400]}", "defaults.computer_watts"),
        ("[60]", "defaults"),
    ],
)
def test_malformed_defaults_are_named(defaults, field):
    text = make_building_text() + f"defaults: {defaults}\n"
    with pytest.raises(ValidationError) as err:
        load_building(text)
    assert f"'{field}'" in str(err.value)


@pytest.mark.parametrize(
    "computer_watts",
    [
        "{off: 5, standby: 30, on: 300}",
        "{'off': 5, standby: 30, 'on': 300}",
        # a merged key may be overridden: that is no duplicate
        "{<<: {off: 1, standby: 30}, off: 5, on: 300}",
    ],
)
def test_computer_watts_defaults_read_bare_and_quoted_keys(computer_watts):
    # Only true/false are booleans (YAML 1.2): bare off and on are strings.
    text = make_building_text() + f"defaults: {{computer_watts: {computer_watts}}}\n"
    for spec in load_building(text).computers.values():
        assert (spec.watts_off, spec.watts_standby, spec.watts_on) == (5, 30, 300)


def test_missing_building_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError) as err:
        load_building_file(tmp_path / "absent.yaml")
    assert "absent.yaml" in str(err.value)


_LIBYAML = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@pytest.mark.parametrize(
    "text,outcome",
    [
        (Path(REFERENCE_BUILDING).read_text(), "document"),
        (Path(reference_scenario_path()).read_text(), "document"),
        ("defaults: {computer_watts: {yes: 300}}\n", "document"),
        ("defaults: {computer_watts: {true: 300}}\n", "document"),
        ("defaults: {computer_watts: {off: 5, 'off': 6}}\n", "error"),
        ("base_load_watts: 1\nrooms: []\nbase_load_watts: 2\n", "error"),
        ("base: &b {off: 1, standby: 30}\n"
         "defaults: {computer_watts: {<<: *b, off: 5, on: 300}}\n", "document"),
        ("rooms:\n  - id: a\n    lights: [L1, L2\n  - id: b\n", "error"),
    ],
    ids=["reference-building", "reference-scenario", "yes-key", "true-key",
         "duplicate-off", "duplicate-top-level", "merge-key", "malformed-flow-list"],
)
def test_libyaml_and_python_loaders_agree(monkeypatch, text, outcome):
    # The strict loader parses with libyaml when PyYAML has it; the
    # pure-Python fallback must read every file the same way: equal
    # documents, or a ParseError naming the same key and line.
    assert issubclass(building._StrictLoader, _LIBYAML)
    results = []
    for base in (_LIBYAML, yaml.SafeLoader):
        monkeypatch.setattr(building, "_StrictLoader", building._strict_loader(base))
        try:
            results.append(("document", read_yaml(text, "in.yaml")))
        except ParseError as exc:
            message = str(exc)
            key = re.search(r"duplicate key (\S+)", message)
            results.append(
                ("error", message.split(": ", 1)[0], key and key.group(1))
            )
    assert results[0][0] == outcome
    assert results[0] == results[1]


_LIBYAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
_OVERRIDES = (
    "light_overrides: {L000: {watts_on: 80.5}, L003: {watts_on: 0}}\n"
    "computer_overrides: {K000: {watts_standby: 30}, "
    "K001: {watts_off: 1.25, watts_on: 250}}\n"
)


def _reference_scenario():
    return parse_scenario(reference_scenario_path())


@pytest.mark.parametrize(
    "render",
    [
        lambda: serialize_building(load_building_file(REFERENCE_BUILDING)),
        lambda: serialize_scenario(_reference_scenario()),
        lambda: serialize_building(load_building(make_building_text() + _OVERRIDES)),
        # the CLI's overrides and odd floats
        lambda: serialize_scenario(replace(
            _reference_scenario(), horizon_days=2, start_day_of_week=5,
            replications=40, master_seed=2**40 + 1, contact_rate=2000.0,
            awareness_delta=1 / 3, small_world_beta=1e-7,
        )),
        lambda: serialize_scenario(replace(
            _reference_scenario(), building_path="/data/a b/b\u00e2timent 'x'.yaml"
        )),
    ],
    ids=["reference-building", "reference-scenario", "wattage-overrides",
         "cli-overrides", "odd-building-path"],
)
def test_libyaml_and_python_dumpers_agree(monkeypatch, render):
    # The manifest fingerprint hashes the serialized scenario and building,
    # emitted by libyaml when PyYAML has it; the pure-Python emitter must
    # give the same text, or the fingerprint would depend on the install.
    assert building._Dumper is _LIBYAML_DUMPER
    texts = []
    for base in (_LIBYAML_DUMPER, yaml.SafeDumper):
        made = []

        class Recording(base):
            def __init__(self, *args, **kwargs):
                made.append(base)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(building, "_Dumper", Recording)
        texts.append(render())
        assert made and set(made) == {base}
    assert texts[0] == texts[1]
