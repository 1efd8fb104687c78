"""Physical building description: rooms, appliance inventory, base load.

A building file is YAML: a base load, catalogs of light and computer ids
with their default and per-id wattages, and room blocks that place each
id in a room. README's "File formats" section documents it; ``_FIELDS``
lists its fields, and drives reading, type checks, unknown-field
rejection and serialization. The field-table machinery here (``Field``,
its kinds, ``read_fields`` and ``write_fields``) serves the scenario
file too. A model is immutable once loaded.
"""

from __future__ import annotations

import enum
import math
import re
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import yaml

from .errors import ParseError, ValidationError


class RoomKind(str, enum.Enum):
    PRIVATE_OFFICE = "private_office"
    SHARED_OFFICE = "shared_office"
    CORRIDOR = "corridor"
    KITCHEN = "kitchen"
    TOILET = "toilet"
    LAB = "lab"
    OTHER_FACILITY = "other_facility"


# Kinds that occupants visit from the corridor but never office in.
FACILITY_KINDS = frozenset(
    {RoomKind.KITCHEN, RoomKind.TOILET, RoomKind.LAB, RoomKind.OTHER_FACILITY}
)

# Kinds that must not carry desks.
_DESKLESS_KINDS = frozenset({RoomKind.CORRIDOR, RoomKind.TOILET, RoomKind.KITCHEN})


class LightSpec(NamedTuple):
    id: str
    room_id: str
    watts_on: float = 60


class ComputerSpec(NamedTuple):
    id: str
    room_id: str
    watts_off: float = 0
    watts_standby: float = 25
    watts_on: float = 400


class Room(NamedTuple):
    id: str
    kind: RoomKind
    desk_capacity: int = 0
    light_ids: tuple[str, ...] = ()
    computer_ids: tuple[str, ...] = ()


class BuildingModel(NamedTuple):
    rooms: tuple[Room, ...]
    lights: dict[str, LightSpec]
    computers: dict[str, ComputerSpec]
    base_load_watts: float
    max_occupants: int

    def room(self, room_id: str) -> Room:
        for room in self.rooms:
            if room.id == room_id:
                return room
        raise KeyError(room_id)

    def desk_rooms(self) -> tuple[Room, ...]:
        """Rooms occupants can be assigned to, in file order."""
        return tuple(r for r in self.rooms if r.desk_capacity > 0)

    def facility_rooms(self) -> tuple[Room, ...]:
        return tuple(r for r in self.rooms if r.kind in FACILITY_KINDS)

    def corridor_rooms(self) -> tuple[Room, ...]:
        return tuple(r for r in self.rooms if r.kind is RoomKind.CORRIDOR)

    def total_desk_capacity(self) -> int:
        return sum(r.desk_capacity for r in self.rooms)

    def max_flexible_watts(self) -> float:
        """Upper bound of flexible draw: every light and computer full on."""
        return sum(s.watts_on for s in self.lights.values()) + sum(
            s.watts_on for s in self.computers.values()
        )


_BOOL = "tag:yaml.org,2002:bool"


def _strict_loader(base: type) -> type:
    """A safe YAML loader for the input files on ``base`` (libyaml's
    ``CSafeLoader`` or the pure-Python ``SafeLoader``): only
    ``true``/``false`` are booleans (YAML 1.2), so bare ``off``, ``on``,
    ``yes`` and ``no`` stay strings, and a key repeated in one mapping is
    an error instead of silently keeping the last value."""

    class StrictLoader(base):
        def construct_mapping(self, node, deep=False):
            seen = set()
            for key_node, _ in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue  # a `<<` merge: its keys may be overridden here
                key = self.construct_object(key_node, deep=deep)
                try:
                    duplicate = key in seen
                except TypeError:
                    continue  # unhashable: the base constructor reports it
                if duplicate:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark,
                    )
                seen.add(key)
            return super().construct_mapping(node, deep=deep)

    StrictLoader.yaml_implicit_resolvers = {
        first: [(tag, regexp) for tag, regexp in resolvers if tag != _BOOL]
        for first, resolvers in base.yaml_implicit_resolvers.items()
    }
    StrictLoader.add_implicit_resolver(
        _BOOL, re.compile(r"^(?:true|True|TRUE|false|False|FALSE)$"), list("tTfF")
    )
    return StrictLoader


# libyaml parses and emits when PyYAML was built with it; the pure-Python
# parser and emitter are the fallback.
_StrictLoader = _strict_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def read_yaml(text: str, source: str):
    """The document of a building or scenario file, read with
    ``_StrictLoader``; malformed text is a ParseError naming the line."""
    try:
        return yaml.load(text, Loader=_StrictLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{source}:{mark.line + 1}" if mark is not None else source
        raise ParseError(f"{where}: not valid YAML: {exc}") from exc


def dump_yaml(doc) -> str:
    """``doc`` in the file format's layout (keys in insertion order,
    flow style for leaf collections), emitted with ``_Dumper``."""
    return yaml.dump(doc, Dumper=_Dumper, sort_keys=False, default_flow_style=None)


def load_building(text: str, source: str = "<string>") -> BuildingModel:
    """Parse and validate a building description.

    Raises ParseError on malformed YAML (with line context) and
    ValidationError listing every dangling reference, duplicate id, or
    constraint violation found.
    """
    raw = read_yaml(text, source)
    if not isinstance(raw, dict):
        raise ParseError(f"{source}: building file must be a mapping")
    return _build_model(raw, source)


def load_building_file(path: str | Path) -> BuildingModel:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read building file {path}: {exc}") from exc
    return load_building(text, source=str(path))


# What a field's reader gives for a field left out: its record's default.
ABSENT = object()


def read_section(
    section: dict, key: str, problems: list[str], prefix: str = "", kind: type = dict
):
    """A nested mapping field, or a list field with ``kind=list``; absent
    or null gives an empty one."""
    value = section.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        expected = "a mapping" if kind is dict else "a list"
        problems.append(f"field '{prefix}{key}' must be {expected}, got {value!r}")
        return kind()
    return value


class Field(NamedTuple):
    """One row of a file's field table: the field's dotted key path in
    the file, the dotted attribute its value fills, and its kind, which
    reads it (``read(section, key, prefix, problems)``, ``ABSENT`` when
    left out) and writes it back (``write(value)``)."""

    key: str
    attr: str
    kind: object


class Number(NamedTuple):
    """An integer (``type`` int) or a finite integer or float (``type``
    float), kept as written or, with ``coerce``, as a float. Null counts
    as left out; a field that is required, of the wrong type or below
    ``minimum`` is a problem."""

    type: type = float
    minimum: float | None = None
    coerce: bool = False
    required: bool = False

    def read(self, section, key, prefix, problems):
        name = prefix + key
        value = section.get(key)
        if value is None:
            if self.required:
                problems.append(f"missing required field '{name}'")
        elif isinstance(value, bool) or not isinstance(
            value, int if self.type is int else (int, float)
        ):
            expected = "an integer" if self.type is int else "a number"
            problems.append(f"field '{name}' must be {expected}, got {value!r}")
        elif isinstance(value, float) and not math.isfinite(value):
            problems.append(f"field '{name}' must be finite, got {value!r}")
        else:
            if self.minimum is not None and value < self.minimum:
                problems.append(
                    f"field '{name}' must be >= {self.minimum}, got {value}"
                )
            return float(value) if self.coerce else value
        return ABSENT

    def write(self, value):
        return value


class Choice(NamedTuple):
    """A member of ``enum``, by its value. Another value is a problem
    naming the field or, unless ``checked``, is passed on as written for
    the loader to name."""

    enum: type
    checked: bool = True

    def read(self, section, key, prefix, problems):
        if key not in section:
            return ABSENT
        value = section[key]
        try:
            return self.enum(value)
        except ValueError:
            if not self.checked:
                return value
            choices = [member.value for member in self.enum]
            problems.append(f"{prefix}{key} must be one of {choices}, got {value!r}")
            return ABSENT

    def write(self, value):
        return value.value


class Id:
    """An id, read as a string; null or empty counts as left out."""

    def read(self, section, key, prefix, problems):
        value = section.get(key)
        return ABSENT if value is None or value == "" else str(value)

    def write(self, value):
        return value


class Ids:
    """A list of ids, read as strings; a null or empty id is a problem."""

    def read(self, section, key, prefix, problems):
        ids = []
        for item in read_section(section, key, problems, prefix, list):
            if item is None or item == "":
                problems.append(f"field '{prefix}{key}' must list ids, got {item!r}")
            else:
                ids.append(str(item))
        return tuple(ids)

    def write(self, value):
        return list(value)


class Items(NamedTuple):
    """A list of mappings, each read with the field table ``fields``; an
    item that is not a mapping is a problem, and is read as None."""

    fields: tuple

    def read(self, section, key, prefix, problems):
        items = []
        for i, item in enumerate(read_section(section, key, problems, prefix, list)):
            where = f"{prefix}{key}[{i}]"
            if isinstance(item, dict):
                items.append(read_fields(item, self.fields, problems, where + "."))
            else:
                problems.append(f"{where} is not a mapping")
                items.append(None)
        return items

    def write(self, records):
        return [write_fields(self.fields, record) for record in records]


class ById(NamedTuple):
    """A mapping from ids (read as strings) to entries read with the field
    table ``fields``. Written from records with an ``id``: each record's
    fields that differ from the record type's defaults, if any does."""

    fields: tuple

    def read(self, section, key, prefix, problems):
        entries = read_section(section, key, problems, prefix)
        return {
            str(aid): read_fields(
                read_section(entries, aid, problems, f"{prefix}{key}."),
                self.fields, problems, f"{prefix}{key}.{aid}.",
            )
            for aid in entries
        }

    def write(self, records):
        written = {}
        for record in records:
            defaults = type(record)._field_defaults
            entry = {
                f.key: getattr(record, f.attr)
                for f in self.fields
                if getattr(record, f.attr) != defaults[f.attr]
            }
            if entry:
                written[record.id] = entry
        return written or ABSENT


def _put(doc: dict, path: str, value) -> None:
    *sections, key = path.split(".")
    for name in sections:
        doc = doc.setdefault(name, {})
    doc[key] = value


def read_fields(
    doc: dict, fields, problems: list[str], prefix: str = "", lenient=()
) -> dict:
    """The values in the mapping ``doc`` of the field table ``fields``,
    nested by attribute path. A field left out is left out here too, so
    that its record's default applies. A section (``doc`` itself, or a
    mapping on a key path) holding a key that no field names is a
    problem, unless the section's path is in ``lenient``. Each problem
    names its field after ``prefix``."""
    sections: dict[str, dict] = {}

    def section(path: str) -> dict:
        # path: a section's key path with a trailing dot, "" for doc
        if path not in sections:
            found = doc
            if path:
                parent, _, key = path[:-1].rpartition(".")
                parent = parent and parent + "."
                found = read_section(section(parent), key, problems, prefix + parent)
            if path[:-1] not in lenient:
                known = {
                    f.key[len(path):].split(".")[0]
                    for f in fields
                    if f.key.startswith(path)
                }
                for key in sorted(set(found) - known, key=str):
                    problems.append(f"unknown field '{prefix}{path}{key}'")
            sections[path] = found
        return sections[path]

    values: dict = {}
    for f in fields:
        path, _, key = f.key.rpartition(".")
        path = path and path + "."
        value = f.kind.read(section(path), key, prefix + path, problems)
        if value is not ABSENT:
            _put(values, f.attr, value)
    return values


def write_fields(fields, record) -> dict:
    """``record``'s values of the field table ``fields``, laid out as in
    the file."""
    doc: dict = {}
    for f in fields:
        value = f.kind.write(attrgetter(f.attr)(record))
        if value is not ABSENT:
            _put(doc, f.key, value)
    return doc


_WATTS = Number(float, minimum=0)
_COUNT = Number(int, minimum=0)
_IDS = Ids()

# The building file's fields, in file order. The `defaults` wattages fill
# the `light` and `computer` attributes: every spec's fields, unless an
# override entry sets that id's. ``serialize_building`` writes from the
# model with the default specs as `light` and `computer` and the specs as
# the override sections.
_FIELDS = (
    Field("base_load_watts", "base_load_watts", Number(float, 0, required=True)),
    Field("max_occupants", "max_occupants", Number(int, 0, required=True)),
    Field("defaults.light_watts_on", "light.watts_on", _WATTS),
    Field("defaults.computer_watts.off", "computer.watts_off", _WATTS),
    Field("defaults.computer_watts.standby", "computer.watts_standby", _WATTS),
    Field("defaults.computer_watts.on", "computer.watts_on", _WATTS),
    Field("lights", "lights", _IDS),
    Field("computers", "computers", _IDS),
    Field("rooms", "rooms", Items((
        Field("id", "id", Id()),
        Field("kind", "kind", Choice(RoomKind, checked=False)),
        Field("desk_capacity", "desk_capacity", _COUNT),
        Field("lights", "light_ids", _IDS),
        Field("computers", "computer_ids", _IDS),
    ))),
    Field("light_overrides", "light_overrides", ById((
        Field("watts_on", "watts_on", _WATTS),
    ))),
    Field("computer_overrides", "computer_overrides", ById(tuple(
        Field(key, key, _WATTS) for key in ("watts_off", "watts_standby", "watts_on")
    ))),
)


def _build_model(raw: dict, source: str) -> BuildingModel:
    problems: list[str] = []
    values = read_fields(raw, _FIELDS, problems)
    catalogs = {what: values[f"{what}s"] for what in ("light", "computer")}
    owners: dict[str, dict[str, str]] = {what: {} for what in catalogs}  # id -> room
    for what, catalog in catalogs.items():
        seen: set[str] = set()
        for appliance_id in catalog:
            if appliance_id in seen:
                problems.append(f"duplicate id '{appliance_id}' in {what}s catalog")
            seen.add(appliance_id)
        for aid in values[f"{what}_overrides"]:
            if aid not in catalog:
                problems.append(f"{what}_overrides names unknown {what} '{aid}'")

    rooms: list[Room] = []
    room_ids: set[str] = set()
    for i, fields in enumerate(values["rooms"]):
        if fields is None:
            continue  # not a mapping: reported
        if "id" not in fields:
            problems.append(f"rooms[{i}] missing 'id'")
            fields["id"] = f"rooms[{i}]"
        room_id = fields["id"]
        if room_id in room_ids:
            problems.append(f"duplicate room id '{room_id}'")
        room_ids.add(room_id)
        kind = fields.get("kind")
        if not isinstance(kind, RoomKind):
            problems.append(f"room '{room_id}' has unknown kind {kind!r}")
            fields["kind"] = RoomKind.OTHER_FACILITY
        room = Room(**fields)
        if room.kind in _DESKLESS_KINDS and room.desk_capacity != 0:
            problems.append(
                f"room '{room_id}' ({room.kind.value}) must have desk_capacity 0"
            )
        for what, ids in (("light", room.light_ids), ("computer", room.computer_ids)):
            owner = owners[what]
            for aid in ids:
                if aid not in catalogs[what]:
                    problems.append(
                        f"room '{room_id}' references undeclared {what} '{aid}'"
                    )
                elif aid in owner:
                    problems.append(
                        f"{what} '{aid}' referenced by both "
                        f"'{owner[aid]}' and '{room_id}'"
                    )
                else:
                    owner[aid] = room_id
        rooms.append(room)

    for what, catalog in catalogs.items():
        for aid in catalog:
            if aid not in owners[what]:
                problems.append(f"{what} '{aid}' is not placed in any room")

    if problems:
        raise ValidationError([f"{source}: {p}" for p in problems])

    def specs(what: str, spec: type) -> dict:
        # the file's defaults, then the id's overrides, then the spec's
        defaults, overrides = values.get(what, {}), values[f"{what}_overrides"]
        return {
            aid: spec(aid, owners[what][aid], **{**defaults, **overrides.get(aid, {})})
            for aid in catalogs[what]
        }

    return BuildingModel(
        rooms=tuple(rooms),
        lights=specs("light", LightSpec),
        computers=specs("computer", ComputerSpec),
        base_load_watts=values["base_load_watts"],
        max_occupants=values["max_occupants"],
    )


def serialize_building(model: BuildingModel) -> str:
    """Render a model back to the building file format: `defaults` holds
    the specs' default wattages, and an override entry each wattage of a
    spec that differs from its default.

    Loading the output yields a model equal to the input.
    """
    record = SimpleNamespace(
        **model._asdict(),
        light=LightSpec("", ""),
        computer=ComputerSpec("", ""),
        light_overrides=model.lights.values(),
        computer_overrides=model.computers.values(),
    )
    return dump_yaml(write_fields(_FIELDS, record))


def building_summary(model: BuildingModel) -> dict:
    """Exact inventory counts, grouped per appliance class and room kind."""
    by_kind_rooms: dict[str, int] = {}
    by_kind_lights: dict[str, int] = {}
    by_kind_computers: dict[str, int] = {}
    by_kind_desks: dict[str, int] = {}
    for room in model.rooms:
        kind = room.kind.value
        by_kind_rooms[kind] = by_kind_rooms.get(kind, 0) + 1
        by_kind_lights[kind] = by_kind_lights.get(kind, 0) + len(room.light_ids)
        by_kind_computers[kind] = by_kind_computers.get(kind, 0) + len(
            room.computer_ids
        )
        by_kind_desks[kind] = by_kind_desks.get(kind, 0) + room.desk_capacity
    return {
        "rooms": len(model.rooms),
        "lights": len(model.lights),
        "computers": len(model.computers),
        "desks": model.total_desk_capacity(),
        "max_occupants": model.max_occupants,
        "base_load_watts": model.base_load_watts,
        "rooms_by_kind": dict(sorted(by_kind_rooms.items())),
        "lights_by_kind": dict(sorted(by_kind_lights.items())),
        "computers_by_kind": dict(sorted(by_kind_computers.items())),
        "desks_by_kind": dict(sorted(by_kind_desks.items())),
    }
