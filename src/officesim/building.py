"""Physical building description: rooms, appliance inventory, base load.

Building files are YAML with a top-level appliance catalog and a list of
room blocks that reference catalog ids:

    base_load_watts: 5000
    max_occupants: 213
    defaults:
      light_watts_on: 60
      computer_watts: {off: 0, standby: 25, on: 400}
    lights: [L001, L002, ...]
    light_overrides:            # optional, per-id wattage overrides
      L001: {watts_on: 80}
    computers: [K001, ...]
    computer_overrides:
      K001: {watts_standby: 30}
    rooms:
      - id: office-1
        kind: private_office    # private_office | shared_office | corridor |
                                # kitchen | toilet | lab | other_facility
        desk_capacity: 1
        lights: [L001]
        computers: [K001]

Every catalog id must be referenced by exactly one room. Corridors,
toilets and kitchens must have desk_capacity 0. A field the format does
not name is an error. A model is immutable once loaded.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import yaml

from .errors import ParseError, ValidationError

DEFAULT_LIGHT_WATTS = 60
DEFAULT_COMPUTER_WATTS = (0, 25, 400)  # off, standby, on

_TOP_LEVEL_FIELDS = (
    "base_load_watts", "max_occupants", "defaults", "lights", "light_overrides",
    "computers", "computer_overrides", "rooms",
)
_ROOM_FIELDS = ("id", "kind", "desk_capacity", "lights", "computers")
_COMPUTER_STATES = ("off", "standby", "on")
_COMPUTER_FIELDS = ("watts_off", "watts_standby", "watts_on")


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


@dataclass(frozen=True)
class LightSpec:
    id: str
    room_id: str
    watts_on: float = DEFAULT_LIGHT_WATTS


@dataclass(frozen=True)
class ComputerSpec:
    id: str
    room_id: str
    watts_off: float = 0.0
    watts_standby: float = 25.0
    watts_on: float = 400.0


@dataclass(frozen=True)
class Room:
    id: str
    kind: RoomKind
    desk_capacity: int
    light_ids: tuple[str, ...] = ()
    computer_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class BuildingModel:
    rooms: tuple[Room, ...]
    lights: dict[str, LightSpec]
    computers: dict[str, ComputerSpec]
    base_load_watts: float
    max_occupants: int

    def room(self, room_id: str) -> Room:
        return self._rooms_by_id[room_id]

    @cached_property
    def _rooms_by_id(self) -> dict[str, Room]:
        return {r.id: r for r in self.rooms}

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


_REQUIRED = object()


def read_field(
    section: dict,
    key: str,
    kind: type,
    problems: list[str],
    default=_REQUIRED,
    minimum: float | None = None,
    prefix: str = "",
):
    """Typed field reader shared by the building and scenario loaders.

    ``kind`` is int (an integer) or float (a finite integer or float,
    returned as written). A missing or null field gives ``default``; a
    field that is required, of the wrong type or below ``minimum`` adds a
    problem naming ``prefix + key``, and the reader returns a placeholder.
    """
    name = prefix + key
    value = section.get(key)
    if value is None:
        if default is _REQUIRED:
            problems.append(f"missing required field '{name}'")
            return 0
        return default
    if isinstance(value, bool) or not isinstance(
        value, int if kind is int else (int, float)
    ):
        expected = "an integer" if kind is int else "a number"
        problems.append(f"field '{name}' must be {expected}, got {value!r}")
        return 0 if default is _REQUIRED else default
    if isinstance(value, float) and not math.isfinite(value):
        problems.append(f"field '{name}' must be finite, got {value!r}")
        return 0 if default is _REQUIRED else default
    if minimum is not None and value < minimum:
        problems.append(f"field '{name}' must be >= {minimum}, got {value}")
    return value


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


def reject_unknown(
    section: dict, known, problems: list[str], prefix: str = ""
) -> None:
    """Adds a problem naming each field of ``section`` not in ``known``."""
    for key in sorted(set(section) - set(known), key=str):
        problems.append(f"unknown field '{prefix}{key}'")


def _overrides(
    raw: dict, key: str, catalog: list[str], what: str, fields, problems: list[str]
) -> dict[str, dict]:
    """Per-id override mappings of ``fields``, keyed by id as a string;
    each id must be in ``catalog``."""
    section = read_section(raw, key, problems)
    overrides = {}
    for aid in section:
        if str(aid) not in catalog:
            problems.append(f"{key} names unknown {what} '{aid}'")
        entry = read_section(section, aid, problems, prefix=f"{key}.")
        reject_unknown(entry, fields, problems, prefix=f"{key}.{aid}.")
        overrides[str(aid)] = entry
    return overrides


def _build_model(raw: dict, source: str) -> BuildingModel:
    problems: list[str] = []
    reject_unknown(raw, _TOP_LEVEL_FIELDS, problems)

    base_load_watts = read_field(raw, "base_load_watts", float, problems, minimum=0)
    max_occupants = read_field(raw, "max_occupants", int, problems, minimum=0)

    defaults = read_section(raw, "defaults", problems)
    reject_unknown(defaults, ("light_watts_on", "computer_watts"), problems, "defaults.")
    light_default = read_field(
        defaults, "light_watts_on", float, problems,
        default=DEFAULT_LIGHT_WATTS, minimum=0, prefix="defaults.",
    )
    cw = read_section(defaults, "computer_watts", problems, prefix="defaults.")
    reject_unknown(cw, _COMPUTER_STATES, problems, "defaults.computer_watts.")
    computer_default = tuple(
        read_field(
            cw, key, float, problems,
            default=fallback, minimum=0, prefix="defaults.computer_watts.",
        )
        for key, fallback in zip(_COMPUTER_STATES, DEFAULT_COMPUTER_WATTS)
    )

    light_ids = [str(x) for x in read_section(raw, "lights", problems, kind=list)]
    computer_ids = [str(x) for x in read_section(raw, "computers", problems, kind=list)]
    for catalog, name in ((light_ids, "lights"), (computer_ids, "computers")):
        seen: set[str] = set()
        for appliance_id in catalog:
            if appliance_id in seen:
                problems.append(f"duplicate id '{appliance_id}' in {name} catalog")
            seen.add(appliance_id)
    light_overrides = _overrides(
        raw, "light_overrides", light_ids, "light", ("watts_on",), problems
    )
    computer_overrides = _overrides(
        raw, "computer_overrides", computer_ids, "computer", _COMPUTER_FIELDS, problems
    )
    light_watts = {
        lid: read_field(
            light_overrides.get(lid, {}), "watts_on", float, problems,
            default=light_default, minimum=0, prefix=f"light_overrides.{lid}.",
        )
        for lid in light_ids
    }
    computer_watts = {
        cid: tuple(
            read_field(
                computer_overrides.get(cid, {}), key, float, problems,
                default=fallback, minimum=0, prefix=f"computer_overrides.{cid}.",
            )
            for key, fallback in zip(_COMPUTER_FIELDS, computer_default)
        )
        for cid in computer_ids
    }

    rooms: list[Room] = []
    room_ids: set[str] = set()
    light_owner: dict[str, str] = {}
    computer_owner: dict[str, str] = {}
    for i, block in enumerate(read_section(raw, "rooms", problems, kind=list)):
        if not isinstance(block, dict):
            problems.append(f"rooms[{i}] is not a mapping")
            continue
        where = f"rooms[{i}]."
        reject_unknown(block, _ROOM_FIELDS, problems, where)
        room_id = str(block.get("id", f"rooms[{i}]"))
        if "id" not in block:
            problems.append(f"rooms[{i}] missing 'id'")
        if room_id in room_ids:
            problems.append(f"duplicate room id '{room_id}'")
        room_ids.add(room_id)

        kind_text = block.get("kind")
        try:
            kind = RoomKind(kind_text)
        except ValueError:
            problems.append(f"room '{room_id}' has unknown kind {kind_text!r}")
            kind = RoomKind.OTHER_FACILITY

        desk_capacity = read_field(
            block, "desk_capacity", int, problems, default=0, minimum=0, prefix=where
        )
        if kind in _DESKLESS_KINDS and desk_capacity != 0:
            problems.append(
                f"room '{room_id}' ({kind.value}) must have desk_capacity 0"
            )

        room_lights = tuple(
            str(x) for x in read_section(block, "lights", problems, where, list)
        )
        room_computers = tuple(
            str(x) for x in read_section(block, "computers", problems, where, list)
        )
        for lid in room_lights:
            if lid not in light_ids:
                problems.append(
                    f"room '{room_id}' references undeclared light '{lid}'"
                )
            elif lid in light_owner:
                problems.append(
                    f"light '{lid}' referenced by both "
                    f"'{light_owner[lid]}' and '{room_id}'"
                )
            else:
                light_owner[lid] = room_id
        for cid in room_computers:
            if cid not in computer_ids:
                problems.append(
                    f"room '{room_id}' references undeclared computer '{cid}'"
                )
            elif cid in computer_owner:
                problems.append(
                    f"computer '{cid}' referenced by both "
                    f"'{computer_owner[cid]}' and '{room_id}'"
                )
            else:
                computer_owner[cid] = room_id

        rooms.append(Room(room_id, kind, desk_capacity, room_lights, room_computers))

    for lid in light_ids:
        if lid not in light_owner:
            problems.append(f"light '{lid}' is not placed in any room")
    for cid in computer_ids:
        if cid not in computer_owner:
            problems.append(f"computer '{cid}' is not placed in any room")

    if problems:
        raise ValidationError([f"{source}: {p}" for p in problems])

    lights = {
        lid: LightSpec(lid, light_owner[lid], light_watts[lid]) for lid in light_ids
    }
    computers = {
        cid: ComputerSpec(cid, computer_owner[cid], *computer_watts[cid])
        for cid in computer_ids
    }
    return BuildingModel(
        rooms=tuple(rooms),
        lights=lights,
        computers=computers,
        base_load_watts=base_load_watts,
        max_occupants=max_occupants,
    )


def serialize_building(model: BuildingModel) -> str:
    """Render a model back to the building file format.

    Loading the output yields a model equal to the input.
    """
    doc = {
        "base_load_watts": model.base_load_watts,
        "max_occupants": model.max_occupants,
        "defaults": {
            "light_watts_on": DEFAULT_LIGHT_WATTS,
            "computer_watts": {
                "off": DEFAULT_COMPUTER_WATTS[0],
                "standby": DEFAULT_COMPUTER_WATTS[1],
                "on": DEFAULT_COMPUTER_WATTS[2],
            },
        },
        "lights": list(model.lights),
        "computers": list(model.computers),
        "rooms": [
            {
                "id": r.id,
                "kind": r.kind.value,
                "desk_capacity": r.desk_capacity,
                "lights": list(r.light_ids),
                "computers": list(r.computer_ids),
            }
            for r in model.rooms
        ],
    }
    light_overrides = {
        s.id: {"watts_on": s.watts_on}
        for s in model.lights.values()
        if s.watts_on != DEFAULT_LIGHT_WATTS
    }
    computer_overrides = {}
    for s in model.computers.values():
        entry = {}
        if s.watts_off != DEFAULT_COMPUTER_WATTS[0]:
            entry["watts_off"] = s.watts_off
        if s.watts_standby != DEFAULT_COMPUTER_WATTS[1]:
            entry["watts_standby"] = s.watts_standby
        if s.watts_on != DEFAULT_COMPUTER_WATTS[2]:
            entry["watts_on"] = s.watts_on
        if entry:
            computer_overrides[s.id] = entry
    if light_overrides:
        doc["light_overrides"] = light_overrides
    if computer_overrides:
        doc["computer_overrides"] = computer_overrides
    return dump_yaml(doc)


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
