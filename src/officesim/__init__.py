"""officesim: agent-based simulation of office building electricity use.

Occupant agents follow stereotype-driven daily schedules and interact
with passive light and computer agents; per-minute power samples are
decomposed into base, lighting, and computing consumption. Experiments
compare sensor-automated against staff-controlled lighting management
and report consumption proportions per appliance category.

The public names below are imported from their home modules on first
use, so ``import officesim`` loads no submodule and a command loads only
the layers it runs.
"""

from importlib import import_module

# CPython's own SHA-256: hashlib's is OpenSSL's, whose libcrypto adds ~3.6 MB.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # an interpreter built without either
        from hashlib import sha256

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOME_MODULES = {
    "BetaReport": "accounting",
    "EnergyLedger": "accounting",
    "HalfHourBin": "accounting",
    "category_proportions_masked": "accounting",
    "half_hour_bins": "accounting",
    "realized_beta": "accounting",
    "LightingPolicy": "appliances",
    "PolicyKind": "appliances",
    "manual_exit_decision": "appliances",
    "BuildingModel": "building",
    "Room": "building",
    "RoomKind": "building",
    "building_summary": "building",
    "load_building": "building",
    "load_building_file": "building",
    "serialize_building": "building",
    "ExperimentResult": "engine",
    "PolicyComparison": "engine",
    "ReplicationResult": "engine",
    "compare_policies": "engine",
    "derive_seed": "engine",
    "run_experiment": "engine",
    "run_replication": "engine",
    "AccountingError": "errors",
    "CapacityError": "errors",
    "ConfigError": "errors",
    "ParseError": "errors",
    "ValidationError": "errors",
    "SocialNetwork": "network",
    "build_small_world": "network",
    "contact_step": "network",
    "AgentState": "occupants",
    "BehaviorParams": "occupants",
    "EventKind": "occupants",
    "OccupantAgent": "occupants",
    "PopulationMix": "occupants",
    "ScheduleClass": "occupants",
    "Stereotype": "occupants",
    "awareness_to_switch_off_prob": "occupants",
    "sample_daily_schedule": "occupants",
    "sample_population": "occupants",
    "step_occupant": "occupants",
    "RunManifest": "scenario_io",
    "Scenario": "scenario_io",
    "emit_comparison": "scenario_io",
    "emit_experiment": "scenario_io",
    "parse_scenario": "scenario_io",
    "serialize_scenario": "scenario_io",
    "window_mask": "scenario_io",
}

__all__ = [*_HOME_MODULES, "REFERENCE_SCENARIO", "reference_scenario_path"]

REFERENCE_SCENARIO = "data/reference_scenario.yaml"


def reference_scenario_path() -> str:
    """Filesystem path of the bundled reference scenario."""
    from pathlib import Path

    return str(Path(__file__).parent / REFERENCE_SCENARIO)


def __getattr__(name: str):
    home = _HOME_MODULES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
