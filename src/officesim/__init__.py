"""officesim: agent-based simulation of office building electricity use.

Occupant agents follow stereotype-driven daily schedules and interact
with passive light and computer agents; per-minute power samples are
decomposed into base, lighting, and computing consumption. Experiments
compare sensor-automated against staff-controlled lighting management
and report consumption proportions per appliance category.
"""

__version__ = "0.1.0"

from .accounting import (
    BetaReport,
    EnergyLedger,
    HalfHourBin,
    category_proportions,
    category_proportions_masked,
    half_hour_bins,
    realized_beta,
)
from .appliances import (
    LightingPolicy,
    PolicyKind,
    computer_apply_event,
    manual_exit_decision,
)
from .building import (
    BuildingModel,
    Room,
    RoomKind,
    building_summary,
    load_building,
    load_building_file,
    serialize_building,
)
from .engine import (
    ExperimentResult,
    PolicyComparison,
    ReplicationResult,
    Scenario,
    compare_policies,
    derive_seed,
    run_experiment,
    run_replication,
)
from .errors import (
    AccountingError,
    CapacityError,
    ConfigError,
    ParseError,
    ValidationError,
)
from .network import ContactEvent, SocialNetwork, build_small_world, contact_step
from .occupants import (
    AgentState,
    BehaviorParams,
    EventKind,
    OccupantAgent,
    OccupantEvent,
    PopulationMix,
    ScheduleClass,
    Stereotype,
    awareness_to_switch_off_prob,
    sample_daily_schedule,
    sample_population,
    step_occupant,
)
from .scenario_io import (
    RunManifest,
    emit_comparison,
    emit_experiment,
    parse_scenario,
    serialize_scenario,
    window_mask,
)

REFERENCE_SCENARIO = "data/reference_scenario.yaml"


def reference_scenario_path() -> str:
    """Filesystem path of the bundled reference scenario."""
    from pathlib import Path

    return str(Path(__file__).parent / REFERENCE_SCENARIO)
