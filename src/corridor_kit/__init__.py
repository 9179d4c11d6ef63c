"""corridor-kit: near-optimal pathway exploration for capacity-expansion models.

Cost-optimal myopic pathways, min/max near-optimal pathways of electrolytic
hydrogen production under a total-system-cost budget, robust corridors across
scenario ensembles, dual-based subsidy estimation and sensitivity regression,
with a bundled desk-scale test system.
"""

__version__ = "0.1.0"

from .analysis import (
    CollinearDesignError,
    Interval,
    SubsidyEstimate,
    corridor,
    coverage_breakpoints,
    intervals_from_records,
    quantile_corridor,
    report,
    sensitivity,
    subsidy,
    tapering_point,
)
from .fleet import Fleet, FleetEntry, fleet_from_document
from .lp import LpBuilder, LpProblem, write_lp_file
from .mga import SlackSpec, add_cost_budget, budgeted_step, extremize
from .network import (
    AssetSpec,
    Bus,
    Carrier,
    GlobalLimit,
    Network,
    SnapshotSet,
    ValidationError,
    annuity,
    build_network,
    mt_to_twh,
    twh_to_mt,
    validate_network,
)
from .pathway import HorizonStep, PathwayRecord, carry_over, phase_out, run_pathways
from .reduction import Segmentation, reduce_document, segment
from .runner import ResultsStore, RunManifest, run_matrix, run_scenario
from .scenarios import (
    ConfigurationError,
    Level,
    Scenario,
    SettingCategory,
    apply_scenario,
    enumerate_scenarios,
    load_categories,
    shift_transport,
    subset_categories,
)
from .schedules import Schedule, schedule_value
from .simplex import LpSolution, ResidualReport, solve, verify_kkt
from .translate import DispatchResult, StructuralError, extract, translate
