"""Nonlocality of noisy maximally entangled qudit pairs under sequential measurements.

The package builds the noisy entangled family, post-selects on a first-stage
subspace projection, evaluates CHSH at the maximal-violation settings, and
decides LHV-explainability of behavior tables by local-polytope membership.
"""

from .behavior import BehaviorTable, TableFormatError, load_table, save_table
from .chsh import (
    C_THRESHOLD,
    TSIRELSON_BOUND,
    ChshSettings,
    DichotomicObservable,
    behavior_table,
    chsh_closed_form,
    chsh_value,
    correlator,
    retained_fraction,
    tsirelson_settings,
    violation_threshold,
)
from .polytope import (
    FACET_LABELS,
    LocalityVerdict,
    SignalingTable,
    chsh_facets,
    is_local_facets,
    is_local_lp,
    local_vertices,
)
from .sampling import ExperimentSample, sample_experiment
from .scan import ScanRecord, bisect_threshold, gap_rows, scan_grid, scan_record, threshold_rows
from .sequential import (
    SequentialJointDistribution,
    SubspaceProjector,
    ZeroProbabilityBranch,
    condition_on_first,
    first_two_levels,
    post_select,
    post_selected_closed_form,
    sequential_joint_distribution,
    success_probability,
)
from .states import (
    DensityMatrix,
    PureState,
    StateDiagnostics,
    expectations,
    is_separable_family,
    max_entangled,
    noisy_state,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "BehaviorTable",
    "C_THRESHOLD",
    "ChshSettings",
    "DensityMatrix",
    "DichotomicObservable",
    "ExperimentSample",
    "FACET_LABELS",
    "LocalityVerdict",
    "PureState",
    "ScanRecord",
    "SequentialJointDistribution",
    "SignalingTable",
    "StateDiagnostics",
    "SubspaceProjector",
    "TSIRELSON_BOUND",
    "TableFormatError",
    "ZeroProbabilityBranch",
    "behavior_table",
    "bisect_threshold",
    "chsh_closed_form",
    "chsh_facets",
    "chsh_value",
    "condition_on_first",
    "correlator",
    "expectations",
    "first_two_levels",
    "gap_rows",
    "is_local_facets",
    "is_local_lp",
    "is_separable_family",
    "load_table",
    "local_vertices",
    "max_entangled",
    "noisy_state",
    "post_select",
    "post_selected_closed_form",
    "retained_fraction",
    "sample_experiment",
    "save_table",
    "scan_grid",
    "scan_record",
    "sequential_joint_distribution",
    "success_probability",
    "threshold_rows",
    "tsirelson_settings",
    "validate",
    "violation_threshold",
]
