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
    chsh_closed_form,
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
)
from .sampling import ExperimentSample, sample_experiment
from .scan import Table, bisect_threshold, gap_rows, scan_grid, threshold_rows
from .sequential import sequential_joint_distribution, success_probability
from .states import is_separable_family, noisy_state

__version__ = "0.1.0"

__all__ = [
    "BehaviorTable",
    "C_THRESHOLD",
    "ChshSettings",
    "ExperimentSample",
    "FACET_LABELS",
    "LocalityVerdict",
    "SignalingTable",
    "TSIRELSON_BOUND",
    "Table",
    "TableFormatError",
    "bisect_threshold",
    "chsh_closed_form",
    "chsh_facets",
    "gap_rows",
    "is_local_facets",
    "is_local_lp",
    "is_separable_family",
    "load_table",
    "noisy_state",
    "retained_fraction",
    "sample_experiment",
    "save_table",
    "scan_grid",
    "sequential_joint_distribution",
    "success_probability",
    "threshold_rows",
    "tsirelson_settings",
    "violation_threshold",
]
