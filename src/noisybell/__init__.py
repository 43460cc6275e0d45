"""Nonlocality of noisy maximally entangled qudit pairs under sequential measurements.

The package builds the noisy entangled family, post-selects on a first-stage
subspace projection, evaluates CHSH at the maximal-violation settings, and
decides LHV-explainability of behavior tables by local-polytope membership.
"""

from .behavior import BehaviorTable, TableFormatError, load_table, save_table
from .family import (
    C_THRESHOLD,
    TSIRELSON_BOUND,
    chsh_closed_form,
    is_separable_family,
    retained_fraction,
    separability_threshold,
    sequential_joint_distribution,
    success_probability,
    violates_chsh,
    violation_threshold,
)
from .polytope import (
    FACET_LABELS,
    LocalityVerdict,
    SignalingTable,
    is_local_facets,
    is_local_lp,
)
from .sampling import ExperimentSample, sample_experiment
from .scan import Table, bisect_threshold, gap_rows, scan_grid, threshold_rows

__version__ = "0.1.0"

__all__ = [
    "BehaviorTable",
    "C_THRESHOLD",
    "ExperimentSample",
    "FACET_LABELS",
    "LocalityVerdict",
    "SignalingTable",
    "TSIRELSON_BOUND",
    "Table",
    "TableFormatError",
    "bisect_threshold",
    "chsh_closed_form",
    "gap_rows",
    "is_local_facets",
    "is_local_lp",
    "is_separable_family",
    "load_table",
    "retained_fraction",
    "sample_experiment",
    "save_table",
    "scan_grid",
    "separability_threshold",
    "sequential_joint_distribution",
    "success_probability",
    "threshold_rows",
    "violates_chsh",
    "violation_threshold",
]
