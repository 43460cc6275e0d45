"""Local-hidden-variable polytope membership for behavior tables.

A table is LHV-explainable exactly when it is a convex mixture of the 16
deterministic product strategies (2 outcomes x 2 settings per side).  The
verdict has one definition.  A table whose signaling defect is at most
SIGNALING_TOL is local when each of the 8 CHSH facets is at most 2 + tol,
which Fine's theorem makes exact.  Any other table is local when the L1
residual of a linear program over the 16 vertex weights is at most tol.
Every vertex is no-signaling, so that residual is at least the table's
signaling defect, and a defect above tol decides the verdict without the
linear program.  The linear program also gives a local table's weight
certificate.  The facets and the signaling defect are the table's own,
computed once when it was built, so the verdict and a report on it read
one evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .behavior import SIGNALING_TOL, BehaviorTable, _freeze
from .simplex import l1_feasibility

LOCALITY_TOL = 1e-9  # default LP residual and facet margin of a local verdict

# The 16 deterministic strategies as tables [vertex][x][y][a][b].  Vertex k
# answers outcome index a_x on Alice's side and b_y on Bob's, with (a0, a1,
# b0, b1) running through product(range(2), repeat=4): Alice-major, (+1, +1)
# first on each side.  LP weight certificates are reported in this order.
_ANSWERS = np.eye(2)[list(product(range(2), repeat=4))]  # [vertex][a0 a1 b0 b1][outcome]
_VERTICES = np.einsum("kxa,kyb->kxyab", _ANSWERS[:, :2], _ANSWERS[:, 2:])
# LP rows: the 16 table entries as vertex mixtures, then the weights' sum.
_LP_SYSTEM = _freeze(np.vstack([_VERTICES.reshape(16, 16).T, np.ones(16)]))

_SETTING_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _facet_label(minus: tuple[int, int], sign: str) -> str:
    plus_terms = "+".join(f"E{x}{y}" for (x, y) in _SETTING_PAIRS if (x, y) != minus)
    return f"{sign}[{plus_terms}-E{minus[0]}{minus[1]}]"


# Facet order: position of the minus sign, then global sign (+ before -).
FACET_LABELS = tuple(
    _facet_label(minus, sign) for minus in _SETTING_PAIRS for sign in ("+", "-")
)


class SignalingTable(ValueError):
    """The facet criterion was applied to a table with signaling marginals."""


@dataclass(frozen=True, eq=False)
class LocalityVerdict:
    """Locality verdict, with the LP's weight certificate of a local table, rescaled to sum to 1."""

    is_local: bool
    weights: np.ndarray | None


def check_tolerance(tol: float) -> float:
    """Return ``tol`` if it is a finite real >= 0; a NaN or negative one would decide verdicts."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tol}")
    return tol


def is_local_lp(table: BehaviorTable, tol: float = LOCALITY_TOL) -> LocalityVerdict:
    """Decide polytope membership, with weights over the 16 vertices as the certificate.

    The verdict is the module's one definition: :func:`is_local_facets` for
    a no-signaling table, else the LP's L1 residual at most ``tol``.  That
    residual is at least the signaling defect, so a signaling table whose
    defect exceeds ``tol`` is nonlocal without the LP, also where the float
    LP's round-off would have read a residual just under ``tol``.  The LP
    runs only for a local verdict's weights or to decide a signaling table
    whose defect is at most ``tol``.
    """
    check_tolerance(tol)
    no_signaling = table.is_no_signaling()
    if not (is_local_facets(table, tol) if no_signaling else table.signaling_defect <= tol):
        return LocalityVerdict(is_local=False, weights=None)
    weights, residual = l1_feasibility(_LP_SYSTEM, np.append(table.probs, 1.0))  # the 16 entries, then the sum
    local = no_signaling or residual <= tol
    return LocalityVerdict(is_local=local, weights=_freeze(weights / weights.sum()) if local else None)


def is_local_facets(table: BehaviorTable, tol: float = LOCALITY_TOL) -> bool:
    """Facet-based locality criterion: every CHSH expression at most 2.

    Every table is non-negative and normalized by construction, so the test
    is complete for no-signaling tables (Fine's theorem); raises
    :class:`SignalingTable` otherwise because the criterion is not a valid
    locality test when marginals depend on the remote setting.
    """
    check_tolerance(tol)
    if not table.is_no_signaling():
        raise SignalingTable(
            f"signaling defect {table.signaling_defect} exceeds {SIGNALING_TOL}; facet criterion not applicable"
        )
    return bool(table.facets.max() <= 2.0 + tol)
