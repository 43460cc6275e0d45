"""Local-hidden-variable polytope membership for behavior tables.

A table is LHV-explainable exactly when it is a convex mixture of the 16
deterministic product strategies (2 outcomes x 2 settings per side).  The
primary decision is a linear program over the vertex weights; the 8 CHSH
facet inequalities give an independent second route that is valid for
no-signaling tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .behavior import BehaviorTable, TableFormatError, _freeze
from .simplex import l1_feasibility

# The 16 deterministic strategies as tables [vertex][x][y][a][b].  Vertex k
# answers outcome index a_x on Alice's side and b_y on Bob's, with (a0, a1,
# b0, b1) running through product(range(2), repeat=4): Alice-major, (+1, +1)
# first on each side.  LP weight certificates are reported in this order.
_ANSWERS = np.eye(2)[list(product(range(2), repeat=4))]  # [vertex][a0 a1 b0 b1][outcome]
_VERTICES = _freeze(np.einsum("kxa,kyb->kxyab", _ANSWERS[:, :2], _ANSWERS[:, 2:]))

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


@dataclass(frozen=True)
class LocalityVerdict:
    """LP membership result with its certificate or violated facet."""

    is_local: bool
    weights: np.ndarray | None
    max_facet_value: float
    violated_facet: str | None
    lp_residual: float


def local_vertices() -> tuple[BehaviorTable, ...]:
    """The 16 extremal behavior tables, Alice-major, (+1, +1) first on each side."""
    return tuple(BehaviorTable(v) for v in _VERTICES)


def chsh_facets(table: BehaviorTable) -> np.ndarray:
    """The 8 CHSH expressions (setting/sign relabelings), in FACET_LABELS order.

    These are plain linear functionals of the table; using them as a locality
    criterion is only sound for no-signaling tables (see is_local_facets).
    """
    corr = table.correlators()
    total = corr.sum()
    values = []
    for minus in _SETTING_PAIRS:
        base = total - 2.0 * corr[minus]
        values.extend((base, -base))
    return np.array(values)


def is_local_lp(table: BehaviorTable, tol: float = 1e-9) -> LocalityVerdict:
    """Decide polytope membership by LP over the 16 vertex weights.

    Feasible means weights q >= 0 with sum 1 reproduce every table entry
    within ``tol``; the weights are returned as the certificate.  Works for
    signaling tables too (they are simply never members).
    """
    defect = table.normalization_defect()
    if defect > 1e-6:
        raise TableFormatError(f"table is not normalized (defect {defect}); refusing LP")

    target = np.concatenate([np.asarray(table.to_flat()), [1.0]])
    system = np.vstack([_VERTICES.reshape(16, 16).T, np.ones(16)])
    weights, residual = l1_feasibility(system, target)

    facets = chsh_facets(table)
    max_idx = int(np.argmax(facets))
    max_facet = float(facets[max_idx])
    local = residual <= tol
    return LocalityVerdict(
        is_local=local,
        weights=_freeze(weights) if local else None,
        max_facet_value=max_facet,
        violated_facet=None if local or max_facet <= 2.0 + tol else FACET_LABELS[max_idx],
        lp_residual=residual,
    )


def is_local_facets(table: BehaviorTable, tol: float = 1e-9, signaling_tol: float = 1e-8) -> bool:
    """Facet-based locality criterion: every CHSH expression at most 2.

    Complete for normalized no-signaling tables; raises
    :class:`SignalingTable` otherwise because the criterion is not a valid
    locality test when marginals depend on the remote setting.
    """
    defect = table.normalization_defect()
    if defect > 1e-6:
        raise TableFormatError(f"table is not normalized (defect {defect})")
    signaling = table.signaling_defect()
    if signaling > signaling_tol:
        raise SignalingTable(
            f"signaling defect {signaling} exceeds {signaling_tol}; facet criterion not applicable"
        )
    return bool(np.max(chsh_facets(table)) <= 2.0 + tol)
