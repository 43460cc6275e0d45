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

The weight certificate comes from :func:`l1_feasibility`, which solves the
one membership system: A holds the 16 vertices as columns over the table's
16 entries, plus a row of ones for the weights' sum, and b is a table's
entries, then 1.  It solves min sum|A x - b| subject to x >= 0 as the
standard linear program min sum(p + q) s.t. A x + p - q = b, all variables
nonnegative.  The optimum is 0 exactly when A x = b has a nonnegative
solution, and the optimal L1 residual bounds every entrywise residual from
above, so one tolerance reads "feasible within tol".  It is a dense
tableau with Bland's rule over the program's 17 rows and 50 columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .behavior import SIGNALING_TOL, BehaviorTable, _freeze

LOCALITY_TOL = 1e-9  # default LP residual and facet margin of a local verdict

# l1_feasibility's tolerances: an improving reduced cost, then an eligible pivot and a ratio tie.
_COST_EPS = 1e-11
_PIVOT_EPS = 1e-12
_MAX_PIVOTS = 2000  # Bland's rule terminates in exact arithmetic; this caps round-off cycling

# The 16 deterministic strategies as tables [vertex][x][y][a][b].  Vertex k
# answers outcome index a_x on Alice's side and b_y on Bob's, with (a0, a1,
# b0, b1) running through product(range(2), repeat=4): Alice-major, (+1, +1)
# first on each side.  LP weight certificates are reported in this order.
_ANSWERS = np.eye(2)[list(product(range(2), repeat=4))]  # [vertex][a0 a1 b0 b1][outcome]
_VERTICES = np.einsum("kxa,kyb->kxyab", _ANSWERS[:, :2], _ANSWERS[:, 2:])
# LP rows: the 16 table entries as vertex mixtures, then the weights' sum.
_LP_SYSTEM = _freeze(np.vstack([_VERTICES.reshape(16, 16).T, np.ones(16)]))
# l1_feasibility's starting tableau [A | I | -I | b] over the cost row, which charges 1
# per residual column.  b's last entry, the weights' sum 1, is set here; each call copies
# the tableau and writes its table's 16 entries above it.
_M, _N = _LP_SYSTEM.shape
_START = np.zeros((_M + 1, _N + 2 * _M + 1))
_START[:_M, :_N] = _LP_SYSTEM
_START[:_M, _N:_N + _M] = np.eye(_M)
_START[:_M, _N + _M:-1] = -np.eye(_M)
_START[_M, _N:-1] = 1.0
_START[_M - 1, -1] = 1.0
_freeze(_START)
_COST_FIRST = [_M, *range(_M)]  # the cost row, then the constraint rows


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
    weights, residual = l1_feasibility(table.probs)
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
    return violated_facet(table, tol) is None


def violated_facet(table: BehaviorTable, tol: float = LOCALITY_TOL) -> int | None:
    """Index in ``behavior.FACET_LABELS`` of the largest CHSH facet if it exceeds 2 + tol, else None.

    The one facet test of the module.  It reads any table's facets; only for
    a no-signaling table does None mean local (Fine's theorem).
    """
    check_tolerance(tol)
    facets = table.facets
    largest = int(facets.argmax())
    return largest if facets[largest] > 2.0 + tol else None


def l1_feasibility(probs: np.ndarray) -> tuple[np.ndarray, float]:
    """Return (x, residual) minimizing sum|A x - b| over vertex weights x >= 0.

    ``A`` is :data:`_LP_SYSTEM`, and ``b`` is the 16 entries of ``probs`` in
    [x][y][a][b] order, then the weights' sum, 1.  Each call copies the
    frozen starting tableau, whose last column already ends in that 1,
    writes the 16 entries above it, and negates the rows of its negative
    entries, if there are any (a table admits entries down to
    -NEGATIVITY_TOL).

    The per-pivot buffers are made once per call: the entering column's
    multipliers, with 0.0 in the pivot row, and their product with the
    pivot row.  Each pivot writes into them with ``out=`` and subtracts the
    product from the whole tableau.  It reads the entering column, cost row
    included, once as Python floats, and divides the pivot row by its pivot
    entry as a Python float, which gives the bits of the float64 division.

    Why the unmasked update gives the bits of one that skips the rows whose
    entering entry is zero (``tests/simplex_oracle.py``): every entry is
    finite, since a table's are, so such a row, the pivot row included,
    subtracts a product of +-0.0.  That keeps each nonzero entry bit for bit
    and can change only the sign of a zero.  Under IEEE addition,
    subtraction, multiplication and division by a nonzero pivot, the sign of
    a zero reaches only the sign of a zero result.  The tests
    ``> _PIVOT_EPS`` and ``< -_COST_EPS`` and the ratio test's ties read 0.0
    and -0.0 alike, and the weights and the residual pass through
    ``max(v, 0.0) + 0.0``, which makes either zero 0.0.
    """
    entries = np.asarray(probs, dtype=float).reshape(-1)
    if entries.size != _M - 1:
        raise ValueError(f"the membership LP takes a table's 16 entries, got {entries.size}")
    m, n = _M, _N

    # Flip the rows of negative entries, so the right-hand side is nonnegative
    # and the +1 residual columns form a feasible starting basis.
    tableau = _START.copy()
    tableau[:m - 1, -1] = entries
    flipped = (entries < 0.0).nonzero()[0]
    if flipped.size:
        tableau[flipped, :n] *= -1.0
        tableau[flipped, -1] *= -1.0
    basis = list(range(n, n + m))

    # Reduced-cost row for the initial basis: the cost row minus each
    # constraint row in turn, which a reduce along axis 0 does in the same order.
    tableau[m] = np.subtract.reduce(tableau[_COST_FIRST], axis=0)

    # Views and buffers made once per solve; each pivot reads and writes through them.
    reduced = tableau[m, :-1]  # a view, so it follows every pivot
    rhs_column = tableau[:m, -1]
    product = np.empty_like(tableau)
    multipliers = np.empty((m + 1, 1))
    for _ in range(_MAX_PIVOTS):
        # Bland's rule: the lowest-index improving column enters; argmax returns the first True.
        improving = reduced < -_COST_EPS
        entering = int(improving.argmax())
        if not improving[entering]:
            break

        # The ratio test runs on Python floats, read once per pivot: IEEE
        # division and comparison give the same bits as on float64 scalars.
        column = tableau[:, entering]
        coefs = column.tolist()  # the cost row's entry last
        rhs = rhs_column.tolist()
        leaving = -1
        best_ratio = np.inf
        for i in range(m):
            coef = coefs[i]
            if coef > _PIVOT_EPS:
                ratio = rhs[i] / coef
                if ratio < best_ratio - _PIVOT_EPS or (
                    abs(ratio - best_ratio) <= _PIVOT_EPS
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise RuntimeError("L1 feasibility LP is unbounded; inputs are malformed")

        pivot_row = tableau[leaving]
        pivot_row /= coefs[leaving]
        # Every row, the pivot row with a multiplier of 0.0, subtracts its multiple of the pivot row.
        multipliers[:, 0] = column
        multipliers[leaving, 0] = 0.0
        np.multiply(multipliers, pivot_row, out=product)
        np.subtract(tableau, product, out=tableau)
        basis[leaving] = entering
    else:
        raise RuntimeError(f"simplex did not converge within {_MAX_PIVOTS} pivots")

    # max keeps its first argument on a tie, so max(-0.0, 0.0) is -0.0; adding
    # 0.0 turns that into 0.0 and keeps every other value, NaN included.
    x = np.zeros(n)
    for var, value in zip(basis, rhs_column.tolist()):
        if var < n:
            x[var] = max(value, 0.0) + 0.0
    residual = max(-float(tableau[m, -1]), 0.0) + 0.0
    return x, residual
