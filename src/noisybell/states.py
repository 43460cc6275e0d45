"""Noisy maximally entangled two-qudit states.

Builds the one-parameter family obtained by mixing the uniform-amplitude
maximally entangled state of two N-level systems with white noise, decides
separability for that family from its known closed-form boundary, and
provides the linear-algebra helpers (local-operator expectations, state
diagnostics) the rest of the package is written against.

All values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior import _freeze


def _as_complex_matrix(values: object, name: str) -> np.ndarray:
    mat = np.array(values, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} contains non-finite entries")
    return mat


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector.

    The Euclidean norm must be 1 within 1e-12; construction fails otherwise.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size == 0:
            raise ValueError("state vector must be non-empty")
        if not np.all(np.isfinite(amp)):
            raise ValueError("state vector contains non-finite entries")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state vector norm {norm} is not 1 within 1e-12")
        object.__setattr__(self, "amplitudes", _freeze(amp))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> "DensityMatrix":
        """Rank-1 density matrix |psi><psi|."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Dense complex square matrix representing a mixed state.

    Construction checks only shape and finiteness so that imperfect matrices
    can be wrapped and inspected; :func:`validate` reports how far a matrix is
    from the Hermitian / unit-trace / positive-semidefinite contract.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _as_complex_matrix(self.matrix, "density matrix")
        object.__setattr__(self, "matrix", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the Hermitian part."""
        return np.linalg.eigvalsh((self.matrix + self.matrix.conj().T) / 2.0)


@dataclass(frozen=True)
class StateDiagnostics:
    """Defect report produced by :func:`validate`."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    tol: float
    psd_tol: float

    @property
    def ok(self) -> bool:
        return (
            self.hermiticity_defect <= self.tol
            and self.trace_defect <= self.tol
            and self.min_eigenvalue >= -self.psd_tol
        )


def max_entangled(n: int) -> PureState:
    """Uniform-amplitude entangled state of two n-level systems.

    Amplitude 1/sqrt(n) at every doubled basis index m*n + m (0-based,
    first factor major), zero elsewhere; the result lives in dimension n**2.
    """
    if n < 2:
        raise ValueError(f"local dimension must be at least 2, got {n}")
    amp = np.zeros(n * n, dtype=complex)
    amp[np.arange(n) * n + np.arange(n)] = 1.0 / math.sqrt(n)
    return PureState(amp)


def check_family(n: int, noise: float) -> None:
    """Reject parameters outside the family: n >= 2 levels, noise in [0, 1]."""
    if n < 2:
        raise ValueError(f"local dimension must be at least 2, got {n}")
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise fraction must lie in [0, 1], got {noise}")


def noisy_state(n: int, noise: float) -> DensityMatrix:
    """Maximally entangled state of dimension n x n mixed with white noise.

    Returns (1 - noise) * |psi><psi| + noise * I / n**2 where |psi> is
    :func:`max_entangled`'s output and noise in [0, 1] is the weight of the
    maximally mixed component.
    """
    check_family(n, noise)
    psi = max_entangled(n)
    dim = n * n
    mat = (1.0 - noise) * np.outer(psi.amplitudes, psi.amplitudes.conj())
    mat += (noise / dim) * np.eye(dim, dtype=complex)
    return DensityMatrix(mat)


def is_separable_family(n: int, noise: float) -> bool:
    """Separability decision for the noisy maximally entangled family only.

    True exactly when noise >= n / (n + 1).  This closed-form boundary holds
    for states produced by :func:`noisy_state`; it is not a general
    separability test.
    """
    check_family(n, noise)
    return noise >= n / (n + 1)


def expectations(rho: DensityMatrix, ops_a: np.ndarray, ops_b: np.ndarray) -> np.ndarray:
    """Real parts of Tr[rho (A_p x B_q)] for stacks of local operators, shape (p, q).

    ``ops_a`` has shape (p, dA, dA) and ``ops_b`` shape (q, dB, dB); rho must
    have dimension dA * dB, Alice's factor major.  Viewing rho as the tensor
    rho[i, j, k, l] = <i j| rho |k l>, the trace is the sum of
    rho[i, j, k, l] A[k, i] B[l, j]: one contraction per side, so no
    Kronecker product is formed.
    """
    d_a, d_b = ops_a.shape[-1], ops_b.shape[-1]
    if rho.dim != d_a * d_b:
        raise ValueError(f"state dim {rho.dim} does not factor as {d_a} x {d_b}")
    half = np.tensordot(ops_a, rho.matrix.reshape(d_a, d_b, d_a, d_b), axes=([1, 2], [2, 0]))
    return np.einsum("pjl,qlj->pq", half, ops_b).real


def validate(
    state: DensityMatrix | np.ndarray,
    tol: float = 1e-12,
    psd_tol: float = 1e-10,
) -> StateDiagnostics:
    """Measure how far a matrix is from being a valid density matrix.

    Reports the largest entrywise deviation from Hermiticity, the deviation
    of the trace from 1, and the minimum eigenvalue of the Hermitian part.
    The separate PSD tolerance absorbs the tiny negative eigenvalues
    floating-point eigensolvers produce for rank-deficient states.
    """
    mat = state.matrix if isinstance(state, DensityMatrix) else _as_complex_matrix(state, "matrix")
    herm_defect = float(np.max(np.abs(mat - mat.conj().T)))
    trace_defect = float(abs(np.trace(mat) - 1.0))
    min_eig = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0])
    return StateDiagnostics(
        hermiticity_defect=herm_defect,
        trace_defect=trace_defect,
        min_eigenvalue=min_eig,
        tol=tol,
        psd_tol=psd_tol,
    )
