"""Noisy maximally entangled two-qudit states.

Builds the one-parameter family obtained by mixing the uniform-amplitude
maximally entangled state of two N-level systems with white noise, and
decides separability for that family from its known closed-form boundary.
"""

from __future__ import annotations

import numbers

import numpy as np

from .behavior import _freeze


def check_family(n: int, noise: float | np.ndarray) -> int:
    """Reject parameters outside the family: an integer n >= 2 levels, noise in [0, 1].

    ``noise`` may be a scalar or an array; every entry must lie in [0, 1]
    (NaN does not), and the message names the first one that does not.
    Returns n as a Python int, so that n * n cannot wrap around for numpy
    integer n.
    """
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"local dimension must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"local dimension must be at least 2, got {n}")
    values = np.asarray(noise)
    bad = ~((values >= 0.0) & (values <= 1.0))
    if bad.any():
        raise ValueError(f"noise fraction must lie in [0, 1], got {values[bad][0].item()}")
    return int(n)


def noisy_state(n: int, noise: float) -> np.ndarray:
    """Maximally entangled state of dimension n x n mixed with white noise.

    Returns the read-only (n**2, n**2) complex density matrix
    (1 - noise) * |psi><psi| + noise * I / n**2, where |psi> has amplitude
    1/sqrt(n) at every doubled basis index m*n + m (0-based, first factor
    major) and noise in [0, 1] is the weight of the maximally mixed component.
    """
    n = check_family(n, noise)
    dim = n * n
    doubled = np.arange(n) * (n + 1)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[np.ix_(doubled, doubled)] = (1.0 - noise) / n
    mat[np.diag_indices(dim)] += noise / dim
    return _freeze(mat)


def separability_threshold(n: int) -> float:
    """N / (N + 1), the least noise fraction at which the family is separable."""
    n = check_family(n, 0.0)  # a Python int: n + 1 cannot wrap around for numpy integer n
    return n / (n + 1)


def is_separable_family(n: int, noise: float) -> bool:
    """Separability decision for the noisy maximally entangled family only.

    True exactly when noise >= N/(N+1), decided exactly for every float.
    This closed-form boundary holds for states produced by
    :func:`noisy_state`; it is not a general separability test.
    """
    n = check_family(n, noise)
    boundary = separability_threshold(n)
    # Only the float nearest N/(N+1) can sit on the wrong side of it; when it
    # lies below, the state there is still entangled.
    p, q = boundary.as_integer_ratio()
    if p * (n + 1) < n * q:
        return noise > boundary
    return noise >= boundary
