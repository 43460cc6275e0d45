"""The noisy maximally entangled two-qudit family and its closed forms.

The family mixes the uniform-amplitude maximally entangled state of two
N-level systems with white noise of weight F.  Its separability is decided
from the known closed-form boundary F >= N/(N+1).

Filtering each side to its first two levels leaves an isotropic two-qubit
state, so every CHSH quantity here is a closed form in the retained fraction
v = N(1-F) / (N(1-F) + 2F): the correlator of the x-z-plane observables at
angles (theta_x, theta_y) is v cos(theta_x - theta_y).  The violation
boundary S(N, F) = 2 solves to F = N / (N + c) with c = 2 / (sqrt(2) - 1).

The two-stage experiment projects each side onto its first two levels
(kept/"in" versus rejected/"out"), then measures a dichotomic observable on
the kept two-level subspace, extended as the constant +1 on the rejected
complement.  The joint law of both stages comes in closed form too.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable

import numpy as np

from .behavior import _freeze

# Noise-threshold constant: S(N, F) > 2 exactly when F < N / (N + C_THRESHOLD).
C_THRESHOLD = 2.0 / (math.sqrt(2.0) - 1.0)

# Quantum maximum of the CHSH expression.
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

# Second-stage angles, Alice's [x] and Bob's [y]; theta measures cos(theta) sigma_z + sin(theta) sigma_x.
_ALICE = np.array([0.0, np.pi / 2.0])
_BOB = np.array([np.pi / 4.0, -np.pi / 4.0])


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
    # min and max carry a NaN, which fails both comparisons; an empty array passes.
    if isinstance(noise, np.ndarray):
        inside = noise.size == 0 or (noise.min() >= 0.0 and noise.max() <= 1.0)
    else:
        inside = 0.0 <= noise <= 1.0
    if not inside:
        values = np.asarray(noise)
        bad = ~((values >= 0.0) & (values <= 1.0))
        raise ValueError(f"noise fraction must lie in [0, 1], got {values[bad][0].item()}")
    return int(n)


def noisy_state(n: int, noise: float) -> np.ndarray:
    """Maximally entangled state of dimension n x n mixed with white noise.

    Returns the read-only (n**2, n**2) complex density matrix
    (1 - noise) * |psi><psi| + noise * I / n**2, where |psi> has amplitude
    1/sqrt(n) at every doubled basis index m*n + m (0-based, first factor
    major) and noise in [0, 1] is the weight of the maximally mixed component.

    No package code calls it and ``noisybell`` does not export it.  It is kept
    only because the benchmark tracer's ``TARGETS`` names
    ``noisybell.sampling.noisy_state``; ROADMAP item 2 deletes it with the
    tracer.  The tests' dense oracle builds its own copy of the state.
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


def is_separable_family(n: int, noise: float | np.ndarray) -> bool | np.ndarray:
    """Separability decision for the noisy maximally entangled family only.

    True exactly when noise >= N/(N+1), decided exactly for every float.
    This closed-form boundary holds for the family
    (1 - F)|psi_N><psi_N| + F I/N^2 alone; it is not a general separability test.
    """
    n = check_family(n, noise)
    return noise >= _least_float(separability_threshold(n), lambda p, q: p * (n + 1) >= n * q)


def retained_fraction(n: int, noise: float) -> float:
    """Weight of the entangled component in the post-selected two-qubit state."""
    check_family(n, noise)
    return n * (1.0 - noise) / (n * (1.0 - noise) + 2.0 * noise)


def chsh_closed_form(n: int, noise: float) -> float:
    """CHSH value of the post-selected state at the maximal-violation settings.

    Equals 2*sqrt(2) * N(1-F) / (N(1-F) + 2F): the four correlators are
    +-v / sqrt(2).
    """
    return TSIRELSON_BOUND * retained_fraction(n, noise)


def violation_threshold(n: int) -> float:
    """Largest noise fraction below which the post-selected state violates CHSH.

    Returns N / (N + c) with c = 2 / (sqrt(2) - 1); increases strictly with N
    and tends to 1, so any noise level is beaten by a large enough dimension.
    """
    check_family(n, 0.0)
    return n / (n + C_THRESHOLD)


def violates_chsh(n: int, noise: float | np.ndarray) -> bool | np.ndarray:
    """CHSH decision for the post-selected state of the family: S(N, F) > 2.

    True exactly when noise < N/(N+c), decided exactly for every float, so a
    float next to the boundary gets the decision of its exact value, not of
    :func:`violation_threshold` rounded.  S falls as F rises, and S > 2
    exactly when a = N(1 - F) - 2F > 0 and a^2 > 8F^2.  With F = p / q both
    are integer tests, so the cut is the least float at which they fail.
    """
    n = check_family(n, noise)

    def no_violation(p: int, q: int) -> bool:
        a = n * (q - p) - 2 * p
        return not (a > 0 and a * a > 8 * p * p)

    return noise < _least_float(violation_threshold(n), no_violation)


def _least_float(start: float, holds: Callable[[int, int], bool]) -> float:
    """The least float f at which ``holds(*f.as_integer_ratio())`` is true.

    ``holds`` is an exact test that is false below one cut on the noise
    axis and true from it on, and ``start`` is that cut rounded, so the
    steps from it, up then down, are a few at most.
    """
    cut = start
    while not holds(*cut.as_integer_ratio()):
        cut = math.nextafter(cut, 2.0)
    while holds(*(below := math.nextafter(cut, -1.0)).as_integer_ratio()):
        cut = below
    return cut


def success_probability(n: int, noise: float) -> float:
    """Probability that both sides land in their first two levels.

    Closed form (1 - F) * 2/N + F * 4/N**2: the entangled component keeps 2
    of its N equal-weight terms, white noise keeps 4 of N**2 basis states.
    """
    n = check_family(n, noise)
    return (1.0 - noise) * 2.0 / n + noise * 4.0 / (n * n)


def sequential_joint_distribution(n: int, noise: float) -> np.ndarray:
    """Joint outcome law of the two-stage experiment on the noisy family, in closed form.

    Returns P(a1, b1, a2, b2) per setting pair as a read-only float64 array
    indexed [x][y][a1][b1][a2][b2], first-stage index 0 = "in" (projection
    succeeded) and second-stage index 0 = outcome +1.  The second stage
    measures at the maximal-violation angles theta_A in {0, pi/2} and
    theta_B in {pi/4, -pi/4}.

    Both sides keep their first two levels.  The post-selected state is
    v |psi_2><psi_2| + (1 - v) I/4 with v = :func:`retained_fraction`, so
    (in, in) is the success probability times (1 + a b v cos(theta_x - theta_y)) / 4
    for outcomes a, b = +-1.  The entangled component never lands in a mixed
    branch, so (in, out) and (out, in) are white noise: F (N-2)/N**2 per
    outcome of the kept side, with the rejected side at +1.  (out, out) takes
    the rest, all at +1.
    """
    n = check_family(n, noise)
    correlators = retained_fraction(n, noise) * np.cos(_ALICE[:, None] - _BOB)  # [x][y]
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])  # a * b, [a2][b2]
    in_in = (1.0 + correlators[:, :, None, None] * signs) / 4.0
    mixed = noise * (n - 2) / (n * n)
    probs = np.zeros((2,) * 6)
    probs[:, :, 0, 0] = success_probability(n, noise) * in_in
    probs[:, :, 0, 1, :, 0] = mixed
    probs[:, :, 1, 0, 0, :] = mixed
    probs[:, :, 1, 1, 0, 0] = (1.0 - noise) * (n - 2) / n + noise * (n - 2) ** 2 / (n * n)
    return _freeze(probs)
