"""Dense Kronecker-product oracles for the package's closed forms, and small test tables.

The package computes every quantity in closed form.  These references build
the family's state and the measurement operators as dense matrices, form
A x B with plain np.kron and take traces, so they share no code path with the
closed forms they check.  The joint law costs O(N^6): small N only.  The
tables at the end (the uniform, quantum and signaling tables, the 16
deterministic vertices, a branch of a joint law) are built entry by entry,
apart from the package's own constructions.  Last come numpy expressions
for a table's derived quantities, on its (2, 2, 2, 2) array: BehaviorTable
computes them on Python floats and must match their bits.
"""

import itertools
import math

import numpy as np

from noisybell import BehaviorTable

# (Alice's, Bob's) second-stage angles at which CHSH reaches 2*sqrt(2), written out
# here rather than read from the package, so the oracle stays independent of it.
TSIRELSON = ((0.0, math.pi / 2), (math.pi / 4, -math.pi / 4))

# |psi_2> = (|00> + |11>) / sqrt(2) and its projector, written out so that they check noisy_state(2, 0).
PSI2 = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
PSI2_MATRIX = np.outer(PSI2, PSI2)


def noisy_state(n: int, noise: float) -> np.ndarray:
    """(1 - F) |psi><psi| + F I/n^2, the family's (n^2, n^2) state, from matrix units.

    |psi><psi| = (1/n) sum_{m,k} |m><k| x |m><k|, each term an np.kron of two
    n x n matrix units; first factor major, as in the package.
    """
    units = [[np.outer(row, col) for col in np.eye(n)] for row in np.eye(n)]
    entangled = np.zeros((n * n, n * n))
    for m, k in itertools.product(range(n), repeat=2):
        entangled += np.kron(units[m][k], units[m][k])
    return (1.0 - noise) * (entangled / n) + noise * np.eye(n * n) / (n * n)


def projector(n: int) -> np.ndarray:
    """Diagonal 0/1 projector of one n-level side onto its levels 0 and 1."""
    return np.diag([1.0, 1.0] + [0.0] * (n - 2))


def observable(theta: float) -> np.ndarray:
    """cos(theta) * sigma_z + sin(theta) * sigma_x."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]])


def observable_projectors(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenprojectors (plus, minus) of :func:`observable`."""
    return (np.eye(2) + observable(theta)) / 2.0, (np.eye(2) - observable(theta)) / 2.0


def post_select(rho: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Keep levels 0 and 1 on both sides: the renormalized 4x4 block and its probability."""
    keep = [a * n + b for a in (0, 1) for b in (0, 1)]
    block = rho[np.ix_(keep, keep)]
    prob = float(np.trace(block).real)
    return block / prob, prob


def kron_expectation(rho: np.ndarray, op_a: np.ndarray, op_b: np.ndarray) -> float:
    return float(np.trace(rho @ np.kron(op_a, op_b)).real)


def correlator(rho4: np.ndarray, theta_a: float, theta_b: float) -> float:
    return kron_expectation(rho4, observable(theta_a), observable(theta_b))


def chsh_value(rho4: np.ndarray, angles) -> float:
    """E(A,B) + E(A,B') + E(A',B) - E(A',B') on a two-qubit state, at (Alice's, Bob's) angles."""
    (a, a_prime), (b, b_prime) = angles
    return (
        correlator(rho4, a, b)
        + correlator(rho4, a, b_prime)
        + correlator(rho4, a_prime, b)
        - correlator(rho4, a_prime, b_prime)
    )


def behavior_table(rho4: np.ndarray, angles) -> BehaviorTable:
    """P(a, b | x, y) of a two-qubit state at (Alice's, Bob's) angles; outcome index 0 is +1."""
    alice, bob = angles
    probs = np.zeros((2, 2, 2, 2))
    for x, y, a, b in itertools.product(range(2), repeat=4):
        probs[x, y, a, b] = kron_expectation(
            rho4, observable_projectors(alice[x])[a], observable_projectors(bob[y])[b]
        )
    return BehaviorTable(probs)


def dense_joint(rho: np.ndarray, n: int, angles) -> np.ndarray:
    """P[x][y][a1][b1][a2][b2] of the two-stage experiment by Lueders update and full-space effects."""
    kept = projector(n)
    first = (kept, np.eye(n) - kept)

    def second(theta):
        # The observable acts on the kept pair; the rejected complement reads +1.
        plus, minus = np.eye(n) - kept, np.zeros((n, n))
        plus2, minus2 = observable_projectors(theta)
        plus[:2, :2] += plus2
        minus[:2, :2] += minus2
        return plus, minus

    alice, bob = angles
    second_a, second_b = [second(t) for t in alice], [second(t) for t in bob]
    probs = np.zeros((2,) * 6)
    for a1, b1, x, y, a2, b2 in itertools.product(range(2), repeat=6):
        pi = np.kron(first[a1], first[b1])
        effect = np.kron(second_a[x][a2], second_b[y][b2])
        probs[x, y, a1, b1, a2, b2] = np.trace(effect @ pi @ rho @ pi).real
    return probs


def partial_transpose(rho: np.ndarray, n: int) -> np.ndarray:
    """Transpose Bob's factor: <i j|rho^T_B|k l> = <i l|rho|k j>."""
    return rho.reshape(n, n, n, n).transpose(0, 3, 2, 1).reshape(n * n, n * n)


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Ginibre-distributed density matrix of dimension dim."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


UNIFORM = BehaviorTable(np.full((2, 2, 2, 2), 0.25))
# The two-qubit singlet's table at the Tsirelson angles: CHSH 2*sqrt(2).
QUANTUM_TABLE = behavior_table(noisy_state(2, 0.0), TSIRELSON)


def _signaling() -> BehaviorTable:
    """The uniform table with setting pair (0, 1) skewed: Bob's marginal moves with Alice's setting."""
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[0, 1] = [[0.55, 0.05], [0.05, 0.35]]
    return BehaviorTable(probs)


SIGNALING = _signaling()


def local_vertices() -> tuple[BehaviorTable, ...]:
    """The 16 deterministic tables in LP weight order: Alice-major, (+1, +1) first on each side.

    Vertex k answers outcome index a_x to setting x and b_y to setting y,
    with k running through (a0, a1, b0, b1) in binary, a0 the high bit.
    """
    vertices = []
    for a0, a1, b0, b1 in itertools.product(range(2), repeat=4):
        probs = np.zeros((2, 2, 2, 2))
        for x, y in itertools.product(range(2), repeat=2):
            probs[x, y, (a0, a1)[x], (b0, b1)[y]] = 1.0
        vertices.append(BehaviorTable(probs))
    return tuple(vertices)


def condition(joint: np.ndarray, a1: int = 0, b1: int = 0) -> BehaviorTable:
    """P(a2, b2 | x, y) within the first-stage branch (a1, b1) of a [x][y][a1][b1][a2][b2] law; 0 = in."""
    branch = joint[:, :, a1, b1]
    return BehaviorTable(branch / branch.sum(axis=(2, 3), keepdims=True))


def numpy_normalization_defect(probs: np.ndarray) -> float:
    return float(np.max(np.abs(probs.sum(axis=(2, 3)) - 1.0)))


def numpy_signaling_defect(probs: np.ndarray) -> float:
    marg_a = probs.sum(axis=3)  # [x][y][a]
    marg_b = probs.sum(axis=2)  # [x][y][b]
    defect_a = np.max(np.abs(marg_a[:, 0, :] - marg_a[:, 1, :]))
    defect_b = np.max(np.abs(marg_b[0, :, :] - marg_b[1, :, :]))
    return float(max(defect_a, defect_b))


def numpy_correlators(probs: np.ndarray) -> np.ndarray:
    return probs[:, :, 0, 0] - probs[:, :, 0, 1] - probs[:, :, 1, 0] + probs[:, :, 1, 1]


def numpy_facets(probs: np.ndarray) -> np.ndarray:
    """The 8 CHSH expressions in FACET_LABELS order."""
    corr = numpy_correlators(probs)
    base = corr.sum() - 2.0 * corr.reshape(-1)  # the minus sign on E00, E01, E10, E11 in turn
    return np.stack([base, -base], axis=1).reshape(-1)
