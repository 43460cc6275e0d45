"""Helpers that the tests of ``noisybell.family`` share, each defined once.

They compose the package's closed forms with the dense oracle on purpose, so
they do not belong in ``dense.py``, which shares no code path with the
package.  Every state here is the oracle's ``noisy_state``; the package
supplies only ``retained_fraction``.
"""

from noisybell import retained_fraction

from dense import TSIRELSON, dense_joint, noisy_state


def post_selected_closed_form(n, noise):
    """v |psi_2><psi_2| + (1 - v) I/4: the qubit member of the family at noise 1 - v."""
    return noisy_state(2, 1.0 - retained_fraction(n, noise))


def kron_joint(n, noise):
    """The dense oracle's joint law of the family at the maximal-violation angles."""
    return dense_joint(noisy_state(n, noise), n, TSIRELSON)
