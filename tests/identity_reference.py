"""The tangent-ratio identities behind the diagonal of the reflection jump.

``identity_checks`` evaluates both sides of each identity on the mirror
law of ``varitrace.reflection``.  The jump's diagonal entries are their
right-hand sides, -t1r/tr and -tr/t1r; the tests hold the left-hand
sides to them at random pairs and at every preset bounce.
"""

import numpy as np

from varitrace.errors import SingularReflectionError
from varitrace.reflection import SINGULAR_TOL, _mirror


def identity_checks(t, n_vec) -> tuple[tuple, tuple]:
    """Evaluate 1 - 2Nz^2 + 2NzNr tz/tr == -t1r/tr and its companion.

    The second identity is 1 + (tr Nz / <t,N>) (t1z/t1r - tz/tr) == -tr/t1r.
    Both hold for any unit t, N with tr, t1r and <t, N> nonzero.  Returns
    both sides of each, ((lhs1, rhs1), (lhs2, rhs2)), as numpy floats.

    ``t`` and ``n_vec`` may also be (2, N) arrays of N stacked pairs: each
    side is then an N-array, bit for bit the scalar result per column, and
    any singular column raises.
    """
    (tr, tz), (nr, nz) = np.asarray(t, dtype=float), np.asarray(n_vec, dtype=float)
    n_t, t1r, t1z = _mirror(tr, tz, nr, nz)
    if np.any((np.abs(tr) < SINGULAR_TOL) | (np.abs(t1r) < SINGULAR_TOL)
              | (np.abs(n_t) < SINGULAR_TOL)):
        raise SingularReflectionError("identity expressions are singular for this geometry")
    lhs1 = 1.0 - 2.0 * nz * nz + 2.0 * nz * nr * tz / tr
    rhs1 = -t1r / tr
    lhs2 = 1.0 + (tr * nz / n_t) * (t1z / t1r - tz / tr)
    rhs2 = -tr / t1r
    return (lhs1, rhs1), (lhs2, rhs2)
