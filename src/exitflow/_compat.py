"""A lean stand-in for ``np.einsum`` on the flow's hot path.

A flow stage on a few dozen nodes costs numpy's per-call overhead more
than arithmetic, and ``np.einsum`` spends about 0.7 us a call on
dispatch and argument handling before the contraction, as much again as
a contraction of a few hundred entries.  ``einsum`` is the function it
then calls, with ``optimize=False``, its default; the name is
numpy-private, so ``tests/test_compat.py`` pins its results to
``np.einsum`` bit for bit on every subscript pattern the package uses,
and a numpy release that changes it fails there.
"""

import numpy as np

try:
    from numpy._core.multiarray import c_einsum as einsum
except ImportError:  # numpy before 2.0, or a later one that moved it
    einsum = np.einsum
