import numpy as np
import pytest

from exitflow._compat import einsum


@pytest.mark.parametrize("n, k", [(1, 1), (9, 5), (29, 5), (29, 16)])
def test_einsum_matches_numpy_bit_for_bit(n, k):
    # the three contractions of the stage path, with operands laid out as
    # there: the Gibbs KL and Policy.kl, the discrete policy averages of
    # the read-only coefficient table, and the flow's features Z from a
    # (4, n) slope and the coefficient table stacked on the start
    rng = np.random.default_rng(n * k)
    weights, log_density = rng.standard_normal((2, n, k))
    coef_tab = rng.standard_normal((3, n, k))
    coef_tab.flags.writeable = False
    tables = np.concatenate([coef_tab, rng.standard_normal((1, n, k))])
    theta = rng.standard_normal((4, n))
    for subscripts, operands in (("ik,ik->i", (weights, log_density)),
                                 ("jik,ik->ji", (coef_tab, weights)),
                                 ("ji,jik->ik", (theta, tables))):
        ours = einsum(subscripts, *operands)
        ref = np.einsum(subscripts, *operands, optimize=False)
        assert ours.shape == ref.shape and ours.dtype == ref.dtype
        assert ours.tobytes() == ref.tobytes()

