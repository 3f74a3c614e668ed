import numpy as np
import pytest

from exitflow import kernels


def _random_dd_system(rng, n):
    # diagonally dominant tridiagonal system
    lower = rng.uniform(0.1, 1.0, n)
    upper = rng.uniform(0.1, 1.0, n)
    diag = -(lower + upper + rng.uniform(0.1, 1.0, n))
    rhs = rng.standard_normal(n)
    return lower, diag, upper, rhs


@pytest.mark.parametrize("n", [1, 2, 5, 60])
def test_thomas_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    lower, diag, upper, rhs = _random_dd_system(rng, n)
    x = kernels.thomas_solve(lower.tolist(), diag.tolist(), upper.tolist(),
                             rhs.tolist())
    A = np.diag(diag)
    for i in range(1, n):
        A[i, i - 1] = lower[i]
        A[i - 1, i] = upper[i - 1]
    assert np.allclose(x, np.linalg.solve(A, rhs), atol=1e-12)


# Thomas elimination is plain IEEE arithmetic in a fixed order, so a
# system built from exact binary fractions has a reproducible solution.
THOMAS_33 = [
    1.518443803187527, 1.5922190159376344, 1.087319866938065,
    0.19394805818967997, -0.6053933710202688, -1.2099635285529735,
    -1.4436010582570342, 0.6728172010052138, 1.0972705677825791,
    0.7932141311524386, 0.28237182567473684, -0.4299902866700439,
    -1.2276438149695879, -1.261373605995097, 0.6774425714026358,
    1.2631094089018704, 0.9606619017040796, 0.2928259300350253,
    -0.65241143992305, -1.3354386512157645, -1.524661316547422,
    0.8583480543627624, 1.2445199347994769, 0.8808329819266372,
    0.12117875634649736, -0.5172967128871451, -1.1480788117455412,
    -1.2988819477985585, 0.7682046070660076, 1.1705620935193968,
    0.944660416718877, 0.3821778965555911, -0.1313025092820349,
]


def test_thomas_golden_values():
    i = np.arange(33)
    lower = 1.0 + (i % 3) / 4.0
    upper = 0.5 + (i % 5) / 8.0
    diag = -(lower + upper + 1.0)
    rhs = (i % 7) - 3.0
    x = kernels.thomas_solve(lower.tolist(), diag.tolist(), upper.tolist(),
                             rhs.tolist())
    assert np.array_equal(x, THOMAS_33)


@pytest.mark.parametrize("diag, row", [([0.0, 3.0, 3.0], 0),
                                       ([1.0, 1.0, 3.0], 1)])
def test_thomas_zero_pivot_raises(diag, row):
    # with unit off-diagonals the second pivot is diag[1] - 1/diag[0]
    ones = [1.0] * 3
    with pytest.raises(ZeroDivisionError, match=f"row {row}"):
        kernels.thomas_solve(ones, diag, ones, ones)


def _chunk_state(n):
    return (np.full(n, 0.5), np.ones(n), np.zeros(n),
            np.zeros(n, dtype=np.int64))


CHUNK_KEYS = ("left", "right", "spacing", "b_tab", "c_tab", "fkl_tab",
              "s_tab", "dt", "g_left", "g_right")


def _chunk(x, gamma, cost, steps, normals, *args):
    """simulate_chunk with its keyword-only arguments in signature order."""
    return kernels.simulate_chunk(x, gamma, cost, steps=steps,
                                  normals=normals,
                                  **dict(zip(CHUNK_KEYS, args, strict=True)))


def test_simulation_chunk_golden_values(chunk_walk):
    # fixed normals: a scaled golden-ratio sequence, uniform with unit
    # variance; two paths exit (left at step 14, right at step 245)
    n, steps = 6, 300
    u = (np.arange(n * steps) * 0.6180339887498949) % 1.0
    normals = ((u - 0.5) * np.sqrt(12.0)).reshape(n, steps)
    nodes = 7
    state = _chunk_state(n)
    state[0][:] = np.linspace(0.1, 0.9, n)
    n_live = _chunk(*state, normals, 0.0, 1.0, 1.0 / (nodes - 1),
                    np.linspace(-0.5, 0.5, nodes),
                    np.linspace(0.0, 0.3, nodes),
                    np.linspace(1.0, 2.0, nodes),
                    np.full(nodes, 1.2), 1e-3, 0.25, 0.75)
    x, gamma, cost, steps_taken = state
    np.testing.assert_allclose(
        x, [-0.006129938124812939, 0.15110085633489231, 0.36851865238320036,
            0.6083101212495263, 0.8312495350192869, 1.005393781439769],
        rtol=1e-12)
    np.testing.assert_allclose(
        gamma, [0.999810723643194, 0.9832133224296218, 0.9686729107655853,
                0.9479633042970117, 0.9323984091095334, 0.9349037743411641],
        rtol=1e-12)
    np.testing.assert_allclose(
        cost, [0.2645823605177552, 0.35333161860643797, 0.3996184258682772,
               0.46584291848649817, 0.5153749553070237, 1.1551593809604999],
        rtol=1e-12)
    assert steps_taken.tolist() == [14, 300, 300, 300, 300, 245]
    assert n_live == 4


def test_simulation_chunk_exits_and_pays():
    # strong positive drift, tiny noise: every path exits right quickly
    n = 8
    state = _chunk_state(n)
    x, gamma, cost, steps = state
    normals = np.zeros((n, 400))
    nodes = 5
    n_live = _chunk(x, gamma, cost, steps, normals, 0.0, 1.0, 0.25,
                    np.full(nodes, 5.0), np.zeros(nodes), np.zeros(nodes),
                    np.full(nodes, 1e-8), 0.01, 3.0, 7.0)
    assert n_live == 0
    assert np.all(x >= 1.0)
    assert np.allclose(cost, 7.0)  # g_right, undiscounted
    assert np.all(steps == steps[0])


def test_simulation_chunk_skips_retired_paths(chunk_walk):
    # paths 1, 4 and 6 have already exited and sit where they left (0, 1);
    # normals hold one row per live path in ascending order.  Live paths
    # must end bit for bit where compacting them, calling the kernel on
    # the compact batch and scattering back put them; two of them exit
    # (after 3 and 48 steps)
    n, n_steps, nodes = 8, 300, 7
    retired = [1, 4, 6]
    live = [0, 2, 3, 5, 7]
    x = np.linspace(0.05, 0.95, n)
    x[retired] = [-0.003, 1.0, 1.02]
    gamma = np.linspace(1.0, 0.65, n)
    cost = np.linspace(0.0, 0.7, n)
    steps = np.arange(n, dtype=np.int64) * 10 + 40
    state = [x, gamma, cost, steps]
    before = [a[retired].copy() for a in state]
    u = (np.arange(len(live) * n_steps) * 0.6180339887498949) % 1.0
    normals = ((u - 0.5) * np.sqrt(12.0)).reshape(len(live), n_steps)
    n_live = _chunk(*state, normals, 0.0, 1.0, 1.0 / (nodes - 1),
                    np.linspace(-0.5, 0.5, nodes),
                    np.linspace(0.0, 0.3, nodes),
                    np.linspace(1.0, 2.0, nodes),
                    np.linspace(0.8, 1.4, nodes), 1e-3, 0.25, 0.75)
    for a, b in zip(state, before):
        assert np.array_equal(a[retired], b)
    assert x[live].tolist() == [
        -0.009889377341049683, 0.12137893789287274, 0.284982488773651,
        0.6345640781095777, 1.0160599603364215]
    assert gamma[live].tolist() == [
        0.9999795828541499, 0.8837690708433418, 0.8252251845384648,
        0.7063667356465149, 0.648502571548485]
    assert cost[live].tolist() == [
        0.2530629220466819, 0.5213953118966009, 0.633595857033966,
        0.863893792803303, 1.1965638281074926]
    assert steps[live].tolist() == [43, 360, 370, 390, 118]
    assert n_live == 3


def test_simulation_chunk_keeps_negative_zero_costs(chunk_walk):
    # the least negative subnormal as f + tau*KL makes every cost term
    # (gamma * f) * dt underflow to -0.0, and -0.0 exit payoffs add -0.0,
    # so each cost stays the -0.0 it started as.  The per-path walk pads
    # the discount factors and cost terms of a path that exits before the
    # longest walk of its chunk, and these pads must leave that sign
    # alone.  Strong drift and no noise send the paths out on the right
    # after different numbers of steps
    n, nodes = 5, 5
    x, gamma, cost, steps = _chunk_state(n)
    x[:] = [0.12, 0.32, 0.52, 0.72, 0.92]
    cost[:] = -0.0
    n_live = _chunk(x, gamma, cost, steps, np.zeros((n, 400)), 0.0, 1.0,
                    0.25, np.full(nodes, 5.0), np.linspace(0.0, 0.3, nodes),
                    np.full(nodes, -5e-324), np.full(nodes, 1e-8), 0.01,
                    -0.0, -0.0)
    assert n_live == 0
    assert steps.tolist() == [18, 14, 10, 6, 2]
    assert np.all(x >= 1.0) and np.all(gamma < 1.0)
    assert np.all(cost == 0.0) and np.all(np.signbit(cost))
