"""Hot numeric kernels: tridiagonal solves and exit-time path simulation.

Both are plain Python/numpy.  The tridiagonal solve runs on Python floats:
at the grid sizes used here (tens to hundreds of rows) per-element numpy
indexing costs more than the arithmetic, and a LAPACK call would pull in
``scipy.linalg`` and its memory footprint for a few microseconds.  The
path simulation alone decides which paths of a batch are still alive.
"""

import numpy as np


def thomas_solve(lower, diag, upper, rhs):
    """Solve the tridiagonal system with bands (lower, diag, upper).

    ``lower[0]`` and ``upper[-1]`` are ignored.  Raises ZeroDivisionError
    on a zero pivot; callers assemble diagonally dominant systems so this
    only fires on degenerate input.
    """
    lo = np.asarray(lower, dtype=np.float64).tolist()
    dg = np.asarray(diag, dtype=np.float64).tolist()
    up = np.asarray(upper, dtype=np.float64).tolist()
    x = np.asarray(rhs, dtype=np.float64).tolist()
    n = len(x)
    beta = dg[0]
    if beta == 0.0:
        raise ZeroDivisionError("singular tridiagonal system at row 0")
    cp = [0.0] * n
    cp[0] = up[0] / beta
    x[0] = x[0] / beta
    for i in range(1, n):
        beta = dg[i] - lo[i] * cp[i - 1]
        if beta == 0.0:
            raise ZeroDivisionError(f"singular tridiagonal system at row {i}")
        cp[i] = up[i] / beta
        x[i] = (x[i] - lo[i] * x[i - 1]) / beta
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return np.array(x)


def tridiag_apply(lower, diag, upper, x):
    """Matrix-vector product with the same band layout as thomas_solve."""
    y = diag * x
    y[1:] += lower[1:] * x[:-1]
    y[:-1] += upper[:-1] * x[1:]
    return y


# ---------------------------------------------------------------------------
# Euler-Maruyama exit-time simulation.
#
# The chunk kernel advances the live paths of a batch (`done` false) through
# `n_steps` increments drawn outside the kernel, one row per live path in
# ascending path order.  Per path and step:
#   cost  += gamma * fkl(x) * dt
#   gamma *= exp(-c(x) * dt)
#   x     += b(x) * dt + sigma(x) * sqrt(dt) * xi
# and on leaving (left, right) the discounted exit payoff is added and the
# path retires: its state is written back and it leaves the live set, so no
# later step pays for it.  Coefficients come from nodal tables via linear
# interpolation (clamped at the ends).  `done` and `exit_steps` (equal to
# `steps` once a path exits) stay in the signature because perfbench's
# tracer reads `steps` and `normals` at positions 3 and 6.
# ---------------------------------------------------------------------------


def simulate_chunk(x, gamma, cost, steps, done, exit_steps, normals,
                   left, right, spacing, b_tab, c_tab, fkl_tab, s_tab,
                   dt, g_left, g_right):
    """Advance the batch's live paths, in place, through one chunk."""
    sqrt_dt = np.sqrt(dt)
    tabs = [(t, np.diff(t)) for t in (b_tab, c_tab, fkl_tab, s_tab)]
    n_steps = normals.shape[1]
    live = np.flatnonzero(~done)
    rows = np.arange(live.size)
    xa, ga, ca = x[live], gamma[live], cost[live]
    for j in range(n_steps):
        if live.size == 0:
            break
        pos = (xa - left) / spacing
        idx = np.maximum(np.minimum(pos.astype(np.int64), b_tab.size - 2), 0)
        w = pos - idx
        b, c, fkl, sig = (t[idx] + w * d[idx] for t, d in tabs)
        ca += ga * fkl * dt
        ga = ga * np.exp(-c * dt)
        xa = xa + b * dt + sig * sqrt_dt * normals[:, j][rows]
        out = (xa <= left) | (xa >= right)
        if out.any():
            gone = live[out]
            x_out, g_out = xa[out], ga[out]
            payoff = np.where(x_out <= left, g_left, g_right)
            x[gone] = x_out
            gamma[gone] = g_out
            cost[gone] = ca[out] + g_out * payoff
            steps[gone] += j + 1
            exit_steps[gone] = steps[gone]
            done[gone] = True
            keep = ~out
            live, rows = live[keep], rows[keep]
            xa, ga, ca = xa[keep], ga[keep], ca[keep]
    x[live] = xa
    gamma[live] = ga
    cost[live] = ca
    steps[live] += n_steps
