"""Hot numeric kernels: tridiagonal solves and exit-time path simulation.

Both are plain Python/numpy.  The tridiagonal solve runs on Python floats:
at the grid sizes used here (tens to hundreds of rows) per-element numpy
indexing costs more than the arithmetic, and a LAPACK call would pull in
``scipy.linalg`` and its memory footprint for a few microseconds.
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
# The chunk kernel advances a batch of paths through `n_steps` increments
# drawn outside the kernel.  Per path and step:
#   cost  += gamma * fkl(x) * dt
#   gamma *= exp(-c(x) * dt)
#   x     += b(x) * dt + sigma(x) * sqrt(dt) * xi
# and on leaving (left, right) the discounted exit payoff is added and the
# path retires.  Coefficients come from nodal tables via linear interpolation
# (clamped at the ends).
# ---------------------------------------------------------------------------


def simulate_chunk(x, gamma, cost, steps, done, exit_steps, normals,
                   left, right, spacing, b_tab, c_tab, fkl_tab, s_tab,
                   dt, g_left, g_right):
    """Advance a batch of paths through one chunk of normal increments."""
    sqrt_dt = np.sqrt(dt)
    n_nodes = b_tab.shape[0]
    n_steps = normals.shape[1]
    for j in range(n_steps):
        active = ~done
        if not active.any():
            break
        xa = x[active]
        pos = (xa - left) / spacing
        idx = np.minimum(pos.astype(np.int64), n_nodes - 2)
        idx = np.maximum(idx, 0)
        w = pos - idx
        b = b_tab[idx] + w * (b_tab[idx + 1] - b_tab[idx])
        c = c_tab[idx] + w * (c_tab[idx + 1] - c_tab[idx])
        fkl = fkl_tab[idx] + w * (fkl_tab[idx + 1] - fkl_tab[idx])
        sig = s_tab[idx] + w * (s_tab[idx + 1] - s_tab[idx])
        ga = gamma[active]
        cost[active] += ga * fkl * dt
        ga = ga * np.exp(-c * dt)
        gamma[active] = ga
        xa = xa + b * dt + sig * sqrt_dt * normals[active, j]
        x[active] = xa
        steps[active] += 1
        out_left = active.copy()
        out_left[active] = xa <= left
        out_right = active.copy()
        out_right[active] = xa >= right
        exited = out_left | out_right
        if exited.any():
            cost[out_left] += gamma[out_left] * g_left
            cost[out_right] += gamma[out_right] * g_right
            exit_steps[exited] = steps[exited]
            done[exited] = True
