"""Hot numeric kernels: tridiagonal solves and exit-time path simulation.

Both are plain Python/numpy.  The tridiagonal solve runs on Python floats:
at the grid sizes used here (tens to hundreds of rows) per-element numpy
indexing costs more than the arithmetic, and a LAPACK call would pull in
``scipy.linalg`` and its memory footprint for a few microseconds.  The
path simulation alone decides which paths of a batch are still alive.  It
has two walks with the same bits: a numpy step over all live paths for the
bulk of a batch, and a walk of each path on Python floats once a chunk
starts with at most ``SCALAR_PATHS`` of them, a threshold measured where
the two cost the same rather than a setting.  The walk keeps numpy's
exponential, whose last bit differs from ``math.exp`` on some arguments,
and the bulk keeps no whole-chunk history of positions, which would raise
peak memory.
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
# The chunk kernel advances the live paths of a batch, those strictly
# inside (left, right), through `n_steps` increments drawn outside the
# kernel, one row per live path in ascending path order.  Per path and
# step:
#   cost  += gamma * fkl(x) * dt
#   gamma *= exp(-c(x) * dt)
#   x     += b(x) * dt + sigma(x) * sqrt(dt) * xi
# and on leaving (left, right) the discounted exit payoff is added and the
# path retires: its state is written back, so its position stays outside
# the interval and its `steps` is its exit step, and no later step or
# chunk pays for it.  The kernel returns the number of paths still live,
# which sizes the next chunk's normals.  Coefficients come from nodal
# tables via linear interpolation (clamped at the right end; a live path
# has x > left).  Everything after `cost` is keyword-only, so a wrapper
# such as perfbench's tracer finds `steps` and `normals` by name.
#
# Two walks give the same bits.  A chunk that starts with more than
# SCALAR_PATHS live paths runs one numpy step for all of them at a time.
# A chunk that starts with fewer (the tail of a batch, where a few slow
# paths keep it alive) walks each path on Python floats instead, as
# `thomas_solve` does: there numpy's per-call overhead, 20-40 us a step
# whatever the path count, is most of the cost.  The position recursion
# does not involve gamma or the cost, so the walk first takes the
# positions alone, then forms c, f + tau*KL, the discount factors and both
# running sums and products on arrays of at most n_steps + 1 entries, in
# the vector loop's order of operations.
#
# The discount factor stays `np.exp`, on arrays: numpy's SIMD exponential
# and `math.exp` differ in the last bit on a few per cent of arguments,
# while `np.exp` gives an element the same bits whatever the array length.
# The bulk keeps no (paths x steps) history to accumulate a whole chunk at
# once: storing one raised the `oracle` benchmark's peak RSS from 63 to
# 75 MB and slowed its first 1000-path chunk by a third.  SCALAR_PATHS is
# a measured crossover, not a setting: at dt = 2e-4 a vector chunk with a
# few dozen paths costs 5-10 ms, a path walked through a whole chunk
# 0.12-0.3 ms, and the `oracle` wall time is flat for thresholds from 24
# to 96.  Either side of it gives the same result.
# ---------------------------------------------------------------------------

SCALAR_PATHS = 24


def _nodes(xa, left, spacing, top):
    """Cell index and in-cell weight of each position."""
    pos = (xa - left) / spacing
    idx = np.minimum(pos.astype(np.int64), top)
    return idx, pos - idx


def simulate_chunk(x, gamma, cost, *, steps, normals, left, right, spacing,
                   b_tab, c_tab, fkl_tab, s_tab, dt, g_left, g_right):
    """Advance the batch's live paths, in place, through one chunk; return
    how many are still live."""
    sqrt_dt = np.sqrt(dt)
    top = b_tab.size - 2
    tabs = [(t, np.diff(t)) for t in (b_tab, c_tab, fkl_tab, s_tab)]
    n_steps = normals.shape[1]
    live = np.flatnonzero((x > left) & (x < right))
    if live.size <= SCALAR_PATHS:
        return _walk_paths(x, gamma, cost, steps, normals, live, float(left),
                           float(right), float(spacing), tabs, float(dt),
                           float(sqrt_dt), top, g_left, g_right)
    rows = np.arange(live.size)
    xa, ga, ca = x[live], gamma[live], cost[live]
    for j in range(n_steps):
        if live.size == 0:
            break
        idx, w = _nodes(xa, left, spacing, top)
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
            keep = ~out
            live, rows = live[keep], rows[keep]
            xa, ga, ca = xa[keep], ga[keep], ca[keep]
    x[live] = xa
    gamma[live] = ga
    cost[live] = ca
    steps[live] += n_steps
    return live.size


def _walk_paths(x, gamma, cost, steps, normals, live, left, right, spacing,
                tabs, dt, sqrt_dt, top, g_left, g_right):
    """simulate_chunk's scalar walk, one live path after another."""
    (b_tab, b_diff), (c_tab, c_diff), (f_tab, f_diff), (s_tab, s_diff) = tabs
    bt, bd, st, sd = (a.tolist() for a in (b_tab, b_diff, s_tab, s_diff))
    n_live = 0
    for row, p in enumerate(live.tolist()):
        xj = float(x[p])
        starts = []
        for z in normals[row].tolist():
            pos = (xj - left) / spacing
            i = int(pos)
            if i > top:
                i = top
            w = pos - i
            starts.append(xj)
            xj = xj + (bt[i] + w * bd[i]) * dt \
                + (st[i] + w * sd[i]) * sqrt_dt * z
            if xj <= left or xj >= right:
                break
        k = len(starts)
        idx, w = _nodes(np.array(starts), left, spacing, top)
        ga = np.empty(k + 1)
        ga[0] = gamma[p]
        ga[1:] = np.exp(-(c_tab[idx] + w * c_diff[idx]) * dt)
        np.multiply.accumulate(ga, out=ga)
        ca = np.empty(k + 1)
        ca[0] = cost[p]
        ca[1:] = ga[:-1] * (f_tab[idx] + w * f_diff[idx]) * dt
        total = np.add.accumulate(ca)[-1]
        x[p] = xj
        gamma[p] = ga[-1]
        steps[p] += k
        if xj <= left or xj >= right:
            cost[p] = total + ga[-1] * (g_left if xj <= left else g_right)
        else:
            cost[p] = total
            n_live += 1
    return n_live
