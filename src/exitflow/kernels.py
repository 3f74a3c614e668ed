"""Hot numeric kernels: tridiagonal solves and exit-time path simulation.

Both are plain Python/numpy.  The tridiagonal solve runs on Python floats:
at the grid sizes used here (tens to hundreds of rows) per-element numpy
indexing costs more than the arithmetic, so the value solve hands it the
bands and rhs as lists of floats.  LAPACK's ``dgtsv`` would be
faster still (on a 2-vCPU x86-64 VM, 1.2, 4.7 and 16 us at n = 29, 199
and 799, against 5, 33 and 134 us for this loop), but importing
``scipy.linalg.lapack`` on top of ``scipy.special`` raises a process's
peak resident memory from 53.8 to 60.1 MB there, about 11 % of a
``run-flow`` process's peak, more than the 10 % by which ``perfbench``
lets peak memory grow.  The path simulation alone decides which paths of
a batch are still alive.  It has two walks with the same bits: a numpy
step over all live paths for the bulk of a batch, 21 numpy calls a step
whatever the path count, and a walk of each path on Python floats once at
most ``SCALAR_PATHS`` are left, a threshold measured where the two cost
the same rather than a setting.  A chunk hands over from the first to the
second on the step that leaves that few.  The walk keeps numpy's
exponential, whose last bit differs from ``math.exp`` on some arguments,
and forms the discount factors and costs of all its paths at once; the
bulk keeps no whole-chunk history of positions, which would raise peak
memory.
"""

import numpy as np


def thomas_solve(lower, diag, upper, rhs):
    """Solve the tridiagonal system with bands (lower, diag, upper), and
    return the solution as a list of Python floats.

    The bands and rhs are lists of Python floats, as
    ``elliptic.assemble_system`` forms them; the elimination reads them
    entry by entry and changes none of them.  The caller makes the one
    array it needs from the list.  ``lower[0]`` and
    ``upper[-1]`` are ignored.  Raises ZeroDivisionError on a zero pivot;
    callers assemble diagonally dominant systems so this only fires on
    degenerate input.
    """
    n = len(rhs)
    beta = diag[0]
    if beta == 0.0:
        raise ZeroDivisionError("singular tridiagonal system at row 0")
    cp = [0.0] * n
    x = [0.0] * n
    # the previous row's pivot ratio and value ride in locals, which
    # Python reads faster than list entries
    c_prev = cp[0] = upper[0] / beta
    x_prev = x[0] = rhs[0] / beta
    for i in range(1, n):
        low = lower[i]
        beta = diag[i] - low * c_prev
        if beta == 0.0:
            raise ZeroDivisionError(f"singular tridiagonal system at row {i}")
        cp[i] = c_prev = upper[i] / beta
        x[i] = x_prev = (rhs[i] - low * x_prev) / beta
    for i in range(n - 2, -1, -1):
        x[i] = x_prev = x[i] - cp[i] * x_prev
    return x


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
# Two walks give the same bits.  While more than SCALAR_PATHS paths are
# live, one numpy step moves all of them at a time; once exits leave
# SCALAR_PATHS or fewer, or a chunk starts with that few (the tail of a
# batch, where a few slow paths keep it alive), the rest of the chunk
# walks each path on Python floats, as `thomas_solve` does.  The numpy
# step pays numpy's per-call overhead, not arithmetic, up to a few hundred
# paths, so it makes 21 calls a step (one more once a path has exited to
# gather the live rows of normals): the b, c, f + tau*KL and sigma tables
# and their cell differences are stacked into one (8, n - 1) array per
# chunk, so one gather, one multiply and one add interpolate all four,
# and cost, discount and position are updated in place, in the order
# (gamma * fkl) * dt, gamma * exp(c * -dt) (the bits of (-c) * dt), then
# (x + b * dt) + (sigma * sqrt(dt)) * xi.  The position recursion does
# not involve gamma or the cost, so the walk first takes the positions of
# one path after another, then forms c, f + tau*KL, the discount factors
# and the running costs of all walked paths at once, on (paths x longest
# walk + 1) arrays padded with 1.0 among the factors and -0.0 among the
# cost terms, which leave products and sums, signed zeros included, as
# they are.
#
# The discount factor stays `np.exp`, on arrays: numpy's SIMD exponential
# and `math.exp` differ in the last bit on a few per cent of arguments,
# while `np.exp` gives an element the same bits whatever the array length.
# The numpy step keeps no (paths x steps) history to accumulate a whole
# chunk at once, as the walk does for its few paths: storing one for the
# bulk raised the `oracle` benchmark's peak RSS from 63 to 75 MB and
# slowed its first 1000-path chunk by a third.
# SCALAR_PATHS is a measured crossover, not a setting: on a 2-vCPU x86-64
# VM at dt = 2e-4 the numpy step takes about 13 us at 40 live paths and
# 37 us at 1000, the walk about 0.35 us per path and step, and the
# `oracle` wall time is flat for thresholds from 16 to 48.  Either side of
# it gives the same result.
# ---------------------------------------------------------------------------

SCALAR_PATHS = 24


def _nodes(xa, left, spacing, top):
    """Cell index and in-cell weight of each position."""
    pos = xa - left
    pos /= spacing
    idx = pos.astype(np.int64)
    np.minimum(idx, top, out=idx)
    pos -= idx
    return idx, pos


def simulate_chunk(x, gamma, cost, *, steps, normals, left, right, spacing,
                   b_tab, c_tab, fkl_tab, s_tab, dt, g_left, g_right):
    """Advance the batch's live paths, in place, through one chunk; return
    how many are still live."""
    sqrt_dt = np.sqrt(dt)
    top = b_tab.size - 2
    # rows 0-3: f + tau*KL, c, b and sigma at each cell's left node; rows
    # 4-7: their differences across the cell
    tabs = np.array([fkl_tab, c_tab, b_tab, s_tab])
    tabs = np.concatenate((tabs[:, :-1], np.diff(tabs)))
    # the step's factors of c, b and sigma
    scale = np.array([[-dt], [dt], [sqrt_dt]])
    n_steps = normals.shape[1]
    live = np.flatnonzero((x > left) & (x < right))
    rows = None  # the normals rows of the live paths, once one has exited
    xa, ga, ca = x[live], gamma[live], cost[live]
    # numpy reads a 0-d array operand faster than a Python or numpy scalar
    lo, hi, h, dt_, top_ = map(np.array, (left, right, spacing, dt, top))
    j = 0
    while j < n_steps and live.size > SCALAR_PATHS:
        idx, w = _nodes(xa, lo, h, top_)
        near = tabs.take(idx, axis=1)
        at = near[4:]
        at *= w
        at += near[:4]
        fkl = at[0]
        fkl *= ga
        fkl *= dt_
        ca += fkl
        at[1:] *= scale
        c = at[1]
        ga *= np.exp(c, out=c)
        xa += at[2]
        sig = at[3]
        sig *= normals[:, j] if rows is None else normals[:, j][rows]
        xa += sig
        j += 1
        out = xa <= lo
        out |= xa >= hi
        if np.count_nonzero(out):
            gone = live[out]
            x_out, g_out = xa[out], ga[out]
            payoff = np.where(x_out <= left, g_left, g_right)
            x[gone] = x_out
            gamma[gone] = g_out
            cost[gone] = ca[out] + g_out * payoff
            steps[gone] += j
            keep = ~out
            live = live[keep]
            rows = np.flatnonzero(keep) if rows is None else rows[keep]
            xa, ga, ca = xa[keep], ga[keep], ca[keep]
    x[live] = xa
    gamma[live] = ga
    cost[live] = ca
    steps[live] += j
    if j == n_steps or live.size == 0:
        return live.size
    tail = normals[:, j:] if rows is None else normals[rows, j:]
    return _walk_paths(x, gamma, cost, steps, tail, live, float(left),
                       float(right), float(spacing), tabs, float(dt),
                       float(sqrt_dt), top, g_left, g_right)


def _walk_paths(x, gamma, cost, steps, normals, live, left, right, spacing,
                tabs, dt, sqrt_dt, top, g_left, g_right):
    """simulate_chunk's scalar walk: the positions of one live path after
    another on Python floats, then the discount factors and running costs
    of all of them at once."""
    bt, st, bd, sd = (tabs[r].tolist() for r in (2, 3, 6, 7))
    starts, ends, walked = [], [], []
    for xj, zs in zip(x[live].tolist(), normals.tolist()):
        k = len(starts)
        for z in zs:
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
        ends.append(xj)
        walked.append(len(starts) - k)
    # one row per path, padded after its walk with 1.0 among the discount
    # factors and -0.0 among the cost terms: x*1.0 and x + -0.0 are x,
    # signed zeros included, so each row's last entry is its own result
    walked = np.array(walked)
    taken = np.arange(1, walked.max() + 1) <= walked[:, None]
    idx, w = _nodes(np.array(starts), left, spacing, top)
    near = tabs.take(idx, axis=1)
    at = near[4:6]
    at *= w
    at += near[:2]
    fkl, c = at
    ga = np.ones((live.size, taken.shape[1] + 1))
    ga[:, 0] = gamma[live]
    ga[:, 1:][taken] = np.exp(c * -dt)
    np.multiply.accumulate(ga, axis=1, out=ga)
    ca = np.full(ga.shape, -0.0)
    ca[:, 0] = cost[live]
    fkl *= ga[:, :-1][taken]
    fkl *= dt
    ca[:, 1:][taken] = fkl
    total = np.add.accumulate(ca, axis=1)[:, -1]
    xe = np.array(ends)
    g_end = ga[:, -1]
    out = (xe <= left) | (xe >= right)
    total[out] += g_end[out] * np.where(xe[out] <= left, g_left, g_right)
    x[live] = xe
    gamma[live] = g_end
    cost[live] = total
    steps[live] += walked
    return live.size - int(np.count_nonzero(out))
