"""Exit-time Monte Carlo: the independent check on the linear solver.

Paths follow the policy-averaged drift via Euler-Maruyama, accumulating
the discounted running cost (plus the entropy penalty at weight tau) until
they first leave the interval, then collect the discounted exit payoff at
the nearest endpoint.  Coefficients are linear interpolations of the
policy-averaged nodal tables, extended to the endpoints by replication.
Paths are simulated in batches with independently spawned substreams, and
batch results are reduced in a fixed order, so a seed pins the estimate
bit for bit.  Each chunk draws one row of normals per live path, in
ascending path order, and `kernels.simulate_chunk` advances, retires and
writes back the paths itself: a path is live while it lies inside the
interval, an exited path keeps its exit position, and its step count is
its exit step.  This module only draws normals for the live count that
the kernel returns, until none is left, checks the step cap and reads
the exit times from the step counts.
"""

from dataclasses import dataclass

import numpy as np

from .domain import _count
from .elliptic import average_coefficients
from .kernels import simulate_chunk
from .policy import Policy, _check_tau

STEP_CAP = 10_000_000
BATCH_PATHS = 20_000
CHUNK_STEPS = 256


class PathCapError(RuntimeError):
    pass


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n_paths: int
    mean_exit_time: float
    dt_sim: float
    seed: int


def _extended_tables(problem, p: Policy, tau):
    """Nodal b, c, f + tau*kl and sigma tables on all grid nodes, edge
    values replicated from the nearest interior node."""
    b_bar, c_bar, forcing = (np.pad(t, 1, mode="edge") for t in
                             average_coefficients(problem, p, tau))
    return b_bar, c_bar, forcing, problem.sigma_nodes


def simulate_exit_value(problem, p: Policy, x0, tau, n_paths, dt_sim,
                        seed) -> McEstimate:
    """Mean discounted cost-to-exit from x0 under policy p at weight tau."""
    grid = problem.grid
    if not (grid.left < x0 < grid.right):
        raise ValueError(f"x0={x0} must lie strictly inside "
                         f"({grid.left}, {grid.right})")
    if not 0.0 < dt_sim < np.inf:
        raise ValueError("dt_sim must be positive and finite")
    _check_tau(tau, positive=False)
    n_paths = _count(n_paths, "n_paths", 1)
    b_tab, c_tab, fkl_tab, s_tab = _extended_tables(problem, p, tau)
    n_batches = (n_paths + BATCH_PATHS - 1) // BATCH_PATHS
    streams = np.random.SeedSequence(seed).spawn(n_batches)
    totals = np.empty(n_paths)
    exit_times = np.empty(n_paths)
    start = 0
    for batch, stream in enumerate(streams):
        m = min(BATCH_PATHS, n_paths - start)
        rng = np.random.default_rng(stream)
        x = np.full(m, float(x0))
        gamma = np.ones(m)
        cost = np.zeros(m)
        steps = np.zeros(m, dtype=np.int64)
        live = m
        while live:
            # one row per live path, in ascending path order
            normals = rng.standard_normal((live, CHUNK_STEPS))
            live = simulate_chunk(
                x, gamma, cost, steps=steps, normals=normals,
                left=grid.left, right=grid.right, spacing=grid.spacing,
                b_tab=b_tab, c_tab=c_tab, fkl_tab=fkl_tab, s_tab=s_tab,
                dt=dt_sim, g_left=problem.g_left, g_right=problem.g_right)
            if steps.max() > STEP_CAP:
                raise PathCapError(
                    f"path exceeded {STEP_CAP} steps without exiting "
                    f"(batch {batch}); check the diffusion coefficient")
        totals[start:start + m] = cost
        exit_times[start:start + m] = steps * dt_sim
        start += m
    mean = float(np.mean(totals))
    if n_paths > 1:
        stderr = float(np.std(totals, ddof=1) / np.sqrt(n_paths))
    else:
        stderr = 0.0
    return McEstimate(mean=mean, stderr=stderr, n_paths=n_paths,
                      mean_exit_time=float(np.mean(exit_times)),
                      dt_sim=float(dt_sim), seed=int(seed))
