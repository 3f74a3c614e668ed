"""Linear on-policy value solves on the grid.

The value of a fixed policy solves, on interior nodes,

    (sigma^2/2) v'' + b_bar v' - c_bar v + f_bar + tau*kl = 0,
    v = g at both endpoints,

with policy-averaged coefficients.  Policy evaluation has one path:
``average_coefficients`` forms b_bar, c_bar and the forcing
f_bar + tau*kl, ``assemble_system`` turns them into tridiagonal bands, and
``solve_linear`` solves the bands into a ``ValueField``.  The value solve,
the residual, the performance-difference check, Howard's uniform-policy
bootstrap and the Monte Carlo tables all start from the same averages, so
their identities hold at the level of linear algebra.  Every derivative
is central, in the solve as in the per-action generator table
b*Dv - c*v + f and the diffusion term (sigma^2/2) v'' that the HJB
residuals and the flow read; the advection stencil needs the cell Peclet
condition |b_bar| h / sigma^2 <= 2, which a finer grid restores.
"""

from dataclasses import dataclass, replace

import numpy as np

from .domain import _feature_table
from .kernels import thomas_solve, tridiag_apply
from .policy import Policy, _check_tau, kl_between, kl_to_reference

class SolverError(RuntimeError):
    """Raised when a linear solve cannot be performed as requested."""


@dataclass(frozen=True)
class ValueField:
    """Nodal values (boundary entries equal g) with interior derivative."""
    v: np.ndarray    # all grid nodes
    dv: np.ndarray   # interior nodes, central differences

    @property
    def interior(self):
        return self.v[1:-1]


def average_coefficients(problem, p: Policy, tau):
    """Policy averages (b_bar, c_bar, forcing) on interior nodes, with the
    forcing f_bar + tau*KL(p|mu)."""
    b_bar, c_bar, f_bar = np.einsum("jik,ik->ji", problem.coef_tab, p.weights)
    return b_bar, c_bar, f_bar + tau * kl_to_reference(p)


def _max_cell_peclet(problem, b_bar):
    """Largest cell Peclet number |b_bar| h / sigma^2 over interior nodes."""
    peclet = np.abs(b_bar) * problem.grid.spacing / problem.sigma_interior ** 2
    return float(peclet.max()) if peclet.size else 0.0


def assemble_system(problem, b_bar, c_bar, forcing):
    """Central-difference bands and rhs of the interior tridiagonal system.

    Row i encodes (sigma_i^2/2) v'' + b_i v' - c_i v = -forcing_i with the
    Dirichlet data folded into the rhs.  Returns (lower, diag, upper, rhs).
    """
    pmax = _max_cell_peclet(problem, b_bar)
    if pmax > 2.0:
        raise SolverError(
            f"cell Peclet number {pmax:.3g} > 2 breaks diagonal dominance "
            f"of the central advection stencil; raise grid.n_interior so "
            f"that |b| h / sigma^2 <= 2")
    h = problem.grid.spacing
    diff = 0.5 * problem.sigma_interior ** 2 / h ** 2
    adv = b_bar / (2.0 * h)
    lower = diff - adv
    upper = diff + adv
    diag = -2.0 * diff - c_bar
    rhs = -np.asarray(forcing, dtype=np.float64).copy()
    rhs[0] -= lower[0] * problem.g_left
    rhs[-1] -= upper[-1] * problem.g_right
    return lower, diag, upper, rhs


def solve_linear(problem, b_bar, c_bar, forcing) -> ValueField:
    """Solve the interior system for v on all nodes and dv on interior."""
    lower, diag, upper, rhs = assemble_system(problem, b_bar, c_bar, forcing)
    try:
        v_int = thomas_solve(lower, diag, upper, rhs)
    except ZeroDivisionError as exc:
        raise SolverError(f"singular tridiagonal system (cell Peclet "
                          f"{_max_cell_peclet(problem, b_bar):.3g}); "
                          f"coefficients may be degenerate") from exc
    v = np.empty(problem.n_interior + 2)
    v[0] = problem.g_left
    v[-1] = problem.g_right
    v[1:-1] = v_int
    return ValueField(v=v, dv=(v[2:] - v[:-2]) / (2.0 * problem.grid.spacing))


def solve_on_policy_bellman(problem, p: Policy, tau) -> ValueField:
    """Value field of policy p with entropy weight tau >= 0."""
    _check_tau(tau, positive=False)
    return solve_linear(problem, *average_coefficients(problem, p, tau))


def diffusion(problem, vf: ValueField) -> np.ndarray:
    """Diffusion term (sigma^2/2) v'' on interior nodes, with the central
    second difference of the full nodal vector."""
    v = vf.v
    d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / problem.grid.spacing ** 2
    return 0.5 * problem.sigma_interior ** 2 * d2


def optimal_feature(problem, vf: ValueField) -> np.ndarray:
    """Feature table b*Dv - c*v + f on interior nodes x action nodes."""
    return _feature_table(problem.coef_tab, vf.interior, vf.dv)


def pde_residual(problem, p: Policy, tau, vf: ValueField) -> float:
    """Max-norm residual of the discrete on-policy equation at vf."""
    lower, diag, upper, rhs = assemble_system(
        problem, *average_coefficients(problem, p, tau))
    res = tridiag_apply(lower, diag, upper, vf.v[1:-1]) - rhs
    return float(np.max(np.abs(res)))


def performance_difference_check(problem, p: Policy, q: Policy, tau) -> float:
    """Residual of the exact policy-difference identity.

    Builds the advantage-plus-KL forcing h of q's value under the signed
    kernel (p - q), solves the linear equation under p with zero boundary
    data, and returns the max deviation from v_p - v_q.  The solves and
    the generator table share one central-difference operator, so this is
    a linear-algebra identity and the result is solver roundoff.
    """
    _check_tau(tau, positive=True)
    b_p, c_p, forcing_p = average_coefficients(problem, p, tau)
    vp = solve_linear(problem, b_p, c_p, forcing_p)
    vq = solve_on_policy_bellman(problem, q, tau)
    # (L^a v_q)(x_i) + f(x_i, a) for every action column
    adv = diffusion(problem, vq)[:, None] + optimal_feature(problem, vq) \
        + tau * q.log_density
    forcing = np.einsum("ik,ik->i", p.weights - q.weights, adv) \
        + tau * kl_between(p, q)
    # w has zero boundary data
    w = solve_linear(replace(problem, g_left=0.0, g_right=0.0), b_p, c_p,
                     forcing)
    return float(np.max(np.abs(w.interior - (vp.interior - vq.interior))))
