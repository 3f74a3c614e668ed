"""Linear on-policy value solves on the grid.

The value of a fixed policy solves, on interior nodes,

    (sigma^2/2) v'' + b_bar v' - c_bar v + f_bar + tau*kl = 0,
    v = g at both endpoints,

with policy-averaged coefficients.  Second derivatives are central; the
advection term is central by default with an upwind fallback behind the
``scheme`` flag (central requires the cell Peclet condition
|b_bar| h / sigma^2 <= 2).  One tridiagonal assembly is shared verbatim
by the solver, the residual, and the performance-difference check, so
those identities hold at the level of linear algebra.  The per-action
generator table b*Dv - c*v + f and the diffusion term (sigma^2/2) v''
also live here, for the HJB residuals and the flow.
"""

from dataclasses import dataclass, replace

import numpy as np

from .kernels import thomas_solve, tridiag_apply
from .policy import Policy, kl_between, kl_to_reference

CENTRAL = "central"
UPWIND = "upwind"


class SolverError(RuntimeError):
    """Raised when a linear solve cannot be performed as requested."""


@dataclass(frozen=True)
class AveragedCoefficients:
    """Policy averages of the coefficient tables plus the per-node KL."""
    b_bar: np.ndarray
    c_bar: np.ndarray
    f_bar: np.ndarray
    kl: np.ndarray


@dataclass(frozen=True)
class ValueField:
    """Nodal values (boundary entries equal g) with interior derivative."""
    v: np.ndarray    # all grid nodes
    dv: np.ndarray   # interior nodes, central differences
    tau: float

    @property
    def interior(self):
        return self.v[1:-1]


def average_coefficients(problem, p: Policy) -> AveragedCoefficients:
    b_bar, c_bar, f_bar = np.einsum("jik,ik->ji", problem.coef_tab, p.weights)
    return AveragedCoefficients(b_bar=b_bar, c_bar=c_bar, f_bar=f_bar,
                                kl=kl_to_reference(p))


def assemble_system(problem, b_bar, c_bar, forcing, scheme=CENTRAL):
    """Bands and right-hand side of the interior tridiagonal system.

    Row i encodes (sigma_i^2/2) v'' + b_i v' - c_i v = -forcing_i with the
    Dirichlet data folded into the rhs.  Returns (lower, diag, upper, rhs).
    """
    h = problem.grid.spacing
    sig2 = problem.sigma_interior ** 2
    diff = 0.5 * sig2 / h ** 2
    if scheme == CENTRAL:
        peclet = np.abs(b_bar) * h / sig2
        pmax = float(peclet.max()) if peclet.size else 0.0
        if pmax > 2.0:
            raise SolverError(
                f"cell Peclet number {pmax:.3g} > 2 breaks diagonal dominance "
                f"of the central scheme; rerun with scheme='upwind'")
        adv = b_bar / (2.0 * h)
        lower = diff - adv
        upper = diff + adv
        diag = -2.0 * diff - c_bar
    elif scheme == UPWIND:
        bp = np.maximum(b_bar, 0.0)
        bm = np.minimum(b_bar, 0.0)
        lower = diff - bm / h
        upper = diff + bp / h
        diag = -2.0 * diff - c_bar - (bp - bm) / h
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    rhs = -np.asarray(forcing, dtype=np.float64).copy()
    rhs[0] -= lower[0] * problem.g_left
    rhs[-1] -= upper[-1] * problem.g_right
    return lower, diag, upper, rhs


def solve_linear(problem, b_bar, c_bar, forcing, scheme=CENTRAL):
    """Solve the interior system; returns (v on all nodes, dv on interior)."""
    lower, diag, upper, rhs = assemble_system(problem, b_bar, c_bar, forcing,
                                              scheme)
    try:
        v_int = thomas_solve(lower, diag, upper, rhs)
    except ZeroDivisionError as exc:
        h = problem.grid.spacing
        pmax = float(np.max(np.abs(b_bar) * h / problem.sigma_interior ** 2))
        raise SolverError(f"singular tridiagonal system (cell Peclet "
                          f"{pmax:.3g}); coefficients may be degenerate") from exc
    v = np.empty(problem.n_interior + 2)
    v[0] = problem.g_left
    v[-1] = problem.g_right
    v[1:-1] = v_int
    dv = (v[2:] - v[:-2]) / (2.0 * problem.grid.spacing)
    return v, dv


def solve_on_policy_bellman(problem, p: Policy, tau, scheme=CENTRAL) -> ValueField:
    """Value field of policy p with entropy weight tau >= 0."""
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    avg = average_coefficients(problem, p)
    forcing = avg.f_bar + tau * avg.kl
    v, dv = solve_linear(problem, avg.b_bar, avg.c_bar, forcing, scheme)
    return ValueField(v=v, dv=dv, tau=float(tau))


def diffusion(problem, vf: ValueField) -> np.ndarray:
    """Diffusion term (sigma^2/2) v'' on interior nodes, with the central
    second difference of the full nodal vector."""
    v = vf.v
    d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / problem.grid.spacing ** 2
    return 0.5 * problem.sigma_interior ** 2 * d2


def optimal_feature(problem, vf: ValueField) -> np.ndarray:
    """Feature table b*Dv - c*v + f on interior nodes x action nodes."""
    return problem.b_tab * vf.dv[:, None] \
        - problem.c_tab * vf.interior[:, None] + problem.f_tab


def pde_residual(problem, p: Policy, tau, vf: ValueField, scheme=CENTRAL) -> float:
    """Max-norm residual of the discrete on-policy equation at vf."""
    avg = average_coefficients(problem, p)
    forcing = avg.f_bar + tau * avg.kl
    lower, diag, upper, rhs = assemble_system(problem, avg.b_bar, avg.c_bar,
                                              forcing, scheme)
    res = tridiag_apply(lower, diag, upper, vf.v[1:-1]) - rhs
    return float(np.max(np.abs(res)))


def performance_difference_check(problem, p: Policy, q: Policy, tau,
                                 scheme=CENTRAL) -> float:
    """Residual of the exact policy-difference identity.

    Builds the advantage-plus-KL forcing h of q's value under the signed
    kernel (p - q), solves the linear equation under p with zero boundary
    data, and returns the max deviation from v_p - v_q.  On the shared
    discrete operator this is a linear-algebra identity, so the result is
    solver roundoff.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    vp = solve_on_policy_bellman(problem, p, tau, scheme)
    vq = solve_on_policy_bellman(problem, q, tau, scheme)
    # (L^a v_q)(x_i) + f(x_i, a) for every action column
    adv = diffusion(problem, vq)[:, None] + optimal_feature(problem, vq) \
        + tau * q.log_density
    forcing = np.einsum("ik,ik->i", p.weights - q.weights, adv) \
        + tau * kl_between(p, q)
    avg_p = average_coefficients(problem, p)
    # w has zero boundary data
    w, _ = solve_linear(replace(problem, g_left=0.0, g_right=0.0),
                        avg_p.b_bar, avg_p.c_bar, forcing, scheme)
    return float(np.max(np.abs(w[1:-1] - (vp.v[1:-1] - vq.v[1:-1]))))
