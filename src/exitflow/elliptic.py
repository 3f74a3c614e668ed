"""Linear on-policy value solves on the grid.

The value of a fixed policy solves, on interior nodes,

    (sigma^2/2) v'' + b_bar v' - c_bar v + f_bar + tau*kl = 0,
    v = g at both endpoints,

with policy-averaged coefficients.  Policy evaluation has one path:
``average_coefficients`` forms b_bar, c_bar and the forcing
f_bar + tau*kl, ``assemble_system`` turns them into tridiagonal bands, and
``solve_linear`` solves the bands into a ``ValueField``.  On interval
action sets with LQ structure the averages are affine in the policy's
action moments E[a] and E[a^2] (``domain.lq_averages``), so they are
formed from those two numbers per node and the seven LQ maps, without
the policy's weights; elsewhere they contract the (3, n, N) coefficient
table with the weights.  The value
solve, Howard's uniform-policy bootstrap and the Monte Carlo tables all
start from the same averages, and so do the discrete residual and the
performance-difference identity that the tests check, so those identities
hold at the level of linear algebra.  Every derivative
is central, in the solve as in the per-action generator table
b*Dv - c*v + f and the diffusion term (sigma^2/2) v'' that the HJB
residuals and the flow read; the advection stencil needs the cell Peclet
condition |b_bar| h / sigma^2 <= 1, under which the off-diagonal bands
(sigma^2 -/+ b_bar h)/(2h^2) are nonnegative and, with c_bar >= 0, every
row is diagonally dominant; a finer grid restores it.

The flow evaluates thousands of policies on a few dozen nodes, where a
solve costs numpy's per-call overhead rather than arithmetic, so the path
keeps its calls few: the LQ averages take four numpy calls on strided
views of ``lq_tab``, and ``assemble_system`` hands the bands and rhs to
``thomas_solve`` as lists of Python floats, with the Dirichlet data
folded into the rhs on those floats, since the elimination runs on them.
Each operation that produces a bit keeps its operands and its order.
"""

from dataclasses import dataclass

import numpy as np

from .domain import _feature_table, lq_averages
from .kernels import thomas_solve
from ._compat import einsum
from .policy import Policy, _check_tau

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
    forcing f_bar + tau*KL(p|mu).

    On interval LQ problems the averages are affine in the policy's action
    moments E[a] and E[a^2], and are formed from them and ``lq_tab``;
    elsewhere they contract ``coef_tab`` with the weights.  A policy whose
    shape is not (n_interior, n_actions), or that is built over action
    nodes or weights other than the problem's, raises ValueError.
    """
    actions = problem.actions
    shape = problem.coef_tab.shape[1:]
    if p.shape != shape:
        raise ValueError(f"policy of shape {p.shape} does not match the "
                         f"problem's (n_interior, n_actions) = {shape}")
    own = p.actions
    if own is not actions and not (
            np.array_equal(own.actions, actions.actions)
            and np.array_equal(own.mu_weights, actions.mu_weights)):
        raise ValueError("policy is built over other action nodes or "
                         "weights than the problem's")
    if problem._interval_lq:
        b_bar, c_bar, f_bar = lq_averages(problem.lq_tab, *p.moments)
    else:
        b_bar, c_bar, f_bar = einsum("jik,ik->ji", problem.coef_tab,
                                      p.weights)
    return b_bar, c_bar, f_bar + tau * p.kl


def _max_cell_peclet(problem, b_bar):
    """Largest cell Peclet number |b_bar| h / sigma^2 over interior nodes."""
    peclet = np.abs(b_bar) * problem.grid.spacing
    peclet /= problem._stencil.sig2
    return float(np.maximum.reduce(peclet)) if peclet.size else 0.0


def assemble_system(problem, b_bar, c_bar, forcing):
    """Central-difference bands and rhs of the interior tridiagonal system.

    Row i encodes (sigma_i^2/2) v'' + b_i v' - c_i v = -forcing_i with the
    Dirichlet data folded into the rhs.  Returns (lower, diag, upper, rhs)
    as lists of Python floats, which ``thomas_solve`` runs on as they are
    and numpy reads as arrays.
    """
    pmax = _max_cell_peclet(problem, b_bar)
    if pmax > 1.0:
        raise SolverError(
            f"cell Peclet number {pmax:.3g} > 1 makes an off-diagonal band "
            f"of the central advection stencil negative and the rows not "
            f"diagonally dominant; raise grid.n_interior so that "
            f"|b| h / sigma^2 <= 1")
    _, diff, diag_diff, two_h = problem._stencil
    adv = b_bar / two_h
    lower = (diff - adv).tolist()
    upper = (diff + adv).tolist()
    rhs = np.negative(forcing).tolist()
    rhs[0] -= lower[0] * problem.g_left
    rhs[-1] -= upper[-1] * problem.g_right
    return lower, (diag_diff - c_bar).tolist(), upper, rhs


def solve_linear(problem, b_bar, c_bar, forcing) -> ValueField:
    """Solve the interior system for v on all nodes and dv on interior."""
    lower, diag, upper, rhs = assemble_system(problem, b_bar, c_bar, forcing)
    try:
        v_int = thomas_solve(lower, diag, upper, rhs)
    except ZeroDivisionError as exc:
        raise SolverError(f"singular tridiagonal system (cell Peclet "
                          f"{_max_cell_peclet(problem, b_bar):.3g}); "
                          f"coefficients may be degenerate") from exc
    v = np.array([problem.g_left, *v_int, problem.g_right])
    return ValueField(v=v, dv=(v[2:] - v[:-2]) / problem._stencil.two_h)


def solve_on_policy_bellman(problem, p: Policy, tau) -> ValueField:
    """Value field of policy p with entropy weight tau >= 0."""
    _check_tau(tau, positive=False)
    return solve_linear(problem, *average_coefficients(problem, p, tau))


def diffusion(problem, vf: ValueField) -> np.ndarray:
    """Diffusion term (sigma^2/2) v'' on interior nodes, with the central
    second difference of the full nodal vector."""
    v = vf.v
    d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / problem.grid.spacing ** 2
    return 0.5 * problem._stencil.sig2 * d2


def optimal_feature(problem, vf: ValueField) -> np.ndarray:
    """Feature table b*Dv - c*v + f on interior nodes x action nodes."""
    return _feature_table(problem.coef_tab, vf.interior, vf.dv)
