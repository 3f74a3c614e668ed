"""Grids, action spaces with reference measures, and control problems.

A control problem bundles the coefficient maps (drift b, discount c,
running cost f, diffusion sigma, exit cost g) together with their values
tabulated once on the grid x action nodes, in a read-only table that
all downstream solvers read.  Without LQ structure (below) the table
calls the b, c and f closures on Python floats.  The linear-quadratic
family (b and c affine in the action, f quadratic) is first-class
because it admits closed-form action minima.  Its seven maps of x are
evaluated once per interior node, and the b, c, f table is formed from
those values by broadcasting over the action nodes, so building an LQ
problem calls each map O(n) times whatever the number of actions.
Rows of the seven map values are read only here, by
``lq_coefficients``, ``lq_averages`` (b, c and f averaged under a law
with given E[a] and E[a^2]) and ``lq_feature``, and rows of the b, c, f
table by ``_feature_table``.  ``_tables`` is the one tabulation: the
problem's tables at its interior nodes, and the pointwise Hamiltonians'
one-node tables at a point on or off the grid, on every kind of action
set, come from it.  A problem also forms, on first use, the constants of
the central-difference stencil that ``elliptic`` assembles and
differentiates with, and the sup-norm of f from which the solvers take
their default tolerance.
"""

import functools
import math
import operator
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Optional

import numpy as np

DISCRETE = "discrete"
INTERVAL = "interval"


@dataclass(frozen=True)
class Grid:
    """Uniform mesh on [left, right] with n_interior interior nodes."""
    left: float
    right: float
    n_interior: int
    spacing: float
    nodes: np.ndarray  # n_interior + 2 nodes, endpoints included

    @property
    def interior(self):
        return self.nodes[1:-1]


@dataclass(frozen=True)
class ActionSpace:
    """Finite action nodes carrying reference-measure quadrature weights.

    ``kind`` is "discrete" (uniform weights over the listed actions) or
    "interval" (Gauss-Legendre nodes on [alpha, beta], weights normalized
    against the uniform density so they sum to one).
    """
    kind: str
    actions: np.ndarray
    mu_weights: np.ndarray
    alpha: float = math.nan
    beta: float = math.nan

    @property
    def n_actions(self):
        return self.actions.shape[0]

    @functools.cached_property
    def _powers(self):
        """The nodes a and a**2 as the rows of a (2, n_actions) array:
        the two columns of a quadratic-in-a feature row besides the
        constant, formed once per action space."""
        return np.array([self.actions, self.actions * self.actions])


@dataclass(frozen=True)
class LQCoefficients:
    """Scalar maps of x for b = b_bar + b_hat*a, c = c_bar + c_hat*a,
    f = f_bar + f_tilde*a + f_hat*a**2."""
    b_bar: Callable[[float], float]
    b_hat: Callable[[float], float]
    c_bar: Callable[[float], float]
    c_hat: Callable[[float], float]
    f_bar: Callable[[float], float]
    f_tilde: Callable[[float], float]
    f_hat: Callable[[float], float]

    def at(self, x):
        """The seven map values at x, in field order."""
        return [getattr(self, name)(x) for name in LQ_FIELDS]


LQ_FIELDS = tuple(k.name for k in fields(LQCoefficients))


class _Stencil(NamedTuple):
    """Constants of the central-difference stencil on interior nodes."""
    sig2: np.ndarray       # sigma^2
    diff: np.ndarray       # diffusion band 0.5*sigma^2/h^2
    diag_diff: np.ndarray  # its share of the diagonal, -2*diff
    two_h: float           # central-difference width 2h


def _feature_table(coef, u, p):
    """b*p - c*u + f per node and action, from a (3, n, N) coefficient
    table in ``coef_tab`` row order and per-node u, p, formed in one
    output array."""
    out = coef[0] * p[:, None]
    out -= coef[1] * u[:, None]
    out += coef[2]
    return out


def lq_coefficients(t, a):
    """(b, c, f) at actions ``a`` from the seven LQ map values ``t`` in
    field order: scalars at one x, or per-node rows that broadcast
    against ``a``."""
    return t[0] + t[1] * a, t[2] + t[3] * a, t[4] + t[5] * a + t[6] * a * a


def lq_averages(t, m1, m2):
    """(b_bar, c_bar, f_bar) under a law of the action with E[a] = ``m1``
    and E[a**2] = ``m2``, from the seven LQ map values ``t``: per-node
    rows, as the rows of one (3, n) array.  The strided views t[1:6:2] and
    t[0:5:2] (b_hat, c_hat, f_tilde and b_bar, c_bar, f_bar) take the three
    terms in m1 in one multiply and one add, with the bits of
    t[0] + t[1]*m1, t[2] + t[3]*m1 and (t[4] + t[5]*m1) + t[6]*m2."""
    out = t[1:6:2] * m1
    out += t[0:5:2]
    out[2] += t[6] * m2
    return out


def lq_feature(t, p, u):
    """(z0, z1, z2) with b*p - c*u + f = z0 + z1*a + z2*a**2, from the
    seven LQ map values ``t`` and the value u and slope p at the same x:
    scalars, or per-node rows."""
    return t[0] * p - t[2] * u + t[4], t[1] * p - t[3] * u + t[5], t[6]


@dataclass(frozen=True)
class ControlProblem:
    """Coefficients of an exit-time control problem on a 1D grid.

    The callables b, c and f are kept for off-grid evaluation (Hamiltonian
    probes); sigma is kept as its nodal values and the exit cost g as its
    values at the two ends.  ``coef_tab`` stacks b, c and f on interior
    nodes x action nodes, shape (3, n_interior, n_actions), read-only, and
    is what the PDE solvers consume; ``b_tab``, ``c_tab`` and ``f_tab`` are
    views of it.  On LQ problems ``lq_tab`` holds the seven LQ maps on
    interior nodes, shape (7, n_interior) in field order, read-only; it is
    None otherwise.
    """
    grid: Grid
    actions: ActionSpace
    b: Callable[[float, float], float]
    c: Callable[[float, float], float]
    f: Callable[[float, float], float]
    coef_tab: np.ndarray = field(repr=False)
    sigma_interior: np.ndarray = field(repr=False)
    sigma_nodes: np.ndarray = field(repr=False)
    g_left: float = 0.0
    g_right: float = 0.0
    lq: Optional[LQCoefficients] = None
    lq_tab: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n_interior(self):
        return self.grid.n_interior

    @property
    def b_tab(self):
        return self.coef_tab[0]

    @property
    def c_tab(self):
        return self.coef_tab[1]

    @property
    def f_tab(self):
        return self.coef_tab[2]

    @functools.cached_property
    def _interval_lq(self):
        """Interval actions with LQ structure: the policy averages, the
        improved features of policy iteration and the hard minimum are
        then formed from ``lq_tab``."""
        return self.actions.kind != DISCRETE and self.lq_tab is not None

    @functools.cached_property
    def f_sup(self):
        """max|f| over the table, formed once per problem."""
        return float(np.max(np.abs(self.f_tab)))

    @functools.cached_property
    def _stencil(self):
        """The stencil constants ``elliptic`` reads, formed once per
        problem."""
        h = self.grid.spacing
        sig2 = self.sigma_interior ** 2
        diff = 0.5 * sig2 / h ** 2
        return _Stencil(sig2, diff, -2.0 * diff, 2.0 * h)


def _count(n, name, low):
    """``n`` as an int of at least ``low``; a float, even a whole one, is
    refused rather than truncated."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n!r}") from None
    if n < low:
        raise ValueError(f"{name} must be >= {low}, got {n}")
    return n


def build_grid(left, right, n_interior):
    """Uniform grid with spacing (right-left)/(n_interior+1)."""
    left = float(left)
    right = float(right)
    if not (math.isfinite(left) and math.isfinite(right)):
        raise ValueError("grid endpoints must be finite")
    if left >= right:
        raise ValueError(f"grid needs left < right, got [{left}, {right}]")
    n_interior = _count(n_interior, "n_interior", 1)
    nodes = np.linspace(left, right, n_interior + 2)
    spacing = (right - left) / (n_interior + 1)
    return Grid(left=left, right=right, n_interior=n_interior,
                spacing=spacing, nodes=nodes)


@functools.lru_cache(maxsize=64)
def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order.

    The arrays are shared between calls, so they are read-only; callers
    derive new arrays from them.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def make_action_space(values=None, alpha=None, beta=None, n_quad=None):
    """Build a discrete or interval action space.

    Pass ``values`` for a finite action set (uniform reference weights),
    or ``alpha, beta, n_quad`` for a Gauss-Legendre discretization of the
    uniform measure on [alpha, beta].
    """
    if values is not None:
        acts = np.asarray(values, dtype=np.float64)
        if acts.ndim != 1:
            raise ValueError(f"discrete actions must be a 1-D list, got "
                             f"shape {acts.shape}")
        if acts.size == 0:
            raise ValueError("discrete action list must be nonempty")
        if not np.all(np.isfinite(acts)):
            raise ValueError("actions must be finite")
        w = np.full(acts.size, 1.0 / acts.size)
        return ActionSpace(kind=DISCRETE, actions=acts, mu_weights=w)
    alpha = float(alpha)
    beta = float(beta)
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError(f"interval ends must be finite, got [{alpha}, {beta}]")
    # below the smallest normal width the weights underflow (all 0 on
    # [0, 5e-324]), and past the largest float they are NaN
    width = beta - alpha
    if not np.finfo(float).tiny <= width < math.inf:
        raise ValueError(f"interval needs alpha < beta and a finite, normal "
                         f"beta - alpha, got [{alpha}, {beta}]")
    n_quad = _count(n_quad, "n_quad", 2)
    x, w = _gauss_legendre(n_quad)
    half = 0.5 * width
    nodes = alpha + half * (x + 1.0)
    # weights integrate the uniform density 1/(beta-alpha); they sum to 1.
    weights = w * half / width
    return ActionSpace(kind=INTERVAL, actions=nodes, mu_weights=weights,
                       alpha=alpha, beta=beta)


def _tabulate(fn, xs, acts):
    """fn(x, a) on nodes ``xs`` x actions ``acts``, called on Python
    floats."""
    out = np.empty((xs.size, acts.size))
    acts = acts.tolist()
    for i, x in enumerate(xs.tolist()):
        for k, a in enumerate(acts):
            out[i, k] = fn(x, a)
    return out


def _tables(b, c, f, lq, xs, acts):
    """(coef_tab, lq_tab) at the nodes ``xs`` x actions ``acts``: b, c and
    f stacked to shape (3, xs.size, acts.size), and, when ``lq`` is given,
    its seven maps at ``xs``, shape (7, xs.size) in field order and
    read-only, from which the b, c, f table is broadcast (None otherwise).
    """
    if lq is None:
        return np.array([_tabulate(fn, xs, acts) for fn in (b, c, f)]), None
    lq_tab = np.ascontiguousarray(
        np.array([lq.at(x) for x in xs], dtype=np.float64).T)
    lq_tab.flags.writeable = False
    return np.array(lq_coefficients(lq_tab[:, :, None], acts)), lq_tab


def make_problem(grid, actions, b, c, f, sigma, g, lq=None):
    """Tabulate coefficients and validate nondegeneracy/nonnegativity.

    ``lq``, when given, holds the maps that b, c and f are built from; the
    table is then formed from their per-node values, on which f_hat > 0
    and c >= 0 at both ends of the action set (alpha and beta on
    intervals) are checked.
    """
    xs = grid.interior
    coef_tab, lq_tab = _tables(b, c, f, lq, xs, actions.actions)
    coef_tab.flags.writeable = False
    if lq_tab is not None:
        _check_lq(lq_tab, xs, actions)
    sig_all = np.array([sigma(x) for x in grid.nodes], dtype=np.float64)
    for name, tab in zip("bcf", coef_tab):
        if not np.all(np.isfinite(tab)):
            raise ValueError(f"coefficient {name} is non-finite on grid x actions")
    if not np.all(np.isfinite(sig_all)):
        raise ValueError("sigma is non-finite on the grid")
    if np.min(sig_all) <= 0.0:
        raise ValueError("sigma must be strictly positive (nondegenerate noise)")
    if np.min(coef_tab[1]) < -1e-12:
        raise ValueError("discount c must be nonnegative on grid x actions")
    g_left = float(g(grid.left))
    g_right = float(g(grid.right))
    if not (math.isfinite(g_left) and math.isfinite(g_right)):
        raise ValueError("exit cost g non-finite at the boundary")
    return ControlProblem(grid=grid, actions=actions, b=b, c=c, f=f,
                          coef_tab=coef_tab, sigma_interior=sig_all[1:-1],
                          sigma_nodes=sig_all, g_left=g_left,
                          g_right=g_right, lq=lq, lq_tab=lq_tab)


def _check_lq(tab, xs, actions):
    """Validate the seven LQ maps at the nodes ``xs``: f_hat > 0, and
    c >= 0 at both ends of the action set, hence on all of it."""
    bad = np.flatnonzero(tab[6] <= 0.0)
    if bad.size:
        i = bad[0]
        raise ValueError(f"f_hat must be positive, got {tab[6][i]} "
                         f"at x={xs[i]}")
    if actions.kind == INTERVAL:
        ends = (actions.alpha, actions.beta)
    else:
        ends = (float(np.min(actions.actions)), float(np.max(actions.actions)))
    for a in ends:
        bad = np.flatnonzero(lq_coefficients(tab, a)[1] < 0.0)
        if bad.size:
            raise ValueError(f"discount c negative at x={xs[bad[0]]}, a={a}")


def make_lq_problem(lq: LQCoefficients, grid, actions, sigma, g):
    """Assemble a problem with b, c affine and f quadratic in the action;
    its b, c and f closures take ``lq_coefficients`` of the maps at x."""
    def closure(k):
        return lambda x, a: lq_coefficients(lq.at(x), a)[k]

    b, c, f = (closure(k) for k in range(3))
    return make_problem(grid, actions, b, c, f, sigma, g, lq=lq)


def lq_benchmark(kind=DISCRETE, n_interior=29, alpha=-4.0, beta=4.0,
                 n_quad=128, n_actions=5):
    """The workhorse test problem: b = a, c = 0.1, f = 1 + a^2 on (0, 1)
    with sigma = sqrt(2) and zero exit cost.

    ``kind="discrete"`` places ``n_actions`` uniform actions on [-1, 1];
    ``kind="interval"`` uses a Gauss-Legendre rule on [alpha, beta].
    """
    grid = build_grid(0.0, 1.0, n_interior)
    if kind == DISCRETE:
        actions = make_action_space(values=np.linspace(-1.0, 1.0, n_actions))
    elif kind == INTERVAL:
        actions = make_action_space(alpha=alpha, beta=beta, n_quad=n_quad)
    else:
        raise ValueError(f"unknown action kind {kind!r}")
    lq = LQCoefficients(
        b_bar=lambda x: 0.0, b_hat=lambda x: 1.0,
        c_bar=lambda x: 0.1, c_hat=lambda x: 0.0,
        f_bar=lambda x: 1.0, f_tilde=lambda x: 0.0,
        f_hat=lambda x: 1.0,
    )
    return make_lq_problem(lq, grid, actions,
                           sigma=lambda x: math.sqrt(2.0),
                           g=lambda x: 0.0)


def manufactured_problem(n_interior=49, forcing="quadratic"):
    """Problems with known solutions: f = 2 gives v = x(1-x); the sine
    forcing pi^2*sin(pi*x) gives v = sin(pi*x).  Single zero action."""
    grid = build_grid(0.0, 1.0, n_interior)
    actions = make_action_space(values=[0.0])
    if forcing == "quadratic":
        f = lambda x, a: 2.0
    elif forcing == "sine":
        f = lambda x, a: math.pi ** 2 * math.sin(math.pi * x)
    else:
        raise ValueError(f"unknown forcing {forcing!r}")
    return make_problem(grid, actions,
                        b=lambda x, a: 0.0, c=lambda x, a: 0.0, f=f,
                        sigma=lambda x: math.sqrt(2.0), g=lambda x: 0.0)
