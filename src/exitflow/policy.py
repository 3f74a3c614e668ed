"""Gibbs policies: softmax image of a feature matrix, and KL to the reference.

A feature field is a plain float64 matrix with one row per interior grid
node and one column per action node.  A policy records the action space
it is built over and exposes probability weights (mu quadrature weights
folded in, rows sum to 1), log-densities relative to the reference
measure, KL(pi|mu) per row and the action moments E_pi[a], E_pi[a^2]
over its own action nodes.  A Gibbs policy keeps the max-shifted
features s = z - max(z), and e*mu with e = exp(s) until its first use.
From e it forms each row's normaliser S0 = e @ mu and its KL as
E_pi[s] - ln S0, that is sum(e*mu*s)/S0 - ln S0, two terms of opposite
sign that need no log-density.  The log-partition
ln(mu-average of e^z) = max(z) + ln S0, by which the Gibbs image of
-z/tau carries the softmin H_tau = -tau*log_partition of z, the weights
e*mu/S0, the log-densities s - ln S0 and the moments
((e*mu) @ [a, a^2])/S0 are formed on first read, so the flow, which
reads only KL and the moments or the weights, never forms the
log-partition, a caller that averages an LQ problem through the moments
never forms the weights, and KL never forms the log-densities.  Each
has the bits of its eager formula.  Directly built policies
(deterministic selections) store weights and log-densities and form KL
and moments from them.

A flow stage makes a Gibbs policy of a few dozen rows, where numpy's
per-call overhead outweighs the arithmetic, so the map keeps that
overhead low.  The row maximum of a C-ordered table is one
``np.maximum.reduceat`` over the flat table at the row starts: numpy
reduces a short contiguous row axis one row at a time, and the segment
reduction takes about half as long (1.2 against 2.3 us at 29 x 5, 19
against 43 us at 799 x 7).  A column-ordered table, as the LQ
improvement step lays out, keeps ``np.maximum.reduce`` over its rows,
which then runs along contiguous columns (11 us at 799 x 64, against
43 us for the segment reduction of its row-ordered copy).  A maximum is
exact, so either gives the same bits.  The lazily formed fields go
through ``_cached``, which takes no lock.
"""

import functools

import numpy as np

from ._compat import einsum


class _cached:
    """``functools.cached_property`` without the lock that Python 3.11
    takes on every first read (a first read of a trivial field takes
    0.57 us through it, 0.19 us through this descriptor): the first
    read stores the value in the instance's ``__dict__``, where later
    reads find it before this descriptor.  Two threads that read a field
    first at once both form it, with the same bits.  ``func`` is the
    function that forms the field."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@functools.lru_cache(maxsize=64)
def _row_starts(n_rows, width):
    """Flat index of the first entry of each row of a C-ordered
    (n_rows, width) table, read-only."""
    starts = np.arange(0, n_rows * width, width)
    starts.flags.writeable = False
    return starts


class Policy:
    """A policy on the action nodes of ``actions``, one row per interior
    node, stored as its weights, shape (n_interior, n_actions) with rows
    summing to 1, and its log-densities ln d(pi)/d(mu), finite also where
    a weight is 0.  ``log_partition`` is ln of the mu-average of e^z per
    row for a Gibbs policy, None on deterministic selections."""

    log_partition = None

    def __init__(self, weights, log_density, actions):
        self.weights = weights
        self.log_density = log_density
        self.actions = actions
        self.shape = weights.shape

    @_cached
    def kl(self):
        """KL(pi | mu) per interior node."""
        return einsum("ik,ik->i", self.weights, self.log_density)

    @_cached
    def moments(self):
        """E_pi[a] and E_pi[a^2] per interior node, shape (2, n_interior),
        over the policy's own action nodes."""
        return self.actions._powers @ self.weights.T


class _GibbsPolicy(Policy):
    """The Gibbs policy of the shifted features ``s`` = z - m, ``m`` the
    row maximum of z (module doc); the log-partition, weights,
    log-densities and moments are formed on first read."""

    def __init__(self, s, m, actions):
        self._s = s
        self._m = m
        self.actions = actions
        self.shape = s.shape
        self._emu = emu = np.exp(s)
        self._norm = norm = emu @ actions.mu_weights
        emu *= actions.mu_weights
        self._log_norm = log_norm = np.log(norm)
        kl = einsum("ik,ik->i", emu, s)
        kl /= norm
        kl -= log_norm
        self.kl = kl

    @_cached
    def log_partition(self):
        return self._m + self._log_norm

    @_cached
    def weights(self):
        return self._take_emu() / self._norm[:, None]

    @_cached
    def log_density(self):
        return self._s - self._log_norm[:, None]

    @_cached
    def moments(self):
        moments = self.actions._powers @ self._take_emu().T
        moments /= self._norm
        return moments

    def _take_emu(self):
        """e*mu, handed over to the first of the weights and the moments
        to be formed, so that a policy keeps one (n, N) array once they
        are read; the other forms it again from s, with the same bits."""
        emu = self.__dict__.pop("_emu", None)
        if emu is None:
            emu = np.exp(self._s)
            emu *= self.actions.mu_weights
        return emu


def _check_tau(tau, positive):
    """Reject a tau that is not finite, or is below the smallest normal
    float where tau must be positive (-z/tau overflows there), else below
    0; the message names the tau the caller passed."""
    low, sign = (np.finfo(float).tiny, "positive") if positive \
        else (0.0, "nonnegative")
    if not low <= tau < np.inf:
        raise ValueError(f"tau must be {sign} and finite, at least "
                         f"{float(low)!r}, got {tau!r}")


def gibbs_policy(z, actions, *, overwrite=False):
    """Map a feature matrix to the Gibbs policy with density e^z / norm,
    norm being the mu-average of e^z, and keep ln(norm) per row.

    Stabilized with a per-row max shift, so feature scales of order
    1/tau for small tau stay finite.  Leaves ``z`` unchanged, unless
    ``overwrite`` hands a float64 array over: the shifted features are
    then formed in z's own array, which the policy keeps.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != actions.n_actions:
        raise ValueError(f"feature matrix shape {z.shape} does not match "
                         f"{actions.n_actions} action nodes")
    # the ufunc reduce that ndarray.all calls, without its wrapper
    if not np.logical_and.reduce(np.isfinite(z), axis=None):
        raise ValueError("feature matrix has non-finite entries")
    # the row maximum (module doc)
    if z.flags.c_contiguous:
        m = np.maximum.reduceat(z.ravel(), _row_starts(*z.shape))
    else:
        m = np.maximum.reduce(z, axis=1)
    if overwrite:
        z -= m[:, None]
        return _GibbsPolicy(z, m, actions)
    return _GibbsPolicy(z - m[:, None], m, actions)


def uniform_policy(n_interior, actions):
    """The reference measure itself (zero feature)."""
    return gibbs_policy(np.zeros((n_interior, actions.n_actions)), actions,
                        overwrite=True)
