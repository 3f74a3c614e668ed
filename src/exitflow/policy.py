"""Gibbs policies: softmax image of a feature matrix, and KL to the reference.

A feature field is a plain float64 matrix with one row per interior grid
node and one column per action node.  Policies store both probability
weights (mu quadrature weights folded in, rows sum to 1) and log-densities
relative to the reference measure; KL values are always formed from the
log-densities to avoid cancellation at small weights.  A Gibbs policy
also keeps each row's log-partition ln(mu-average of e^z), so the Gibbs
image of -z/tau carries the softmin H_tau = -tau*log_partition of z.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Policy:
    weights: np.ndarray      # (n_interior, n_actions), rows sum to 1
    log_density: np.ndarray  # ln d(pi)/d(mu); finite, also where weight is 0
    # ln of the mu-average of e^z per row; None on deterministic selections
    log_partition: Optional[np.ndarray] = None


def _check_tau(tau, positive):
    """Reject a tau that is not finite, or is below the smallest normal
    float where tau must be positive (-z/tau overflows there), else below
    0; the message names the tau the caller passed."""
    low, sign = (np.finfo(float).tiny, "positive") if positive \
        else (0.0, "nonnegative")
    if not low <= tau < np.inf:
        raise ValueError(f"tau must be {sign} and finite, at least "
                         f"{float(low)!r}, got {tau!r}")


def gibbs_policy(z, actions):
    """Map a feature matrix to the Gibbs policy with density e^z / norm,
    norm being the mu-average of e^z, and keep ln(norm) per row.

    Stabilized with a per-row max shift, so feature scales of order
    1/tau for small tau stay finite.  Leaves ``z`` unchanged: the shifted
    copy becomes the log-density, and the weights are formed in the
    array the exponential writes.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != actions.n_actions:
        raise ValueError(f"feature matrix shape {z.shape} does not match "
                         f"{actions.n_actions} action nodes")
    if not np.all(np.isfinite(z)):
        raise ValueError("feature matrix has non-finite entries")
    m = z.max(axis=1, keepdims=True)
    log_density = z - m
    weights = np.exp(log_density)
    norm = weights @ actions.mu_weights
    weights *= actions.mu_weights
    weights /= norm[:, None]
    log_norm = np.log(norm)
    log_density -= log_norm[:, None]
    return Policy(weights=weights, log_density=log_density,
                  log_partition=m[:, 0] + log_norm)


def uniform_policy(n_interior, actions):
    """The reference measure itself (zero feature)."""
    return gibbs_policy(np.zeros((n_interior, actions.n_actions)), actions)


def kl_to_reference(p: Policy) -> np.ndarray:
    """KL(pi | mu) per interior node; nonnegative up to roundoff."""
    return np.einsum("ik,ik->i", p.weights, p.log_density)
