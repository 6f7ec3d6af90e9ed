"""First-passage ground truth for the height law.

P(H >= k) equals the probability that the jump chain started at state 1
hits level k before 0.  That hitting probability solves the tridiagonal
boundary-value system

    h[0] = 0,   h[k] = 1,   h[i] = p_i h[i+1] + q_i h[i-1]   (0 < i < k),

which a forward Thomas sweep reduces to cumulative products of the
per-state descent/ascent odds q_i / p_i.  No closed form for those
products is used anywhere here; the probabilities p_i, q_i come straight
from the jump matrix.  One O(N) sweep yields the partial sums S_k for
every target k at once: P(H >= k) = 1 / S_k, and the solution of the
system for target k is h[i] = S_i / S_k.

The sweep runs in log space.  The raw odds products dip below the double
underflow threshold already for N in the low thousands, and the popular
ratio form of the sweep (a_i = p_i / (1 - q_i a_{i-1})) is worse still:
the ascent probabilities saturate at 1.0 across the deep mid-range
valley, after which rounding noise is amplified by a factor q/p per
state and the solution is garbage.  Accumulating log-odds and
log-sum-exp partial sums is immune to both failure modes.

``log_hitting_sums`` returns the log S_k themselves, with no size cap,
since the sweep is linear in N; the ladder sampler inverts them.
``height_dist_oracle`` still refuses N above ``cap`` (default 2000)
unless the caller raises it.

This module intentionally does not import the closed-form module
(:mod:`bdheight.exactdist`); their agreement is the package's strongest
correctness check and is meaningful only while the two code paths stay
independent.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError
from .model import ModelParams, jump_up_probs

__all__ = [
    "height_dist_oracle",
    "log_hitting_sums",
    "ORACLE_CAP_DEFAULT",
]

ORACLE_CAP_DEFAULT = 2000


def log_hitting_sums(p: ModelParams) -> np.ndarray:
    """log of the elimination partial sums for targets 1..N.

    Entry k-1 is log S_k = log sum_{i=0}^{k-1} g_i where g_0 = 1 and
    g_i = prod_{m<=i} q_m / p_m; P(hit k before 0 | start 1) is the
    reciprocal of that sum.  Entry 0 is 0 and the entries never decrease.
    """
    pi = jump_up_probs(p)[1:p.N]
    # Once p_i rounds to 1.0 (rho >~ 1e16) log q_i is -inf, which the
    # log-sum-exp below takes correctly as a zero term.
    with np.errstate(divide="ignore"):
        log_odds = np.log1p(-pi) - np.log(pi)      # log(q_i / p_i), i = 1..N-1
    log_g = np.concatenate(([0.0], np.cumsum(log_odds)))
    return np.logaddexp.accumulate(log_g)


def height_dist_oracle(p: ModelParams, *, cap: int = ORACLE_CAP_DEFAULT) -> np.ndarray:
    """Survival vector P(H >= k), k = 1..N, from one batched sweep."""
    if p.N > cap:
        raise CapacityError(
            f"first-passage oracle is capped at N = {cap} (got N = {p.N}); "
            f"raise the cap explicitly if you really want this")
    return np.exp(-log_hitting_sums(p))
