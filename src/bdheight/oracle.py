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

``log_hitting_sums`` yields the log S_k in turn, with no size cap, so a
caller reads only as far as it needs; the ladder sampler draws from
them, and ``verify``'s cross-check takes exp(-log S_k) of them.
``height_dist_oracle`` still refuses N above ``cap`` (default 2000)
unless the caller raises it, and returns an ``array('d')``.

The sweep runs on ``math`` (the C library's ``log``, ``log1p`` and
``exp``), one state at a time, and imports no numpy.  numpy picks its
SIMD ``log``/``log1p``/``exp`` kernels by CPU at run time, and they
differ from the C library's in the last bit, so the oracle's bits would
depend on the CPU.  The steps are those numpy took with its dispatched
kernels switched off: ``log1p(-p_i) - log(p_i)``, a sequential prefix
sum, and numpy's scalar ``npy_logaddexp`` for the running log-sums.  It
costs ~0.4 us per state, p_i included.

This module intentionally does not import the closed-form module
(:mod:`bdheight.exactdist`); their agreement is the package's strongest
correctness check and is meaningful only while the two code paths stay
independent.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator
from itertools import islice
from operator import neg

from .errors import CapacityError
from .model import ModelParams, jump_up_probs

__all__ = [
    "height_dist_oracle",
    "log_hitting_sums",
    "ORACLE_CAP_DEFAULT",
]

ORACLE_CAP_DEFAULT = 2000
_LOG2 = math.log(2.0)


def log_hitting_sums(p: ModelParams) -> Iterator[float]:
    """log of the elimination partial sums for targets 1..N, in turn.

    Value k is log S_k = log sum_{i=0}^{k-1} g_i where g_0 = 1 and
    g_i = prod_{m<=i} q_m / p_m; P(hit k before 0 | start 1) is the
    reciprocal of that sum.  The first value is 0 and none decreases.
    """
    log_g = s = 0.0  # log g_i, and the running log-sum log S_{i+1}
    yield s
    for p_i in islice(jump_up_probs(p), 1, p.N):
        # p_i rounds to 1.0 where rho >~ 1e16 and to 0.0 where rho is
        # subnormal.  There log(q_i / p_i) is -inf, a zero term of the
        # log-sum-exp, and +inf; the C library's log1p(-1) and log(0) would raise.
        log_g += (-math.inf if p_i == 1.0 else math.inf if p_i == 0.0
                  else math.log1p(-p_i) - math.log(p_i))
        # numpy's scalar npy_logaddexp, so the sums are np.logaddexp.accumulate's
        if s > log_g:
            s += math.log1p(math.exp(log_g - s))
        elif s == log_g:
            s += _LOG2
        else:
            s = log_g + math.log1p(math.exp(s - log_g))
        yield s


def height_dist_oracle(p: ModelParams, *, cap: int = ORACLE_CAP_DEFAULT) -> array:
    """Survival vector P(H >= k), k = 1..N, from one batched sweep.

    No package code calls it: its callers are the benchmark's artifact
    checker (``perfbench/artifact.py``) and the tests."""
    if p.N > cap:
        raise CapacityError(
            f"first-passage oracle is capped at N = {cap} (got N = {p.N}); "
            f"raise the cap explicitly if you really want this")
    return array("d", map(math.exp, map(neg, log_hitting_sums(p))))
