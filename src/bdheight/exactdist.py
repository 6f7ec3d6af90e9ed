"""Exact distribution of the busy-period height.

Start the chain of :mod:`bdheight.model` at state 1 and let H be the
maximum state visited before the first return to 0.  H takes values in
{1, ..., N} and its survival function is the reciprocal of a partial sum
of ladder terms:

    P(H >= k) = 1 / S_k,    S_k = sum_{i=0}^{k-1} t_i,
    t_i = rho^{-i} / C(N-1, i).

Numerical shape of the problem
------------------------------
The terms t_i are unimodal in i: the ratio t_{i+1}/t_i equals
(i + 1) / (rho (N - 1 - i)), so t decreases strictly while
i < (rho (N-1) - 1) / (1 + rho), is flat at a possible integer tie, and
increases strictly after.  The minimum near i ~ rho N / (1 + rho) is
exponentially deep (below 1e-300 already for N in the low thousands)
while the terms near i ~ alpha N are of order sqrt(N), so the partial
sums are formed with a running log-sum-exp; nothing in this module ever
materializes a t_i in the linear domain.

The point masses are differences of adjacent survival values.  They are
computed as ``surv_k * (-expm1(ls_{k+1} - ls_k))`` with ls the
log-survival vector, which is exact about the sign (never a negative
mass) and avoids the subtractive cancellation of ``exp(a) - exp(b)``.
Deep in the valley consecutive ls values agree to the last ulp and the
resulting masses are float noise at the ~1e-17 * survival level; this is
inherent to 53-bit arithmetic and is why the exact-rational twin below
exists.  (In exact arithmetic each mass equals t_i / (S_i * S_{i+1}),
which is at most t_i because every partial sum is >= t_0 = 1; the float
path cannot resolve that inequality in the valley.)

The variance is the centered second moment over the pmf.  The
alternative sum(( 2k-1 ) P(H>=k)) - mean^2 is catastrophically cancelling
for rho >= 1 where mean ~ N, and is not used.

Indexing convention: all vectors of length N are indexed by
``height value - 1``, i.e. entry 0 belongs to height 1.

An exact-rational twin (``exact_rational_distribution``) evaluates the
same quantities in unbounded-precision rational arithmetic for moderate
N and serves as the ground truth for the float path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from .errors import CapacityError, ParameterError
from .model import ModelParams

__all__ = [
    "HeightDistribution",
    "RationalHeightDistribution",
    "log_r_term",
    "r_term_turning_point",
    "height_distribution",
    "exact_rational_distribution",
    "RATIONAL_CAP_DEFAULT",
]

RATIONAL_CAP_DEFAULT = 500
_RATIONAL_BIT_GUARD = 5_000_000  # combined numerator+denominator bits of a partial sum


@dataclass(frozen=True)
class HeightDistribution:
    """Log-domain law of the height, with moments.

    ``log_survival[k-1] = log P(H >= k)`` for k = 1..N (entry 0 is exactly
    0.0), ``pmf[k-1] = P(H = k)``.  Arrays are read-only; instances may be
    shared across threads.
    """

    N: int
    rho: float
    log_survival: np.ndarray
    pmf: np.ndarray
    mean: float
    variance: float

    def __post_init__(self):
        self.log_survival.flags.writeable = False
        self.pmf.flags.writeable = False

    def survival_values(self) -> np.ndarray:
        """P(H >= k) for k = 1..N."""
        return np.exp(self.log_survival)

    def cdf_values(self) -> np.ndarray:
        """P(H <= k) for k = 1..N (exactly 1 at k = N)."""
        upper = np.append(np.exp(self.log_survival[1:]), 0.0)
        return 1.0 - upper


@dataclass(frozen=True)
class RationalHeightDistribution:
    """Exact-rational twin of :class:`HeightDistribution` (requires rational rho)."""

    N: int
    rho: Fraction
    survival: tuple[Fraction, ...]
    pmf: tuple[Fraction, ...]
    mean: Fraction
    variance: Fraction


def _check_rho(rho) -> float:
    rho = float(rho)
    if not math.isfinite(rho) or rho <= 0.0:
        raise ParameterError(f"rho must be a positive finite real, got {rho!r}")
    return rho


def log_r_term(n: int, rho: float, i) -> float | np.ndarray:
    """log t_i = -i log rho - log C(n-1, i), via log-gamma.

    Accepts a scalar or an integer array for ``i``; every entry must lie
    in [0, n-1].
    """
    rho = _check_rho(rho)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    i_arr = np.asarray(i)
    if i_arr.size and (i_arr.min() < 0 or i_arr.max() > n - 1):
        raise ParameterError(f"term index must be in [0, {n - 1}], got {i!r}")
    x = i_arr.astype(float)
    out = -x * math.log(rho) - (gammaln(n) - gammaln(x + 1.0) - gammaln(n - x))
    return float(out) if np.isscalar(i) else out


def r_term_turning_point(n: int, rho: float) -> float:
    """Real index where the ladder terms switch from decreasing to increasing.

    t_{i+1} < t_i exactly when i < (rho (n-1) - 1) / (1 + rho), with
    equality (a two-point tie) when that bound is hit exactly.
    """
    return (rho * (n - 1) - 1.0) / (1.0 + rho)


def _log_terms(N: int, rho: float) -> np.ndarray:
    i = np.arange(N, dtype=float)
    return -i * math.log(rho) - (gammaln(N) - gammaln(i + 1.0) - gammaln(N - i))


def _log_survival_vector(N: int, rho: float) -> np.ndarray:
    # Running log-sum-exp over the ladder terms; entry k-1 is -log S_k.
    return -np.logaddexp.accumulate(_log_terms(N, rho))


def height_distribution(p: ModelParams) -> HeightDistribution:
    """Full law of H in one O(N) forward sweep."""
    ls = _log_survival_vector(p.N, p.rho)
    surv = np.exp(ls)
    # P(H = k) = surv_k - surv_{k+1} = surv_k * (1 - e^{ls_{k+1} - ls_k});
    # the virtual ls_{N+1} = -inf makes the last mass equal surv_N exactly.
    steps = np.diff(ls, append=-np.inf)
    pmf = surv * (-np.expm1(steps))
    mean = math.fsum(surv)
    k = np.arange(1, p.N + 1, dtype=float)
    var = float(np.sum((k - mean) ** 2 * pmf))
    return HeightDistribution(N=p.N, rho=p.rho, log_survival=ls, pmf=pmf,
                              mean=mean, variance=var)


def exact_rational_distribution(N: int, rho_num: int, rho_den: int,
                                *, cap: int = RATIONAL_CAP_DEFAULT) -> RationalHeightDistribution:
    """Evaluate the height law exactly for rho = rho_num / rho_den.

    All survival values, masses and moments are ``Fraction``s; this is
    the ground-truth oracle for the float path.  Cost grows quickly with
    N (the partial sums accumulate enormous denominators), so N is capped
    (default 500) and a bit-growth guard aborts pathological inputs;
    beyond the cap the float path is authoritative.
    """
    for name, v in (("N", N), ("rho_num", rho_num), ("rho_den", rho_den)):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
            raise ParameterError(f"{name} must be a positive integer, got {v!r}")
    N, rho_num, rho_den = int(N), int(rho_num), int(rho_den)
    if N > cap:
        raise CapacityError(
            f"exact rational path is capped at N = {cap} (got N = {N}); "
            f"use the log-domain path for larger N")

    rho = Fraction(rho_num, rho_den)
    partial = Fraction(0)
    surv: list[Fraction] = []
    for i in range(N):
        # t_i = rho^{-i} / C(N-1, i)
        partial += Fraction(rho_den ** i, rho_num ** i * math.comb(N - 1, i))
        if partial.numerator.bit_length() + partial.denominator.bit_length() > _RATIONAL_BIT_GUARD:
            raise CapacityError(
                f"rational partial sums exceeded {_RATIONAL_BIT_GUARD} bits at N = {N}, "
                f"rho = {rho_num}/{rho_den}")
        surv.append(1 / partial)

    pmf = [surv[k] - (surv[k + 1] if k + 1 < N else Fraction(0)) for k in range(N)]
    mean = sum(surv, Fraction(0))
    var = sum(((Fraction(k + 1) - mean) ** 2 * pmf[k] for k in range(N)), Fraction(0))
    return RationalHeightDistribution(N=N, rho=rho, survival=tuple(surv),
                                      pmf=tuple(pmf), mean=mean, variance=var)
