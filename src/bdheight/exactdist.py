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

Where the law lives
-------------------
In doubles the law is carried by a few hundred entries at most,
whatever N is.  Vectors are indexed by ``height value - 1`` and split
into:

* the head [0, a): t_0 = 1 and the descending terms that still move the
  running log-sum.  Its running log-sum L is log S_a.
* the plateau [a, b): every term here leaves the running log-sum
  unchanged.  The step L + log1p(exp(t - L)) returns L exactly once
  exp(t - L) is below half an ulp of L, which holds when t is more than
  g(L) = (53 - e) log 2 + 5 below L, where 2^(e-1) <= L < 2^e; and at any
  L >= 0 when t <= -750, since exp of anything below about -745.1 is 0.
  So the gap is min(g(L), 750), and 750 at L = 0.  L - gap(L) never
  decreases as L grows.  The ascending side is compared with the head's
  L; the descending side with L_1, the log-sum of t_0 and t_1, which
  every later running sum of the head is at least.  The margin of 5 nats
  absorbs the float error of the log terms.  In a typical law L is near
  1 / (rho N), and the gap is 40 to 65 nats.
* the window [b, w): the ascending terms from the first one above
  L - gap(L), accumulated from L, up to and including the first entry
  whose survival underflows to 0.0.  Once a term exceeds e^750 the sum
  does too, so the window ends there at the latest; its length is set by
  how fast the terms climb through the ~800 nats near alpha N, not by N.
  Head and window together hold at most ~810 entries for N from 1e3 to
  3e9 and rho from 1e-8 to 1e3.
* the tail [w, N): P(H >= k) is exactly 0 and log P(H >= k) is -inf.

The boundaries come from bisection on the log terms, which are monotone
on each side of the turning point.  The evaluated terms are the same
doubles a sweep over all N terms would produce, and the skipped ones are
exact no-ops of its running log-sum, so every survival value and mass is
bit-identical to that sweep's.  The whole law costs O(log N) bisection
steps plus O(head + window) terms.

The mean is sum_k P(H >= k).  It is formed as one ``math.fsum`` over the
head and window survival values plus the plateau value counted as exact
power-of-two copies ``ldexp(value, j)``, one per set bit j of b - a.
That is the same exact sum as the dense survival vector's, and fsum
rounds it correctly, so the mean equals ``math.fsum`` of the dense
vector bit for bit.

The point masses are differences of adjacent survival values.  They are
computed as ``surv_k * (-expm1(ls_{k+1} - ls_k))`` with ls the
log-survival vector, which is exact about the sign (never a negative
mass) and avoids the subtractive cancellation of ``exp(a) - exp(b)``.
Deep in the valley consecutive ls values agree to the last ulp and the
resulting masses are float noise at the ~1e-17 * survival level; this is
inherent to 53-bit arithmetic and is why the exact-rational twin below
exists.  (In exact arithmetic each mass equals t_i / (S_i * S_{i+1}),
which is at most t_i because every partial sum is >= t_0 = 1; the float
path cannot resolve that inequality in the valley.)  Masses are nonzero
only in the head, at the plateau's last entry and in the window.

The variance is the centered second moment over the masses, summed with
``math.fsum``.  The alternative sum(( 2k-1 ) P(H>=k)) - mean^2 is
catastrophically cancelling for rho >= 1 where mean ~ N, and is not
used.

Each log term is -i log rho - (lgamma(N) - lgamma(i + 1) - lgamma(N - i))
with CPython's ``math.lgamma``, for the bisection probes and the runs
alike.  N is capped at 2**53, so every index i and N - i is a double.

The law is computed with ``math``, that is with CPython's ``lgamma``
and otherwise the C library (libm): the terms, the running log-sum
(each step as numpy's scalar ``npy_logaddexp``, so the log-survival is
that of ``np.logaddexp.accumulate``), the survival ``exp`` and the mass
``expm1``.  NumPy's ``np.log``, ``np.exp`` and ``np.expm1`` run SIMD
kernels that numpy picks at run time from the CPU's features, and these
differ from libm in the last bit, so a law computed with them would have
bytes that depend on the CPU.  numpy is imported only by the two
dense views of :class:`HeightDistribution`, ``pmf`` and
``survival_values()``, which spread its runs over all N heights; they
remain because the benchmark's artifact checker reads them.

An exact-rational twin (``exact_rational_distribution``) evaluates the
same quantities in unbounded-precision rational arithmetic for moderate
N and serves as the ground truth for the float path.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from .errors import CapacityError, ParameterError
from .model import ModelParams, ReadOnly, _positive_rate

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

__all__ = [
    "HeightDistribution",
    "RationalHeightDistribution",
    "log_r_term",
    "r_term_turning_point",
    "height_distribution",
    "exact_rational_distribution",
    "RATIONAL_CAP",
]

RATIONAL_CAP = 500  # largest N of the exact-rational twin
_RATIONAL_BIT_GUARD = 5_000_000  # combined numerator+denominator bits of a partial sum
_NOOP_GAP = 750.0  # a term this far below a running log-sum >= 0 leaves it unchanged
_LOG2 = math.log(2.0)
_MAX_N = 2**53  # every integer up to here is a double; the next one is not


class HeightDistribution(ReadOnly):
    """Law of the height in windowed form, with moments.

    ``head[k-1] = log P(H >= k)`` for k = 1..a (entry 0 is exactly 0.0);
    on the plateau ``(a, b)``, heights a+1..b, the log-survival stays at
    ``head[-1]``; ``window[j] = log P(H >= b+1+j)``; past the window
    P(H >= k) is exactly 0.  See the module docstring for why this form
    is the whole law.

    ``column_runs()`` gives survival and pmf as runs, as plain floats,
    built once, with the moments, when the law is made; the package's
    columns, its sup distance and its window mass are read from them.
    Two dense numpy views remain, each one ``np.repeat`` of the runs:
    ``pmf`` (``pmf[k-1] = P(H = k)``, cached) and ``survival_values()``.
    They stay because the benchmark's artifact checker
    (``perfbench/artifact.py``) reads them; the package itself no longer
    does.  Instances and arrays are read-only: assigning an attribute
    raises ``AttributeError``.
    """

    N: int
    rho: float
    head: tuple[float, ...]
    plateau: tuple[int, int]
    window: tuple[float, ...]
    mean: float
    variance: float

    def __init__(self, N: int, rho: float, head: tuple[float, ...],
                 plateau: tuple[int, int], window: tuple[float, ...]):
        # The support is every entry that can carry mass: the head, the
        # plateau's last entry and the window.
        a, b = plateau
        slot = 1 if b > a else 0
        heights = [*range(1, a + 1), *range(b + 1 - slot, b + 1 + len(window))]
        # the plateau keeps the head's last value
        ls = [*head, *head[a - slot:], *window]
        surv = [*map(math.exp, ls)]
        # P(H = k) = surv_k * (1 - e^{ls_{k+1} - ls_k}); the next entry of the
        # last one is -inf (past the window, or the virtual ls_{N+1}).
        pmf = [s * -math.expm1(nxt - cur)
               for s, cur, nxt in zip(surv, ls, [*ls[1:], -math.inf])]
        # The plateau's b - a equal values are already in surv once (at its
        # last entry); the other b - a - 1 enter as exact power-of-two
        # multiples, so fsum sees the dense vector's exact sum.
        inner = max(b - a - 1, 0)
        copies = [math.ldexp(surv[a], j) for j in range(inner.bit_length()) if inner >> j & 1]
        mean = math.fsum([*surv, *copies])
        variance = math.fsum([(h - mean) * (h - mean) * m for h, m in zip(heights, pmf)])
        # The runs: the head's entries, the plateau before its last entry
        # (of length 0 when b == a), the rest of the support, and the tail.
        lengths = (*[1] * a, inner, *[1] * (len(heights) - a), N - len(heights) - inner)
        runs = ((*surv[:a], surv[a] if b > a else 0.0, *surv[a:], 0.0),
                (*pmf[:a], -0.0, *pmf[a:], 0.0), lengths)
        vars(self).update(N=N, rho=rho, head=head, plateau=plateau, window=window,
                          mean=mean, variance=variance, _runs=runs)

    def column_runs(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[int, ...]]:
        """Survival and pmf over k = 1..N as runs: ``(survival, pmf, lengths)``.

        ``survival_values()`` and ``pmf`` are these runs spread out with
        ``np.repeat``; here nothing of length N is built.  The runs are the
        head's entries (length 1 each), the plateau before its last entry
        (its survival value, and a mass of -0.0), the plateau's last entry
        and the window (length 1 each), and the tail (0.0).  There are ``len(head) + len(window) + 2``
        runs, one more with a plateau, whatever N is; some may have length 0.
        """
        return self._runs

    @cached_property
    def pmf(self) -> np.ndarray:
        """P(H = k) for k = 1..N, as a read-only array."""
        _, pmf, lengths = self._runs
        return _repeat(pmf, lengths)

    def survival_values(self) -> np.ndarray:
        """P(H >= k) for k = 1..N, as a read-only array."""
        survival, _, lengths = self._runs
        return _repeat(survival, lengths)


def _repeat(values: list[float], lengths: list[int]) -> np.ndarray:
    """Runs spread over heights 1..N, as a read-only array."""
    import numpy as np

    out = np.repeat(values, lengths)
    out.flags.writeable = False
    return out


class RationalHeightDistribution(NamedTuple):
    """Exact-rational twin of :class:`HeightDistribution` (requires rational rho)."""

    N: int
    rho: Fraction
    survival: tuple[Fraction, ...]
    pmf: tuple[Fraction, ...]
    mean: Fraction
    variance: Fraction


def _log_t(n: int, rho: float):
    """log t at one float index x: the one evaluation of the term.

    Refuses n above 2**53, where an index and n minus it stop being exact
    doubles."""
    if n > _MAX_N:
        raise CapacityError(f"N is capped at 2**53 = {_MAX_N}, the largest N whose "
                            f"term indices are all exact doubles (got N = {n})")
    log_rho, lgamma_n = math.log(rho), math.lgamma(n)

    def log_t(x: float) -> float:
        return -x * log_rho - (lgamma_n - math.lgamma(x + 1.0) - math.lgamma(n - x))
    return log_t


def log_r_term(n: int, rho: float, i: int) -> float:
    """log t_i = -i log rho - log C(n-1, i), via log-gamma, for one integer
    index ``i`` in [0, n-1] (any value with ``__index__``)."""
    rho = _positive_rate("rho", rho)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    i = operator.index(i)
    if not 0 <= i <= n - 1:
        raise ParameterError(f"term index must be in [0, {n - 1}], got {i!r}")
    return _log_t(n, rho)(float(i))


def r_term_turning_point(n: int, rho: float) -> float:
    """Real index where the ladder terms switch from decreasing to increasing.

    t_{i+1} < t_i exactly when i < (rho (n-1) - 1) / (1 + rho), with
    equality (a two-point tie) when that bound is hit exactly.
    """
    return (rho * (n - 1) - 1.0) / (1.0 + rho)


def _noop_gap(s: float) -> float:
    """How far below the running log-sum ``s >= 0`` a term must lie to
    leave it unchanged (see the module docstring)."""
    return min((53 - math.frexp(s)[1]) * _LOG2 + 5.0, _NOOP_GAP) if s > 0.0 else _NOOP_GAP


def _running_log_sums(s: float, terms: list[float]) -> list[float]:
    """Minus the running log-sums of ``terms`` continued from the log-sum
    ``s``, each step as numpy's scalar ``npy_logaddexp`` takes it, so the
    sums are those of ``np.logaddexp.accumulate``."""
    out = []
    for v in terms:
        if s == v:
            s += _LOG2
        elif s > v:
            s += math.log1p(math.exp(v - s))
        else:
            s = v + math.log1p(math.exp(s - v))
        out.append(-s)
    return out


def height_distribution(p: ModelParams) -> HeightDistribution:
    """Law of H from the head and window terms, O(log N + window) work."""
    N, rho = p.N, p.rho
    log_t = _log_t(N, rho)

    def t(i: int) -> float:
        return log_t(float(i))

    # t decreases on [0, m] and increases on [m, N-1].  The turning point is
    # inf once rho (N-1) overflows, and then t decreases throughout.
    m = min(max(math.ceil(min(r_term_turning_point(N, rho), N)), 0), N - 1)
    # t_1 <= t_0 = 0 when m >= 1; at t_1 <= -750, l1 is 0 and a is 1
    l1 = math.log1p(math.exp(t(1))) if m >= 1 else 0.0
    a = bisect_left(range(m + 1), True, 1, key=lambda i: t(i) <= l1 - _noop_gap(l1))
    first, *rest = [log_t(float(i)) for i in range(a)]
    head = [-first, *_running_log_sums(first, rest)]
    top = -head[-1]
    b = bisect_left(range(N), True, m + 1, key=lambda i: t(i) > top - _noop_gap(top))
    end = bisect_left(range(N), True, b, key=lambda i: t(i) > _NOOP_GAP)
    # the window's running log-sums continue from the head's, top
    window = _running_log_sums(top, [log_t(float(i)) for i in range(b, min(end + 1, N))])
    # the log-survival never increases, so its underflow to 0.0 is a cut
    cut = bisect_left(window, True, key=lambda v: math.exp(v) == 0.0)
    return HeightDistribution(N=N, rho=rho, head=tuple(head), plateau=(a, b),
                              window=tuple(window[:cut + 1]))


def exact_rational_distribution(N: int, rho_num: int, rho_den: int
                                ) -> RationalHeightDistribution:
    """Evaluate the height law exactly for rho = rho_num / rho_den.

    All survival values, masses and moments are ``Fraction``s; this is
    the ground-truth oracle for the float path.  Cost grows quickly with
    N (the partial sums accumulate enormous denominators), so N is capped
    at ``RATIONAL_CAP`` and a bit-growth guard aborts pathological inputs;
    beyond the cap the float path is authoritative.
    """
    for name, v in (("N", N), ("rho_num", rho_num), ("rho_den", rho_den)):
        if isinstance(v, bool) or not hasattr(v, "__index__") or v < 1:
            raise ParameterError(f"{name} must be a positive integer, got {v!r}")
    N, rho_num, rho_den = int(N), int(rho_num), int(rho_den)
    if N > RATIONAL_CAP:
        raise CapacityError(
            f"exact rational path is capped at N = {RATIONAL_CAP} (got N = {N}); "
            f"use the log-domain path for larger N")

    from fractions import Fraction  # loaded on first use: the float path never needs it

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
