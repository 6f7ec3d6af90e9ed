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

The law is kept in one form only, built once by ``height_distribution``:
canonical runs ``(survival, pmf, lengths)``, where heights
``sum(lengths[:i]) + 1`` to ``sum(lengths[:i + 1])`` all have
P(H >= k) = ``survival[i]`` and P(H = k) = ``pmf[i]``.  Canonical means
that every length is at least 1, the lengths sum to N, and no two
adjacent runs are equal in (survival, pmf); no value is -0.0, so equal
values have equal bits.  ``np.repeat(values, lengths)`` is a column over
k = 1..N.
Only the plateau and the tail are runs of more than one height, save
where an entry of the head or window joins an equal neighbour.  The runs
end at k = N: P(H >= N + 1) = 0 is not among them, and a reader that
steps one height on, as a CDF P(H <= k) = 1 - P(H >= k + 1) does, adds
it.

The mean is sum_k P(H >= k).  It is formed as one ``math.fsum`` over
each run's survival value once and its other n - 1 copies as exact
power-of-two multiples ``ldexp(value, j)``, one per set bit j of n - 1.
That is the same exact sum as the dense survival vector's, and fsum
rounds it correctly, so the mean equals ``math.fsum`` of the dense
vector bit for bit.

The point masses are differences of adjacent survival values.  They are
computed as ``0.0 - surv_k * expm1(ls_{k+1} - ls_k)`` with ls the
log-survival vector, which is exact about the sign (never a negative
mass, and a zero mass is +0.0) and avoids the subtractive cancellation
of ``exp(a) - exp(b)``.
Deep in the valley consecutive ls values agree to the last ulp and the
resulting masses are float noise at the ~1e-17 * survival level; this is
inherent to 53-bit arithmetic and is why the exact-rational twin below
exists.  (In exact arithmetic each mass equals t_i / (S_i * S_{i+1}),
which is at most t_i because every partial sum is >= t_0 = 1; the float
path cannot resolve that inequality in the valley.)  Masses are nonzero
only in the head, at the plateau's last entry and in the window; on the
rest of the plateau and in the tail each mass is 0.0.

The variance is the centered second moment over the masses, one term
(k - mean)^2 P(H = k) per height of each run with nonzero mass, summed
with ``math.fsum``.  In doubles the identity sum((2k-1) P(H>=k)) - mean^2
cancels catastrophically for rho >= 1, where mean ~ N; the twin below
uses it, since in Q nothing cancels.

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
bytes that depend on the CPU.  numpy is no runtime dependency (it comes
with the ``test`` extra) and is imported only by the two dense views of
:class:`HeightDistribution`, ``pmf`` and ``survival_values()``, which
spread its runs over all N heights; they remain because the benchmark's
artifact checker (``perfbench/artifact.py``) and the tests read them.

An exact-rational twin (``exact_rational_distribution``) gives the same
quantities as ``Fraction``s up to N = 500 (a partial sum is an integer
over one common denominator) and is the ground truth for the float path.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

from .errors import CapacityError, ParameterError
from .model import ModelParams, ReadOnly, _integer, _positive_rate

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
_RATIONAL_BIT_GUARD = 5_000_000  # bits of D and I_N, the partial sums' common form I_k / D
_NOOP_GAP = 750.0  # a term this far below a running log-sum >= 0 leaves it unchanged
_LOG2 = math.log(2.0)
_MAX_N = 2**53  # every integer up to here is a double; the next one is not


class HeightDistribution(ReadOnly):
    """Law of the height as canonical runs, with moments.

    The law's one form is its canonical runs, ``column_runs()``: the
    ``lengths[i]`` heights of run i all have P(H >= k) = ``survival[i]``
    and P(H = k) = ``pmf[i]``, plain floats, none of them -0.0.  Every
    length is at least 1, the lengths sum to N, no two adjacent runs are
    equal in (survival, pmf), and ``np.repeat(values, lengths)`` spreads
    a column over k = 1..N.  The mean and variance are formed from the
    runs when the law is made.  See the module docstring for why so few
    runs are the whole law.

    Two dense numpy views remain, each one ``np.repeat`` of the runs:
    ``pmf`` (``pmf[k-1] = P(H = k)``, cached) and ``survival_values()``.
    They stay because the benchmark's artifact checker
    (``perfbench/artifact.py``) reads them; the package itself no longer
    does.  Instances and arrays are read-only: assigning an attribute
    raises ``AttributeError``.
    """

    N: int
    rho: float
    mean: float
    variance: float

    def __init__(self, N: int, rho: float, survival: tuple, pmf: tuple, lengths: tuple):
        # sum_k P(H >= k): each run's value once, and its other n - 1 copies
        # as the exact power-of-two multiples ldexp(value, j), one per set bit
        # j of n - 1, so fsum sees the dense vector's exact sum
        mean = math.fsum([*survival, *(math.ldexp(s, j) for s, n in zip(survival, lengths) if n > 1
                                       for j in range((n - 1).bit_length()) if n - 1 >> j & 1)])
        # the centered second moment, one term per height of a run with mass
        # (for a run of one height, a 1-tuple: a range per run costs ~10% of a law)
        variance = math.fsum([(k - mean) * (k - mean) * m
                              for m, n, end in zip(pmf, lengths, accumulate(lengths)) if m
                              for k in ((end,) if n == 1 else range(end - n + 1, end + 1))])
        vars(self).update(N=N, rho=rho, mean=mean, variance=variance, _runs=(survival, pmf, lengths))

    def column_runs(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[int, ...]]:
        """Survival and pmf over k = 1..N as canonical runs: ``(survival, pmf, lengths)``.

        Every length is at least 1, the lengths sum to N, and no two
        adjacent runs are equal in (survival, pmf); no value is -0.0, so
        equal values have equal bits.  ``np.repeat(values, lengths)``
        spreads a column over k = 1..N, as ``survival_values()`` and
        ``pmf`` do; here nothing of length N is built.  The runs stop at
        k = N: a reader that needs S(N + 1) = P(H >= N + 1) = 0, as a CDF
        read one height on does, adds it.
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
    """log t at one integer index i, taken as a double: the one evaluation
    of the term.

    Refuses n above 2**53, where an index and n minus it stop being exact
    doubles."""
    if n > _MAX_N:
        raise CapacityError(f"N is capped at 2**53 = {_MAX_N}, the largest N whose "
                            f"term indices are all exact doubles (got N = {n})")
    log_rho, lgamma_n = math.log(rho), math.lgamma(n)

    def log_t(i: int) -> float:
        x = float(i)
        return -x * log_rho - (lgamma_n - math.lgamma(x + 1.0) - math.lgamma(n - x))
    return log_t


def log_r_term(n: int, rho: float, i: int) -> float:
    """log t_i = -i log rho - log C(n-1, i), via log-gamma, for one integer
    index ``i`` in [0, n-1] (any integer type but bool)."""
    rho = _positive_rate("rho", rho)
    n, i = _integer("n", n, 1), _integer("term index", i, 0)
    if i > n - 1:
        raise ParameterError(f"term index must be in [0, {n - 1}], got {i!r}")
    return _log_t(n, rho)(i)


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
    t = _log_t(N, rho)
    # t decreases on [0, m] and increases on [m, N-1].  The turning point is
    # inf once rho (N-1) overflows, and then t decreases throughout.
    m = min(max(math.ceil(min(r_term_turning_point(N, rho), N)), 0), N - 1)
    # t_1 <= t_0 = 0 when m >= 1; at t_1 <= -750, l1 is 0 and a is 1
    l1 = math.log1p(math.exp(t(1))) if m >= 1 else 0.0
    a = bisect_left(range(m + 1), True, 1, key=lambda i: t(i) <= l1 - _noop_gap(l1))
    first, *rest = map(t, range(a))
    head = [-first, *_running_log_sums(first, rest)]
    top = -head[-1]
    b = bisect_left(range(N), True, m + 1, key=lambda i: t(i) > top - _noop_gap(top))
    end = bisect_left(range(N), True, b, key=lambda i: t(i) > _NOOP_GAP)
    # the window's running log-sums continue from the head's, top
    window = _running_log_sums(top, [*map(t, range(b, min(end + 1, N)))])
    # the log-survival never increases, so its underflow to 0.0 is a cut
    window = window[:bisect_left(window, True, key=lambda v: math.exp(v) == 0.0) + 1]
    # The log-survival as entries held counts[i] heights each: the head on
    # heights 1..a - 1, its last value on heights a..b - 1 (each followed by
    # that same value) and again at height b, then the window.
    ls = [*head, head[-1], *window]
    surv = [*map(math.exp, ls)]
    # P(H = k) = surv_k * (1 - e^{ls_{k+1} - ls_k}); the next value of the
    # last one is -inf (past the window, or the virtual ls_{N+1}).  Taken
    # from 0.0, so a zero mass is +0.0, and a nonzero one keeps its bits.
    pmf = [0.0 - s * math.expm1(nxt - cur) for s, cur, nxt in zip(surv, ls, [*ls[1:], -math.inf])]
    # past the window, in the tail, P(H >= k) and P(H = k) are exactly 0.0
    counts = [*[1] * (a - 1), b - a, 1, *[1] * len(window), N - b - len(window)]
    return HeightDistribution(N, rho, *_canonical_runs([*surv, 0.0], [*pmf, 0.0], counts))


def _canonical_runs(survival: list[float], pmf: list[float], counts: list[int]) -> tuple:
    """Entry i held ``counts[i]`` heights, as canonical runs: the entries of
    count 0 dropped, and adjacent entries equal in (survival, pmf) joined.
    No value is -0.0 or NaN, so ``==`` compares bits."""
    values, masses, lengths = [], [], []
    for s, m, n in zip(survival, pmf, counts, strict=True):
        if lengths and s == values[-1] and m == masses[-1]:
            lengths[-1] += n
        elif n:
            values.append(s)
            masses.append(m)
            lengths.append(n)
    return tuple(values), tuple(masses), tuple(lengths)


def exact_rational_distribution(N: int, rho_num: int, rho_den: int
                                ) -> RationalHeightDistribution:
    """Evaluate the height law exactly for rho = rho_num / rho_den.

    Every value is a ``Fraction``: the ground truth for the float path.
    With rho = num/den in lowest terms and D = num^(N-1) (N-1)!, each
    w_i = D t_i is an integer, so S_k = I_k / D with I_k = w_0 + ... + w_{k-1},
    and E[H^2] = sum_k (2k - 1) P(H >= k).  Inputs past ``RATIONAL_CAP``, or
    whose D and I_N could exceed ``_RATIONAL_BIT_GUARD`` bits, are refused.
    """
    N, rho_num, rho_den = (_integer(name, v, 1) for name, v in
                           (("N", N), ("rho_num", rho_num), ("rho_den", rho_den)))
    if N > RATIONAL_CAP:
        raise CapacityError(
            f"exact rational path is capped at N = {RATIONAL_CAP} (got N = {N}); "
            f"use the log-domain path for larger N")

    from fractions import Fraction  # loaded on first use: the float path never needs it

    rho = Fraction(rho_num, rho_den)
    num, den, fact = rho.numerator, rho.denominator, math.factorial(N - 1)
    # D = num^(N-1) (N-1)! and I_N <= N max(num, den)^(N-1) (N-1)!
    bits = (N - 1) * (num.bit_length() + max(num, den).bit_length()) + 2 * fact.bit_length()
    if bits + N.bit_length() > _RATIONAL_BIT_GUARD:
        raise CapacityError(f"rational partial sums would exceed {_RATIONAL_BIT_GUARD} bits at "
                            f"N = {N}, rho of {num.bit_length()}/{den.bit_length()} bits")
    w = [num ** (N - 1) * fact]  # w_{i+1} = w_i den (i+1) / (num (N-1-i)), exactly
    for i in range(N - 1):
        w.append(w[-1] * den * (i + 1) // (num * (N - 1 - i)))
    surv = [Fraction(w[0], total) for total in accumulate(w)]
    mean = sum(surv)
    return RationalHeightDistribution(
        N=N, rho=rho, survival=tuple(surv), mean=mean,
        pmf=tuple(s - nxt for s, nxt in zip(surv, [*surv[1:], 0])),
        variance=sum((2 * k - 1) * s for k, s in enumerate(surv, 1)) - mean**2)
