"""Growth constants and certified finite-N inequalities for the height.

For rho in (0, 1) let alpha = alpha(rho) be the unique root in (rho, 1)
of

    x**x * (1-x)**(1-x) = rho**x,

equivalently the zero of g(x) = x log x + (1-x) log(1-x) - x log rho.
The mean height satisfies E[H_N] / N -> f(rho) where f(rho) = alpha for
rho < 1 and f(rho) = 1 for rho >= 1, and Var(H_N) / N -> f(rho)**2 / rho.
The law concentrates in a window of width O(log N) around the peak index
h_n = floor(alpha * (n-1)), where the ladder term t_{h_n} is of order
sqrt(n).

This module computes alpha and the derived constants

    c1 = 2 / (log alpha - log(rho (1-alpha)))
    c2 = 3 / (log alpha - log rho)
    c3 = alpha (3 + rho) / rho**2

and numerically certifies, at requested (n, rho), the inequalities the
limit behaviour rests on: the n**2 growth of the ladder terms c1*log n
steps above the peak, their n**-3 decay c2*log n steps below it, the
mean sandwich floor(alpha N) - floor(c2 log N) - c3 <= E[H_N]
<= floor(alpha N) + 1 (and N-4 <= E[H_N] <= N for rho >= 1), the
sqrt(n) order of the peak term, and the concentration of mass in the
log-width window.  The constants come from the solution, as
``bound_constants(solve_alpha(rho))``, and a certificate that needs alpha
takes the caller's ``BoundConstants`` in place of rho, so a suite solves
alpha once per rho.
``verify_reports`` is the suite the CLI's ``verify`` runs: these
certificates over a grid, and the closed form against the first-passage
oracle.

Integer-part robustness
-----------------------
The displayed inequalities place integer parts around real offsets such
as c1*log n.  They are asymptotic statements: the growth bound is exact
for the un-rounded offset (the base raised to c1*log n is n**2 on the
nose), so rounding the offset *down* loses a constant factor
base**frac(c1 log n) that the O(log^2 n / n) correction terms do not
repay at any finite n; rounded *up* the bound holds with slack.  A
certifier that mechanically floors would therefore report failures that
say nothing about the mathematics.  Every bound check here evaluates
both integer roundings of each bracketed quantity and passes if either
does, recording the strict-floor margin alongside the best one; reports
carry the full detail.  The same candidate machinery covers the
float-rounding hazard when alpha*(n-1) lands within 1e-9 of an integer.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_left
from typing import NamedTuple

from . import exactdist
from .errors import ParameterError
from .model import _positive_rate, make_params

__all__ = [
    "AlphaSolution",
    "BoundConstants",
    "BoundReport",
    "ConvergencePoint",
    "solve_alpha",
    "height_fraction_limit",
    "bound_constants",
    "peak_index",
    "integer_part_candidates",
    "check_peak_ratio_bounds",
    "check_mean_bounds",
    "check_mean_near_capacity",
    "stirling_ratio",
    "convergence_table",
    "concentration_window",
    "concentration_mass_bound",
    "window_mass",
    "verify_reports",
    "MEAN_BOUND_MIN_N",
]

RESIDUAL_TOL = 1e-13  # relative to the size of g's terms
_MAX_HALVINGS = 1100  # ~1080 halvings from (5e-324, 1) to adjacent doubles
FLOOR_SLACK = 1e-9
MEAN_BOUND_MIN_N = 1000  # below this the bounds are reported but not asserted
_STIRLING_BAND_FACTOR = 10.0  # the largest max/min of t(h_n)/sqrt(n) over the n grid
_EQUIVALENCE_GRID_N = (1, 2, 3, 5, 10, 20, 50, 100, 200)  # the oracle's N in verify
_EQUIVALENCE_TOL = 1e-10  # the largest |closed form - oracle| survival gap


class AlphaSolution(NamedTuple):
    """Root of g with its certificate: residual, bracket, iteration count."""

    rho: float
    alpha: float
    residual: float
    iterations: int
    bracket: tuple[float, float]


class BoundConstants(NamedTuple):
    """Constants derived from alpha(rho), all strictly positive for rho in (0,1)."""

    rho: float
    alpha: float
    c1: float
    c2: float
    c3: float


class BoundReport(NamedTuple):
    """Outcome of one certified inequality at one parameter point.

    ``lhs``/``rhs`` are in log scale for the ratio bounds and in natural
    units for the mean bounds; ``margin`` is how far the inequality holds
    in its stated direction (>= 0 means pass) for the best admissible
    rounding of the bracketed offsets, ``floor_margin`` the same for the
    strict floors.  ``applicable`` is False when the offsets leave the
    valid index range or n is below the asserted threshold; such reports
    never count as failures.
    """

    inequality: str
    n: int
    rho: float
    lhs: float
    rhs: float
    margin: float
    passed: bool
    applicable: bool
    floor_margin: float = math.nan
    note: str = ""

    def to_dict(self) -> dict:
        """JSON-ready fields; a NaN (no value) becomes None, i.e. ``null``."""
        fields = self._asdict()
        for key in ("lhs", "rhs", "margin", "floor_margin"):
            fields[key] = _or_none(fields[key])
        return fields


def _or_none(x: float) -> float | None:
    return None if math.isnan(x) else x


class ConvergencePoint(NamedTuple):
    """One row of the limit table for a fixed rho: the ``sweep`` columns,
    under the artifact's names and in its order."""

    N: int
    mean: float
    variance: float
    mean_over_N: float      # mean / N
    var_over_N: float       # variance / N
    mean_limit: float       # f(rho)
    var_limit: float        # f(rho)^2 / rho
    mean_gap: float         # |mean / N - f(rho)|
    var_gap: float          # |variance / N - f(rho)^2 / rho|


def _g(x: float, log_rho: float) -> float:
    # x log x + (1-x) log(1-x) - x log rho, continuously extended by 0 at {0,1}
    if x <= 0.0 or x >= 1.0:
        s = 0.0
    else:
        s = x * math.log(x) + (1.0 - x) * math.log1p(-x)
    return s - x * log_rho


def _residual_tolerance(x: float, log_rho: float) -> float:
    """How far from 0 g may read at a double x next to its root: RESIDUAL_TOL
    times the size of g's terms, for the rounding of their sum, plus g's
    change across two ulps of x, since no double need lie closer to the
    root.  The second part matters only near x = 1, where g' ~ -log(1 - x)
    is large, and among subnormal x."""
    slope = abs(math.log(x) - math.log1p(-x) - log_rho)
    terms = abs(x * math.log(x)) + abs((1.0 - x) * math.log1p(-x)) + abs(x * log_rho)
    return RESIDUAL_TOL * terms + 2.0 * math.ulp(x) * (1.0 + slope)


def solve_alpha(rho: float) -> AlphaSolution:
    """Bisect g on (rho (1 + 2**-50), 1 - 1e-15) to adjacent doubles, with a
    residual within ``_residual_tolerance``, a bound relative to the size of
    g's terms.  About 1080 halvings reach any rho in (0, 1).  Above rho
    ~ 1 - 3.5e-14 the root lies past 1 - 1e-15, and the bracket is
    (max(1 - 1e-15, rho), 1) instead; alpha is then at most the largest
    double below 1, and equals rho at rho = that double.

    g is strictly increasing on (rho, 1) (its derivative is
    log(x / ((1-x) rho)) > 0 there), but only the sign change is used:
    g(rho+) = (1-rho) log(1-rho) < 0 and g(1) = -log rho > 0.
    """
    rho = _positive_rate("rho", rho)
    if rho >= 1.0:
        raise ParameterError(f"alpha(rho) is defined for rho in (0, 1), got {rho!r}")
    log_rho = math.log(rho)
    # The lower end is relative: an absolute step of 1e-15 would swamp rho <= 1e-16.
    lo, hi = rho * (1.0 + 2.0**-50), 1.0 - 1e-15
    if not _g(hi, log_rho) > 0.0:
        lo, hi = max(hi, rho), 1.0
    if not (_g(lo, log_rho) <= 0.0 < _g(hi, log_rho)):
        raise ParameterError(f"no sign change on the bracket for rho = {rho}")
    iterations = 0
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        iterations += 1
        if _g(mid, log_rho) < 0.0:
            lo = mid
        else:
            hi = mid
    alpha = min(0.5 * (lo + hi), math.nextafter(1.0, 0.0))  # bound_constants takes log(1 - alpha)
    residual = _g(alpha, log_rho)
    if not abs(residual) <= _residual_tolerance(alpha, log_rho):
        raise ParameterError(
            f"bisection stalled for rho = {rho}: residual {residual:.3e}")
    return AlphaSolution(rho=rho, alpha=alpha, residual=residual,
                         iterations=iterations, bracket=(lo, hi))


def height_fraction_limit(rho: float) -> float:
    """Limit of E[H_N] / N: alpha(rho) for rho < 1, exactly 1 for rho >= 1."""
    rho = _positive_rate("rho", rho)
    if rho >= 1.0:
        return 1.0
    return solve_alpha(rho).alpha


def bound_constants(sol: AlphaSolution) -> BoundConstants:
    """c1, c2, c3 from a solved alpha(rho), ``bound_constants(solve_alpha(rho))``;
    denominators are positive because alpha > rho > rho (1 - alpha)."""
    rho, a = sol.rho, sol.alpha
    if a <= rho:  # only at the largest double below 1, where no double lies in (rho, 1)
        raise ParameterError(f"alpha(rho) rounds to rho = {rho!r}, where c2 = "
                             f"3 / (log alpha - log rho) is unbounded")
    c1 = 2.0 / (math.log(a) - math.log(rho * (1.0 - a)))
    c2 = 3.0 / (math.log(a) - math.log(rho))
    if rho * rho >= sys.float_info.min:
        c3 = a * (3.0 + rho) / (rho * rho)
    else:  # rho**2 underflows, but c3 ~ 3e/rho is representable down to rho ~ 5e-308
        c3 = a * (3.0 + rho) / rho / rho
    if not math.isfinite(c3):
        raise ParameterError(f"c3 = alpha (3 + rho) / rho**2 overflows at rho = {rho!r}")
    if min(c1, c2, c3) <= 0.0:
        raise ParameterError(f"derived constants must be positive, got {(c1, c2, c3)}")
    return BoundConstants(rho=rho, alpha=a, c1=c1, c2=c2, c3=c3)


def peak_index(alpha: float, n: int) -> int:
    """floor(alpha * (n-1)): the index where the ladder term is of order sqrt(n)."""
    return math.floor(alpha * (n - 1))


def integer_part_candidates(x: float) -> tuple[int, ...]:
    """Integer parts of x that a certifier should be willing to accept.

    Always contains floor(x) and floor(x) + 1 (the two roundings of an
    asymptotic offset); when x sits within ``FLOOR_SLACK`` of an integer the
    neighbour on the other side is included too, covering the case where
    a float alpha landed on the wrong side of the boundary.
    """
    f = math.floor(x)
    cands = {f, f + 1}
    if x - f <= FLOOR_SLACK:
        cands.add(f - 1)
    return tuple(sorted(c for c in cands if c >= 0))


def check_peak_ratio_bounds(n: int, c: BoundConstants) -> tuple[BoundReport, BoundReport]:
    """Certify the two ladder-ratio inequalities at (n, c.rho).

    Growth: t(h_n + [c1 log n]) >= t(h_n) * n**2.
    Decay:  t(h_n - [c2 log n]) <= t(h_n) * n**-3.
    Both are evaluated in the log domain; see the module docstring for
    the integer-part candidate policy.  Out-of-range offsets flag the
    report as not applicable instead of raising.  Below
    ``MEAN_BOUND_MIN_N`` the margins are still computed but the reports
    are flagged not applicable, as in ``check_mean_bounds``: the
    inequalities are eventual statements.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    rho = c.rho
    log_n = math.log(n)
    h_cands = integer_part_candidates(c.alpha * (n - 1))

    def evaluate(offsets: tuple[int, ...], sign: int, rhs_shift: float,
                 name: str) -> BoundReport:
        # sign +1: t(h + K) >= t(h) * e^{rhs_shift}; sign -1: t(h - K) <= ...
        floor_h = peak_index(c.alpha, n)
        floor_k = math.floor((c.c1 if sign > 0 else c.c2) * log_n)
        floor_margin = math.nan
        tried = []
        for h in h_cands:
            if h > n - 1:
                continue
            rhs = exactdist.log_r_term(n, rho, h) + rhs_shift
            for k in offsets:
                idx = h + sign * k
                if not 0 <= idx <= n - 1:
                    continue
                lhs = exactdist.log_r_term(n, rho, idx)
                margin = (lhs - rhs) if sign > 0 else (rhs - lhs)
                tried.append((h, k, margin, lhs, rhs))
                if h == floor_h and k == floor_k:
                    floor_margin = margin
        if not tried:
            return BoundReport(inequality=name, n=n, rho=rho, lhs=math.nan,
                               rhs=math.nan, margin=math.nan, passed=True,
                               applicable=False,
                               note="offset leaves the index range [0, n-1]")
        # max keeps the first of equal margins
        _, _, margin, lhs, rhs = max(tried, key=lambda t: t[2])
        note = ("candidates (h, offset, log-margin): "
                + "; ".join(f"({a}, {b}, {m:+.4f})" for a, b, m, _, _ in tried))
        return BoundReport(inequality=name, n=n, rho=rho, lhs=lhs, rhs=rhs,
                           margin=margin, passed=margin >= 0.0,
                           applicable=n >= MEAN_BOUND_MIN_N,
                           floor_margin=floor_margin, note=note)

    return (evaluate(integer_part_candidates(c.c1 * log_n), +1, 2.0 * log_n, "peak_growth"),
            evaluate(integer_part_candidates(c.c2 * log_n), -1, -3.0 * log_n, "peak_decay"))


def check_mean_bounds(N: int, c: BoundConstants, mean: float) -> BoundReport:
    """Certify the mean sandwich at (N, c.rho), rho < 1, for a mean computed
    elsewhere:

        floor(alpha N) - floor(c2 log N) - c3 <= mean <= floor(alpha N) + 1.

    The margin is the distance to the nearest strict-floor bound;
    acceptance additionally allows the candidate roundings.  Reports for
    N below ``MEAN_BOUND_MIN_N`` are flagged not applicable (the sandwich
    is an eventual statement; the threshold is this package's policy).
    """
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    log_n = math.log(N)
    lo_floor = math.floor(c.alpha * N) - math.floor(c.c2 * log_n) - c.c3
    hi_floor = math.floor(c.alpha * N) + 1.0
    lo_cands = [a - b - c.c3
                for a in integer_part_candidates(c.alpha * N)
                for b in integer_part_candidates(c.c2 * log_n)]
    hi_cands = [a + 1.0 for a in integer_part_candidates(c.alpha * N)]
    margin = min(mean - lo_floor, hi_floor - mean)
    return BoundReport(inequality="mean_sandwich", n=N, rho=c.rho,
                       lhs=lo_floor, rhs=hi_floor, margin=margin,
                       passed=min(lo_cands) <= mean <= max(hi_cands),
                       applicable=N >= MEAN_BOUND_MIN_N, floor_margin=margin,
                       note=f"mean = {mean!r}, alpha = {c.alpha!r}")


def check_mean_near_capacity(N: int, rho: float, mean: float) -> BoundReport:
    """Certify N - 4 <= mean <= N at (N, rho), rho >= 1, for a mean computed
    elsewhere; not applicable below ``MEAN_BOUND_MIN_N``, as the sandwich."""
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    rho = _positive_rate("rho", rho)
    if not rho >= 1.0:
        raise ParameterError(f"the capacity bound needs rho >= 1, got {rho!r}")
    lo, hi = N - 4.0, float(N)
    margin = min(mean - lo, hi - mean)
    return BoundReport(inequality="mean_near_capacity", n=N, rho=rho,
                       lhs=lo, rhs=hi, margin=margin,
                       passed=lo <= mean <= hi, applicable=N >= MEAN_BOUND_MIN_N,
                       floor_margin=margin, note=f"mean = {mean!r}")


def stirling_ratio(n: int, c: BoundConstants) -> float:
    """t(h_n) / sqrt(n), evaluated in the log domain.

    The peak term is Theta(sqrt(n)); no specific constant is asserted,
    only empirical boundedness of this ratio over sweeps.
    """
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    h = peak_index(c.alpha, n)
    return math.exp(exactdist.log_r_term(n, c.rho, h) - 0.5 * math.log(n))


def convergence_table(rho: float, Ns: list[int]) -> list[ConvergencePoint]:
    """Mean/variance ratios against their limits along an ascending N grid:
    per N, the mean, the variance, their ratios to N, the limits f(rho) and
    f(rho)**2 / rho and the ratios' gaps to them (``ConvergencePoint``)."""
    if not Ns:
        raise ParameterError("the N grid must be nonempty")
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ParameterError(f"the N grid must be strictly ascending, got {Ns}")
    f = height_fraction_limit(rho)
    v = f * f / rho
    rows = []
    for n in Ns:
        d = exactdist.height_distribution(make_params(int(n), rho=rho))
        rows.append(ConvergencePoint(N=int(n), mean=d.mean, variance=d.variance,
                                     mean_over_N=d.mean / n, var_over_N=d.variance / n,
                                     mean_limit=f, var_limit=v,
                                     mean_gap=abs(d.mean / n - f),
                                     var_gap=abs(d.variance / n - v)))
    return rows


def concentration_window(N: int, c: BoundConstants) -> tuple[int, int]:
    """The log-width window [h_N - ceil(c2 log N) - ceil(c3), h_N + ceil(c1 log N)]
    that carries almost all of the mass, clipped to [1, N]."""
    h = peak_index(c.alpha, N)
    lo = h - math.ceil(c.c2 * math.log(N)) - math.ceil(c.c3)
    hi = h + math.ceil(c.c1 * math.log(N))
    return max(1, lo), min(N, hi)


def concentration_mass_bound(N: int, c: BoundConstants) -> float:
    """Provable lower bound on the window mass:
    1 - 2 (3 + rho) / ((N-1) rho^2) - 2 / t(h_N).  It is -inf where it is
    below the range of a double, at rho below ~1e-154."""
    rho = c.rho
    t_h = math.exp(exactdist.log_r_term(N, rho, peak_index(c.alpha, N)))
    scale = (N - 1) * rho * rho
    if scale == 0.0:  # rho**2 underflows: the bound is below every double
        return -math.inf
    return 1.0 - 2.0 * (3.0 + rho) / scale - 2.0 / t_h


def window_mass(law: exactdist.HeightDistribution,
                c: BoundConstants) -> tuple[float, int, int]:
    """Exact mass of the law's concentration window, with the window itself:
    S(lo) - S(hi + 1), S(k) read off the survival runs at the first run
    end >= k.  ``c`` must be the constants of the law's rho."""
    if law.rho != c.rho:
        raise ParameterError(f"the law's rho {law.rho!r} is not the constants' rho {c.rho!r}")
    lo, hi = concentration_window(law.N, c)
    surv, _, lengths = law.column_runs()
    ends = list(itertools.accumulate([*lengths[:-1], lengths[-1] + 1]))  # the tail of 0.0 to N + 1
    return surv[bisect_left(ends, lo)] - surv[bisect_left(ends, hi + 1)], lo, hi


def verify_reports(rhos: list[float], ns: list[int], *,
                   selftest_corrupt: bool = False) -> list[BoundReport]:
    """The certificate suite over the grid: per rho < 1, on its one
    ``BoundConstants``, the peak-ratio bounds, the mean sandwich, the band of
    t(h_n)/sqrt(n) and the window mass; per rho >= 1 the mean near capacity;
    then per rho the closed form against the first-passage oracle at N in
    ``_EQUIVALENCE_GRID_N``.  ``selftest_corrupt`` quarters the c1 of the
    peak-ratio bounds only, so that a wrong growth constant must surface as a
    failing report.  The rho and N values may come in any order, and a
    value given twice is a ``ParameterError``."""
    from . import oracle  # here, so that alpha and sweep never load it

    for name, grid in (("rho", rhos), ("N", ns)):
        if len(set(grid)) < len(grid):
            raise ParameterError(f"the {name} grid must not repeat a value, got {grid}")
    reports: list[BoundReport] = []
    for rho in rhos:
        # the laws first: they refuse an N too large for the bounds' floats
        laws = {n: exactdist.height_distribution(make_params(n, rho=rho)) for n in ns}
        if rho >= 1.0:
            reports += (check_mean_near_capacity(n, rho, laws[n].mean) for n in ns)
        else:
            c = bound_constants(solve_alpha(rho))
            peak = c._replace(c1=0.25 * c.c1) if selftest_corrupt else c
            for n in ns:
                reports += check_peak_ratio_bounds(n, peak)
            reports += (check_mean_bounds(n, c, laws[n].mean) for n in ns)
            ratios = [stirling_ratio(n, c) for n in ns if n >= 2]
            band = max(ratios) / min(ratios) if ratios else math.nan
            # t(h_n) ~ sqrt(n) needs an interior peak; at h_n = 0 every ratio is 1/sqrt(n).
            interior = peak_index(c.alpha, max(ns)) >= 1
            reports.append(BoundReport(
                inequality="peak_term_sqrt_band", n=max(ns), rho=rho,
                lhs=band, rhs=_STIRLING_BAND_FACTOR, margin=_STIRLING_BAND_FACTOR - band,
                passed=band <= _STIRLING_BAND_FACTOR,
                applicable=len(ratios) >= 2 and interior,
                note=f"ratios t(h_n)/sqrt(n) over n in {sorted(n for n in ns if n >= 2)}"))
            for n in ns:
                if n >= MEAN_BOUND_MIN_N:
                    mass, lo, hi = window_mass(laws[n], c)
                    bound = concentration_mass_bound(n, c)
                    finite = math.isfinite(bound)  # a bound of -inf holds vacuously
                    reports.append(BoundReport(
                        inequality="concentration_window_mass", n=n, rho=rho,
                        lhs=mass, rhs=bound if finite else math.nan,
                        margin=mass - bound if finite else math.nan,
                        passed=mass >= bound, applicable=finite, note=f"window [{lo}, {hi}]"))
    for rho in rhos:  # closed form vs first-passage elimination
        gaps = []
        for n in _EQUIVALENCE_GRID_N:
            p = make_params(n, rho=rho)
            survival, _, lengths = exactdist.height_distribution(p).column_runs()
            exact = itertools.chain.from_iterable(map(itertools.repeat, survival, lengths))
            gaps += (abs(e - f) for e, f in zip(exact, oracle.height_dist_oracle(p)))
        # nan if any gap is, so that a nan fails the check; max() alone would
        # skip a nan that is not the first gap
        worst = math.nan if any(map(math.isnan, gaps)) else float(max(gaps))
        reports.append(BoundReport(
            inequality="oracle_equivalence", n=max(_EQUIVALENCE_GRID_N), rho=rho,
            lhs=worst, rhs=_EQUIVALENCE_TOL, margin=_EQUIVALENCE_TOL - worst,
            passed=worst <= _EQUIVALENCE_TOL, applicable=True,
            note=f"sup over k and N in {_EQUIVALENCE_GRID_N}"))
    return reports
