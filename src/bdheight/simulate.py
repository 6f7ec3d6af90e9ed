"""Monte Carlo sampling of busy-period heights.

Three samplers:

``ladder`` (default)
    Exact-in-law sampling of the heights' counts alone.  The
    first-passage identity P(H >= k) = 1 / S_k gives the hazard
    P(H = k | H >= k) = 1 - S_k / S_{k+1}, so the counts are a chain of
    conditional binomials: of the samples with H >= k, Bin(rem, h_k)
    stop at k, and the rest go on (a multinomial drawn one binomial per
    height; Devroye 1986, ch. XI).  The log-sums come from the
    first-passage module (:mod:`bdheight.oracle`), not from the
    closed-form law, so a distributional comparison against
    :mod:`bdheight.exactdist` still crosses two independent code paths.
    The chain skips the heights whose log-sum does not step up, where
    the hazard is exactly 0, and stops once no sample is left.  The
    binomial's ``log1p`` resolves hazards below 2**-53, which a bare
    comparison of uniforms cannot.  Cost is one O(N) sweep plus one
    binomial per step of the log-sums up to the largest height drawn,
    whatever the number of samples.

``jump-chain``
    Literal step-by-step walk of the embedded jump chain from state 1
    until it hits 0, recording the maximum.  Exact but only *feasible*
    when excursions are short: the mean excursion length equals the
    stationary return time of the embedded chain to state 0, which is
    of order (1 + rho)^N / (N rho) jumps; already at N = 50, rho = 0.8
    that is ~10^13 steps per excursion.  ``run_batch`` therefore
    estimates the cost analytically up front (a 100-excursion pilot
    would itself never terminate in the regimes it is supposed to warn
    about) and refuses batches whose estimate exceeds
    ``MAX_TOTAL_STEPS``.  Holding times are irrelevant to the height, so this walk
    samples the same height law as ``full-ctmc``.

``full-ctmc``
    The same walk with exponential holding times (rate i mu + (N-i) nu
    at state i); additionally records the busy-period duration in units
    of 1/mu.  Same feasibility constraint.

Reproducibility
---------------
The ladder draws from ``random.Random(seed)`` and uses only its
``random()`` method, whose sequence Python keeps the same for a given
seed across versions; its binomials are ``_binomial``, a port of
CPython 3.12's ``binomialvariate`` on the C library's ``log`` and
``log1p`` and on CPython's own ``lgamma``.  The walks partition their
samples into chunks of ``_CHUNK_SAMPLES``, and chunk c draws from its
own counter-based Philox stream seeded by ``SeedSequence((seed, c))``;
numpy is imported only there.  Chunks run in order on the calling thread, so a fixed
``SimulationConfig`` produces bit-identical summaries.  The counts are
a ``Counter`` keyed by height; each chunk's heights are added to it as
the chunk is drawn, and a ``full-ctmc`` chunk's durations go into the
exact sum as it is drawn, so a batch holds O(N + chunk) numbers however
many samples it draws.  The summary keeps only the nonzero counts, as
ascending (height, count) pairs, and takes the exact moments from them
and the sup distance from the runs ``batch_columns`` builds of them.
Scalar aggregates are rounded once from their exact values (integer
moments divided once; ``math.fsum`` for durations), so no accumulation
order can leak into the output.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Callable, Iterator
from typing import TYPE_CHECKING, NamedTuple

from . import exactdist, oracle
from .errors import CapacityError, ParameterError, SimulationAbort
from .model import (FULL_CTMC, JUMP_CHAIN, LADDER, SAMPLER_MODES, ModelParams, ReadOnly,
                    jump_up_probs)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LADDER",
    "JUMP_CHAIN",
    "FULL_CTMC",
    "SimulationConfig",
    "SimulationSummary",
    "batch_columns",
    "dkw_epsilon",
    "estimate_mean_excursion_steps",
    "run_batch",
]

MAX_EXCURSION_STEPS = 10**10  # jump steps of one walk before the circuit breaker trips
MAX_TOTAL_STEPS = 1e9  # estimated jump steps of a walk batch before it is refused


class SimulationConfig(ReadOnly):
    """Everything that determines a batch; equal configs give equal bytes.
    Validated on construction and read-only after it."""

    def __init__(self, params: ModelParams, n_samples: int, seed: int, mode: str = LADDER,
                 dkw_delta: float = 0.01):
        if not isinstance(params, ModelParams):
            raise ParameterError(f"params must be a ModelParams, got {params!r}")
        if mode not in SAMPLER_MODES:
            raise ParameterError(f"mode must be one of {SAMPLER_MODES}, got {mode!r}")
        if not isinstance(n_samples, int) or isinstance(n_samples, bool) or n_samples < 1:
            raise ParameterError(f"n_samples must be a positive integer, got {n_samples!r}")
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ParameterError(f"seed must be a nonnegative integer, got {seed!r}")
        if not isinstance(dkw_delta, (int, float)) or not 0.0 < dkw_delta < 1.0:
            raise ParameterError(f"dkw_delta must be a real in (0, 1), got {dkw_delta!r}")
        vars(self).update(params=params, n_samples=n_samples, seed=seed, mode=mode,
                          dkw_delta=dkw_delta)


class SimulationSummary(NamedTuple):
    """Batch output: the configuration, the nonzero counts and what is
    measured from them."""

    N: int
    rho: float
    nu: float
    mu: float
    mode: str
    n_samples: int
    seed: int
    counts: tuple[tuple[int, int], ...]  # (height, count), ascending, nonzero counts only
    empirical_mean: float
    empirical_variance: float
    sup_distance: float
    dkw_delta: float
    dkw_epsilon: float
    dkw_pass: bool
    mean_busy_duration: float | None = None  # full-ctmc only, in units of 1/mu


def dkw_epsilon(n_samples: int, delta: float) -> float:
    """Half-width of the level-(1 - delta) distribution-free ECDF band."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n_samples))


def estimate_mean_excursion_steps(p: ModelParams) -> float:
    """Mean number of jumps per excursion, computed analytically.

    The embedded jump chain visits state 0 with stationary frequency
    pi_0 lam_0 / sum_j pi_j lam_j (lam_j is the total rate out of j), so
    the mean return time, and hence the mean excursion length, is the
    reciprocal.  The stationary law is Binomial(N, rho / (1 + rho)) and
    lam_j = j mu + (N - j) nu, so the sum closes:
    sum_j pi_j lam_j / (pi_0 lam_0) = 2 (1 + rho)^(N-1).  Evaluated in the
    log domain; returns ``inf`` when the value overflows a double.
    """
    log_return = math.log(2.0) + (p.N - 1) * math.log1p(p.rho)
    if log_return > 700.0:
        return math.inf
    return math.expm1(log_return)  # return time minus the jump out of 0


def _binomial(rnd: Callable[[], float], n: int, p: float) -> int:
    """One Bin(n, p) variate drawn from the uniforms ``rnd()``.

    CPython 3.12's ``Random.binomialvariate``: Devroye's geometric method
    for n p < 10, Hoermann's BTRS (J. Stat. Comput. Simul. 46, 1993)
    otherwise, with p <= 1/2 by symmetry.  For n p >= 10 it takes the
    same uniforms and returns the same values as CPython's.  Changed: the
    geometric step divides by ``log1p(-p)``, where CPython's
    ``log2(1 - p)`` is 0 for p below 2**-53 and the draw is always 0; a
    step of n or more trials (possibly inf there) ends the draw; its log
    takes 1 - ``rnd()``, which is never 0.  A BTRS draw with ``rnd()`` = 0
    is rejected when its hat point is at infinity and accepted when it is
    the v of the acceptance test (log 0 = -inf), where CPython raises.
    The setup is done up front, and there is no n = 1 shortcut.
    """
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if p > 0.5:
        return n - _binomial(rnd, n, 1.0 - p)
    if n * p < 10.0:
        x = y = 0  # successes so far, and the trial of the last one
        c = math.log1p(-p)
        while True:
            y += math.floor(min(math.log(1.0 - rnd()) / c, n)) + 1
            if y > n:
                return x
            x += 1
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    lpq = math.log(p / (1.0 - p))
    m = math.floor((n + 1) * p)  # the mode
    h = math.lgamma(m + 1) + math.lgamma(n - m + 1)
    while True:
        u = rnd() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = rnd()
        if us >= 0.07 and v <= vr:  # the squeeze
            return k
        v *= alpha / (a / (us * us) + b)
        if v == 0.0 or (math.log(v) <= h - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                        + (k - m) * lpq):
            return k


def _ladder_counts(p: ModelParams, n: int, seed: int, counts: Counter) -> None:
    """Add the heights of ``n`` ladder samples to ``counts``."""
    ls = oracle.log_hitting_sums(p)  # ls[k-1] = log S_k, never decreasing
    rnd = random.Random(seed).random
    k, rem = 1, n  # rem samples are left, each with H >= k
    while rem:
        # the hazard P(H = k | H >= k) = 1 - S_k / S_{k+1} is 0 until log S steps up
        k = bisect_right(ls, ls[k - 1], k)
        if k == p.N:  # where it is 1
            counts[k] += rem
            return
        stop = _binomial(rnd, rem, -math.expm1(ls[k - 1] - ls[k]))
        if stop:
            counts[k] += stop
            rem -= stop
        k += 1


# Samples per walk chunk, and so per Philox stream.  A constant, so the
# stream layout depends on nothing but the seed.
_CHUNK_SAMPLES = 4096


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, chunk_index))))


def _walk_chunk(p: ModelParams, n: int, rng: np.random.Generator,
                with_durations: bool) -> tuple[np.ndarray, np.ndarray | None]:
    # All excursions of the chunk advance in lockstep; finished ones drop
    # out.  The per-round counter bounds every excursion's step count, so
    # the circuit breaker trips once any excursion exceeds MAX_EXCURSION_STEPS.
    import numpy as np

    up = np.frombuffer(jump_up_probs(p))
    rates = np.arange(p.N + 1, dtype=float) * p.mu + (p.N - np.arange(p.N + 1, dtype=float)) * p.nu
    state = np.ones(n, dtype=np.int64)
    peak = np.ones(n, dtype=np.int64)
    heights = np.zeros(n, dtype=np.int64)
    durations = np.zeros(n) if with_durations else None
    active = np.arange(n)
    rounds = 0
    while active.size:
        rounds += 1
        if rounds > MAX_EXCURSION_STEPS:
            raise SimulationAbort(
                f"excursions exceeded {MAX_EXCURSION_STEPS} jump steps at N={p.N}, rho={p.rho}",
                int(np.count_nonzero(heights)), steps_taken=rounds)
        s = state[active]
        if with_durations:
            durations[active] += rng.exponential(1.0, s.size) / rates[s]
        go_up = rng.random(s.size) < up[s]
        s = s + np.where(go_up, 1, -1)
        state[active] = s
        peak[active] = np.maximum(peak[active], s)
        done = s == 0
        if done.any():
            finished = active[done]
            heights[finished] = peak[finished]
            active = active[~done]
    return heights, durations


def batch_columns(law: exactdist.HeightDistribution,
                  counts: tuple[tuple[int, int], ...], n: int) -> dict[str, tuple[list, list]]:
    """The artifact's columns over k = 1..N as (values, lengths) runs, in CSV
    order, for the nonzero (height, count) pairs ``counts`` of ``n`` samples.
    The counts have a gap of 0 before each nonzero height and after the
    last, so their running totals, integers each divided once by ``n``, are
    the ECDF.  P(H <= k) = 1 - P(H >= k + 1): the survival one height on.
    The columns are cut at the union of their run ends, so they share one
    lengths list with no zero; a column holds on a cut its first run that
    ends there or later."""
    values, lengths, last = [0], [], 0
    for k, c in counts:
        values += c, 0
        lengths += k - last - 1, 1
        last = k
    lengths.append(law.N - last)
    surv, pmf, runs = law.column_runs()
    columns = {"count": (values, lengths),
               "empirical_pmf": ([c / n for c in values], lengths),
               "exact_pmf": (pmf, runs),
               "empirical_cdf": ([c / n for c in itertools.accumulate(values)], lengths),
               "exact_cdf": ([1.0 - v for v in surv], [runs[0] - 1, *runs[1:-1], runs[-1] + 1])}
    ends = {name: list(itertools.accumulate(lengths)) for name, (_, lengths) in columns.items()}
    cuts = sorted({*itertools.chain.from_iterable(ends.values())} - {0})
    shared = [b - a for a, b in zip([0, *cuts], cuts)]
    return {name: ([values[bisect_left(ends[name], e)] for e in cuts], shared)
            for name, (values, _) in columns.items()}


def _sup_distance(law: exactdist.HeightDistribution,
                  counts: tuple[tuple[int, int], ...], n: int) -> float:
    """max over k of |C(k) / n - P(H <= k)|, C(k) the number of heights <= k,
    once per run of ``batch_columns``, where neither the ECDF nor the exact
    CDF changes: the same double as the maximum over all N."""
    columns = batch_columns(law, counts, n)
    return max(abs(a - b) for a, b in zip(columns["empirical_cdf"][0], columns["exact_cdf"][0]))


def _draw(cfg: SimulationConfig, counts: Counter) -> Iterator[list[float]]:
    """Draw the batch, adding its heights to ``counts`` (a walk's chunk by
    chunk), and yield each chunk's durations (``full-ctmc`` only)."""
    p, n = cfg.params, cfg.n_samples
    if cfg.mode == LADDER:
        _ladder_counts(p, n, cfg.seed, counts)
        return
    for c, lo in enumerate(range(0, n, _CHUNK_SAMPLES)):
        try:
            heights, durations = _walk_chunk(p, min(_CHUNK_SAMPLES, n - lo),
                                             _chunk_rng(cfg.seed, c), cfg.mode == FULL_CTMC)
        except SimulationAbort as exc:  # the earlier chunks completed in full
            message, done = exc.args  # done: the samples this chunk completed
            exc.args = (f"{message}; {lo + done} of {n} samples completed",)
            raise
        if durations is not None:
            yield durations.tolist()
        counts.update(heights.tolist())


def run_batch(cfg: SimulationConfig,
              law: exactdist.HeightDistribution | None = None) -> SimulationSummary:
    """Draw ``cfg.n_samples`` i.i.d. heights and compare against the exact law.

    ``law`` is the exact law of ``cfg.params``, for a caller that has
    built it already; by default it is built here.

    Raises ``CapacityError`` for walk modes whose analytically estimated
    total step count exceeds ``MAX_TOTAL_STEPS`` (use the ladder mode
    there), and propagates ``SimulationAbort`` from the circuit breaker.
    """
    p = cfg.params
    n = cfg.n_samples

    if cfg.mode in (JUMP_CHAIN, FULL_CTMC):
        est = estimate_mean_excursion_steps(p) * n
        if est > MAX_TOTAL_STEPS:
            raise CapacityError(
                f"direct {cfg.mode} simulation of {n} excursions at N={p.N}, "
                f"rho={p.rho} needs ~{est:.3g} jump steps "
                f"(budget {MAX_TOTAL_STEPS:.3g}); the '{LADDER}' mode samples "
                f"the same height law without walking")

    counts = Counter()
    # fsum runs the draw.  It takes each chunk's durations as the chunk is
    # drawn and keeps only its partials, and it rounds the exact sum once,
    # so the value does not depend on the chunking.
    total_duration = math.fsum(itertools.chain.from_iterable(_draw(cfg, counts)))
    pairs = tuple(sorted(counts.items()))

    # Heights are integers, so the sample moments are ratios of integers,
    # and ``/`` on two ints rounds the exact ratio once: the summary does
    # not depend on any accumulation order.
    s1 = sum(k * c for k, c in pairs)
    s2 = sum(k * k * c for k, c in pairs)

    if law is None:
        law = exactdist.height_distribution(p)
    sup = _sup_distance(law, pairs, n)
    eps = dkw_epsilon(n, cfg.dkw_delta)

    mean_duration = None
    if cfg.mode == FULL_CTMC:  # in units of the mean service time 1/mu
        mean_duration = total_duration / n * p.mu

    return SimulationSummary(
        N=p.N, rho=p.rho, nu=p.nu, mu=p.mu, mode=cfg.mode,
        n_samples=n, seed=cfg.seed, counts=pairs,
        empirical_mean=s1 / n, empirical_variance=(n * s2 - s1 * s1) / (n * n),
        sup_distance=sup, dkw_delta=cfg.dkw_delta, dkw_epsilon=eps,
        dkw_pass=sup <= eps, mean_busy_duration=mean_duration)
