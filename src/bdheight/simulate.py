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
    comparison of uniforms cannot.  The log-sums are read as a stream,
    so the sweep stops at the largest height drawn: cost is one sweep
    step per height up to it plus one binomial per height where the
    log-sum steps up, whatever the number of samples, and the ladder
    holds O(1) numbers besides its counts.

``jump-chain``
    Literal step-by-step walk of the embedded jump chain from state 1
    until it hits 0, recording the maximum.  Exact but only *feasible*
    when excursions are short: the mean excursion length equals the
    stationary return time of the embedded chain to state 0, which is
    of order (1 + rho)^N / (N rho) jumps; already at N = 50, rho = 0.8
    that is ~10^13 steps per excursion.  ``run_batch`` therefore
    estimates the cost analytically up front (a 100-excursion pilot
    would itself never terminate in the regimes it is supposed to warn
    about), the mean excursion's steps times the samples, and refuses
    batches whose estimate exceeds ``MAX_TOTAL_STEPS``.  Holding
    times are irrelevant to the height, so this walk samples the same
    height law as ``full-ctmc``.

``full-ctmc``
    The same walk with exponential holds at rate i + (N - i) rho at state
    i, the chain's rates in units of mu, so the busy-period duration it
    records is in units of the mean service time 1/mu, the one time scale
    that rho leaves.  Same feasibility constraint.

Reproducibility
---------------
The ladder draws from ``random.Random(seed)`` and uses only its
``random()`` method, whose sequence Python keeps the same for a given
seed across versions; its binomials are ``_binomial``, a port of
CPython 3.12's ``binomialvariate`` on the C library's ``log`` and
``log1p`` and on CPython's own ``lgamma``.  The walks draw from the same
kind of stream, ``random.Random(seed)``'s ``random()``, one per batch, and
run the excursions in sample order, each to its end.  A ``jump-chain``
step takes one uniform u and moves up if u < p_s at state s; a
``full-ctmc`` step first takes the hold -log1p(-u) / (s + (N - s) rho),
then the direction from the next uniform.  So a batch of m samples is the
first m excursions of any larger batch of the same seed, and a fixed
``SimulationConfig`` produces bit-identical summaries across Python
versions (the durations also rest on the C library's ``log1p``).  The
counts are a ``Counter`` keyed by height; each excursion's height is
added to it as the excursion ends, and a ``full-ctmc`` duration goes into
the exact sum then, so a walk batch holds O(min(N, highest state
reached)) numbers however many samples it draws.  The summary holds what
the batch measured and none of its inputs, which are the config's.  It
keeps only the nonzero counts, as ascending (height, count) pairs, and
takes the exact moments from them and the sup distance from its
``columns``, the runs that ``batch_columns`` builds of them and the exact
law, once per batch.
Scalar aggregates are rounded once from their exact values (integer
moments divided once; ``math.fsum`` for durations), so no accumulation
order can leak into the output.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Iterator
from typing import NamedTuple

from . import exactdist, oracle
from .errors import CapacityError, ParameterError, SimulationAbort
from .model import (FULL_CTMC, JUMP_CHAIN, LADDER, SAMPLER_MODES, ModelParams, ReadOnly,
                    _integer, _positive_rate, jump_up_probs)

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
        n_samples, seed = _integer("n_samples", n_samples, 1), _integer("seed", seed, 0)
        vars(self).update(params=params, n_samples=n_samples, seed=seed, mode=mode,
                          dkw_delta=_confidence("dkw_delta", dkw_delta))


class SimulationSummary(NamedTuple):
    """Batch output: the nonzero counts, the columns built of them
    (``batch_columns``) and what is measured from them.  The inputs are the
    ``SimulationConfig``'s, and an artifact records them in its manifest."""

    counts: tuple[tuple[int, int], ...]  # (height, count), ascending, nonzero counts only
    columns: dict[str, tuple[list, list]]  # the runs of batch_columns(law, counts, n_samples)
    empirical_mean: float
    empirical_variance: float
    sup_distance: float
    dkw_epsilon: float
    dkw_pass: bool
    mean_busy_duration: float | None = None  # full-ctmc only, in units of 1/mu


def _confidence(name: str, value) -> float:
    """``value`` as a float: a real, as ``_positive_rate`` takes it, below 1."""
    if not (delta := _positive_rate(name, value)) < 1.0:
        raise ParameterError(f"{name} must be a real in (0, 1), got {value!r}")
    return delta


def dkw_epsilon(n_samples: int, delta: float) -> float:
    """Half-width of the level-(1 - delta) distribution-free ECDF band of n_samples >= 1."""
    n_samples, delta = _integer("n_samples", n_samples, 1), _confidence("delta", delta)
    ratio = 2.0 / delta  # overflows for delta below ~1.1e-308; its log does not
    log_ratio = math.log(ratio) if ratio < math.inf else math.log(2.0) - math.log(delta)
    return math.sqrt(log_ratio / (2.0 * n_samples))


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
    rnd = random.Random(seed).random
    rem = n  # rem samples are left, each with H >= k
    log_sums = oracle.log_hitting_sums(p)  # log S_1, log S_2, ..., never decreasing
    prev = next(log_sums)
    for k, cur in enumerate(log_sums, 1):  # prev, cur = log S_k, log S_{k+1}
        # the hazard P(H = k | H >= k) = 1 - S_k / S_{k+1} is 0 until log S steps up
        if cur != prev:
            stop = _binomial(rnd, rem, -math.expm1(prev - cur))
            if stop:
                counts[k] += stop
                rem -= stop
                if not rem:
                    return
        prev = cur
    counts[p.N] += rem  # where the hazard is 1


def _walk(cfg: SimulationConfig, counts: Counter) -> Iterator[float]:
    """Walk the batch's excursions in sample order on one ``random()``
    stream, adding each height to ``counts`` as its excursion ends, and
    yield each ``full-ctmc`` duration then (none for ``jump-chain``).  The
    up-move probabilities, and the rates in units of mu, are lists over the
    states 0..len - 1 that grow with the highest state reached, so they hold
    only the states a walk reaches.  An excursion draws its uniforms from a
    ``map`` over the generator, which calls ``random()`` from C, one uniform
    per jump (two in ``full-ctmc``) up to MAX_EXCURSION_STEPS jumps; the
    circuit breaker trips when they run out."""
    p, n, ctmc, limit = cfg.params, cfg.n_samples, cfg.mode == FULL_CTMC, MAX_EXCURSION_STEPS
    rng, log1p = random.Random(cfg.seed), math.log1p
    probs = jump_up_probs(p)
    up, rates = [next(probs), next(probs)], [p.N * p.rho, 1.0 + (p.N - 1) * p.rho]
    for done in range(n):
        state = peak = 1
        held = 0.0
        uniforms = map(random.Random.random, itertools.repeat(rng, 2 * limit if ctmc else limit))
        for u in uniforms:
            if ctmc:  # the hold at the state, then the jump out of it
                held -= log1p(-u) / rates[state]
                u = next(uniforms)
            if u < up[state]:
                state += 1
                if state > peak:
                    peak = state
                    if peak == len(up):
                        up.append(next(probs))
                        rates.append(peak + (p.N - peak) * p.rho)
            else:
                state -= 1
                if not state:
                    break
        else:
            raise SimulationAbort(
                f"excursions exceeded {limit} jump steps at N={p.N}, "
                f"rho={p.rho}; {done} of {n} samples completed")
        counts[peak] += 1
        if ctmc:
            yield held


def batch_columns(law: exactdist.HeightDistribution,
                  counts: tuple[tuple[int, int], ...], n: int) -> dict[str, tuple[list, list]]:
    """The artifact's columns over k = 1..N as (values, lengths) runs, in CSV
    order, the last being ``exact_survival``, P(H >= k), for the nonzero
    (height, count) pairs ``counts`` of ``n`` samples.
    The counts have a gap of 0 before each nonzero height and after the
    last, so their running totals, integers each divided once by ``n``, are
    the ECDF.  P(H <= k) = 1 - P(H >= k + 1): the survival one height on,
    closed by P(H >= N + 1) = 0, which the law's runs stop short of.
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
               "exact_cdf": ([1.0 - v for v in (*surv, 0.0)], [runs[0] - 1, *runs[1:], 1]),
               "exact_survival": (surv, runs)}
    ends = {name: list(itertools.accumulate(lengths)) for name, (_, lengths) in columns.items()}
    cuts = sorted({*itertools.chain.from_iterable(ends.values())} - {0})
    shared = [b - a for a, b in zip([0, *cuts], cuts)]
    return {name: ([values[bisect_left(ends[name], e)] for e in cuts], shared)
            for name, (values, _) in columns.items()}


def _walk_steps(cfg: SimulationConfig) -> float:
    """The estimated cost of the batch in jump steps, the mean excursion's
    steps times the samples: 0.0 for the ladder, which does not walk.
    Raises ``CapacityError`` above ``MAX_TOTAL_STEPS``."""
    if cfg.mode == LADDER:
        return 0.0
    p, n = cfg.params, cfg.n_samples
    est = estimate_mean_excursion_steps(p) * n
    if est > MAX_TOTAL_STEPS:
        raise CapacityError(
            f"direct {cfg.mode} simulation of {n} excursions at N={p.N}, "
            f"rho={p.rho} costs ~{est:.3g} jump steps "
            f"(budget {MAX_TOTAL_STEPS:.3g}); the '{LADDER}' mode samples "
            f"the same height law without walking")
    return est


def run_batch(cfg: SimulationConfig) -> SimulationSummary:
    """Draw ``cfg.n_samples`` i.i.d. heights and compare against the exact law.

    Raises ``CapacityError`` for walk modes whose analytically estimated
    cost (``_walk_steps``) exceeds ``MAX_TOTAL_STEPS`` (use the ladder mode
    there), and propagates ``SimulationAbort`` from the circuit breaker.
    """
    _walk_steps(cfg)
    p, n = cfg.params, cfg.n_samples
    counts, mean_duration = Counter(), None
    if cfg.mode == LADDER:
        _ladder_counts(p, n, cfg.seed, counts)
    else:
        # fsum runs the walk.  It takes each duration as its excursion ends
        # and keeps only its partials, and it rounds the exact sum once.
        total_duration = math.fsum(_walk(cfg, counts))
        if cfg.mode == FULL_CTMC:  # in units of the mean service time 1/mu
            mean_duration = total_duration / n
    pairs = tuple(sorted(counts.items()))

    # Heights are integers, so the sample moments are ratios of integers,
    # and ``/`` on two ints rounds the exact ratio once: the summary does
    # not depend on any accumulation order.
    s1 = sum(k * c for k, c in pairs)
    s2 = sum(k * k * c for k, c in pairs)

    columns = batch_columns(exactdist.height_distribution(p), pairs, n)
    # max over k of |C(k) / n - P(H <= k)|, once per run, where neither CDF
    # changes: the same double as the maximum over all N
    sup = max(abs(a - b) for a, b in zip(columns["empirical_cdf"][0], columns["exact_cdf"][0],
                                         strict=True))
    eps = dkw_epsilon(n, cfg.dkw_delta)

    return SimulationSummary(
        counts=pairs, columns=columns,
        empirical_mean=s1 / n, empirical_variance=(n * s2 - s1 * s1) / (n * n),
        sup_distance=sup, dkw_epsilon=eps, dkw_pass=sup <= eps, mean_busy_duration=mean_duration)
