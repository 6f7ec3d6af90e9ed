"""Monte Carlo sampling of busy-period heights.

Three samplers share one reproducibility scheme:

``ladder`` (default)
    Exact-in-law sampling of the height alone, by inversion.  The
    first-passage identity P(H >= k) = 1 / S_k turns the event H >= k
    into E >= log S_k for one E ~ Exp(1), so the height is the number of
    log-sums at or below E: one ``searchsorted`` of E into the
    non-decreasing log S_1..S_N.  The log-sums come from the
    first-passage module (:mod:`bdheight.oracle`), not from the
    closed-form law, so a distributional comparison against
    :mod:`bdheight.exactdist` still crosses two independent code paths.
    Cost is one O(N) sweep plus O(log N) per sample; exponential
    variates also resolve tail masses below 2**-53, which uniforms
    cannot.

``jump-chain``
    Literal step-by-step walk of the embedded jump chain from state 1
    until it hits 0, recording the maximum.  Exact but only *feasible*
    when excursions are short: the mean excursion length equals the
    stationary return time of the embedded chain to state 0, which is
    of order (1 + rho)^N / (N rho) jumps; already at N = 50, rho = 0.8
    that is ~10^13 steps per excursion.  ``run_batch`` therefore
    estimates the cost analytically up front (a 100-excursion pilot
    would itself never terminate in the regimes it is supposed to warn
    about) and refuses batches whose estimate exceeds the configured
    budget.  Holding times are irrelevant to the height, so this walk
    samples the same height law as ``full-ctmc``.

``full-ctmc``
    The same walk with exponential holding times (rate i mu + (N-i) nu
    at state i); additionally records the busy-period duration in units
    of 1/mu.  Same feasibility constraint.

Reproducibility
---------------
Samples are partitioned into chunks of ``_CHUNK_SAMPLES`` and chunk c
draws from its own counter-based Philox stream seeded by
``SeedSequence((seed, c))``.  Chunks run in order on the calling thread,
so a fixed ``SimulationConfig`` produces bit-identical summaries.  Each
chunk's heights are added to the counts as the chunk is drawn, and a
``full-ctmc`` chunk's durations go into the exact sum as it is drawn, so
a batch holds O(N + chunk) numbers however many samples it draws.  The
summary keeps only the nonzero counts, as ascending (height, count)
pairs, and takes the exact moments and the sup distance from them.
``worker_count`` is validated but does not change execution: on two
cores a thread pool made the walks slower, not faster.  Scalar aggregates are computed
exactly (integer moments; ``math.fsum`` for durations, which rounds the
exact sum once), so no accumulation order can leak into the output.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_right
from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import exactdist, oracle
from .errors import CapacityError, ParameterError, SimulationAbort
from .model import (FULL_CTMC, JUMP_CHAIN, LADDER, SAMPLER_MODES, ModelParams, ReadOnly,
                    jump_up_probs)

__all__ = [
    "LADDER",
    "JUMP_CHAIN",
    "FULL_CTMC",
    "SimulationConfig",
    "SimulationSummary",
    "dkw_epsilon",
    "estimate_mean_excursion_steps",
    "run_batch",
]

DEFAULT_MAX_EXCURSION_STEPS = 10**10
DEFAULT_MAX_TOTAL_STEPS = 1e9


class SimulationConfig(ReadOnly):
    """Everything that determines a batch; equal configs give equal bytes.
    Validated on construction and read-only after it."""

    def __init__(self, params: ModelParams, n_samples: int, seed: int, mode: str = LADDER,
                 worker_count: int = 1,  # validated only; chunks always run on one thread
                 dkw_delta: float = 0.01,
                 max_excursion_steps: int = DEFAULT_MAX_EXCURSION_STEPS,
                 max_total_steps: float = DEFAULT_MAX_TOTAL_STEPS):
        if mode not in SAMPLER_MODES:
            raise ParameterError(f"mode must be one of {SAMPLER_MODES}, got {mode!r}")
        if not isinstance(n_samples, int) or n_samples < 1:
            raise ParameterError(f"n_samples must be a positive integer, got {n_samples!r}")
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ParameterError(f"seed must be a nonnegative integer, got {seed!r}")
        if not isinstance(worker_count, int) or worker_count < 1:
            raise ParameterError(f"worker_count must be >= 1, got {worker_count!r}")
        if not 0.0 < dkw_delta < 1.0:
            raise ParameterError(f"dkw_delta must be in (0, 1), got {dkw_delta!r}")
        vars(self).update(params=params, n_samples=n_samples, seed=seed, mode=mode,
                          worker_count=worker_count, dkw_delta=dkw_delta,
                          max_excursion_steps=max_excursion_steps, max_total_steps=max_total_steps)


class SimulationSummary(NamedTuple):
    """Batch output.  Deliberately excludes the worker count: the
    partitioning of work is an execution detail and must not show up in
    the serialized artifact."""

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

    def to_json_bytes(self) -> bytes:
        return json.dumps(self._asdict(), sort_keys=True).encode("utf-8")


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


# Samples per chunk, and so per Philox stream.  A constant, so the stream
# layout depends on nothing but the seed.
_CHUNK_SAMPLES = 4096


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, chunk_index))))


def _walk_chunk(p: ModelParams, n: int, rng: np.random.Generator,
                with_durations: bool, max_steps: int
                ) -> tuple[np.ndarray, np.ndarray | None]:
    # All excursions of the chunk advance in lockstep; finished ones drop
    # out.  The per-round counter bounds every excursion's step count, so
    # the circuit breaker trips once any excursion exceeds max_steps.
    up = jump_up_probs(p)
    rates = np.arange(p.N + 1, dtype=float) * p.mu + (p.N - np.arange(p.N + 1, dtype=float)) * p.nu
    state = np.ones(n, dtype=np.int64)
    peak = np.ones(n, dtype=np.int64)
    heights = np.zeros(n, dtype=np.int64)
    durations = np.zeros(n) if with_durations else None
    active = np.arange(n)
    rounds = 0
    while active.size:
        rounds += 1
        if rounds > max_steps:
            raise SimulationAbort(
                f"excursions exceeded {max_steps} jump steps at N={p.N}, rho={p.rho}; "
                f"{n - active.size} of {n} chunk samples completed",
                steps_taken=rounds,
                completed_heights=heights[heights > 0].copy())
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


def _sup_distance(law: exactdist.HeightDistribution,
                  counts: tuple[tuple[int, int], ...], n: int) -> float:
    """max over k of |C(k) / n - P(H <= k)|, C(k) the number of heights <= k.

    Both sides are constant between their breakpoints: the ECDF changes
    at a height with a nonzero count, and P(H <= k) = 1 - P(H >= k + 1)
    where k + 1 starts a survival run.  So the sup is attained at k = 1 or
    at a breakpoint, and it is the same double as the maximum over all N
    heights.
    """
    heights = [k for k, _ in counts]
    running = [0, *itertools.accumulate(c for _, c in counts)]
    starts = itertools.accumulate(law.column_runs()[2], initial=1)
    levels = {1, *heights, *(s - 1 for s in starts if 2 <= s <= law.N + 1)}

    def gap(k: int) -> float:
        exact = 1.0 - (law.survival_at(k + 1) if k < law.N else 0.0)
        return abs(running[bisect_right(heights, k)] / n - exact)
    return max(map(gap, levels))


def _draw(cfg: SimulationConfig, counts: np.ndarray) -> Iterator[list[float]]:
    """Draw the batch chunk by chunk, adding each chunk's heights to
    ``counts``, and yield each chunk's durations (``full-ctmc`` only)."""
    p, n = cfg.params, cfg.n_samples
    if cfg.mode == LADDER:
        log_sums = oracle.log_hitting_sums(p)
    for c, lo in enumerate(range(0, n, _CHUNK_SAMPLES)):
        m, rng = min(_CHUNK_SAMPLES, n - lo), _chunk_rng(cfg.seed, c)
        if cfg.mode == LADDER:
            # H >= k exactly when E >= log S_k, with E ~ Exp(1)
            heights = np.searchsorted(log_sums, rng.standard_exponential(m), side="right")
        else:
            heights, durations = _walk_chunk(p, m, rng, cfg.mode == FULL_CTMC,
                                             cfg.max_excursion_steps)
            if durations is not None:
                yield durations.tolist()
        np.add.at(counts, heights, 1)


def run_batch(cfg: SimulationConfig) -> SimulationSummary:
    """Draw ``cfg.n_samples`` i.i.d. heights and compare against the exact law.

    Raises ``CapacityError`` for walk modes whose analytically estimated
    total step count exceeds ``cfg.max_total_steps`` (use the ladder mode
    there), and propagates ``SimulationAbort`` from the circuit breaker.
    """
    p = cfg.params
    n = cfg.n_samples

    if cfg.mode in (JUMP_CHAIN, FULL_CTMC):
        est = estimate_mean_excursion_steps(p) * n
        if est > cfg.max_total_steps:
            raise CapacityError(
                f"direct {cfg.mode} simulation of {n} excursions at N={p.N}, "
                f"rho={p.rho} needs ~{est:.3g} jump steps "
                f"(budget {cfg.max_total_steps:.3g}); the '{LADDER}' mode samples "
                f"the same height law in O(log N) per sample")

    counts = np.zeros(p.N + 1, dtype=np.int64)
    # fsum runs the draw.  It takes each chunk's durations as the chunk is
    # drawn and keeps only its partials, and it rounds the exact sum once,
    # so the value does not depend on the chunking.
    total_duration = math.fsum(itertools.chain.from_iterable(_draw(cfg, counts)))
    heights = np.flatnonzero(counts)  # counts is indexed by height
    pairs = tuple(zip(heights.tolist(), counts[heights].tolist()))

    # Heights are integers, so the sample moments are ratios of integers;
    # computing them that way makes the summary independent of any
    # accumulation order.
    s1 = sum(k * c for k, c in pairs)
    s2 = sum(k * k * c for k, c in pairs)
    mean, var = Fraction(s1, n), Fraction(n * s2 - s1 * s1, n * n)

    sup = _sup_distance(exactdist.height_distribution(p), pairs, n)
    eps = dkw_epsilon(n, cfg.dkw_delta)

    mean_duration = None
    if cfg.mode == FULL_CTMC:  # in units of the mean service time 1/mu
        mean_duration = total_duration / n * p.mu

    return SimulationSummary(
        N=p.N, rho=p.rho, nu=p.nu, mu=p.mu, mode=cfg.mode,
        n_samples=n, seed=cfg.seed, counts=pairs,
        empirical_mean=float(mean), empirical_variance=float(var),
        sup_distance=sup, dkw_delta=cfg.dkw_delta, dkw_epsilon=eps,
        dkw_pass=sup <= eps, mean_busy_duration=mean_duration)
