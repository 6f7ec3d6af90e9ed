"""Samplers: law agreement, reproducibility, feasibility guards."""

import inspect
import itertools
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from array import array
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdheight import (
    FULL_CTMC,
    JUMP_CHAIN,
    LADDER,
    CapacityError,
    ParameterError,
    SimulationAbort,
    SimulationConfig,
    dkw_epsilon,
    estimate_mean_excursion_steps,
    height_distribution,
    height_fraction_limit,
    log_hitting_sums,
    make_params,
    run_batch,
)
from bdheight import simulate
from bdheight.simulate import _binomial, _walk_steps


def _dense(s, N):
    """The batch's counts over heights 1..N, zero counts included; N is the
    config's, since the summary records no input."""
    counts = [0] * N
    for k, c in s.counts:
        counts[k - 1] = c
    return tuple(counts)


class TestConfig:
    def test_bad_values_rejected(self):
        p = make_params(3, rho=1.0)
        with pytest.raises(ParameterError):
            SimulationConfig(params=p, n_samples=0, seed=1)
        with pytest.raises(ParameterError):
            SimulationConfig(params=p, n_samples=10, seed=-1)
        with pytest.raises(ParameterError):
            SimulationConfig(params=p, n_samples=10, seed=1, mode="bogus")
        with pytest.raises(ParameterError):
            SimulationConfig(params=p, n_samples=True, seed=1)
        for delta in ("0.1", None, True, 0.0, 1.0, 1, math.nan, Fraction(3, 2)):
            with pytest.raises(ParameterError, match="dkw_delta must be"):
                SimulationConfig(params=p, n_samples=10, seed=1, dkw_delta=delta)
        for params in ((5, 1.0, 1.0, 1.0), None):
            with pytest.raises(ParameterError):
                SimulationConfig(params=params, n_samples=10, seed=1)
        for n_samples, seed in ((np.bool_(True), 1), (10.0, 1), (10, np.bool_(False)),
                                (np.int64(0), 1), (10, np.int64(-1)), (10, 1.0)):
            with pytest.raises(ParameterError):
                SimulationConfig(params=p, n_samples=n_samples, seed=seed)

    @pytest.mark.parametrize("to_int", [np.int64, np.uint32, np.int8])
    def test_numpy_integers_accepted(self, to_int):
        # as make_params takes a numpy N; stored as plain ints, so the
        # summary is the int config's
        p = make_params(5, rho=0.5)
        cfg = SimulationConfig(params=p, n_samples=to_int(10), seed=to_int(3))
        assert type(cfg.n_samples) is int and type(cfg.seed) is int
        assert run_batch(cfg) == run_batch(SimulationConfig(params=p, n_samples=10, seed=3))

    @pytest.mark.parametrize("delta", [Fraction(1, 100), np.float32(0.01), np.float64(0.01)],
                             ids=["Fraction", "float32", "float64"])
    def test_real_deltas_accepted(self, delta):
        # taken as make_params takes a rho, and stored as the float it rounds to
        p = make_params(5, rho=0.5)
        cfg = SimulationConfig(params=p, n_samples=10, seed=3, dkw_delta=delta)
        assert type(cfg.dkw_delta) is float and cfg.dkw_delta == float(delta)
        assert run_batch(cfg) == run_batch(SimulationConfig(params=p, n_samples=10, seed=3,
                                                            dkw_delta=float(delta)))

    @pytest.mark.parametrize("n_samples, delta", [(0, 0.01), (10, 0.0), (10, 5.0), (10, 2.0),
                                                  (10, 1.0), (10.5, 0.01), (True, 0.01),
                                                  (10, "0.01")])
    def test_dkw_epsilon_refuses_bad_inputs(self, n_samples, delta):
        # these once raised ZeroDivisionError or a math domain error, or gave 0.0
        with pytest.raises(ParameterError, match="n_samples must be|delta must be"):
            dkw_epsilon(n_samples, delta)

    def test_fields(self):
        # every field is a setting some caller needs; the step budgets are constants
        assert list(inspect.signature(SimulationConfig).parameters) == [
            "params", "n_samples", "seed", "mode", "dkw_delta"]

    def test_summary_records_no_input(self):
        # the inputs are the config's, and an artifact records them in its manifest
        assert not {"N", "rho", "mode", "n_samples", "seed", "dkw_delta"} & set(
            simulate.SimulationSummary._fields)

    def test_dkw_epsilon_formula(self):
        assert dkw_epsilon(10**5, 0.01) == pytest.approx(
            math.sqrt(math.log(200.0) / (2 * 10**5)), rel=1e-15)

    @pytest.mark.parametrize("delta", [2.3e-308, 1e-308, 1e-310, 5e-324])
    def test_dkw_epsilon_is_finite_where_two_over_delta_overflows(self, delta):
        eps = dkw_epsilon(10, delta)
        assert eps == pytest.approx(math.sqrt((math.log(2.0) - math.log(delta)) / 20), rel=1e-15)


class TestExcursionLengthEstimate:
    def test_single_node(self):
        # Return time to 0 is exactly 2 jumps, so one excursion is 1 step.
        assert estimate_mean_excursion_steps(make_params(1, rho=1.0)) == pytest.approx(1.0)

    def test_supercritical_blowup(self):
        est = estimate_mean_excursion_steps(make_params(50, rho=0.8))
        assert est > 1e12  # direct walks are hopeless here

    def test_overflow_reports_inf(self):
        assert estimate_mean_excursion_steps(make_params(2000, rho=0.5)) == math.inf

    @pytest.mark.parametrize("rho", [Fraction(1, 2), Fraction(4, 5), Fraction(3)])
    @pytest.mark.parametrize("N", [1, 2, 12, 50])
    def test_matches_exact_return_time(self, N, rho):
        # the mean return time to 0 is 2 (1 + rho)^(N-1) jumps, one of them
        # the jump out of 0
        exact = 2 * (1 + rho) ** (N - 1) - 1
        est = estimate_mean_excursion_steps(make_params(N, rho=float(rho)))
        assert abs(Fraction(est) - exact) <= Fraction(1, 10**14) * exact


class TestScalarSamplers:
    """Single-excursion behaviour of the walker, driven through small batches."""

    def test_single_node_height(self):
        s = run_batch(SimulationConfig(params=make_params(1, rho=0.7),
                                       n_samples=50, seed=1, mode=JUMP_CHAIN))
        assert _dense(s, 1) == (50,)

    def test_same_seed_same_stream(self):
        p = make_params(8, rho=0.4)
        for mode in (JUMP_CHAIN, FULL_CTMC):
            cfg = SimulationConfig(params=p, n_samples=5, seed=42, mode=mode)
            assert run_batch(cfg) == run_batch(cfg)

    def test_circuit_breaker(self, monkeypatch):
        # 3 steps finish only the excursions 1 -> 0 (height 1) and
        # 1 -> 2 -> 1 -> 0 (height 2).  At rho = 0.01, p_1 ~ 0.22, so most
        # excursions are the one step 1 -> 0 and ~7% pass 3 steps: the
        # breaker trips after a few dozen completed samples, which the message counts.
        n = 1000
        monkeypatch.setattr(simulate, "MAX_EXCURSION_STEPS", 3)
        monkeypatch.setattr(simulate, "MAX_TOTAL_STEPS", math.inf)
        p = make_params(30, rho=0.01)
        cfg = SimulationConfig(params=p, n_samples=n, seed=6, mode=JUMP_CHAIN)
        with pytest.raises(SimulationAbort) as exc:
            run_batch(cfg)
        assert str(exc.value).startswith("excursions exceeded 3 jump steps at N=30, rho=0.01; ")
        done = int(re.search(rf"; (\d+) of {n} samples completed$", str(exc.value))[1])
        assert 0 < done < n
        # the excursions run in sample order, so the first done samples are a
        # batch that the breaker lets finish, and one more trips it
        s = run_batch(SimulationConfig(params=p, n_samples=done, seed=6, mode=JUMP_CHAIN))
        assert {k for k, _ in s.counts} == {1, 2}
        with pytest.raises(SimulationAbort, match=f"; {done} of {done + 1} samples completed$"):
            run_batch(SimulationConfig(params=p, n_samples=done + 1, seed=6, mode=JUMP_CHAIN))

    def test_heights_in_range(self):
        s = run_batch(SimulationConfig(params=make_params(6, rho=0.5),
                                       n_samples=200, seed=11, mode=JUMP_CHAIN))
        assert len(_dense(s, 6)) == 6 and sum(_dense(s, 6)) == 200
        assert sum(c > 0 for c in _dense(s, 6)) > 1


class TestLadderBatch:
    def test_dkw_band_at_reference_point(self):
        cfg = SimulationConfig(params=make_params(50, rho=0.8),
                               n_samples=10**5, seed=7)
        s = run_batch(cfg)
        assert s.dkw_pass
        assert s.sup_distance <= s.dkw_epsilon

    def test_two_level_frequencies(self):
        # N=2, rho=1: heights 1 and 2 each with probability 1/2.
        n = 10**5
        cfg = SimulationConfig(params=make_params(2, rho=1.0), n_samples=n, seed=3)
        s = run_batch(cfg)
        sigma = math.sqrt(0.25 / n)
        assert abs(_dense(s, cfg.params.N)[1] / n - 0.5) <= 3 * sigma

    def test_exact_moment_bookkeeping(self):
        p = make_params(15, rho=0.6)
        s = run_batch(SimulationConfig(params=p, n_samples=4096, seed=5))
        ks = np.arange(1, 16)
        counts = np.asarray(_dense(s, p.N))
        assert counts.sum() == 4096
        mean = float(np.dot(ks, counts)) / 4096
        assert s.empirical_mean == pytest.approx(mean, rel=1e-15)
        var = float(np.dot((ks - mean) ** 2, counts)) / 4096
        assert s.empirical_variance == pytest.approx(var, rel=1e-12)
        # the sup distance is the dense maximum over all heights, bit for bit
        exact_cdf = 1.0 - np.append(height_distribution(p).survival_values()[1:], 0.0)
        assert s.sup_distance == float(np.max(np.abs(np.cumsum(counts) / 4096 - exact_cdf)))
        assert s.columns == simulate.batch_columns(height_distribution(p), s.counts, 4096)

    def test_moments_are_exact_with_zero_counts(self):
        # the moments are the exact ratios of the drawn heights, rounded once;
        # the heights with no count contribute nothing
        n = 300
        s = run_batch(SimulationConfig(params=make_params(10, rho=0.3), n_samples=n,
                                       seed=2, mode=JUMP_CHAIN))
        assert 0 in _dense(s, 10)
        heights = [k for k, c in s.counts for _ in range(c)]
        mean = Fraction(sum(heights), n)
        var = sum((h - mean) ** 2 for h in heights) / n
        assert (s.empirical_mean, s.empirical_variance) == (float(mean), float(var))

    def test_mean_tracks_exact_value(self):
        # 1e6 samples at N=3, rho=1: empirical mean within 3 sigma of 31/15.
        p = make_params(3, rho=1.0)
        d = height_distribution(p)
        n = 10**6
        s = run_batch(SimulationConfig(params=p, n_samples=n, seed=12))
        assert abs(s.empirical_mean - d.mean) <= 3 * math.sqrt(d.variance / n)

    def test_wlln_frequency(self):
        N, rho, n = 2000, 0.5, 10**4
        f = height_fraction_limit(rho)
        s = run_batch(SimulationConfig(params=make_params(N, rho=rho),
                                       n_samples=n, seed=21))
        ks = np.arange(1, N + 1)
        outside = np.abs(ks / N - f) > 0.05
        freq = np.asarray(_dense(s, N))[outside].sum() / n
        assert freq <= 0.01


class TestInversionSampler:
    """Ladder batches: the exact law from rho = 1e-300 to 1e300, sparse
    counts, and memory that grows with neither N nor the sample count."""

    @pytest.mark.parametrize("N", [1, 2, 50, 2000])
    @pytest.mark.parametrize("rho", [1e-300, 0.5, 1.0, 2.0, 1e300])
    def test_batches_follow_the_exact_law(self, N, rho):
        # the chain against the closed form, whose code path is independent
        # of the log-sums the ladder draws from
        s = run_batch(SimulationConfig(params=make_params(N, rho=rho), n_samples=20000,
                                       seed=N))
        assert s.dkw_pass

    def test_counts_are_sparse(self):
        # the batch keeps its nonzero counts only, not one count per height
        s = run_batch(SimulationConfig(params=make_params(10**6, rho=0.5), n_samples=1000,
                                       seed=1))
        heights = [k for k, _ in s.counts]
        assert len(s.counts) <= 1000
        assert all(a < b for a, b in zip(heights, heights[1:]))
        assert 1 <= heights[0] and heights[-1] <= 10**6
        assert all(c > 0 for _, c in s.counts)
        assert sum(c for _, c in s.counts) == 1000

    def test_memory_does_not_scale_with_chunk_times_n(self):
        # A (samples, N) float matrix here would be 256 x 2e5 x 8 B ~ 0.4 GB.
        p = make_params(200_000, rho=0.5)
        tracemalloc.start()
        try:
            s = run_batch(SimulationConfig(params=p, n_samples=256, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(_dense(s, p.N)) == 256
        assert peak < 64 * 2**20

    def test_memory_does_not_scale_with_samples(self):
        # Holding every height would take 8 B per sample, 16 MiB here.
        p = make_params(10, rho=0.5)
        tracemalloc.start()
        try:
            s = run_batch(SimulationConfig(params=p, n_samples=2**21, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(_dense(s, p.N)) == 2**21
        assert peak < 4 * 2**20


def _bisect_ladder_counts(p, n, seed):
    """The ladder as it was drawn over the whole array of log-sums: bisect
    for the next height where log S steps up, draw there, stop at N."""
    ls = array("d", log_hitting_sums(p))
    rnd = random.Random(seed).random
    counts = Counter()
    k, rem = 1, n
    while rem:
        k = bisect_right(ls, ls[k - 1], k)
        if k == p.N:
            counts[k] += rem
            break
        stop = _binomial(rnd, rem, -math.expm1(ls[k - 1] - ls[k]))
        if stop:
            counts[k] += stop
            rem -= stop
        k += 1
    return counts


class TestLadderStream:
    @given(N=st.integers(1, 3000),
           rho=st.one_of(st.floats(-323.0, 308.0).map(lambda e: 10.0 ** e),
                         st.sampled_from([1e20, 1e308, 5e-324])),
           n=st.sampled_from([1, 2, 10, 1000, 10**6, 10**12]),
           seed=st.integers(0, 2**64))
    @example(N=1, rho=0.5, n=10, seed=0)
    @example(N=2000, rho=0.5, n=20000, seed=77)
    @settings(max_examples=150, deadline=None)
    def test_draws_what_the_bisect_ladder_draws(self, N, rho, n, seed):
        p = make_params(N, rho=rho)
        counts = Counter()
        simulate._ladder_counts(p, n, seed, counts)
        assert dict(counts) == dict(_bisect_ladder_counts(p, n, seed))

    @pytest.mark.parametrize("N,rho,n", [(1, 0.5, 10), (50, 0.8, 9000), (2000, 0.5, 20000),
                                         (10**5, 0.01, 1000), (100, 1e20, 10)])
    def test_stops_at_the_largest_height_drawn(self, monkeypatch, N, rho, n):
        pulled = []

        def counting(p):
            for v in log_hitting_sums(p):
                pulled.append(v)
                yield v

        monkeypatch.setattr(simulate.oracle, "log_hitting_sums", counting)
        s = run_batch(SimulationConfig(params=make_params(N, rho=rho), n_samples=n, seed=1))
        assert len(pulled) <= s.counts[-1][0] + 1

    def test_memory_does_not_scale_with_N(self):
        # The sweep held whole would be two arrays of N + 1 doubles, 16 MB here.
        p = make_params(10**6, rho=0.01)
        tracemalloc.start()
        try:
            s = run_batch(SimulationConfig(params=p, n_samples=1000, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(_dense(s, p.N)) == 1000
        assert peak < 2**20


def _binomial_cdf(n, p, upto):
    """P(X <= k) for k = 0..upto, X ~ Bin(n, p) with 0 < p < 1, from math.comb."""
    pmf = (math.exp(math.log(math.comb(n, k)) + k * math.log(p) + (n - k) * math.log1p(-p))
           for k in range(upto + 1))
    return list(itertools.accumulate(pmf))


class TestBinomial:
    """``_binomial`` against the exact Bin(n, p) law."""

    @pytest.mark.parametrize("n,p", [
        (0, 0.3), (1, 0.3), (1, 0.9), (7, 0.3), (7, 0.9),
        (1000, 0.005), (1000, 0.3), (1000, 0.9),  # n p = 5 and 300, and p > 1/2
        (10**6, 5e-6), (10**6, 2e-5), (10**6, 1 - 2e-5),  # n p = 5 and 20, and p > 1/2
        # 1 - p rounds to 1, so CPython's geometric step, which divides by
        # log2(1 - p) = 0, returns 0 every time; the ECDF would be 1 at 0
        # against P(X = 0) = e**-4
        (2**62, 2**-60),
    ])
    def test_draws_follow_the_exact_law(self, n, p):
        m = 20000
        rnd = random.Random(n ^ m).random
        draws = [_binomial(rnd, n, p) for _ in range(m)]
        assert all(0 <= x <= n for x in draws)
        if p > 0.5:  # n - X ~ Bin(n, 1 - p)
            draws, p = [n - x for x in draws], 1.0 - p
        counts = Counter(draws)
        # both CDFs are 0 below 0, and past the largest draw the ECDF is 1
        top = max(draws)
        ecdf = itertools.accumulate(counts[k] / m for k in range(top + 1))
        sup = max(abs(e - f) for e, f in zip(ecdf, _binomial_cdf(n, p, top)))
        assert sup <= dkw_epsilon(m, 0.001)

    @pytest.mark.parametrize("n,p,total,after", [
        (20, 0.5, 100100, 0.9005693874465123),  # n p = 10
        (1000, 0.3, 3001261, 0.11256751381533525),
        (1000, 0.9, 8999028, 0.35236775303291834),
        (10**6, 2e-5, 200706, 0.4575185654738795),
        (10**9, 0.25, 2500001486687, 0.7338572392412357),
    ])
    def test_btrs_replays_cpython(self, n, p, total, after):
        # For n min(p, 1 - p) >= 10 the draws are CPython's BTRS uniform for
        # uniform: ``total`` is the sum of 10**4 draws of
        # Random(5).binomialvariate(n, p) on CPython 3.12, and ``after`` the
        # uniform that follows them, so a changed constant or test that
        # moves one acceptance moves one of them.
        rnd = random.Random(5).random
        draws = [_binomial(rnd, n, p) for _ in range(10**4)]
        assert (sum(draws), rnd()) == (total, after)
        if hasattr(random.Random, "binomialvariate"):  # CPython 3.12 on
            r = random.Random(5)
            assert draws == [r.binomialvariate(n, p) for _ in range(10**4)]

    @pytest.mark.parametrize("n", [0, 1, 7, 10**6])
    def test_certain_outcomes(self, n):
        rnd = random.Random(3).random
        assert _binomial(rnd, n, 0.0) == 0
        assert _binomial(rnd, n, 1.0) == n
        assert rnd() == random.Random(3).random()  # neither drew a uniform


@st.composite
def _batches(draw):
    """A law with N in [1, 1e4] and rho in [1e-300, 1e300], and nonzero
    counts at random heights: anywhere, or within 2 of a height where the
    law carries mass, or close to a multiple of its pmf so that the sup is
    small."""
    N = draw(st.integers(1, 10**4))
    rho = draw(st.floats(1e-300, 1e300))
    law = height_distribution(make_params(N, rho=rho))
    support = (np.flatnonzero(law.pmf) + 1).tolist()
    if draw(st.booleans()):
        scale = draw(st.integers(1, 10**6))
        counts = {k: round(law.pmf[k - 1] * scale) + draw(st.integers(0, 2)) for k in support}
    else:
        near = st.builds(lambda k, d: min(max(k + d, 1), N), st.sampled_from(support),
                         st.integers(-2, 2))
        counts = draw(st.dictionaries(st.one_of(st.integers(1, N), near),
                                      st.integers(1, 10**6), min_size=1, max_size=40))
    pairs = tuple(sorted((k, c) for k, c in counts.items() if c))
    return law, pairs or ((N, 1),)


class TestSupDistance:
    @given(batch=_batches())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_dense_maximum_bit_for_bit(self, batch):
        law, pairs = batch
        n = sum(c for _, c in pairs)
        dense_counts = np.zeros(law.N, dtype=np.int64)
        for k, c in pairs:
            dense_counts[k - 1] = c
        shifted = np.append(law.survival_values()[1:], 0.0)  # P(H >= k + 1)
        dense = float(np.max(np.abs(np.cumsum(dense_counts) / n - (1.0 - shifted))))
        # the maximum over the runs of the two CDF columns, as run_batch takes it
        columns = simulate.batch_columns(law, pairs, n)
        assert max(abs(a - b) for a, b in zip(columns["empirical_cdf"][0],
                                              columns["exact_cdf"][0])) == dense


class TestBatchColumns:
    @given(batch=_batches())
    @example(batch=(height_distribution(make_params(1, rho=0.5)), ((1, 3),)))
    @example(batch=(height_distribution(make_params(2, rho=2.0)), ((2, 5),)))
    @settings(max_examples=100, deadline=None)
    def test_columns_spread_to_the_dense_columns_bit_for_bit(self, batch):
        law, pairs = batch
        n = sum(c for _, c in pairs)
        dense = np.zeros(law.N, dtype=np.int64)
        for k, c in pairs:
            dense[k - 1] = c
        columns = simulate.batch_columns(law, pairs, n)
        assert list(columns) == ["count", "empirical_pmf", "exact_pmf", "empirical_cdf",
                                 "exact_cdf", "exact_survival"]
        spread = {}
        for name, (values, lengths) in columns.items():
            assert sum(lengths) == law.N, name
            spread[name] = np.repeat(values, lengths)
        assert spread["count"].tolist() == dense.tolist()
        assert spread["empirical_pmf"].tobytes() == (dense / n).tobytes()
        assert spread["exact_pmf"].tobytes() == law.pmf.tobytes()
        assert spread["empirical_cdf"].tobytes() == (np.cumsum(dense) / n).tobytes()
        exact_cdf = 1.0 - np.append(law.survival_values()[1:], 0.0)
        assert spread["exact_cdf"].tobytes() == exact_cdf.tobytes()
        assert spread["exact_survival"].tobytes() == law.survival_values().tobytes()
        # one lengths list with no zero in it, so the columns zip run by run
        shared = columns["count"][1]
        assert 0 not in shared
        assert all(lengths == shared for _, lengths in columns.values())


class TestWalkBatches:
    def test_direct_walk_matches_exact_law(self):
        cfg = SimulationConfig(params=make_params(10, rho=0.3),
                               n_samples=2 * 10**4, seed=9, mode=JUMP_CHAIN)
        s = run_batch(cfg)
        assert s.dkw_pass

    def test_walk_and_ladder_are_indistinguishable(self):
        p = make_params(10, rho=0.3)
        n = 2 * 10**4
        s1 = run_batch(SimulationConfig(params=p, n_samples=n, seed=31, mode=JUMP_CHAIN))
        s2 = run_batch(SimulationConfig(params=p, n_samples=n, seed=32, mode=LADDER))
        e1 = np.cumsum(_dense(s1, p.N)) / n
        e2 = np.cumsum(_dense(s2, p.N)) / n
        two_sample = np.abs(e1 - e2).max()
        assert two_sample <= dkw_epsilon(n, 0.01) + dkw_epsilon(n, 0.01)

    def test_ctmc_heights_match_and_duration_recorded(self):
        cfg = SimulationConfig(params=make_params(10, rho=0.3),
                               n_samples=10**4, seed=13, mode=FULL_CTMC)
        s = run_batch(cfg)
        assert s.dkw_pass
        assert s.mean_busy_duration is not None and s.mean_busy_duration > 0

    def test_single_node_duration_is_unit_exponential(self):
        # From state 1 with rho = 1 the only hold has rate 1.
        n = 2 * 10**4
        cfg = SimulationConfig(params=make_params(1, rho=1.0),
                               n_samples=n, seed=17, mode=FULL_CTMC)
        s = run_batch(cfg)
        assert set(np.nonzero(_dense(s, cfg.params.N))[0]) == {0}
        assert abs(s.mean_busy_duration - 1.0) <= 3.0 / math.sqrt(n)

    def test_duration_is_reported_in_service_time_units(self):
        # With N = 1 the busy period is one Exp(mu) hold, i.e. exactly one
        # mean service time regardless of rho.
        n = 2 * 10**4
        cfg = SimulationConfig(params=make_params(1, rho=0.25),
                               n_samples=n, seed=19, mode=FULL_CTMC)
        s = run_batch(cfg)
        assert abs(s.mean_busy_duration - 1.0) <= 3.0 / math.sqrt(n)

    def test_duration_memory_does_not_scale_with_samples(self):
        # At N = 1 each excursion is one hold.  Keeping every duration for
        # one sum would hold 8 B per sample, 4 MiB here, and twice that
        # while they were joined.
        n = 2**19
        tracemalloc.start()
        try:
            s = run_batch(SimulationConfig(params=make_params(1, rho=0.5), n_samples=n,
                                           seed=1, mode=FULL_CTMC))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(_dense(s, 1)) == n
        assert abs(s.mean_busy_duration - 1.0) <= 5.0 / math.sqrt(n)
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("mode", [JUMP_CHAIN, FULL_CTMC])
    def test_walk_tables_hold_only_the_states_reached(self, mode):
        # No state exceeds the round count, so the tables grow to the longest
        # excursion, not to N + 1 states: 8 TB at N = 1e12.  The 2 GiB
        # address-space limit is set in the child only.  The child reports its
        # peak RSS (VmHWM, Linux); a forked child's ru_maxrss would count the
        # test process's pages from before the exec.
        resource = pytest.importorskip("resource")
        code = f"""if True:
            import os
            from bdheight import SimulationConfig, make_params, run_batch
            for N, rho, n in ((10**12, 1e-12, 100), (10**7, 1e-7, 4096)):
                s = run_batch(SimulationConfig(params=make_params(N, rho=rho), n_samples=n,
                                               seed=1, mode={mode!r}))
                print(sum(c for _, c in s.counts))
            if os.path.exists("/proc/self/status"):
                with open("/proc/self/status") as status:
                    print(*(line.split()[1] for line in status if line.startswith("VmHWM:")))
        """
        src = os.path.dirname(os.path.dirname(simulate.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        counts, peak_kib = proc.stdout.split()[:2], proc.stdout.split()[2:]
        assert counts == ["100", "4096"]
        assert all(int(kib) < 50 * 1024 for kib in peak_kib)  # under 50 MB

    def test_infeasible_batch_is_refused(self):
        cfg = SimulationConfig(params=make_params(50, rho=0.8),
                               n_samples=100, seed=1, mode=JUMP_CHAIN)
        with pytest.raises(CapacityError):
            run_batch(cfg)

    def test_walk_steps_are_the_estimate_within_the_budget(self):
        # the mean excursion's steps for each sample
        p = make_params(20, rho=0.5)
        mean = simulate.estimate_mean_excursion_steps(p)
        for mode in (JUMP_CHAIN, FULL_CTMC):
            for n in (1, 10, 4096, 4097, 20000):
                cfg = SimulationConfig(params=p, n_samples=n, seed=1, mode=mode)
                assert _walk_steps(cfg) == mean * n
        # one excursion at rho = 1 is within the budget at N = 29 (~5.4e8
        # steps) and refused at N = 30 (~1.1e9)
        one = SimulationConfig(params=make_params(29, rho=1.0), n_samples=1, seed=1,
                               mode=JUMP_CHAIN)
        assert _walk_steps(one) < simulate.MAX_TOTAL_STEPS
        with pytest.raises(CapacityError, match=r"costs ~1\.07e\+09 jump steps \(budget 1e\+09\)"):
            _walk_steps(SimulationConfig(params=make_params(30, rho=1.0), n_samples=1, seed=1,
                                         mode=JUMP_CHAIN))
        # the ladder does not walk, at any N
        big = make_params(10**6, rho=0.5)
        assert _walk_steps(SimulationConfig(params=big, n_samples=10**6, seed=1)) == 0.0
        with pytest.raises(CapacityError):
            _walk_steps(SimulationConfig(params=big, n_samples=1, seed=1, mode=JUMP_CHAIN))


class TestReproducibility:
    def test_identical_config_identical_bytes(self):
        cfg = SimulationConfig(params=make_params(50, rho=0.8),
                               n_samples=20000, seed=99)
        # repr keeps every float's bits
        a = repr(run_batch(cfg))
        b = repr(run_batch(cfg))
        assert a == b

    @pytest.mark.parametrize("mode", [JUMP_CHAIN, FULL_CTMC])
    def test_a_batch_is_the_first_excursions_of_a_larger_one(self, mode):
        # One random() stream per batch, and the excursions in sample order,
        # so a batch of m samples is the first m excursions of a batch of
        # n > m at the same seed, at every m: the counts agree, and so does
        # the fsum of the first m durations.  _walk adds each height to the
        # counts as its excursion ends, and then yields its full-ctmc duration.
        p = make_params(10, rho=0.3)
        seed, n = 5, 1000
        heights = []

        class InOrder(Counter):
            def __setitem__(self, k, v):
                heights.append(k)
                super().__setitem__(k, v)

        counts = InOrder()
        durations = []
        for duration in simulate._walk(SimulationConfig(params=p, n_samples=n, seed=seed,
                                                        mode=mode), counts):
            durations.append(duration)
            assert len(heights) == len(durations)
        assert len(heights) == n and len(durations) == (n if mode == FULL_CTMC else 0)
        for m in (1, 2, 17, 999):
            s = run_batch(SimulationConfig(params=p, n_samples=m, seed=seed, mode=mode))
            assert s.counts == tuple(sorted(Counter(heights[:m]).items()))
            if mode == FULL_CTMC:
                assert s.mean_busy_duration == math.fsum(durations[:m]) / m

    @pytest.mark.parametrize("mode,N,rho,seed,counts,duration", [
        (JUMP_CHAIN, 12, 0.5, 3,
         {1: 1398, 2: 466, 3: 274, 4: 264, 5: 333, 6: 563, 7: 1190, 8: 1989, 9: 1841,
          10: 607, 11: 71, 12: 4}, None),
        (FULL_CTMC, 12, 0.5, 3,
         {1: 1332, 2: 426, 3: 285, 4: 250, 5: 336, 6: 576, 7: 1160, 8: 2064, 9: 1878,
          10: 618, 11: 72, 12: 3}, 21.72848730793726),
        (JUMP_CHAIN, 1024, 0.001, 5,
         {1: 4568, 2: 2188, 3: 1329, 4: 623, 5: 223, 6: 55, 7: 10, 8: 3, 9: 1}, None),
    ], ids=["jump-chain-12", "full-ctmc-12", "jump-chain-1024"])
    def test_walk_streams_are_pinned(self, mode, N, rho, seed, counts, duration):
        # Walk-mode batches at N <= 1024, as drawn by 0.3.9 from random.Random(seed).
        s = run_batch(SimulationConfig(params=make_params(N, rho=rho), n_samples=9000,
                                       seed=seed, mode=mode))
        assert {k: c for k, c in enumerate(_dense(s, N), start=1) if c} == counts
        assert s.mean_busy_duration == duration

    @pytest.mark.parametrize("N,rho,n,seed,counts", [
        (50, 0.8, 64, 13, {1: 2, 44: 2, 45: 11, 46: 21, 47: 27, 48: 1}),
        (50, 0.8, 9000, 13,
         {1: 213, 2: 8, 3: 2, 42: 2, 43: 12, 44: 98, 45: 786, 46: 4490, 47: 3131, 48: 252,
          49: 6}),
        (2000, 0.5, 20000, 77,
         {1: 24, 1537: 1, 1538: 1, 1539: 5, 1540: 71, 1541: 399, 1542: 2373, 1543: 7558,
          1544: 7155, 1545: 1979, 1546: 376, 1547: 50, 1548: 7, 1549: 1}),
    ], ids=["64-at-50", "9000-at-50", "20000-at-2000"])
    def test_ladder_counts_are_pinned(self, N, rho, n, seed, counts):
        # Ladder batches as drawn by 0.3.3; each chain draws 2 to 11 of its
        # binomials by BTRS and the rest by the geometric method.
        s = run_batch(SimulationConfig(params=make_params(N, rho=rho), n_samples=n,
                                       seed=seed))
        assert dict(s.counts) == counts

    def test_different_seed_different_counts(self):
        p = make_params(40, rho=0.9)
        a = run_batch(SimulationConfig(params=p, n_samples=5000, seed=1))
        b = run_batch(SimulationConfig(params=p, n_samples=5000, seed=2))
        assert _dense(a, p.N) != _dense(b, p.N)
