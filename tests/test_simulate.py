"""Samplers: law agreement, reproducibility, feasibility guards."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

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
from bdheight.simulate import _CHUNK_SAMPLES, _exact_counts_moments


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
            SimulationConfig(params=p, n_samples=10, seed=1, worker_count=0)

    def test_dkw_epsilon_formula(self):
        assert dkw_epsilon(10**5, 0.01) == pytest.approx(
            math.sqrt(math.log(200.0) / (2 * 10**5)), rel=1e-15)


class TestExcursionLengthEstimate:
    def test_single_node(self):
        # Return time to 0 is exactly 2 jumps, so one excursion is 1 step.
        assert estimate_mean_excursion_steps(make_params(1, nu=1.0, mu=1.0)) == pytest.approx(1.0)

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
        assert s.counts == (50,)

    def test_same_seed_same_stream(self):
        p = make_params(8, rho=0.4)
        for mode in (JUMP_CHAIN, FULL_CTMC):
            cfg = SimulationConfig(params=p, n_samples=5, seed=42, mode=mode)
            assert run_batch(cfg) == run_batch(cfg)

    def test_circuit_breaker(self):
        # rho = 5 gives a strong upward drift; 3 steps finish only the
        # excursions 1 -> 0 (height 1) and 1 -> 2 -> 1 -> 0 (height 2).
        n = 1000
        cfg = SimulationConfig(params=make_params(30, rho=5.0), n_samples=n, seed=3,
                               mode=JUMP_CHAIN, max_excursion_steps=3,
                               max_total_steps=math.inf)
        with pytest.raises(SimulationAbort) as exc:
            run_batch(cfg)
        assert exc.value.steps_taken == 4
        done = exc.value.completed_heights
        assert 0 < done.size < n
        assert set(done.tolist()) <= {1, 2}

    def test_heights_in_range(self):
        s = run_batch(SimulationConfig(params=make_params(6, rho=0.5),
                                       n_samples=200, seed=11, mode=JUMP_CHAIN))
        assert len(s.counts) == 6 and sum(s.counts) == 200
        assert sum(c > 0 for c in s.counts) > 1


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
        assert abs(s.counts[1] / n - 0.5) <= 3 * sigma

    def test_exact_moment_bookkeeping(self):
        cfg = SimulationConfig(params=make_params(15, rho=0.6), n_samples=4096, seed=5)
        s = run_batch(cfg)
        ks = np.arange(1, 16)
        counts = np.asarray(s.counts)
        assert counts.sum() == 4096
        mean = float(np.dot(ks, counts)) / 4096
        assert s.empirical_mean == pytest.approx(mean, rel=1e-15)
        var = float(np.dot((ks - mean) ** 2, counts)) / 4096
        assert s.empirical_variance == pytest.approx(var, rel=1e-12)

    def test_moments_are_exact_with_zero_counts(self):
        # heights 2 (x3), 5 (x2) and 9 (x1); the zero counts contribute nothing
        counts = np.array([0, 3, 0, 0, 2, 0, 0, 0, 1, 0])
        heights = [2, 2, 2, 5, 5, 9]
        mean = Fraction(sum(heights), 6)
        var = sum((h - mean) ** 2 for h in heights) / 6
        assert _exact_counts_moments(counts, 6) == (float(mean), float(var))

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
        freq = np.asarray(s.counts)[outside].sum() / n
        assert freq <= 0.01


class TestInversionSampler:
    def test_chunks_invert_their_own_streams(self):
        # Chunk c draws its exponentials from Philox(SeedSequence((seed, c)));
        # a height is the number of log-sums at or below its variate.
        p = make_params(50, rho=0.8)
        seed, n = 13, 2 * _CHUNK_SAMPLES + 100
        log_sums = log_hitting_sums(p)
        heights = []
        for c, lo in enumerate(range(0, n, _CHUNK_SAMPLES)):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, c))))
            e = rng.standard_exponential(min(_CHUNK_SAMPLES, n - lo))
            heights.append(np.searchsorted(log_sums, e, side="right"))
        want = np.bincount(np.concatenate(heights), minlength=p.N + 1)[1:]
        s = run_batch(SimulationConfig(params=p, n_samples=n, seed=seed))
        assert s.counts == tuple(want.tolist())

    def test_memory_does_not_scale_with_chunk_times_n(self):
        # A (samples, N) float matrix here would be 256 x 2e5 x 8 B ~ 0.4 GB.
        p = make_params(200_000, rho=0.5)
        tracemalloc.start()
        try:
            s = run_batch(SimulationConfig(params=p, n_samples=256, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(s.counts) == 256
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
        assert sum(s.counts) == 2**21
        assert peak < 4 * 2**20


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
        e1 = np.cumsum(s1.counts) / n
        e2 = np.cumsum(s2.counts) / n
        two_sample = np.abs(e1 - e2).max()
        assert two_sample <= dkw_epsilon(n, 0.01) + dkw_epsilon(n, 0.01)

    def test_ctmc_heights_match_and_duration_recorded(self):
        cfg = SimulationConfig(params=make_params(10, rho=0.3),
                               n_samples=10**4, seed=13, mode=FULL_CTMC)
        s = run_batch(cfg)
        assert s.dkw_pass
        assert s.mean_busy_duration is not None and s.mean_busy_duration > 0

    def test_single_node_duration_is_unit_exponential(self):
        # From state 1 with nu = mu = 1 the only hold has rate 1.
        n = 2 * 10**4
        cfg = SimulationConfig(params=make_params(1, nu=1.0, mu=1.0),
                               n_samples=n, seed=17, mode=FULL_CTMC)
        s = run_batch(cfg)
        assert set(np.nonzero(s.counts)[0]) == {0}
        assert abs(s.mean_busy_duration - 1.0) <= 3.0 / math.sqrt(n)

    def test_duration_is_reported_in_service_time_units(self):
        # With N = 1 the busy period is one Exp(mu) hold, i.e. exactly one
        # mean service time regardless of mu.
        n = 2 * 10**4
        cfg = SimulationConfig(params=make_params(1, nu=1.0, mu=4.0),
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
        assert sum(s.counts) == n
        assert abs(s.mean_busy_duration - 1.0) <= 5.0 / math.sqrt(n)
        assert peak < 2 * 2**20

    def test_infeasible_batch_is_refused(self):
        cfg = SimulationConfig(params=make_params(50, rho=0.8),
                               n_samples=100, seed=1, mode=JUMP_CHAIN)
        with pytest.raises(CapacityError):
            run_batch(cfg)


class TestReproducibility:
    def test_identical_config_identical_bytes(self):
        cfg = SimulationConfig(params=make_params(50, rho=0.8),
                               n_samples=20000, seed=99)
        a = run_batch(cfg).to_json_bytes()
        b = run_batch(cfg).to_json_bytes()
        assert a == b

    @pytest.mark.parametrize("mode", [LADDER, JUMP_CHAIN, FULL_CTMC])
    def test_worker_count_never_changes_results(self, mode):
        p = make_params(10, rho=0.3) if mode != LADDER else make_params(200, rho=0.8)
        n = 9000  # spans several chunks
        one = run_batch(SimulationConfig(params=p, n_samples=n, seed=5, mode=mode,
                                         worker_count=1))
        eight = run_batch(SimulationConfig(params=p, n_samples=n, seed=5, mode=mode,
                                           worker_count=8))
        assert one.to_json_bytes() == eight.to_json_bytes()

    @pytest.mark.parametrize("mode,N,rho,seed,counts,duration", [
        (JUMP_CHAIN, 12, 0.5, 3,
         {1: 1370, 2: 477, 3: 271, 4: 220, 5: 321, 6: 538, 7: 1159, 8: 1976, 9: 1936,
          10: 634, 11: 91, 12: 7}, None),
        (FULL_CTMC, 12, 0.5, 3,
         {1: 1395, 2: 411, 3: 271, 4: 257, 5: 350, 6: 554, 7: 1120, 8: 2035, 9: 1888,
          10: 627, 11: 88, 12: 4}, 21.70492462038683),
        (JUMP_CHAIN, 1024, 0.001, 5,
         {1: 4417, 2: 2212, 3: 1435, 4: 678, 5: 198, 6: 49, 7: 8, 8: 3}, None),
    ], ids=["jump-chain-12", "full-ctmc-12", "jump-chain-1024"])
    def test_walk_streams_are_pinned(self, mode, N, rho, seed, counts, duration):
        # Walk-mode batches of three chunks at N <= 1024, as drawn by 0.2.1.
        s = run_batch(SimulationConfig(params=make_params(N, rho=rho), n_samples=9000,
                                       seed=seed, mode=mode))
        assert {k: c for k, c in enumerate(s.counts, start=1) if c} == counts
        assert s.mean_busy_duration == duration

    def test_different_seed_different_counts(self):
        p = make_params(40, rho=0.9)
        a = run_batch(SimulationConfig(params=p, n_samples=5000, seed=1))
        b = run_batch(SimulationConfig(params=p, n_samples=5000, seed=2))
        assert a.counts != b.counts
