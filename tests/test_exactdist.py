"""Closed-form height law: float path, rational twin, and their agreement."""

import decimal
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from bdheight import (
    CapacityError,
    ParameterError,
    bound_constants,
    exact_rational_distribution,
    height_dist_oracle,
    height_distribution,
    log_hitting_sums,
    log_r_term,
    make_params,
    solve_alpha,
)
from bdheight.asymptotics import window_mass
from bdheight.exactdist import r_term_turning_point


class TestLogRTerm:
    def test_zeroth_term_is_exactly_zero(self):
        for n, rho in [(2, 0.3), (50, 1.0), (1000, 2.5)]:
            assert log_r_term(n, rho, 0) == 0.0

    def test_small_rational_anchors(self):
        # t = 1/C(2,1) = 1/2 and t = 1/(1 * C(2,2)) = 1
        assert log_r_term(3, 1.0, 1) == pytest.approx(math.log(0.5), rel=1e-14)
        assert log_r_term(3, 1.0, 2) == pytest.approx(0.0, abs=1e-14)

    def test_out_of_range_index_rejected(self):
        # and a float or bool n or index, and n below 1
        for args in [(5, 1.0, 5), (5, 1.0, -1), (10.5, 0.5, 2), (True, 0.5, 0), (5, 0.5, True),
                     (5, 0.5, 2.0), (0, 0.5, 0)]:
            with pytest.raises(ParameterError):
                log_r_term(*args)

    @pytest.mark.parametrize("rho", [Fraction(1, 4), Fraction(1, 2), Fraction(2)])
    def test_matches_rational_evaluation_up_to_n60(self, rho):
        for n in (2, 17, 60):
            for i in range(n):
                exact = Fraction(rho.denominator**i,
                                 rho.numerator**i * math.comb(n - 1, i))
                got = log_r_term(n, float(rho), i)
                want = math.log(exact)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestSurvival:
    def test_level_one_is_certain(self):
        for N, rho in [(1, 0.5), (10, 2.0), (500, 0.1)]:
            assert height_distribution(make_params(N, rho=rho)).survival_values()[0] == 1.0

    @pytest.mark.parametrize("N,rho", [(5, 0.3), (40, 1.0), (200, 2.0)])
    def test_level_two_closed_form(self, N, rho):
        # S_2 = 1 + 1/(rho (N-1)), so P(H >= 2) = rho (N-1) / (1 + rho (N-1)).
        want = rho * (N - 1) / (1.0 + rho * (N - 1))
        surv = height_distribution(make_params(N, rho=rho)).survival_values()
        assert surv[1] == pytest.approx(want, rel=1e-13)

    def test_three_node_symmetric_top(self):
        surv = height_distribution(make_params(3, rho=1.0)).survival_values()
        assert surv[2] == pytest.approx(0.4, rel=1e-13)


class TestHeightDistribution:
    def test_single_node(self):
        d = height_distribution(make_params(1, rho=0.7))
        assert d.column_runs() == ((1.0,), (1.0,), (1,))
        assert d.pmf.tolist() == [1.0]
        assert d.mean == 1.0
        assert d.variance == 0.0

    def test_three_node_symmetric(self):
        d = height_distribution(make_params(3, rho=1.0))
        want = [Fraction(1, 3), Fraction(4, 15), Fraction(2, 5)]
        for k in range(3):
            assert d.pmf[k] == pytest.approx(float(want[k]), rel=1e-12)
        assert d.mean == pytest.approx(31 / 15, rel=1e-12)

    def test_survival_entry_indexing(self):
        surv = height_distribution(make_params(37, rho=0.8)).survival_values()
        for k in (1, 2, 17, 37):  # vectors are indexed by height - 1
            # P(H >= k) = 1 / S_k, with S_k summed over the first k ladder terms
            want = math.exp(-np.logaddexp.reduce([log_r_term(37, 0.8, j) for j in range(k)]))
            assert surv[k - 1] == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("N,rho", [(10, 0.25), (100, 1.0), (2000, 0.5), (500, 3.0)])
    def test_structural_invariants(self, N, rho):
        d = height_distribution(make_params(N, rho=rho))
        survival, pmf, _ = d.column_runs()
        assert survival[0] == 1.0
        assert all(b <= a for a, b in zip(survival, survival[1:]))
        assert all(m >= 0.0 for m in pmf)
        assert abs(d.pmf.sum() - 1.0) <= 1e-10
        surv = d.survival_values()
        mean_from_survival = math.fsum(surv)
        assert abs(d.mean - mean_from_survival) <= 1e-10 * mean_from_survival
        strict = d.pmf > 1e-15
        assert (surv[:-1][strict[:-1]] > surv[1:][strict[:-1]]).all()

    def test_matches_first_passage_solver(self):
        p = make_params(50, rho=0.8)
        d = height_distribution(p)
        fp = height_dist_oracle(p)
        assert np.abs(d.survival_values() - fp).max() <= 1e-10
        fp_pmf = fp - np.append(fp[1:], 0.0)
        assert np.abs(d.pmf - fp_pmf).max() <= 1e-10

    @pytest.mark.parametrize("rho", [1e300, 1e306, 1e308])
    @pytest.mark.parametrize("N", [2, 10, 1000])
    def test_matches_first_passage_solver_where_rho_n_overflows(self, N, rho):
        # rho (N - 1) overflows at most of these: the turning point of the
        # terms is inf, and (N - i) rho / (i + (N - i) rho) is inf / inf.
        p = make_params(N, rho=rho)
        with np.errstate(over="raise", invalid="raise"):
            d = height_distribution(p)
            fp = height_dist_oracle(p)
        assert np.abs(d.survival_values() - fp).max() <= 1e-10
        assert np.isfinite(d.pmf).all() and math.isfinite(d.variance)

    def test_moments_recompute(self):
        d = height_distribution(make_params(123, rho=0.6))
        # first moment over the masses; the stored mean is the survival sum
        k = np.arange(1, 124, dtype=float)
        mean = math.fsum(k * d.pmf)
        var = math.fsum((k - mean) ** 2 * d.pmf)
        assert mean == pytest.approx(d.mean, rel=1e-14)
        assert var == pytest.approx(d.variance, rel=1e-12)

    def test_mean_near_capacity_for_supercritical(self):
        d = height_distribution(make_params(10**4, rho=2.0))
        assert 10**4 - 4 <= d.mean <= 10**4

    @given(N=st.integers(1, 80), rho=st.floats(0.05, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_is_a_distribution(self, N, rho):
        d = height_distribution(make_params(N, rho=rho))
        surv = d.survival_values()
        assert surv[0] == 1.0
        assert ((surv >= 0) & (surv <= 1)).all()
        assert abs(d.pmf.sum() - 1.0) <= 1e-10
        assert 1.0 - 1e-12 <= d.mean <= N + 1e-12


def _dense_law(N, rho):
    """The law over all N terms, evaluated as version 0.2.0 did: one running
    log-sum-exp, masses from adjacent log-survival steps.  exp and expm1
    are the C library's, per element: numpy's SIMD kernels for them differ
    in the last bit and depend on the CPU."""
    i = np.arange(N, dtype=float)
    lgamma = np.array([math.lgamma(j) for j in range(1, N + 1)])  # lgamma[j] = lgamma(j + 1)
    log_t = -i * math.log(rho) - (math.lgamma(N) - lgamma - lgamma[::-1])
    ls = -np.logaddexp.accumulate(log_t)
    surv = np.array([math.exp(v) for v in ls.tolist()])
    steps = np.diff(ls, append=-np.inf).tolist()
    pmf = surv * -np.array([math.expm1(v) for v in steps])
    mean = math.fsum(surv)
    k = np.arange(1, N + 1, dtype=float)
    return surv, pmf, mean, float(np.sum((k - mean) ** 2 * pmf))


def _bits(x):
    # compare doubles through their bit patterns, sign of zero included
    return np.asarray(x, dtype=float).view(np.uint64)


class TestWindowedForm:
    @pytest.mark.parametrize("rho", [1e-300, 1e-20, 1e-3, 0.5, 0.99, 1.0, 2.0, 1e20, 1e300])
    @pytest.mark.parametrize("N", [1, 2, 3, 10, 999, 10**4, 10**6])
    def test_matches_dense_law_bit_for_bit(self, N, rho):
        surv, pmf, mean, var = _dense_law(N, rho)
        d = height_distribution(make_params(N, rho=rho))
        assert np.array_equal(_bits(d.survival_values()), _bits(surv))
        assert np.array_equal(_bits(d.pmf), _bits(pmf))
        # the runs are the dense columns too, in a size that does not grow with N
        run_surv, run_pmf, lengths = d.column_runs()
        assert np.array_equal(_bits(np.repeat(run_surv, lengths)), _bits(surv))
        assert np.array_equal(_bits(np.repeat(run_pmf, lengths)), _bits(pmf))
        assert len(lengths) <= 2500
        assert d.mean == mean
        assert abs(d.variance - var) <= 1e-13 * var

    # head, plateau, window and tail: (1e4, 0.5) has all four, (1e4, 1e-20)
    # a law rising from i = 0, and (1000, 0.999) a window clipped to [1, N]
    @pytest.mark.parametrize("N,rho", [(1, 0.5), (2, 0.5), (10**4, 0.5), (10**4, 1e-20),
                                       (1000, 0.999)])
    def test_window_mass_matches_dense_bit_for_bit(self, N, rho):
        surv = _dense_law(N, rho)[0]
        mass, lo, hi = window_mass(height_distribution(make_params(N, rho=rho)),
                                   bound_constants(solve_alpha(rho)))
        assert 1 <= lo and hi <= N  # hi = lo - 1 at N = 1: an empty window
        want = surv[lo - 1] - (surv[hi] if hi < N else 0.0)
        assert _bits(mass) == _bits(want)

    @pytest.mark.parametrize("work", [
        lambda: (lambda d: (d.mean, d.variance))(height_distribution(make_params(10**7, rho=0.5))),
        lambda: window_mass(height_distribution(make_params(10**7, rho=0.5)),
                            bound_constants(solve_alpha(0.5))),
    ], ids=["law_moments", "window_mass"])
    def test_large_n_builds_no_dense_array(self, work):
        # one float64 array over N = 1e7 heights alone is 80 MB
        tracemalloc.start()
        try:
            work()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


# N up to 1e4 and rho log-uniform over the doubles' range, with its ends,
# the double just below 1 and 1 itself
_LAWS = st.tuples(
    st.integers(1, 10**4),
    st.one_of(st.floats(-300.0, 300.0, exclude_max=True).map(lambda e: 10.0 ** e),
              st.sampled_from([1e-300, 0.9999999999999999, 1.0, 1e300])))


class TestLawProperties:
    @given(law=_LAWS)
    @settings(max_examples=150, deadline=None)
    def test_survival_runs_descend_from_one_and_masses_are_nonnegative(self, law):
        surv, pmf, lengths = height_distribution(make_params(law[0], rho=law[1])).column_runs()
        held = [s for s, n in zip(surv, lengths) if n > 0]
        assert held[0] == 1.0
        assert all(b <= a for a, b in zip(held, held[1:]))
        assert all(m >= 0.0 for m in pmf)

    @given(law=_LAWS)
    @example(law=(1000, 0.5))
    @example(law=(10**6, 0.5))
    @example(law=(10**6, 2.0))
    @settings(max_examples=150, deadline=None)
    def test_runs_are_canonical(self, law):
        # every run holds a height, the runs hold all N, and no two adjacent
        # runs are equal on the bits of (survival, pmf)
        surv, pmf, lengths = height_distribution(make_params(law[0], rho=law[1])).column_runs()
        assert len(surv) == len(pmf) == len(lengths)
        assert min(lengths) >= 1 and sum(lengths) == law[0]
        keys = [*zip(_bits(surv).tolist(), _bits(pmf).tolist())]
        assert all(a != b for a, b in zip(keys, keys[1:]))

    @given(law=_LAWS)
    @settings(max_examples=150, deadline=None)
    def test_mass_sums_to_one(self, law):
        _, pmf, lengths = height_distribution(make_params(law[0], rho=law[1])).column_runs()
        assert abs(1.0 - math.fsum(m * n for m, n in zip(pmf, lengths))) <= 1e-14

    @given(law=_LAWS)
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_first_passage_sums(self, law):
        # verify's tolerance for the oracle gap
        p = make_params(law[0], rho=law[1])
        surv, _, lengths = height_distribution(p).column_runs()
        gap = np.abs(np.repeat(surv, lengths) - np.exp(-np.fromiter(log_hitting_sums(p), float)))
        assert gap.max() <= 1e-10


def _decimal_reference_mean(N, rho):
    """E[H] = sum_k 1 / S_k in 50-digit ``decimal``, with the terms from the
    ratio recurrence t_{i+1} = t_i (i+1) / (rho (N-1-i)), t_0 = 1, and rho
    the exact value of the double; summed until P(H >= k) < 1e-40."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        r, t, s, mean = decimal.Decimal(rho), 1, decimal.Decimal(1), 0
        for i in range(N):
            p = 1 / s  # P(H >= i + 1)
            mean += p
            if p < decimal.Decimal("1e-40") or i == N - 1:
                return mean
            t = t * (i + 1) / (r * (N - 1 - i))
            s += t


# The law's mean is off by about one ulp of lgamma(N) absolute, so at a small
# rho N, where the mean is O(1), the relative error grows with N: measured
# 6.8e-11, 8.5e-7 and 4.1e-4 at rho N = 5 and N = 1e6, 1e9 and 1e12.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
@pytest.mark.parametrize("rho_n", [5, 44])
@pytest.mark.parametrize("N", [10**6, 10**9, 10**12])
def test_mean_matches_a_decimal_reference(N, rho_n):
    rho = rho_n / N
    ref = _decimal_reference_mean(N, rho)
    mean = height_distribution(make_params(N, rho=rho)).mean
    assert abs(decimal.Decimal(mean) - ref) <= decimal.Decimal(1e-13) * ref


# The law is off from the correctly rounded value in most entries from
# N = 10 up: at N = 200, rho = 1/2, in 174 of 200 survival values and in
# all 200 masses.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
def test_law_is_correctly_rounded():
    """Every survival and pmf double is float() of the exact twin's Fraction,
    the nearest double, bit for bit, over N up to 200 and dyadic rho."""
    off = {}
    for N in (1, 2, 3, 10, 50, 100, 200):
        for j in range(-7, 4):
            r = exact_rational_distribution(N, 2 ** max(j, 0), 2 ** max(-j, 0))
            d = height_distribution(make_params(N, rho=2.0**j))
            want = [float(v) for v in (*r.survival, *r.pmf)]
            if n := int((_bits([*d.survival_values(), *d.pmf]) != _bits(want)).sum()):
                off[N, f"2^{j}"] = n
    assert not off, off


class TestLogRTermAgainstTheExactBinomial:
    """log t_i at rho = 1 is -log C(n-1, i), taken here from the exact integer.

    The error is measured in ulps of lgamma(n), the largest of the three
    log-gammas.  Over every i at every n <= 2000, and i <= 30 or
    i >= n - 31 at 312 values of n up to 2**53, the worst error was 3.5
    ulps with ``math.lgamma`` and 4.1 with the Cephes ``lgam`` it
    replaced.  The tests take a spread of those n."""

    ULPS = 4.0

    def _check(self, n, indices):
        tol = self.ULPS * math.ulp(math.lgamma(n))
        for i in indices:
            assert abs(log_r_term(n, 1.0, i) + math.log(math.comb(n - 1, i))) <= tol, (n, i)

    @pytest.mark.parametrize("n", [*range(1, 101), *range(200, 2001, 100), 1279, 1999])
    def test_every_index_up_to_n_2000(self, n):
        self._check(n, range(n))

    def test_both_ends_up_to_2_to_the_53(self):
        rng = random.Random(20261019)
        ns = [2001, 4096, 10**4, 65537, 10**6, 2**31, 10**9, 10**12, 10**15,
              2**53 - 1, 2**53, *(rng.randrange(2001, 2**53) for _ in range(50))]
        for n in ns:
            self._check(n, [*range(31), *range(n - 31, n)])


class TestLadderTermShape:
    # The term ratio t_{i+1}/t_i = (i+1)/(rho (n-1-i)) dictates strict
    # decrease below the turning point, strict increase above it, and a
    # two-point tie exactly on it.
    @pytest.mark.parametrize("rho", [0.1, 0.25, 0.5, 0.9, 1.0, 2.0])
    @pytest.mark.parametrize("n", [10, 100, 1000, 10**4])
    def test_unimodality_with_turning_point(self, n, rho):
        logt = np.array([log_r_term(n, rho, i) for i in range(n)])
        t_star = r_term_turning_point(n, rho)
        d = np.diff(logt)
        idx = np.arange(n - 1)
        below = idx < t_star - 1e-9
        above = idx > t_star + 1e-9
        on = ~(below | above)
        assert (d[below] < 0).all()
        assert (d[above] > 0).all()
        assert np.abs(d[on]).max(initial=0.0) <= 1e-9

    @pytest.mark.parametrize("rho", [0.25, 0.5, 0.8])
    @pytest.mark.parametrize("N", [100, 1000, 10**4])
    def test_tail_bound_above_the_peak(self, N, rho):
        # P(H >= h_N + k) <= 1 / (k t(h_N)): the terms above the peak all
        # dominate the peak term.
        alpha = solve_alpha(rho).alpha
        h = math.floor(alpha * (N - 1))
        d = height_distribution(make_params(N, rho=rho))
        surv = d.survival_values()
        t_h = math.exp(log_r_term(N, rho, h))
        for k in (1, 2, 5, 10, 25):
            if h + k <= N:
                assert surv[h + k - 1] <= 1.0 / (k * t_h) * (1 + 1e-12)


class TestRationalTwin:
    def test_single_node(self):
        r = exact_rational_distribution(1, 1, 1)
        assert r.survival == (Fraction(1),)
        assert r.mean == 1

    def test_three_node_exact_mean(self):
        r = exact_rational_distribution(3, 1, 1)
        assert r.survival == (Fraction(1), Fraction(2, 3), Fraction(2, 5))
        assert r.mean == Fraction(31, 15)
        assert sum(r.pmf) == 1

    def test_float_path_agreement_spotchecks(self):
        for N, num, den in [(10, 1, 4), (37, 1, 2), (60, 2, 1), (60, 1, 4)]:
            r = exact_rational_distribution(N, num, den)
            d = height_distribution(make_params(N, rho=num / den))
            surv = d.survival_values()
            for k in range(N):
                want = float(r.survival[k])
                assert abs(surv[k] - want) <= 1e-12 * want

    @pytest.mark.parametrize("N, num, den", [(25, 2, 3), (40, 1, 1), (40, 3, 1), (30, 15, 16)])
    def test_moment_identities_are_exact(self, N, num, den):
        # mean == sum k pmf_k, and variance == sum k^2 pmf_k - mean^2 == the
        # centered sum (k - mean)^2 pmf_k, its definition, in Q.
        r = exact_rational_distribution(N, num, den)
        pairs = [*zip(range(1, N + 1), r.pmf)]
        assert sum(k * p for k, p in pairs) == r.mean
        assert sum(k * k * p for k, p in pairs) - r.mean**2 == r.variance
        assert sum((k - r.mean) ** 2 * p for k, p in pairs) == r.variance

    def test_unreduced_rho_gives_the_same_law(self):
        # rho is reduced before the bit guard reads it
        want = exact_rational_distribution(60, 1, 2)
        assert exact_rational_distribution(60, 2, 4) == want
        assert exact_rational_distribution(60, 2**100000, 2**100001) == want

    def test_pathological_rho_is_refused_before_the_sums(self):
        num = 2**20000
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                exact_rational_distribution(500, num, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_cap_is_enforced(self):
        with pytest.raises(CapacityError):
            exact_rational_distribution(501, 1, 2)

    def test_bad_arguments_rejected(self):
        for args in [(0, 1, 1), (3, 0, 1), (3, 1, 0), (3, -1, 2), (3.0, 1, 2), (True, 1, 2),
                     (3, True, 2), (3, 1, 2.0)]:
            with pytest.raises(ParameterError):
                exact_rational_distribution(*args)
