"""Growth constant, derived constants, and the certified inequalities."""

import hashlib
import math

import numpy as np
import pytest

from bdheight import (
    ParameterError,
    bound_constants,
    check_mean_bounds,
    check_mean_near_capacity,
    check_peak_ratio_bounds,
    concentration_window,
    convergence_table,
    height_distribution,
    height_fraction_limit,
    make_params,
    solve_alpha,
    stirling_ratio,
)
from bdheight import asymptotics
from bdheight.asymptotics import (
    concentration_mass_bound,
    integer_part_candidates,
    peak_index,
    window_mass,
)
from bdheight.cli import main

RHO_GRID = [round(0.05 * i, 2) for i in range(1, 20)]  # 0.05 .. 0.95


def _g(x, rho):
    return x * math.log(x) + (1 - x) * math.log1p(-x) - x * math.log(rho)


def _grid_refined_alpha(rho, target_step=1e-9):
    """Independent root locator: decimal grid refinement on the sign change."""
    lo, hi = rho, 1.0
    step = (hi - lo) / 1000.0
    while step > target_step:
        xs = lo + step * np.arange(1002)
        vals = np.array([_g(min(x, 1 - 1e-15), rho) for x in xs])
        idx = int(np.nonzero(np.diff(np.sign(vals)))[0][0])
        lo, hi = xs[idx], xs[idx + 1]
        step /= 10.0
    return 0.5 * (lo + hi)


class TestSolveAlpha:
    def test_quarter_anchor(self):
        # x = 1/2 solves x^x (1-x)^(1-x) = (1/4)^x exactly.
        assert abs(solve_alpha(0.25).alpha - 0.5) <= 1e-12

    def test_against_grid_refinement_oracle(self):
        got = solve_alpha(0.5).alpha
        want = _grid_refined_alpha(0.5)
        assert abs(got - want) <= 1e-8

    @pytest.mark.parametrize("rho", RHO_GRID)
    def test_residual_bracket_and_range(self, rho):
        sol = solve_alpha(rho)
        assert rho < sol.alpha < 1.0
        assert abs(sol.residual) <= 1e-13
        lo, hi = sol.bracket
        assert lo <= sol.alpha <= hi
        # the bisection keeps g(lo) < 0 <= g(hi); at machine-width brackets
        # the upper endpoint may evaluate to exactly zero
        assert _g(lo, rho) < 0.0 <= _g(hi, rho)
        assert sol.iterations > 0

    def test_monotone_in_rho(self):
        alphas = [solve_alpha(r).alpha for r in RHO_GRID]
        assert all(b > a for a, b in zip(alphas, alphas[1:]))

    @pytest.mark.parametrize("rho", [1e-16, 1e-20, 1e-160, 1e-300, 5e-324])
    def test_tiny_rho_bisects_to_adjacent_doubles(self, rho):
        # An absolute lower end rho + 1e-15 had g > 0 for rho <= 1e-16.
        sol = solve_alpha(rho)
        lo, hi = sol.bracket
        assert math.nextafter(lo, 1.0) == hi
        assert _g(lo, rho) < 0.0 <= _g(hi, rho)
        assert rho < sol.alpha < 1.0
        if rho > 1e-307:  # alpha -> e rho as rho -> 0
            assert sol.alpha == pytest.approx(math.e * rho, rel=1e-10)

    def test_early_stopped_bisection_fails_the_residual_check(self, monkeypatch):
        # 200 halvings stop at x = 3.1e-61 for rho = 1e-300, where the root
        # is 2.7e-300; g(x) = 1.7e-58 passed the old absolute 1e-13.
        monkeypatch.setattr(asymptotics, "_MAX_HALVINGS", 200)
        with pytest.raises(ParameterError, match="stalled"):
            solve_alpha(1e-300)
        assert abs(_g(3.1e-61, 1e-300)) > asymptotics._residual_tolerance(3.1e-61,
                                                                          math.log(1e-300))

    @pytest.mark.parametrize("rho", [1 - 1e-11, 1 - 1e-13])
    def test_alpha_near_one_passes_the_residual_check(self, rho):
        # alpha lies within 1e-12 of 1, where one ulp of x moves g by more
        # than 1e-13 of its terms (tiny rho is covered above).
        sol = solve_alpha(rho)
        assert rho < sol.alpha < 1.0

    @pytest.mark.parametrize("rho", [0.0, 1.0, 1.5, -0.3])
    def test_domain_rejected(self, rho):
        with pytest.raises(ParameterError):
            solve_alpha(rho)

    @pytest.mark.parametrize("rho", [*(1.0 - 10.0**-k for k in range(12, 17)),
                                     math.nextafter(1.0, 0.0)])
    def test_rho_next_to_one_answers(self, rho):
        # Above rho ~ 1 - 3.5e-14 alpha exceeds 1 - 1e-15, the old upper end;
        # above ~1 - 1e-15 it lies past the largest double below 1.
        sol = solve_alpha(rho)
        assert rho <= sol.alpha < 1.0
        assert abs(sol.residual) <= asymptotics._residual_tolerance(sol.alpha, math.log(rho))

    def test_bits_are_pinned_up_to_one_minus_1e_12(self):
        # sha256 of (alpha, residual, iterations, bracket) over 453 rho from
        # 1e-300 to 1 - 1e-12, recorded while the upper end was 1 - 1e-15 for
        # every rho.
        rhos = ([10.0 ** (e / 10) for e in range(-3000, 0, 7)]
                + [1 - 10.0 ** (-e / 10) for e in range(5, 121, 5)])
        digest = hashlib.sha256()
        for rho in rhos:
            s = solve_alpha(rho)
            digest.update(repr((s.alpha, s.residual, s.iterations, s.bracket)).encode())
        assert (digest.hexdigest()
                == "3f58919c23c0d56b8979a5e0920b3d47bd641641899d1de1189d8caeb1b666c2")


class TestLimits:
    def test_height_fraction(self):
        assert height_fraction_limit(2.0) == 1.0
        assert height_fraction_limit(1.0) == 1.0
        assert abs(height_fraction_limit(0.25) - 0.5) <= 1e-12

    def test_variance_limit_values(self):
        def variance_limit(rho):
            return convergence_table(rho, [1000])[0].var_limit

        assert variance_limit(1.0) == pytest.approx(1.0)
        assert variance_limit(2.0) == pytest.approx(0.5)
        assert variance_limit(0.25) == pytest.approx(1.0, rel=1e-11)


class TestBoundConstants:
    def test_quarter_closed_forms(self):
        c = bound_constants(solve_alpha(0.25))
        assert c.c2 == pytest.approx(3.0 / math.log(2.0), rel=1e-11)
        assert c.c3 == pytest.approx(26.0, rel=1e-11)

    @pytest.mark.parametrize("rho", RHO_GRID)
    def test_positivity(self, rho):
        c = bound_constants(solve_alpha(rho))
        assert c.c1 > 0 and c.c2 > 0 and c.c3 > 0

    @pytest.mark.parametrize("rho", [1e-160, 1e-300])
    def test_c3_survives_underflow_of_rho_squared(self, rho):
        c = bound_constants(solve_alpha(rho))
        assert c.c3 == pytest.approx(3.0 * math.e / rho, rel=1e-10)

    @pytest.mark.parametrize("rho", [4e-308, 1e-310])
    def test_c3_overflow_is_a_parameter_error(self, rho):
        with pytest.raises(ParameterError, match="overflows"):
            bound_constants(solve_alpha(rho))

    def test_alpha_rounding_to_rho_is_a_parameter_error(self):
        # At the largest double below 1 no double lies in (rho, 1), so alpha
        # is rho and c2 = 3 / (log alpha - log rho) has no finite value.
        rho = math.nextafter(1.0, 0.0)
        assert solve_alpha(rho).alpha == rho
        with pytest.raises(ParameterError, match="c2"):
            bound_constants(solve_alpha(rho))
        assert bound_constants(solve_alpha(math.nextafter(rho, 0.0))).c2 > 0.0

    def test_integer_part_candidates(self):
        assert integer_part_candidates(7.3) == (7, 8)
        assert 6 in integer_part_candidates(7.0 + 1e-12)
        assert integer_part_candidates(0.2) == (0, 1)


class TestPeakRatioBounds:
    @pytest.mark.parametrize("n,rho", [(10**4, 0.5), (10**6, 0.25)])
    def test_pass_at_reference_points(self, n, rho):
        growth, decay = check_peak_ratio_bounds(n, bound_constants(solve_alpha(rho)))
        assert growth.applicable and growth.passed
        assert decay.applicable and decay.passed
        assert growth.margin > 0 and decay.margin > 0

    def test_floor_margin_is_recorded(self):
        # At the strict floor offset the growth inequality loses a
        # constant factor; the report must expose that honestly while
        # passing through the rounding-candidate policy.
        growth, _ = check_peak_ratio_bounds(10**4, bound_constants(solve_alpha(0.25)))
        assert growth.passed
        assert growth.floor_margin < 0 < growth.margin
        assert "candidates" in growth.note

    def test_small_n_flags_not_applicable(self):
        growth, decay = check_peak_ratio_bounds(10, bound_constants(solve_alpha(0.5)))
        # c2 log 10 ~ 15 steps below a peak at 6: out of range.
        assert not decay.applicable
        assert not growth.applicable  # the offset fits, but n < MEAN_BOUND_MIN_N
        assert math.isfinite(growth.margin)

    def test_decay_is_deep(self):
        _, decay = check_peak_ratio_bounds(10**5, bound_constants(solve_alpha(0.5)))
        assert decay.margin > 50.0  # far below n^-3 in log scale

    def test_empty_system_rejected(self):
        with pytest.raises(ParameterError, match="n must be >= 1"):
            check_peak_ratio_bounds(0, bound_constants(solve_alpha(0.5)))


class TestMeanBounds:
    @pytest.mark.parametrize("rho", [0.25, 0.5, 0.75])
    def test_sandwich_subcritical(self, rho):
        N = 10**4
        d = height_distribution(make_params(N, rho=rho))
        c = bound_constants(solve_alpha(rho))
        rep = check_mean_bounds(N, c, d.mean)
        assert rep.applicable and rep.passed
        assert rep.lhs <= d.mean <= rep.rhs
        assert rep.rhs - rep.lhs <= c.c2 * math.log(N) + c.c3 + 1

    @pytest.mark.parametrize("rho", [1.0, 2.0])
    def test_near_capacity_supercritical(self, rho):
        N = 10**4
        d = height_distribution(make_params(N, rho=rho))
        rep = check_mean_near_capacity(N, rho, d.mean)
        assert rep.applicable and rep.passed
        assert N - 4 <= d.mean <= N

    def test_small_n_reported_not_asserted(self):
        d = height_distribution(make_params(100, rho=0.5))
        rep = check_mean_bounds(100, bound_constants(solve_alpha(0.5)), d.mean)
        assert not rep.applicable
        assert isinstance(rep.passed, bool)

    def test_empty_system_rejected(self):
        with pytest.raises(ParameterError, match="N must be >= 1"):
            check_mean_bounds(0, bound_constants(solve_alpha(0.5)), 1.0)
        with pytest.raises(ParameterError, match="N must be >= 1"):
            check_mean_near_capacity(0, 2.0, 1.0)

    def test_capacity_bound_refuses_rho_below_one(self):
        with pytest.raises(ParameterError, match="rho >= 1"):
            check_mean_near_capacity(1000, 0.5, 700.0)


class TestStirlingRatio:
    def test_degenerate_small_n(self):
        c = bound_constants(solve_alpha(0.5))
        val = stirling_ratio(2, c)
        assert math.isfinite(val) and val > 0
        with pytest.raises(ParameterError, match="n must be >= 2"):
            stirling_ratio(1, c)

    def test_doubling(self):
        c = bound_constants(solve_alpha(0.25))
        r1 = stirling_ratio(10**4, c)
        r2 = stirling_ratio(4 * 10**4, c)
        assert 0.5 <= r2 / r1 <= 2.0

    @pytest.mark.parametrize("rho", [0.25, 0.5, 0.75])
    def test_band_over_decades(self, rho):
        c = bound_constants(solve_alpha(rho))
        ratios = [stirling_ratio(n, c) for n in (10**3, 10**4, 10**5, 10**6)]
        assert max(ratios) / min(ratios) <= 10.0


class TestConvergenceTable:
    def test_supercritical_rate(self):
        rows = convergence_table(2.0, [100, 1000, 10**4])
        for r in rows:
            if r.N >= 1000:
                assert r.mean_gap <= 4.0 / r.N

    def test_subcritical_gap_shrinks(self):
        rows = convergence_table(0.5, [2000, 4000, 8000, 16000])
        gaps = [r.mean_gap for r in rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        c = bound_constants(solve_alpha(0.5))
        last = rows[-1]
        assert last.mean_gap <= (c.c2 * math.log(last.N) + c.c3 + 1) / last.N

    def test_variance_ratio_near_limit(self):
        rows = convergence_table(0.25, [10**5])
        assert abs(rows[0].var_over_N - 1.0) <= 0.1

    def test_bad_grids_rejected(self):
        with pytest.raises(ParameterError):
            convergence_table(0.5, [])
        with pytest.raises(ParameterError):
            convergence_table(0.5, [100, 100])


class TestConcentration:
    @pytest.mark.parametrize("rho", [0.25, 0.5, 0.75])
    def test_window_mass_dominates_bound(self, rho):
        c = bound_constants(solve_alpha(rho))
        for N in (1000, 2000, 10**4):
            mass, lo, hi = window_mass(height_distribution(make_params(N, rho=rho)), c)
            assert 1 <= lo < hi <= N
            assert mass >= concentration_mass_bound(N, c)

    def test_bound_below_double_range_is_minus_inf(self):
        c = bound_constants(solve_alpha(1e-300))
        assert concentration_mass_bound(1000, c) == -math.inf
        assert window_mass(height_distribution(make_params(1000, rho=1e-300)), c)[0] == 1.0

    def test_window_mass_refuses_constants_of_another_rho(self):
        law = height_distribution(make_params(1000, rho=0.5))
        with pytest.raises(ParameterError, match="constants' rho"):
            window_mass(law, bound_constants(solve_alpha(0.25)))

    def test_window_is_log_width(self):
        c = bound_constants(solve_alpha(0.5))
        lo, hi = concentration_window(10**4, c)
        h = peak_index(c.alpha, 10**4)
        assert hi - lo <= (c.c1 + c.c2) * math.log(10**4) + c.c3 + 3
        assert lo <= h <= hi


class TestOneSolvePerRho:
    @pytest.mark.parametrize("argv, solves", [
        (["alpha", "--rho", "0.3"], 1),
        (["alpha", "--rho", "2"], 0),
        (["sweep", "--rho", "0.3", "--n", "1000", "1000000"], 1),
        (["verify", "--n", "1000", "10000", "100000", "1000000"], 3),
    ])
    def test_each_command_solves_alpha_once_per_rho_below_one(self, monkeypatch, tmp_path,
                                                              argv, solves):
        calls = []
        solve = asymptotics.solve_alpha
        monkeypatch.setattr(asymptotics, "solve_alpha",
                            lambda rho: calls.append(rho) or solve(rho))
        assert main([*argv, "--output", str(tmp_path / "out.json")]) == 0
        assert len(calls) == solves

    def test_verify_grid_solves_alpha_once_per_rho_below_one(self, monkeypatch):
        calls = []
        solve = asymptotics.solve_alpha
        monkeypatch.setattr(asymptotics, "solve_alpha",
                            lambda rho: calls.append(rho) or solve(rho))
        asymptotics.verify_reports([0.25, 0.5, 0.75, 1.0, 2.0],
                                   [1000, 10000, 100000, 1000000])
        assert calls == [0.25, 0.5, 0.75]

    def test_certificates_take_the_callers_constants(self, monkeypatch):
        c = bound_constants(solve_alpha(0.5))
        law = height_distribution(make_params(1000, rho=0.5))

        def refuse(rho):
            raise AssertionError(f"a certificate solved alpha at rho = {rho}")

        monkeypatch.setattr(asymptotics, "solve_alpha", refuse)
        monkeypatch.setattr(asymptotics, "bound_constants", refuse)
        assert all(r.passed for r in check_peak_ratio_bounds(1000, c))
        assert check_mean_bounds(1000, c, law.mean).passed
        assert check_mean_near_capacity(1000, 2.0, 999.0).passed
        assert stirling_ratio(1000, c) > 0.0
        assert window_mass(law, c)[1:] == concentration_window(1000, c)
        assert concentration_mass_bound(1000, c) <= window_mass(law, c)[0]
