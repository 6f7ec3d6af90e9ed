"""Chain definition: parameter validation, stationary law, jump probabilities,
and the package's read-only records."""

import copy
import decimal
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdheight
from bdheight import (ModelParams, ParameterError, check_mean_near_capacity,
                      height_fraction_limit, jump_up_probs, log_r_term, make_params, solve_alpha)


def _stationary_law(p):
    """Stationary law of the rate chain, rebuilt from the jump probabilities.

    The jump chain is reversible, pi^J_i p_i = pi^J_{i+1} q_{i+1}, and the
    rate chain weighs each state by the mean holding time 1 / lambda_i,
    lambda_i = (N - i) rho + i in units of mu.  The recursion runs in log
    space so the large chains do not overflow before normalization.
    """
    up = np.fromiter(jump_up_probs(p), float)
    i = np.arange(p.N + 1, dtype=float)
    log_rate = np.log((p.N - i) * p.rho + i)
    step = np.log(up[:-1]) - np.log1p(-up[1:]) + log_rate[:-1] - log_rate[1:]
    log_pi = np.concatenate(([0.0], np.cumsum(step)))
    pi = np.exp(log_pi - log_pi.max())
    return pi / pi.sum()


class _Float(float):
    pass


class _Int(int):
    pass


class TestMakeParams:
    def test_empty_positive_part_rejected(self):
        with pytest.raises(ParameterError):
            make_params(0, 1.0)

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf, "x", None,
                                     pytest.param(10**400, id="10**400"),
                                     pytest.param(-10**400, id="-10**400")])
    def test_bad_rates_rejected(self, rho):
        with pytest.raises(ParameterError, match="rho"):
            make_params(5, rho)

    @pytest.mark.parametrize("rho", [2, 0.5, np.float64(0.5), np.float32(0.25), np.int64(2),
                                     np.uint8(3), _Float(0.5), _Int(2)],
                             ids=["int", "float", "float64", "float32", "int64", "uint8",
                                  "float_subclass", "int_subclass"])
    def test_real_rho_accepted(self, rho):
        p = make_params(5, rho)
        assert p.rho == float(rho) and type(p.rho) is float
        assert log_r_term(5, rho, 2) == log_r_term(5, float(rho), 2)
        assert height_fraction_limit(rho) == height_fraction_limit(float(rho))

    @pytest.mark.parametrize("rho", [True, False, np.bool_(True), "0.5", b"0.5",
                                     decimal.Decimal("0.5")],
                             ids=["True", "False", "numpy_bool", "str", "bytes", "Decimal"])
    def test_non_real_rho_rejected(self, rho):
        # as strictly as N: float() would take each of these
        for check in (lambda r: make_params(5, r), lambda r: log_r_term(5, r, 2),
                      height_fraction_limit, solve_alpha,
                      lambda r: check_mean_near_capacity(1000, r, 999.0)):
            with pytest.raises(ParameterError, match="rho"):
                check(rho)

    def test_non_integer_n_rejected(self):
        with pytest.raises(ParameterError):
            make_params(2.5, 1.0)
        with pytest.raises(ParameterError):
            make_params(True, 1.0)

    def test_numpy_integer_n_accepted(self):
        p = make_params(np.int64(5), rho=0.5)
        assert p.N == 5 and type(p.N) is int
        assert make_params(np.uint8(7), 0.5).N == 7
        for n in (np.float64(5.0), np.bool_(True), "5"):
            with pytest.raises(ParameterError):
                make_params(n, rho=0.5)

    def test_rho_only_construction(self):
        # every number depends on the rates only through rho = nu / mu
        assert ModelParams._fields == ("N", "rho")
        assert make_params(7, rho=0.8) == make_params(7, 0.8) == (7, 0.8)


class TestModelParams:
    """A chain built as ``ModelParams(...)`` is checked as ``make_params`` checks it."""

    @staticmethod
    def _refused_as_make_params_refuses(N, rho, build):
        with pytest.raises(ParameterError) as expected:
            make_params(N, rho)
        with pytest.raises(ParameterError) as got:
            build()
        assert str(got.value) == str(expected.value)

    # unchecked, log_hitting_sums gave [0.0, 0.0, 0.0] (every P(H >= k) read 1)
    # at nan and [0.0, inf, inf] at 0
    @pytest.mark.parametrize("rho", [math.nan, 0.0])
    def test_hitting_sums_get_a_parameter_error(self, rho):
        self._refused_as_make_params_refuses(
            3, rho, lambda: list(bdheight.log_hitting_sums(ModelParams(3, rho))))

    @pytest.mark.parametrize("N,rho", [(3, -1.0), (0, 0.5)])
    def test_law_gets_a_parameter_error(self, N, rho):
        # unchecked, these raised a bare "math domain error"
        self._refused_as_make_params_refuses(
            N, rho, lambda: bdheight.height_distribution(ModelParams(N, rho)))

    def test_bool_n_is_refused(self):
        # unchecked, the batch counted ((True, 10),)
        self._refused_as_make_params_refuses(True, 0.5, lambda: bdheight.run_batch(
            bdheight.SimulationConfig(ModelParams(True, 0.5), 10, 1)))

    @pytest.mark.parametrize("field,value", [("rho", -1.0), ("N", 0), ("N", 2.5)])
    def test_replace_is_checked(self, field, value):
        p = ModelParams(5, 0.5)
        args = {**p._asdict(), field: value}
        self._refused_as_make_params_refuses(
            args["N"], args["rho"], lambda: p._replace(**{field: value}))

    def test_values_are_stored_as_make_params_stores_them(self):
        p = ModelParams(np.int64(5), rho=np.float32(0.25))
        assert p == make_params(5, 0.25) and type(p.N) is int and type(p.rho) is float
        assert type(p._replace(rho=2)) is ModelParams and p._replace(rho=2).rho == 2.0
        assert pickle.loads(pickle.dumps(p)) == p == copy.deepcopy(p)


class TestStationaryLaw:
    def test_two_state_symmetric(self):
        pi = _stationary_law(make_params(1, rho=1.0))
        assert np.allclose(pi, [0.5, 0.5], rtol=0, atol=1e-15)

    def test_three_state_symmetric(self):
        pi = _stationary_law(make_params(2, rho=1.0))
        assert np.allclose(pi, [0.25, 0.5, 0.25], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("N,rho", [(1, 0.5), (10, 0.25), (100, 2.0), (1000, 0.9),
                                       (10**6, 1.0)])
    def test_normalization(self, N, rho):
        pi = _stationary_law(make_params(N, rho=rho))
        assert abs(pi.sum() - 1.0) <= 1e-12
        # strict positivity holds wherever the value is representable at
        # all; extreme tails below the double underflow threshold (around
        # k where log pi_k < -745) flush to zero for large skewed chains
        assert (pi >= 0).all()
        if N <= 500:
            assert (pi > 0).all()

    @pytest.mark.parametrize("N", [1, 2, 7, 17, 30])
    @pytest.mark.parametrize("rho", [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3)])
    def test_matches_independent_binomial(self, N, rho):
        # pi_k = C(N, k) rho^k / (1+rho)^N, evaluated in exact rationals.
        pi = _stationary_law(make_params(N, rho=float(rho)))
        for k in range(N + 1):
            expected = Fraction(math.comb(N, k)) * rho**k / (1 + rho) ** N
            assert abs(pi[k] - float(expected)) <= 1e-12 * float(expected)

    def test_detailed_balance(self):
        for N, rho in [(5, 0.5), (40, 1.0), (200, 2.5)]:
            p = make_params(N, rho=rho)
            pi = _stationary_law(p)
            for i in range(N):
                lhs = pi[i] * (N - i) * p.rho
                rhs = pi[i + 1] * (i + 1)
                assert abs(lhs - rhs) <= 1e-12 * rhs


class TestJumpChain:
    def test_boundary_rows(self):
        up = np.fromiter(jump_up_probs(make_params(6, rho=0.7)), float)
        assert up.shape == (7,)
        assert up[0] == 1.0
        assert up[6] == 0.0

    def test_interior_formula(self):
        up = list(jump_up_probs(make_params(2, rho=1.0)))
        assert up[1] == pytest.approx(0.5, abs=1e-15)

    def test_overflowing_rate_saturates_to_one(self):
        # (N - i) rho overflows for i < 9; below that it is the plain formula
        p = make_params(10, rho=1e308)
        with np.errstate(over="raise", invalid="raise"):
            up = np.fromiter(jump_up_probs(p), float)
        assert (up[1:9] == 1.0).all()
        assert up[9] == 1e308 / (9.0 + 1e308)

    @given(N=st.integers(1, 150), rho=st.floats(0.01, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_complement_and_monotonicity(self, N, rho):
        up = np.fromiter(jump_up_probs(make_params(N, rho=rho)), float)
        # q_i = i / (i + (N - i) rho) from the death side of the rates
        i = np.arange(N + 1, dtype=float)
        down = i / (i + (N - i) * rho)
        assert np.abs(up + down - 1.0).max() <= 1e-15
        assert (np.diff(up) < 0).all()


def _records():
    """One instance of each record type the package returns, with a field of it."""
    p = make_params(50, rho=0.5)
    cfg = bdheight.SimulationConfig(params=p, n_samples=100, seed=1)
    sol = bdheight.solve_alpha(0.5)
    c = bdheight.bound_constants(sol)
    return [
        (p, "N"),
        (bdheight.height_distribution(p), "mean"),
        (bdheight.exact_rational_distribution(5, 1, 2), "pmf"),
        (sol, "alpha"),
        (c, "c1"),
        (bdheight.check_mean_bounds(1000, c, 700.0), "passed"),
        (bdheight.convergence_table(0.5, [1000])[0], "var_gap"),
        (cfg, "n_samples"),
        (bdheight.run_batch(cfg), "counts"),
    ]


class TestRecords:
    @pytest.mark.parametrize("record,name", [pytest.param(record, name, id=type(record).__name__)
                                             for record, name in _records()])
    def test_fields_are_read_only(self, record, name):
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 0
        assert getattr(record, name) == before
