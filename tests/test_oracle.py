"""First-passage solver: boundary anchors, residuals, independence, agreement."""

import ast
import inspect
import math
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bdheight.oracle
from bdheight import (
    CapacityError,
    height_dist_oracle,
    height_distribution,
    jump_up_probs,
    log_hitting_sums,
    make_params,
)


def _hitting_vector(p, k):
    """h[i] = P(hit k before 0 | start at i) = S_i / S_k for i = 0..k."""
    surv = np.asarray(height_dist_oracle(p))  # surv[i-1] = 1 / S_i
    return np.concatenate(([0.0], surv[k - 1] / surv[:k]))


class TestFirstPassageProb:
    def test_level_one_is_certain(self):
        for N, rho in [(1, 1.0), (10, 0.2), (100, 3.0)]:
            assert height_dist_oracle(make_params(N, rho=rho))[0] == 1.0

    def test_single_interior_equation(self):
        # N=2, rho=1: h[1] = p_1 * 1 + q_1 * 0 = 1/2.
        assert height_dist_oracle(make_params(2, rho=1.0))[1] == pytest.approx(0.5, rel=1e-14)

    def test_three_node_hand_elimination(self):
        p = make_params(3, rho=1.0)
        want = [1.0, 2 / 3, 2 / 5]
        got = np.asarray(height_dist_oracle(p))
        assert np.abs(got - want).max() <= 1e-12

    @given(N=st.integers(1, 100), rho=st.floats(0.01, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_closed_form(self, N, rho):
        p = make_params(N, rho=rho)
        exact = height_distribution(p).survival_values()
        fp = height_dist_oracle(p)
        assert np.abs(exact - fp).max() <= 1e-10


class TestSolvedSystem:
    @pytest.mark.parametrize("N,rho,k,strict", [
        (5, 1.0, 5, True), (50, 0.8, 30, True), (30, 2.0, 18, True),
        # across the deep mid-range valley the true (strictly positive)
        # increments fall below one ulp of h and float plateaus appear
        (200, 0.5, 200, False), (120, 2.0, 77, False),
    ])
    def test_boundary_and_monotonicity(self, N, rho, k, strict):
        h = _hitting_vector(make_params(N, rho=rho), k)
        assert h[0] == 0.0
        assert h[k] == 1.0
        diffs = np.diff(h)
        assert (diffs >= 0).all()
        if strict:
            assert (diffs > 0).all()
        else:
            assert (diffs > 0).any()
        assert ((h >= 0) & (h <= 1)).all()

    @pytest.mark.parametrize("N,rho,k", [(5, 1.0, 5), (50, 0.8, 30), (200, 0.5, 200),
                                         (120, 2.0, 77), (200, 0.1, 150)])
    def test_interior_residuals(self, N, rho, k):
        p = make_params(N, rho=rho)
        h = _hitting_vector(p, k)
        up = list(jump_up_probs(p))
        for i in range(1, k):
            res = h[i] - up[i] * h[i + 1] - (1.0 - up[i]) * h[i - 1]
            assert abs(res) <= 1e-12 * max(h[i], 1e-300)

    def test_first_entry_is_first_passage_prob(self):
        # h[1] for target k is P(H >= k) = 1 / S_k.
        p = make_params(60, rho=0.9)
        log_sums = list(log_hitting_sums(p))
        for k in (1, 2, 30, 60):
            h = _hitting_vector(p, k)
            assert h[1] == pytest.approx(math.exp(-log_sums[k - 1]), rel=1e-14)


class TestBatchedOracle:
    def test_single_node(self):
        assert height_dist_oracle(make_params(1, rho=0.4)).tolist() == [1.0]

    def test_nonincreasing(self):
        surv = height_dist_oracle(make_params(300, rho=0.6, ), cap=300)
        assert (np.diff(surv) <= 0).all()

    def test_cap_enforced(self):
        with pytest.raises(CapacityError):
            height_dist_oracle(make_params(2001, rho=1.0))
        # explicit cap raise is allowed
        surv = np.asarray(height_dist_oracle(make_params(2001, rho=1.0), cap=2001))
        assert surv.shape == (2001,)

    def test_ascent_probs_are_survival_ratios(self):
        # The ladder's hazards are ratios of these sums, so it relies on this:
        # P(H >= k) = exp(-log S_k), log S_1 = 0, and no sum decreases.
        p = make_params(80, rho=0.7)
        log_sums = np.fromiter(log_hitting_sums(p), float)
        surv = height_dist_oracle(p)
        assert log_sums.shape == (80,)
        assert log_sums[0] == 0.0
        assert (np.diff(log_sums) >= 0).all()
        assert np.abs(np.exp(-log_sums) - surv).max() <= 1e-12

    def test_saturated_ascent_is_silent(self):
        # At rho = 1e20 every p_i rounds to 1.0, so log q_i is -inf: a zero
        # term of the log-sum-exp, not a division by zero worth reporting.
        p = make_params(10, rho=1e20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            surv = height_dist_oracle(p)
        assert np.abs(surv - height_distribution(p).survival_values()).max() <= 1e-15


def _scalar_log_hitting_sums(p):
    """log S_1..S_N from a plain loop over the states, one formula at a time:
    p_i, log(q_i / p_i), the prefix sum, and numpy's ``npy_logaddexp``."""
    N, rho = p.N, p.rho
    log_g = s = 0.0
    out = [s]
    for i in range(1, N):
        w = (N - i) * rho
        p_i = w / (i + w) if w < math.inf else 1.0
        log_q = math.log1p(-p_i) if p_i < 1.0 else -math.inf
        log_p = math.log(p_i) if p_i > 0.0 else -math.inf
        log_g += log_q - log_p
        if s == log_g:
            s += math.log(2.0)
        else:
            tmp = s - log_g
            if tmp > 0:
                s += math.log1p(math.exp(-tmp))
            elif tmp <= 0:
                s = log_g + math.log1p(math.exp(tmp))
            else:
                s = tmp
        out.append(s)
    return out


_RHOS = st.one_of(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
                  st.sampled_from([1e20, 1e308, 1e-320, 5e-324]))


class TestSweepBits:
    @given(N=st.integers(1, 2000), rho=_RHOS)
    @example(N=1, rho=0.5)
    @example(N=2, rho=1e308)
    @example(N=2, rho=5e-324)
    @example(N=3, rho=5e-324)
    @settings(max_examples=150, deadline=None)
    def test_matches_a_per_state_loop(self, N, rho):
        # The sweep special-cases the saturated states (p_i = 1) and the
        # underflowed ones (p_i = 0) in one expression; a loop that takes
        # every formula on its own must give the same bits.
        p = make_params(N, rho=rho)
        assert (array("d", log_hitting_sums(p)).tobytes()
                == array("d", _scalar_log_hitting_sums(p)).tobytes())


def test_oracle_module_does_not_import_the_closed_form():
    # Independence of the two code paths is the point of this module;
    # enforce the dependency direction at the source level.
    tree = ast.parse(inspect.getsource(bdheight.oracle))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any("exactdist" in a.name for a in node.names)
        if isinstance(node, ast.ImportFrom):
            assert "exactdist" not in (node.module or "")
            assert not any("exactdist" in a.name for a in node.names)
