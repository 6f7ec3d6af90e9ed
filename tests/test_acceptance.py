"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test certifies one criterion end to end and prints a single
``[acceptance] A<k> ... PASS`` line (visible with ``pytest -s``).
Stated runtime budgets are asserted alongside the numerics.
"""

import math
import time
from fractions import Fraction

import numpy as np

from bdheight import (
    SimulationConfig,
    bound_constants,
    check_peak_ratio_bounds,
    dkw_epsilon,
    exact_rational_distribution,
    height_dist_oracle,
    height_distribution,
    height_fraction_limit,
    make_params,
    run_batch,
    solve_alpha,
    stirling_ratio,
    variance_limit,
    wlln_tail_mass,
)
from bdheight.asymptotics import concentration_window, peak_index
from bdheight.cli import main

_dist_cache = {}


def _dist(N, rho):
    key = (N, rho)
    if key not in _dist_cache:
        _dist_cache[key] = height_distribution(make_params(N, rho=rho))
    return _dist_cache[key]


def _report(cid, ok, detail):
    print(f"[acceptance] {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_a1_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for rho in (0.1, 0.25, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0):
        for N in range(1, 201):
            p = make_params(N, rho=rho)
            exact = height_distribution(p).survival_values()
            fp = height_dist_oracle(p)
            worst = max(worst, float(np.abs(exact - fp).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    assert _report("A1 closed form vs first-passage solver",
                   ok, f"sup={worst:.3e} tol=1e-10, {elapsed:.1f}s < 30s")


def test_a2_rational_float_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for rho in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)):
        for N in range(1, 61):
            r = exact_rational_distribution(N, rho.numerator, rho.denominator)
            d = _dist(N, float(rho))
            surv = d.survival_values()
            for k in range(N):
                want = float(r.survival[k])
                worst = max(worst, abs(surv[k] - want) / want)
            worst = max(worst, abs(d.mean - float(r.mean)) / float(r.mean))
            rv = float(r.variance)
            if rv == 0.0:
                worst = max(worst, abs(d.variance))
            else:
                worst = max(worst, abs(d.variance - rv) / rv)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    assert _report("A2 exact-rational vs log-domain path",
                   ok, f"worst rel={worst:.3e} tol=1e-12, {elapsed:.1f}s < 10s")


def test_a3_alpha_anchor_and_grid():
    t0 = time.perf_counter()
    anchor = abs(solve_alpha(0.25).alpha - 0.5)
    ok = anchor <= 1e-12
    for i in range(1, 20):
        rho = 0.05 * i
        sol = solve_alpha(rho)
        ok &= abs(sol.residual) <= 1e-13 and rho < sol.alpha < 1.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert _report("A3 root solve anchors",
                   ok, f"|alpha(1/4)-1/2|={anchor:.2e}, 19-point grid, {elapsed:.2f}s < 1s")


NS_GRID = (10**3, 10**4, 10**5, 10**6)


def test_a4_mean_sandwich():
    t0 = time.perf_counter()
    ok = True
    details = []
    for rho in (0.25, 0.5, 0.75):
        c = bound_constants(rho)
        for N in NS_GRID:
            mean = _dist(N, rho).mean
            lo = math.floor(c.alpha * N) - math.floor(c.c2 * math.log(N)) - c.c3
            hi = math.floor(c.alpha * N) + 1
            good = lo <= mean <= hi
            ok &= good
            details.append(f"rho={rho},N={N}:{'ok' if good else 'FAIL'}")
    for rho in (1.0, 2.0):
        for N in NS_GRID:
            mean = _dist(N, rho).mean
            ok &= N - 4 <= mean <= N
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    assert _report("A4 mean sandwich bounds", ok,
                   f"20 grid points, {elapsed:.1f}s < 120s")


def test_a5_mean_limit_rate():
    N = 10**6
    ok = True
    worst = 0.0
    for rho in (0.25, 0.5, 0.75):
        c = bound_constants(rho)
        gap = abs(_dist(N, rho).mean / N - c.alpha)
        tol = (c.c2 * math.log(N) + c.c3 + 1.0) / N
        ok &= gap <= tol
        worst = max(worst, gap / tol)
    for rho in (1.0, 2.0):
        gap = abs(_dist(N, rho).mean / N - 1.0)
        ok &= gap <= 4.0 / N
        worst = max(worst, gap / (4.0 / N))
    assert _report("A5 mean ratio limit at N=1e6", ok,
                   f"worst gap/tolerance = {worst:.3f}")


def test_a6_variance_limit():
    ok = True
    details = []
    for rho in (0.25, 0.5, 1.0, 2.0):
        lim = variance_limit(rho)
        gaps = [abs(_dist(N, rho).variance / N - lim) for N in (10**4, 10**5, 10**6)]
        rel = gaps[-1] / lim
        monotone = all(b <= a + 1e-3 for a, b in zip(gaps, gaps[1:]))
        ok &= rel <= 0.05 and monotone
        details.append(f"rho={rho}: rel={rel:.2e}, monotone={monotone}")
    assert _report("A6 variance ratio limit", ok, "; ".join(details))


def test_a7_peak_ratio_bounds():
    ok = True
    margins = []
    for rho in (0.25, 0.5, 0.75):
        for n in (10**4, 10**5, 10**6):
            growth, decay = check_peak_ratio_bounds(n, rho)
            ok &= growth.applicable and growth.passed
            ok &= decay.applicable and decay.passed
            margins.append(f"({n},{rho}): +{growth.margin:.2f}/floor {growth.floor_margin:+.2f}")
    assert _report("A7 ladder-term growth/decay bounds", ok, "; ".join(margins[:3]) + " ...")


def test_a8_peak_term_order():
    ok = True
    details = []
    for rho in (0.25, 0.5, 0.75):
        ratios = [stirling_ratio(n, rho) for n in NS_GRID]
        band = max(ratios) / min(ratios)
        ok &= band <= 10.0
        details.append(f"rho={rho}: band={band:.2f}")
    assert _report("A8 sqrt(n) order of the peak term", ok, "; ".join(details))


def test_a9_monte_carlo_validity():
    t0 = time.perf_counter()
    cfg = SimulationConfig(params=make_params(50, rho=0.8), n_samples=10**5, seed=7)
    s1 = run_batch(cfg)
    eps = dkw_epsilon(10**5, 0.01)
    ok = s1.dkw_pass and s1.sup_distance <= eps
    s2 = run_batch(cfg)
    ok &= repr(s1) == repr(s2)  # repr keeps every float's bits
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    assert _report("A9 Monte Carlo vs exact law", ok,
                   f"sup={s1.sup_distance:.5f} <= eps={eps:.5f}, reruns "
                   f"byte-identical, {elapsed:.1f}s < 30s")


def test_a10_concentration():
    N, rho = 2000, 0.5
    d = _dist(N, rho)
    surv = d.survival_values()
    lo, hi = concentration_window(N, rho)
    mass = float(surv[lo - 1] - (surv[hi] if hi < N else 0.0))
    ok = mass >= 0.95

    n = 2 * 10**4
    s = run_batch(SimulationConfig(params=make_params(N, rho=rho), n_samples=n, seed=77))
    freq = sum(c for k, c in s.counts if lo <= k <= hi) / n
    slack = dkw_epsilon(n, 0.01)
    ok &= abs(freq - mass) <= slack and freq >= 0.95

    d5 = _dist(10**5, 0.5)
    sd = math.sqrt(d5.variance)
    a = max(1, math.ceil(d5.mean - 0.5 * sd))
    b = min(10**5, math.floor(d5.mean + 0.5 * sd))
    s5 = d5.survival_values()
    central = float(s5[a - 1] - (s5[b] if b < 10**5 else 0.0))
    ok &= central >= 0.95

    assert _report("A10 log-width concentration", ok,
                   f"window [{lo},{hi}] mass={mass:.4f} >= 0.95, "
                   f"|freq-mass|={abs(freq - mass):.4f} <= {slack:.4f}, "
                   f"standardized central mass={central:.5f} >= 0.95")


def test_a11_weak_law():
    ok = True
    details = []
    for rho in (0.5, 2.0):
        tail = wlln_tail_mass(2000, rho, eps=0.05)
        ok &= tail <= 0.01
        details.append(f"rho={rho}: P(|H/N - f| > 0.05) = {tail:.2e}")
    assert _report("A11 weak law of large numbers", ok, "; ".join(details))


def test_dist_csv_runtime_budget(tmp_path):
    # the CSV body is written run by run, at most a piece of lines at a time
    path = tmp_path / "law.csv"
    t0 = time.perf_counter()
    rc = main(["dist", "--n", "1000000", "--rho", "0.5", "--format", "csv",
               "--output", str(path)])
    elapsed = time.perf_counter() - t0
    ok = rc == 0 and elapsed < 0.5
    assert _report("dist CSV at N = 1e6", ok,
                   f"{path.stat().st_size} bytes, {elapsed:.2f}s < 0.5s")


def test_a0_peak_index_sanity():
    # Shared plumbing used above: the peak index respects its definition.
    a = solve_alpha(0.5).alpha
    assert peak_index(a, 10**4) == math.floor(a * (10**4 - 1))
