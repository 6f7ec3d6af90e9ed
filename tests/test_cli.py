"""CLI contract: flags, exit codes, the artifact format, manifests, stability."""

import errno
import hashlib
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bdheight
import bdheight.cli as cli
import bdheight.simulate as simulate_module
from bdheight import height_distribution, make_params
from bdheight.cli import (MAX_ROWS, _BLOCK, _canonical, _emit, _ints, _pieces, _run_column,
                          _Runs, _write, main)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    return rc, (json.loads(out) if out.strip().startswith("{") else None), err


def strict_loads(text):
    """json.loads that refuses the non-standard NaN / Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


class TestDist:
    def test_three_node_values(self, capsys):
        rc, doc, _ = run_json(capsys, "dist", "--n", "3", "--rho", "1")
        assert rc == 0
        survival = doc["data"]["rows"]["survival"]
        assert survival[0] == pytest.approx(1.0, abs=0)
        assert survival[1] == pytest.approx(2 / 3, abs=1e-12)
        assert survival[2] == pytest.approx(2 / 5, abs=1e-12)
        assert doc["data"]["mean"] == pytest.approx(31 / 15, rel=1e-12)

    def test_single_row(self, capsys):
        rc, doc, _ = run_json(capsys, "dist", "--n", "1", "--rho", "0.5")
        assert rc == 0
        assert doc["data"]["rows"] == {"k": [1], "survival": [1.0], "pmf": [1.0]}

    def test_invalid_n_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "dist", "--n", "0", "--rho", "1")
        assert rc == 2
        assert "error" in err

    def test_conflicting_parameterizations_exit_2(self, capsys):
        # every number depends on the rates only through rho = nu / mu, so
        # --rho is the one rate flag: a rate flag, or no --rho, is argparse's
        # one usage error
        for command in (["dist"], ["simulate", "--samples", "10"]):
            for rates, message in [
                (["--rho", "0.5", "--nu", "1"], "unrecognized arguments: --nu 1"),
                (["--rho", "0.5", "--mu", "2"], "unrecognized arguments: --mu 2"),
                (["--rho", "1", "--nu", "1", "--mu", "1"], "unrecognized arguments: --nu 1 --mu 1"),
                (["--nu", "1", "--mu", "2"], "the following arguments are required: --rho"),
                ([], "the following arguments are required: --rho"),
            ]:
                with pytest.raises(SystemExit) as exc:
                    main([command[0], "--n", "3", *command[1:], *rates])
                out, err = capsys.readouterr()
                assert (exc.value.code, out) == (2, "")
                assert err.startswith("usage: bdheight ") and err.count("usage:") == 1
                assert err.count("error") == 1 and err.endswith(f": error: {message}\n"), err

    def test_manifest_checksum_matches_data(self, capsys):
        rc, doc, _ = run_json(capsys, "dist", "--n", "5", "--rho", "0.7")
        assert rc == 0
        blob = json.dumps(doc["data"], sort_keys=True, separators=(",", ":")).encode()
        assert doc["manifest"]["data_sha256"] == hashlib.sha256(blob).hexdigest()


class TestAlpha:
    def test_quarter_anchor(self, capsys):
        rc, doc, _ = run_json(capsys, "alpha", "--rho", "0.25")
        assert rc == 0
        assert abs(doc["data"]["alpha"] - 0.5) <= 1e-12
        assert abs(doc["data"]["residual"]) <= 1e-13
        assert doc["data"]["constants"]["c3"] == pytest.approx(26.0, rel=1e-11)

    def test_supercritical_prints_limit_with_note(self, capsys):
        rc, doc, _ = run_json(capsys, "alpha", "--rho", "2")
        assert rc == 0
        assert doc["data"]["f"] == 1.0
        assert doc["data"]["constants"] is None
        assert doc["data"]["note"]

    def test_domain_edge_exits_2(self, capsys):
        assert run_cli(capsys, "alpha", "--rho", "0")[0] == 2
        assert run_cli(capsys, "alpha", "--rho", "-1")[0] == 2


class TestVerify:
    def test_small_grid_passes(self, capsys):
        rc, doc, _ = run_json(capsys, "verify", "--rho", "0.5", "2.0", "--n", "2000")
        assert rc == 0
        assert doc["data"]["passed"] is True
        assert doc["data"]["n_failed"] == 0
        names = {c["inequality"] for c in doc["data"]["checks"]}
        assert {"peak_growth", "peak_decay", "mean_sandwich",
                "mean_near_capacity", "oracle_equivalence"} <= names

    def test_default_grid_passes(self, capsys):
        # default grids: rho {0.25, 0.5, 0.75, 1, 2} x N {1e3, 1e4, 1e5}
        rc, doc, _ = run_json(capsys, "verify")
        assert rc == 0
        assert doc["data"]["passed"] is True
        assert doc["manifest"]["parameters"]["N"] == [1000, 10000, 100000]

    def test_tiny_n_flags_not_applicable_but_passes(self, capsys):
        rc, doc, _ = run_json(capsys, "verify", "--rho", "0.5", "--n", "10")
        assert rc == 0
        assert any(not c["applicable"] for c in doc["data"]["checks"])

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_smallest_n_is_reported_not_applicable(self, capsys, n):
        rc, doc, err = run_json(capsys, "verify", "--rho", "0.5", "--n", n)
        assert rc == 0, err
        peak = [c for c in doc["data"]["checks"]
                if c["inequality"] in ("peak_growth", "peak_decay")]
        assert len(peak) == 2
        assert not any(c["applicable"] for c in peak)

    def test_peak_band_needs_an_interior_peak(self, capsys):
        # At rho = 1e-16 every peak index up to n = 1e5 is 0, so each ratio
        # t(h_n)/sqrt(n) is 1/sqrt(n) and the band is only the grid's spread.
        bands = {}
        for rho, ns in (("1e-16", ["1000", "100000"]), ("0.5", ["2", "1000"])):
            rc, doc, err = run_json(capsys, "verify", "--rho", rho, "--n", *ns)
            assert rc == 0, err
            bands[rho], = [c for c in doc["data"]["checks"]
                           if c["inequality"] == "peak_term_sqrt_band"]
        assert not bands["1e-16"]["applicable"]
        assert bands["0.5"]["applicable"] and bands["0.5"]["passed"]

    @pytest.mark.parametrize("flag", ["--rho", "--n"])
    def test_empty_grid_exits_2(self, capsys, flag):
        # nargs="+" refuses a flag with no values before verify runs
        with pytest.raises(SystemExit) as exc:
            main(["verify", flag])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_selftest_flag_is_gone(self, capsys):
        # the corrupted-constant check is a test's monkeypatch, not a CLI setting
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--rho", "0.5", "--n", "10", "--selftest-corrupt"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.endswith(": error: unrecognized arguments: --selftest-corrupt\n"), err

    @pytest.mark.parametrize("grid", [["--rho", "0.5", "--n", "10", "10"],
                                      ["--rho", "0.5", "0.5", "--n", "10"],
                                      ["--rho", "0.5", "2", "0.5", "--n", "1000", "10"]],
                             ids=["n", "rho", "rho_unordered"])
    def test_repeated_grid_value_exits_2(self, capsys, grid):
        # a repeat would solve and write its reports twice
        rc, out, err = run_cli(capsys, "verify", *grid)
        assert (rc, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("verify: error: "), err
        assert "repeat" in err

    def test_unordered_grid_answers(self, capsys):
        rc, doc, _ = run_json(capsys, "verify", "--rho", "2", "0.5", "--n", "1000", "10")
        assert rc == 0
        assert doc["manifest"]["parameters"] == {"N": [1000, 10], "rho": [2.0, 0.5]}

    def test_nan_oracle_gap_fails(self, capsys, monkeypatch):
        # max(0.0, nan) is 0.0, so a nan gap once passed with lhs 0.0
        from bdheight import oracle
        monkeypatch.setattr(oracle, "log_hitting_sums", lambda p: iter([math.nan] * p.N))
        rc, out, err = run_cli(capsys, "verify", "--rho", "0.5", "--n", "10")
        assert rc == 1 and "oracle_equivalence" in err
        check, = [c for c in strict_loads(out)["data"]["checks"]
                  if c["inequality"] == "oracle_equivalence"]
        assert check["passed"] is False
        assert check["lhs"] is None and check["margin"] is None

    def test_nan_oracle_gap_after_the_first_fails(self, capsys, monkeypatch):
        # One nan, in the last gap: max() over the gaps starts from a number
        # and keeps it, since max(0.0, nan) is 0.0
        from bdheight import oracle
        from bdheight.asymptotics import _EQUIVALENCE_GRID_N

        solve = oracle.log_hitting_sums

        def nan_at_the_end(p):
            log_sums = list(solve(p))
            if p.N == _EQUIVALENCE_GRID_N[-1]:
                log_sums[-1] = math.nan
            return iter(log_sums)

        monkeypatch.setattr(oracle, "log_hitting_sums", nan_at_the_end)
        rc, out, err = run_cli(capsys, "verify", "--rho", "0.5", "--n", "10")
        assert rc == 1 and "oracle_equivalence" in err
        check, = [c for c in strict_loads(out)["data"]["checks"]
                  if c["inequality"] == "oracle_equivalence"]
        assert check["passed"] is False
        assert check["lhs"] is None and check["margin"] is None

    def test_corrupted_constant_fails(self, tmp_path, capsys, monkeypatch):
        # a quartered growth constant c1 must surface as a failing report
        from bdheight import asymptotics
        check = asymptotics.check_peak_ratio_bounds
        monkeypatch.setattr(asymptotics, "check_peak_ratio_bounds",
                            lambda n, c: check(n, c._replace(c1=0.25 * c.c1)))
        path = tmp_path / "artifact"
        rc = main(["verify", "--rho", "0.5", "--n", "2000", "--output", str(path)])
        assert rc == 1
        failed = [c for c in strict_loads(path.read_text())["data"]["checks"]
                  if c["applicable"] and not c["passed"]]
        assert [c["inequality"] for c in failed] == ["peak_growth"]
        assert capsys.readouterr().err.startswith("verify: FAILED peak_growth at n=2000, ")
        # the failing artifact is pinned like the passing ones
        assert _pinned_digest(path.read_bytes()) == (
            "9989a87405272ff8991d08a3f40614719f95363ea724cb009a1b8ccf57edc81a")


class TestSimulateCommand:
    def test_reference_run_passes_band(self, capsys):
        rc, doc, _ = run_json(capsys, "simulate", "--n", "50", "--rho", "0.8",
                              "--samples", "20000", "--seed", "7", "--assert")
        assert rc == 0
        assert doc["data"]["summary"]["dkw_pass"] is True

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["simulate", "--n", "30", "--rho", "0.6", "--samples", "5000",
                "--seed", "11"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_counts_are_stored_once(self, capsys):
        rc, doc, _ = run_json(capsys, "simulate", "--n", "30", "--rho", "0.6",
                              "--samples", "5000", "--seed", "11")
        assert rc == 0
        summary, rows = doc["data"]["summary"], doc["data"]["rows"]
        # the per-height numbers live in the rows; the summary holds scalars
        assert not any(isinstance(value, (list, dict)) for value in summary.values())
        assert "counts" not in summary and "empirical_pmf" not in summary
        assert sum(rows["count"]) == doc["manifest"]["parameters"]["samples"] == 5000

    def test_inputs_are_recorded_in_the_manifest_only(self, capsys):
        rc, out, _ = run_cli(capsys, "simulate", "--n", "30", "--rho", "0.6", "--samples", "500",
                             "--seed", "11")
        assert rc == 0
        doc = strict_loads(out)
        # the summary's scalars, key-sorted
        assert list(doc["data"]["summary"]) == sorted([
            "empirical_mean", "empirical_variance", "sup_distance", "dkw_epsilon", "dkw_pass",
            "mean_busy_duration"])
        assert doc["manifest"]["parameters"] == {"N": 30, "rho": 0.6, "samples": 500,
                                                 "seed": 11, "mode": "ladder", "delta": 0.01}

    def test_infeasible_walk_exits_2_with_warning(self, capsys):
        # a refused batch gets the refusal alone, not first a warning to switch modes
        # --n 30 --samples 1: one excursion of ~1.07e9 expected steps
        for argv in (("--n", "50", "--rho", "0.8", "--samples", "1000"),
                     ("--n", "30", "--rho", "1", "--samples", "100000"),
                     ("--n", "30", "--rho", "1", "--samples", "1")):
            rc, out, err = run_cli(capsys, "simulate", *argv, "--mode", "jump-chain")
            assert (rc, out) == (2, "")
            assert len(err.splitlines()) == 1 and err.startswith("simulate: error: "), err

    def test_long_walk_warns_and_runs(self, capsys, monkeypatch):
        # ~4.4e4 estimated steps: above the warning threshold of a lowered
        # budget (a hundredth of it, 1e4), within the budget itself
        monkeypatch.setattr(simulate_module, "MAX_TOTAL_STEPS", 1e6)
        rc, _, err = run_cli(capsys, "simulate", "--n", "20", "--rho", "0.5", "--samples", "10",
                             "--mode", "jump-chain")
        assert rc == 0
        assert err.startswith("simulate: warning: ") and len(err.splitlines()) == 1

    def test_warning_starts_at_a_hundredth_of_the_budget(self, capsys, monkeypatch):
        # the default budget of 1e9 steps: 100 samples estimated at 1e7 steps
        # run quietly, and just past it they are warned of
        assert simulate_module.MAX_TOTAL_STEPS == 1e9
        for mean, warned in ((1e5, False), (1.01e5, True)):
            monkeypatch.setattr(simulate_module, "estimate_mean_excursion_steps",
                                lambda p, mean=mean: mean)
            rc, _, err = run_cli(capsys, "simulate", "--n", "1", "--rho", "0.5", "--samples",
                                 "100", "--mode", "jump-chain")
            assert rc == 0 and err.startswith("simulate: warning: ") == warned, err

    def test_law_and_columns_are_built_once(self, capsys, monkeypatch):
        calls = {"height_distribution": 0, "batch_columns": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)
        counted(bdheight.exactdist, "height_distribution")
        counted(simulate_module, "batch_columns")
        rc, _, _ = run_cli(capsys, "simulate", "--n", "30", "--rho", "0.6", "--samples", "500",
                           "--seed", "3")
        assert rc == 0
        assert calls == {"height_distribution": 1, "batch_columns": 1}

    def test_tripped_circuit_breaker_exits_2(self, capsys, monkeypatch):
        # test_simulate's circuit-breaker batch: a budget of 10 steps lets the
        # batch take 100 jumps, and at rho = 0.01 most excursions are the one
        # step 1 -> 0.  The patched estimate admits the batch without a warning.
        monkeypatch.setattr(simulate_module, "MAX_TOTAL_STEPS", 10)
        monkeypatch.setattr(simulate_module, "estimate_mean_excursion_steps", lambda p: 0.0)
        rc, out, err = run_cli(capsys, "simulate", "--n", "30", "--rho", "0.01",
                               "--samples", "1000", "--seed", "6", "--mode", "jump-chain")
        assert (rc, out) == (2, "")
        done = re.fullmatch(r"simulate: error: a walk batch passed 100 jump steps .*; "
                            r"(\d+) of 1000 samples completed\n", err)
        assert done and 0 < int(done[1]) < 1000

    def test_failed_band_with_assert_exits_1(self, tmp_path, capsys, monkeypatch):
        # a zero-width band fails every batch; the artifact is still written
        monkeypatch.setattr(simulate_module, "dkw_epsilon", lambda n, delta: 0.0)
        path = tmp_path / "batch"
        rc, out, err = run_cli(capsys, "simulate", "--n", "10", "--rho", "0.5", "--samples",
                               "100", "--output", str(path), "--assert")
        assert (rc, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("simulate: ECDF band exceeded: sup=") and "> eps=0\n" in err
        assert path.stat().st_size > 0


class TestSweep:
    def test_supercritical_columns(self, capsys):
        rc, doc, _ = run_json(capsys, "sweep", "--rho", "2", "--n", "100", "1000", "10000")
        assert rc == 0
        rows = doc["data"]["rows"]
        assert [r["N"] for r in rows] == [100, 1000, 10000]
        for r in rows:
            if r["N"] >= 1000:
                assert r["mean_gap"] <= 4.0 / r["N"]
            assert r["var_limit"] == pytest.approx(0.5)

    def test_missing_grid_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--rho", "2"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unordered_grid_answers_in_the_order_given(self, capsys):
        rc, doc, _ = run_json(capsys, "sweep", "--rho", "0.5", "--n", "1000", "10")
        assert rc == 0
        assert [r["N"] for r in doc["data"]["rows"]] == [1000, 10]
        assert doc["manifest"]["parameters"]["N"] == [1000, 10]

    def test_repeated_grid_value_exits_2(self, capsys):
        # the message is verify's
        rc, out, err = run_cli(capsys, "sweep", "--rho", "2", "--n", "100", "100")
        assert (rc, out) == (2, "")
        assert err == "sweep: error: the N grid must not repeat a value, got [100, 100]\n"


@pytest.mark.parametrize("argv", [
    ["dist", "--n", "5", "--rho", "0.5"],
    ["alpha", "--rho", "0.3"],
    ["verify", "--rho", "0.5", "--n", "10"],
    ["simulate", "--n", "5", "--rho", "0.5", "--samples", "10"],
    ["sweep", "--rho", "0.5", "--n", "10"],
], ids=lambda argv: argv[0])
def test_format_is_refused(capsys, argv):
    # JSON is the one artifact format, so no subcommand takes --format
    for fmt in ("json", "csv"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", fmt])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.startswith("usage: bdheight ") and "Traceback" not in err
        assert err.endswith(f": error: unrecognized arguments: --format {fmt}\n"), err
    rc, doc, _ = run_json(capsys, *argv)
    assert rc == 0
    assert "format" not in doc["manifest"]["parameters"]


class TestKnownLimits:
    """README "Known limits" as strict expected failures: each passes once
    the ROADMAP item its reason names mends it."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
    @pytest.mark.parametrize("argv", [
        ["--rho", "0.001"],  # peak_decay, margin -21.9 at n = 1e4
        ["--rho", "0.95"],  # peak_term_sqrt_band, margin -56.7 at n = 1e5
        ["--rho", "0.9999", "--n", "1000", "100000"],  # peak_growth, margin -11.5 at n = 1e5
    ], ids=["rho_0.001", "rho_0.95", "rho_0.9999"])
    def test_verify_passes_near_the_ends_of_rho_below_1(self, capsys, argv):
        rc, _, err = run_json(capsys, "verify", *argv)
        assert rc == 0, err

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
    def test_sweep_mean_reaches_its_limit_at_2_to_the_53_minus_1(self, capsys):
        # mean_gap is 0.515 today: the head terms are noise at this N
        rc, doc, _ = run_json(capsys, "sweep", "--rho", "0.5", "--n", str(2**53 - 1))
        assert rc == 0
        assert doc["data"]["rows"][0]["mean_gap"] <= 1e-12


_CLOSED_FORM_COMMANDS = pytest.mark.parametrize(
    "argv", [["sweep", "--rho", "0.5"], ["verify"]], ids=["sweep", "verify"])


class TestLargestN:
    """The closed form takes N up to 2**53, where every index is an exact
    double, and refuses larger N up front, at any size."""

    @_CLOSED_FORM_COMMANDS
    def test_answers_at_2_to_the_53(self, capsys, argv):
        start = time.perf_counter()
        rc, doc, _ = run_json(capsys, *argv, "--n", str(2**53))
        assert time.perf_counter() - start < 1.0
        # verify answers with exit 1 where a check fails: at 2**53 the
        # log terms are too coarse for peak_growth (README, Known limits)
        assert rc in ((0,) if argv[0] == "sweep" else (0, 1))
        assert doc["manifest"]["command"] == argv[0]

    @pytest.mark.parametrize("n", [2**53 + 1, 10**30, 10**400], ids=["2**53+1", "1e30", "1e400"])
    @_CLOSED_FORM_COMMANDS
    def test_refuses_larger_n(self, capsys, argv, n):
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, *argv, "--n", str(n))
        assert time.perf_counter() - start < 1.0
        assert (rc, out) == (2, "")
        assert err.startswith(f"{argv[0]}: error: N is capped at 2**53") and err.count("\n") == 1


_CORNER_RHOS = ["1e-300", "1e-16", "0.5", "1", "1e16", "1e300"]


def _corner_runs():
    """Every subcommand at the documented corners: N in {1, 2, 1e6} and rho
    from 1e-300 to 1e300; simulate at N = 1e6 at three rho only, ~1 s each."""
    yield from (["alpha", "--rho", rho] for rho in _CORNER_RHOS)
    for command in ("sweep", "verify", "dist", "simulate"):
        for n in ("1", "2", "1000000"):
            for rho in _CORNER_RHOS:
                if command != "simulate":
                    yield [command, "--n", n, "--rho", rho]
                elif n != "1000000" or rho in ("1e-300", "0.5", "1e300"):
                    yield [command, "--n", n, "--rho", rho, "--samples", "1000", "--seed", "1"]


class TestInputCorners:
    @pytest.mark.parametrize("argv", list(_corner_runs()), ids="_".join)
    def test_answers_or_refuses_cleanly(self, tmp_path, capsys, argv):
        path = tmp_path / "artifact"
        rc = main([*argv, "--output", str(path)])
        err = capsys.readouterr().err
        assert rc in (0, 2), err
        assert err.count("\n") <= 1 and "Traceback" not in err
        if rc == 2:
            assert not path.exists()
            return
        if "1000000" in argv:  # tens of MB: scan for the non-standard tokens, not parse
            text = path.read_bytes()
            path.unlink()
            assert text.startswith(b'{"data":') and text.endswith(b"}\n")
            assert b"NaN" not in text and b"Infinity" not in text
        else:
            assert strict_loads(path.read_text())["manifest"]["command"] == argv[0]


class TestParserContract:
    @pytest.mark.parametrize("sub", ["dist", "alpha", "verify", "simulate", "sweep"])
    def test_help_exits_0(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        capsys.readouterr()

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--n", "3", "--rho", "1", "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["dist", "--n", "1000", "--rho", "0"],
        ["dist", "--n", "10", "--rho", "inf"],
        ["simulate", "--n", "10", "--rho", "0", "--samples", "10"],
    ], ids=["dist_rho_0", "dist_rho_inf", "simulate_rho_0"])
    def test_rho_out_of_range_exits_2(self, capsys, argv):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert "rho" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["dist", "--rho", "0.5"],
        ["simulate", "--rho", "0.5", "--samples", "10"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("n", [MAX_ROWS + 1, 10**9])
    def test_row_limit_exits_2(self, capsys, argv, n):
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, *argv, "--n", str(n))
        assert time.perf_counter() - start < 5.0  # refused before any O(N) work
        assert rc == 2
        assert out == ""
        assert f"row limit of {MAX_ROWS}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("rho", ["1e-16", "1e-20", "1e-300"])
    @pytest.mark.parametrize("argv", [["alpha"], ["sweep", "--n", "1", "1000", "1000000"],
                                      ["verify"]], ids=lambda argv: argv[0])
    def test_tiny_rho_answers(self, capsys, argv, rho):
        # An absolute bracket end rho + 1e-15 gave "no sign change" here.
        rc, out, err = run_cli(capsys, *argv, "--rho", rho)
        assert rc == 0, err
        assert strict_loads(out)["manifest"]["command"] == argv[0]

    @pytest.mark.parametrize("argv", [
        ["dist", "--n", "10", "--rho", "1e308"],
        ["sweep", "--rho", "1e300", "--n", "1000000000"],
        ["verify", "--rho", "1e300", "--n", "1000000000"],
        ["simulate", "--n", "10", "--rho", "1e308", "--samples", "100"],
    ], ids=lambda argv: argv[0])
    def test_overflowing_rho_n_answers(self, capsys, argv):
        # rho (N - 1) overflows to inf: the turning point of the terms once
        # raised OverflowError, and the jump probabilities came out nan.
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning is a failure
            rc, out, err = run_cli(capsys, *argv)
        assert rc == 0 and err == ""
        assert strict_loads(out)["manifest"]["command"] == argv[0]

    @pytest.mark.parametrize("rho", ["0.99999999999999", "0.999999999999999",
                                     "0.9999999999999998"])
    def test_alpha_next_to_one_answers(self, capsys, rho):
        # alpha lies above 1 - 1e-15, the bracket's old upper end
        rc, out, err = run_cli(capsys, "alpha", "--rho", rho)
        assert rc == 0, err
        data = strict_loads(out)["data"]
        assert float(rho) < data["alpha"] < 1.0 and data["constants"]["c2"] > 0.0

    def test_alpha_at_the_largest_double_below_one_exits_2(self, capsys):
        # alpha rounds to rho there, and c2 = 3 / (log alpha - log rho)
        rc, out, err = run_cli(capsys, "alpha", "--rho", "0.9999999999999999")
        assert (rc, out) == (2, "") and "c2" in err

    def test_json_keys_are_sorted(self, capsys):
        rc, out, _ = run_cli(capsys, "alpha", "--rho", "0.5")
        assert rc == 0
        doc = json.loads(out)
        assert out == json.dumps(doc, sort_keys=True, separators=(",", ":"),
                                 allow_nan=False) + "\n"


def test_readme_cli_examples_run(tmp_path, capsys):
    # each line of README's CLI example block, its artifact redirected
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = re.search(r"^## CLI\n\n```\n(.*?)^```", fh.read(), re.M | re.S)[1]
    lines = [line.split(" #")[0] for line in block.splitlines()]
    assert len(lines) >= 5
    for i, line in enumerate(lines):
        prog, *argv = shlex.split(line)
        assert prog == "bdheight", line
        if "--output" in argv:
            at = argv.index("--output") + 1
            argv[at] = str(tmp_path / argv[at])
        else:
            argv += ["--output", str(tmp_path / f"example-{i}")]
        assert main(argv) == 0, (line, capsys.readouterr().err)


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


# The pinned digests are of artifacts written as version 0.3.6: an artifact's
# version is set to that before it is hashed, so a version bump alone moves no
# pin, and a pin that moves shows that the data moved.  The pins of dist,
# simulate, alpha and sweep moved in 0.4.0 only because their manifests lost
# the "format" parameter; no data byte moved.  The pins of verify moved in
# 0.4.1 only because each report lost its "floor_margin" key; every other
# value kept its bits.
_PIN_VERSION = "0.3.6"


def _pinned_digest(blob: bytes) -> str:
    """sha256 of an artifact whose manifest's version is written as _PIN_VERSION;
    the version is the manifest's last key, so the artifact ends with it."""
    head, field, tail = blob.rpartition(b'"version":')
    assert tail == b'"%s"}}\n' % bdheight.__version__.encode()
    return hashlib.sha256(head + field + b'"%s"}}\n' % _PIN_VERSION.encode()).hexdigest()


def _framed(data: bytes, parameters: dict, command: str = "dist") -> bytes:
    """The artifact ``_emit`` writes for the data bytes ``data``."""
    manifest = {"tool": "bdheight", "version": bdheight.__version__, "command": command,
                "parameters": parameters, "data_sha256": hashlib.sha256(data).hexdigest()}
    return b'{"data":' + data + b',"manifest":' + _canonical(manifest) + b"}\n"


_T = cli._SMALL_HASH_BYTES


class TestEmission:
    @pytest.mark.parametrize("argv", [
        ["dist", "--n", "10", "--rho", "0.5"],
        pytest.param(["dist", "--n", "10000", "--rho", "0.5"], id="dist_plateau"),
        pytest.param(["dist", "--n", "5000", "--rho", "1e-300"], id="dist_rho_1e-300"),
        pytest.param(["dist", "--n", "5000", "--rho", "1e300"], id="dist_rho_1e300"),
        ["alpha", "--rho", "0.25"],
        ["verify", "--rho", "0.5", "--n", "10", "1000"],
        ["simulate", "--n", "10", "--rho", "0.5", "--samples", "300", "--seed", "3"],
        ["sweep", "--rho", "2", "--n", "10", "100"],
    ], ids=lambda argv: argv[0])
    def test_artifact_is_one_canonical_line(self, capsys, argv):
        _, out, _ = run_cli(capsys, *argv)
        assert out == canonical(strict_loads(out))

    def test_checksum_covers_written_bytes(self, tmp_path, capsys):
        path = tmp_path / "law.json"
        args = ["dist", "--n", "50", "--rho", "0.7"]
        assert main([*args, "--output", str(path)]) == 0
        rc, out, _ = run_cli(capsys, *args)
        blob = path.read_bytes()
        assert rc == 0 and out.encode() == blob
        head, tail = b'{"data":', b',"manifest":'
        assert blob.startswith(head)
        data_bytes = blob[len(head):blob.rindex(tail)]
        sha = json.loads(blob)["manifest"]["data_sha256"]
        assert hashlib.sha256(data_bytes).hexdigest() == sha

    @pytest.mark.parametrize("split", ["whole", "bytewise", "mixed"])
    @pytest.mark.parametrize("size", [0, 1, _T - 1, _T, _T + 1, 3 * _T + 7],
                             ids=["0", "1", "T-1", "T", "T+1", "3T+7"])
    def test_both_hash_paths_give_the_data_digest(self, tmp_path, monkeypatch, split, size):
        # Data within _SMALL_HASH_BYTES (T) is hashed by the built-in
        # SHA-256 from its held pieces, and larger data by hashlib's, fed the
        # held pieces and then the rest as it streams.  A piece lost,
        # repeated or reordered at the switch changes the digest.
        data = random.Random(size).randbytes(size)
        cuts = {"bytewise": itertools.count(),
                "mixed": itertools.accumulate(itertools.cycle([1, 0, 5, 4093, _T - 3, 2]),
                                              initial=0)}
        pieces = [data] if split == "whole" else (
            data[lo:hi] for lo, hi in itertools.pairwise(itertools.chain(
                itertools.takewhile(lambda c: c < size, cuts[split]), [size])))
        builtin, builtin_used = cli._builtin_sha256, []

        def builtin_sha256():
            builtin_used.append(True)
            return builtin()
        monkeypatch.setattr(cli, "_builtin_sha256", builtin_sha256)
        path = tmp_path / "artifact"
        _emit("dist", {"N": 1}, pieces, str(path))
        assert path.read_bytes() == _framed(data, {"N": 1})
        assert builtin_used == [True] * (size <= _T)

    def test_without_the_builtin_sha256_hashlib_hashes_every_size(self, tmp_path):
        # An interpreter built without _sha2 (3.12+) or _sha256 hashes every
        # artifact with hashlib, to the same digest, and loads it only to hash.
        code = """if True:
            import sys
            sys.modules["_sha2"] = sys.modules["_sha256"] = None
            import bdheight.cli as cli
            assert "_hashlib" not in sys.modules and "hashlib" not in sys.modules
            path, size = sys.argv[1], int(sys.argv[2])
            cli._emit("dist", {}, [bytes(range(256)) * (size // 256)], path)
            print("_hashlib" in sys.modules)
        """
        src = os.path.dirname(os.path.dirname(bdheight.__file__))
        for size in (0, 256, _T, 2 * _T):
            path = tmp_path / f"{size}.json"
            proc = subprocess.run([sys.executable, "-c", code, str(path), str(size)],
                                  env={**os.environ, "PYTHONPATH": src},
                                  capture_output=True, text=True, check=True)
            assert proc.stdout.split() == ["True"]
            assert path.read_bytes() == _framed(bytes(range(256)) * (size // 256), {})

    def test_held_pieces_are_hashed_unjoined(self, tmp_path):
        # Data just within _SMALL_HASH_BYTES (T) is held piece by piece until
        # it ends: ~1.03 T traced.  Joining the held pieces before hashing
        # them holds the data twice, ~2.04 T.
        data = random.Random(0).randbytes(_T - 1000)
        pieces = (data[lo:lo + 4096] for lo in range(0, len(data), 4096))
        path = tmp_path / "artifact"
        tracemalloc.start()
        try:
            _emit("dist", {}, pieces, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == _framed(data, {})
        assert peak < 1.5 * _T

    def test_large_stdout_matches_file(self, tmp_path, capsys):
        # stdout gets the artifact's bytes through its binary buffer; a
        # multi-byte character must come out whole.
        path = tmp_path / "law.json"
        args = ["dist", "--n", "100000", "--rho", "0.5"]
        assert main([*args, "--output", str(path)]) == 0
        rc, out, _ = run_cli(capsys, *args)
        blob = path.read_bytes()
        assert rc == 0 and len(blob) > 2**20 and out.encode() == blob
        text = "x" * (2**20 - 1) + "\u00e9\u20ac"
        _write((text.encode("utf-8"),), None)
        assert capsys.readouterr().out == text

    def test_dist_columns_are_the_law_bit_for_bit(self, tmp_path, capsys):
        n, rho = 200000, 0.5
        path = tmp_path / "law.json"
        assert main(["dist", "--n", str(n), "--rho", str(rho), "--output", str(path)]) == 0
        capsys.readouterr()
        data = json.loads(path.read_bytes())["data"]
        law = height_distribution(make_params(n, rho=rho))
        assert data["rows"]["k"] == list(range(1, n + 1))
        for name, want in (("survival", law.survival_values()), ("pmf", law.pmf)):
            got = np.array(data["rows"][name], dtype=float)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
        assert (data["mean"], data["variance"]) == (law.mean, law.variance)

    def test_dist_builds_no_float_list(self, tmp_path):
        # Writing the columns from the law's runs traces ~1.2 MiB at any N:
        # a piece of each column and its bytes.  One dense float64 column
        # adds 8 MB, a Python float list of 1e6 entries ~30 MiB, the k
        # column as a list ~36 MiB, and the artifact held whole 27 MB.
        tracemalloc.start()
        try:
            rc = main(["dist", "--n", "1000000", "--rho", "0.5",
                       "--output", str(tmp_path / "law.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("target", ["missing_dir", "directory", "empty", "dev_full"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, target):
        # an empty path is a path that cannot be opened, not stdout; on
        # /dev/full the open succeeds and the close's flush fails with ENOSPC
        if target == "dev_full" and not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        output = {"missing_dir": str(tmp_path / "missing" / "x"), "directory": str(tmp_path),
                  "empty": "", "dev_full": "/dev/full"}[target]
        rc, out, err = run_cli(capsys, "dist", "--n", "5", "--rho", "0.5", "--output", output)
        assert (rc, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("dist: error: cannot write"), err

    def test_failed_write_keeps_the_old_output(self, tmp_path):
        # A 1 MiB file size limit, in the child only, fails the 2.7 MB
        # artifact part way: the earlier file must survive it whole.
        resource = pytest.importorskip("resource")
        path = tmp_path / "law.json"
        path.write_bytes(b"old artifact\n")
        src = os.path.dirname(os.path.dirname(bdheight.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "bdheight.cli", "dist", "--n", "100000", "--rho", "0.5",
             "--output", str(path)],
            env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (2**20, 2**20)),
            capture_output=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.decode() == (
            f"dist: error: cannot write --output {path}: {os.strerror(errno.EFBIG)}\n")
        assert path.read_bytes() == b"old artifact\n"
        assert os.listdir(tmp_path) == ["law.json"]

    def test_output_is_replaced_whole_with_the_mode_open_gives(self, tmp_path):
        old, new, fresh = tmp_path / "old.json", tmp_path / "new.json", tmp_path / "fresh"
        old.write_bytes(b"a longer earlier artifact" * 100)
        fresh.write_bytes(b"")  # created by open(), under this process's umask
        for path in (old, new):
            assert main(["dist", "--n", "5", "--rho", "0.5", "--output", str(path)]) == 0
            assert strict_loads(path.read_text())["manifest"]["command"] == "dist"
        assert os.stat(new).st_mode == os.stat(fresh).st_mode
        assert sorted(os.listdir(tmp_path)) == ["fresh", "new.json", "old.json"]

    def test_stale_temporary_file_takes_the_next_name(self, tmp_path):
        # a run killed mid-write leaves its temporary file, and pids repeat
        stale = [tmp_path / f".bdheight-{os.getpid()}{i}.tmp" for i in ("", "-1")]
        for name in stale:
            name.write_bytes(b"partial")
        path = tmp_path / "out.json"
        assert main(["dist", "--n", "3", "--rho", "0.5", "--output", str(path)]) == 0
        assert strict_loads(path.read_text())["manifest"]["command"] == "dist"
        assert [name.read_bytes() for name in stale] == [b"partial"] * 2
        assert sorted(os.listdir(tmp_path)) == sorted([*(name.name for name in stale), "out.json"])

    def test_symlinked_output_is_written_through_the_link(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_bytes(b"old")
        link.symlink_to(target)
        assert main(["dist", "--n", "5", "--rho", "0.5", "--output", str(link)]) == 0
        assert link.is_symlink()
        assert strict_loads(target.read_text())["manifest"]["command"] == "dist"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_exits_2_without_traceback(self):
        # the 2.7 MB artifact fails in a write; the bytes left in stdout's
        # buffer must not fail again at exit
        src = os.path.dirname(os.path.dirname(bdheight.__file__))
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "bdheight.cli", "dist", "--n", "100000", "--rho", "0.5"],
                env={**os.environ, "PYTHONPATH": src}, stdout=full, stderr=subprocess.PIPE,
                timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.decode() == (
            f"dist: error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")

    # sha256 of whole artifacts, their version set to _PIN_VERSION, whose
    # ladder terms are built on math.lgamma
    @pytest.mark.parametrize("argv,digest", [
        (["dist", "--n", "1000", "--rho", "0.5"],
         "e30c59324358a82804bb36e85da9af48d5a492a2fc9b24dce8d25325c8183e39"),
        (["dist", "--n", "1", "--rho", "2"],
         "7835ea25610b8e7b6064d92b57c6ce5acbcc57dd221755c3a1bd17557b9b242a"),
        (["simulate", "--n", "50", "--rho", "0.5", "--samples", "1000", "--seed", "1"],
         "7a3b1ee12f635e36a8d4246af0dff0c7bf7ed9c3bc46342a1f4507c6939f4bef"),
        # its k column reaches the blocks of 10**4 entries
        (["dist", "--n", "123457", "--rho", "0.5"],
         "563383205a0b94f8385077204ce769395cee6b4efcd4aea6f7f831de505735e7"),
        # the duration sum (the walk as drawn by 0.3.9), the alpha and
        # bound-constant records and the limit-table rows
        (["simulate", "--n", "5", "--rho", "0.5", "--samples", "20000", "--seed", "1",
          "--mode", "full-ctmc"],
         "0f608828f52fb2531c72f47818d413ed0f083ee6f92f56a11686bf77e44e28a1"),
        (["alpha", "--rho", "0.3"],
         "ee7e72a357e2fe5a6a16cce32c7e283cb4fc41bf5c0a89261c579f5ec035a719"),
        (["sweep", "--rho", "0.5", "--n", "1000", "1000000"],
         "89d7e6278e394f3f413b41ef1e88dcfbcb67301c26d0bc41a29d37274f171b52"),
        # laws at N = 1e9 and 1e12, far past the default grid
        (["sweep", "--rho", "0.5", "--n", "1000000000", "1000000000000"],
         "f0181bc41feaf6c64d55ebf7ebe2090cc159a7fa457854798048ffce6c200004"),
        # the certificate records over the default rho grid, and with a
        # rho >= 1 and an N below the asserted threshold
        (["verify", "--n", "1000", "10000", "100000", "1000000"],
         "0c29456f49d9ce711bd57c6f695ef43080260688e265573e4bc554e5f9a130b5"),
        (["verify", "--rho", "0.5", "2", "--n", "10", "1000"],
         "219bdadbeb4fc9e40ec3a646c901caf387783629d3c42d1879b4a4cf935bf80e"),
        # a mass bound of -inf, a decay and a band that are not applicable,
        # and a rho near 1
        (["verify", "--rho", "1e-300", "0.9", "--n", "1000", "100000"],
         "1d5be206c448067d9c255857caede6128f9b6691b1f2971d7a70e2254768d934"),
    ], ids=lambda v: "_".join(v) if isinstance(v, list) else "")
    def test_artifact_bytes_are_pinned(self, tmp_path, argv, digest):
        path = tmp_path / "artifact"
        assert main([*argv, "--output", str(path)]) == 0
        blob = path.read_bytes()
        assert _pinned_digest(blob) == digest

    @pytest.mark.parametrize("argv", [
        ["dist", "--n", "1000", "--rho", "0.5"],
        ["alpha", "--rho", "0.3"],
        ["sweep", "--rho", "0.5", "--n", "1000", "1000000"],
        ["simulate", "--n", "50", "--rho", "0.5", "--samples", "1000", "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_artifact_is_made_in_one_pass_with_the_manifest_last(self, capsys, monkeypatch,
                                                                argv):
        # Each column of runs is formatted once, as it is written: one
        # _run_column per run column (none in alpha and sweep).  A manifest
        # written first needs every piece twice, to hash and then to write.
        columns = []
        run_column = cli._run_column

        def counted(runs):
            columns.append(runs)
            return run_column(runs)
        monkeypatch.setattr(cli, "_run_column", counted)
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 0
        assert len(columns) == {"dist": 2, "simulate": 6}.get(argv[0], 0)
        # the manifest comes last, in its one canonical encoding, and
        # data_sha256 hashes every data byte before it
        blob = out.encode()
        manifest = strict_loads(blob)["manifest"]
        data = blob[len(b'{"data":'):blob.rindex(b',"manifest":')]
        assert blob == _framed(data, manifest["parameters"], argv[0])
        assert b'"manifest"' not in data

    def test_non_finite_value_writes_no_file(self, tmp_path):
        # The NaN sits after a column that would already have been streamed.
        path = tmp_path / "law.json"
        data = {"rows": {"k": range(1, 3 * _BLOCK), "x": _Runs([0.5, math.nan], [1, 1])}}
        with pytest.raises(ValueError):
            _emit("dist", {}, _pieces(data), str(path))
        assert not path.exists()
        path.write_bytes(b"an earlier artifact")
        with pytest.raises(ValueError):
            _emit("dist", {}, _pieces({"rows": data["rows"]["k"], "variance": math.inf}),
                  str(path))
        assert path.read_bytes() == b"an earlier artifact"

    def test_non_finite_value_writes_nothing_to_stdout(self, capsys):
        with pytest.raises(ValueError):
            _emit("dist", {}, _pieces({"k": range(1, 6), "x": _Runs([-math.inf], [1])}), None)
        assert capsys.readouterr().out == ""

    def test_closed_stdout_exits_without_traceback(self):
        src = os.path.dirname(os.path.dirname(bdheight.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen(
            [sys.executable, "-m", "bdheight.cli", "dist", "--n", "100000", "--rho", "0.5"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            head = proc.stdout.read(300)  # the 2.7 MB artifact overfills the pipe
            proc.stdout.close()
            assert proc.wait(timeout=60) == 1
            err = proc.stderr.read().decode()
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert head.startswith(b'{"data":')
        assert "Traceback" not in err and "BrokenPipeError" not in err

    def test_simulate_columns(self, capsys):
        n, samples = 40, 3000
        rc, doc, _ = run_json(capsys, "simulate", "--n", str(n), "--rho", "0.7",
                              "--samples", str(samples), "--seed", "5")
        assert rc == 0
        rows = doc["data"]["rows"]
        assert sorted(rows) == ["count", "empirical_cdf", "empirical_pmf", "exact_cdf",
                                "exact_pmf", "exact_survival", "k"]
        assert all(len(column) == n for column in rows.values())
        assert sum(rows["count"]) == samples

    def test_empirical_cdf_is_the_measured_ecdf(self, capsys):
        # sup_distance is measured against cumsum(counts) / samples; a running
        # sum of the rounded pmf differs from it in the last bit.
        rc, doc, _ = run_json(capsys, "simulate", "--n", "50", "--rho", "0.5",
                              "--samples", "1000", "--seed", "1")
        assert rc == 0
        rows = doc["data"]["rows"]
        ecdf = np.cumsum(rows["count"]) / 1000
        assert np.array(rows["empirical_cdf"]).tobytes() == ecdf.tobytes()
        assert rows["empirical_cdf"][-1] == 1.0

    def test_saturated_rho_writes_nothing_to_stderr(self):
        # A numpy warning goes to stderr, where it reads as a failure.
        src = os.path.dirname(os.path.dirname(bdheight.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "bdheight.cli", "simulate", "--n", "10",
             "--rho", "1e20", "--samples", "100"],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["manifest"]["command"] == "simulate"


# Neighbours in bits: both zeros, subnormals, the extremes and last-ulp pairs.
_FLOAT_POOL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
               1e308, -1e308, 0.1, math.nextafter(0.1, 1.0), 1.0,
               math.nextafter(1.0, 0.0), 1 / 3, -2.5]


# Widths of 1, 2, 9, 10 and 19 digits, on both sides of the 32-bit path, and the extremes.
_INT_POOL = [0, 1, -1, 9, 10, -10, 99, 10**9 - 1, 10**9, 2**32 - 1, 2**32, -2**32,
             10**18, 2**63 - 1, -(2**63 - 1), -2**63]


def _each(a) -> _Runs:
    """An array as runs of one entry each, so equal neighbours (``-0.0`` next
    to ``0.0`` too) are written as runs of their own."""
    return _Runs(a.tolist(), [1] * a.size)


# k columns range(1, n + 1): empty, single, about a piece long, and ending at
# either side of a block of 10**4 entries or of a digit edge.
_RANGES = [range(1, n + 1) for n in (0, 1, 2**14, 2**15 + 2, 9998, 9999, 10**4, 10**4 + 1,
                                     10**5, 10**6 + 1)]
# the k that _ints(n) writes, range(1, n), at every block edge, and at a
# digit edge of the block prefix
_INTS_RANGES = [range(1, n) for n in (1, 2, 9999, 10**4, 10**4 + 1, 10**4 + 2, 2**14 + 1, 19999,
                                      2 * 10**4, 2 * 10**4 + 1, 2**15 + 3, 10**5 - 1, 10**5,
                                      10**5 + 1, 123457, 10**6 + 2)]


class TestCanonicalEncoder:
    # Short columns: _each gives every entry a run of its own, so no length
    # reaches the block path, which the run tests below cover.
    @given(runs=st.lists(st.tuples(st.sampled_from(_FLOAT_POOL), st.integers(1, 3)),
                         max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_float_array_encodes_as_its_list(self, runs):
        a = np.array([v for v, n in runs for _ in range(n)], dtype=np.float64)
        doc = {"rows": {"c": _each(a), "b": _each(a[::-1])}, "a": [0.5, None]}
        listed = {"rows": {"c": a.tolist(), "b": a[::-1].tolist()}, "a": [0.5, None]}
        assert _canonical(doc) == canonical(listed)[:-1].encode()

    @pytest.mark.parametrize("a", [
        np.zeros(0, dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.arange(1, 1001),
        np.array([-2**63, -1, 0, 0, 0, 1, 2**63 - 1], dtype=np.int64),
    ], ids=["empty", "one", "arange", "extremes"])
    def test_int_array_encodes_as_its_list(self, a):
        assert _canonical({"c": _each(a)}) == canonical({"c": a.tolist()})[:-1].encode()

    @given(values=st.lists(st.one_of(st.sampled_from(_INT_POOL),
                                     st.integers(-2**63, 2**63 - 1)), min_size=1, max_size=30),
           length=st.sampled_from([0, 1, 2, 29, 30, 31, 63]))
    @settings(max_examples=200, deadline=None)
    def test_int64_column_encodes_as_its_list(self, values, length):
        a = np.resize(np.array(values, dtype=np.int64), length)
        doc = {"rows": {"c": _each(a), "b": _each(a[::-1])}}
        listed = {"rows": {"c": a.tolist(), "b": a[::-1].tolist()}}
        assert _canonical(doc) == canonical(listed)[:-1].encode()

    @given(runs=st.lists(st.tuples(st.sampled_from(_FLOAT_POOL), st.integers(1, 3)),
                         max_size=12),
           big=st.sampled_from([1, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 1]))
    @settings(max_examples=200, deadline=None)
    def test_runs_encode_as_their_repeat(self, runs, big):
        # short runs, equal neighbours among them, and one long run
        values = [0.5, *(v for v, _ in runs)]
        lengths = [big, *(n for _, n in runs)]
        listed = np.repeat(values, lengths).tolist()
        assert _canonical({"c": _Runs(values, lengths)}) == canonical({"c": listed})[:-1].encode()

    @given(runs=st.lists(st.tuples(st.sampled_from(_FLOAT_POOL + _INT_POOL),
                                   st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                                    3 * _BLOCK + 7])), max_size=4))
    @example(runs=[(0.5, 3 * _BLOCK + 7), (-0.0, 1), (7, _BLOCK), (1.0, 1)])
    @settings(max_examples=60, deadline=None)
    def test_run_pieces_hold_at_most_a_chunk(self, runs):
        # runs on both sides of a piece, a run of one entry last included; no
        # entry holds a comma, so a piece's commas count its entries
        pieces = list(_run_column(_Runs([v for v, _ in runs], [n for _, n in runs])))
        assert max(piece.count(b",") for piece in pieces) <= _BLOCK
        listed = [v for v, n in runs for _ in range(n)]
        assert b"".join(pieces) == json.dumps(listed, separators=(",", ":")).encode()

    @pytest.mark.parametrize("r", _RANGES, ids=str)
    def test_range_encodes_as_its_list(self, r):
        assert _canonical({"k": r}) == canonical({"k": list(r)})[:-1].encode()

    @pytest.mark.parametrize("r", [range(0, 5), range(5, 9), range(1, 9, 2)], ids=str)
    def test_only_the_k_column_range_encodes(self, r):
        # the one range a caller writes is k = 1..N; any other is no JSON value
        with pytest.raises(TypeError):
            _canonical({"k": r})

    @pytest.mark.parametrize("r", _INTS_RANGES, ids=str)
    def test_ints_writes_each_entry(self, r):
        pieces = list(_ints(r.stop))
        assert b"".join(pieces) == b"".join(b"%d," % k for k in r)
        assert all(piece.count(b",") <= _BLOCK for piece in pieces)

    @pytest.mark.parametrize("length", [_BLOCK, _BLOCK + 1, 2**14, 2**14 + 1, 3 * 2**14 + 7])
    def test_float_run_longer_than_a_piece(self, length):
        a = np.concatenate([[0.1, -0.0], np.full(length, 1 / 3), [0.0], np.full(length, 5e-324)])
        assert _canonical({"c": _each(a)}) == canonical({"c": a.tolist()})[:-1].encode()

    @pytest.mark.parametrize("lengths", [[2, 0], [0, 3], [2, -1]], ids=str)
    def test_run_length_below_one_raises(self, lengths):
        # before any piece is formatted: a trailing 0 would write 9999 extra copies
        with pytest.raises(ValueError, match="at least 1"):
            _pieces({"c": _Runs([0.5, 0.25], lengths)})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_raises(self, bad):
        a = np.array([1.0, bad, bad, 2.0])
        with pytest.raises(ValueError):
            canonical({"c": a.tolist()})
        with pytest.raises(ValueError):
            _canonical({"c": _each(a)})


_SMALL_N_RUNS = [[*argv, "--n", n] for n in ("1", "2", "10") for argv in (
    ["dist", "--rho", "0.5"],
    ["simulate", "--rho", "0.5", "--samples", "200", "--seed", "1"],
    ["sweep", "--rho", "0.5"], ["sweep", "--rho", "2"],
    ["verify", "--rho", "0.5"], ["verify", "--rho", "2"],
)] + [["alpha", "--rho", "0.5"], ["alpha", "--rho", "2"]]


# rho log-uniform over [1e-300, 1e300), and the edges of that range and of alpha's
_RHO = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99), st.integers(-300, 299)),
    st.sampled_from([1e-300, 0.9999999999999999, 1.0, 1e300]))


@st.composite
def _cli_runs(draw):
    """An argv of any subcommand at N in [1, 1e4].  simulate draws at most
    200 samples in ladder mode, since a walk mode may be accepted at 1e9
    steps."""
    command = draw(st.sampled_from(["dist", "alpha", "sweep", "verify", "simulate"]))
    n, rho = str(draw(st.integers(1, 10**4))), draw(_RHO)
    if command == "alpha":
        return [command, "--rho", repr(rho)]
    if command in ("sweep", "verify"):
        return [command, "--rho", repr(rho), "--n", n]
    law = ["--rho", repr(rho)]
    if command == "dist":
        return [command, "--n", n, *law]
    return [command, "--n", n, *law, "--samples", str(draw(st.integers(1, 200))),
            "--seed", str(draw(st.integers(0, 2**32)))]


class TestStrictJson:
    @given(argv=_cli_runs())
    # laws with a plateau, whose masses are zero
    @example(argv=["dist", "--n", "1000", "--rho", "0.5"])
    @example(argv=["simulate", "--n", "1000", "--rho", "0.5", "--samples", "10", "--seed", "1"])
    @settings(max_examples=200, deadline=None)
    def test_every_run_writes_strict_json_or_refuses(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "artifact")
            rc = main([*argv, "--output", path])
            if rc == 2:  # refused input writes no artifact
                assert not os.path.exists(path)
                return
            with open(path) as fh:
                text = fh.read()
        doc = strict_loads(text)
        assert doc["manifest"]["command"] == argv[0]
        # a zero mass is +0.0: no column holds a -0.0
        assert argv[0] not in ("dist", "simulate") or not re.search(r"[\[,:]-0\.0[],}]", text)
        # verify exits 1 when a check fails, as some do at rho = 0.01 and near 1
        assert rc == 0 or (argv[0] == "verify" and rc == 1 and not doc["data"]["passed"])

    @pytest.mark.parametrize("argv", _SMALL_N_RUNS, ids="_".join)
    def test_artifacts_parse_strictly(self, capsys, argv):
        rc, out, _ = run_cli(capsys, *argv)
        if rc == 2:  # refused input writes no artifact
            assert out == ""
            return
        assert strict_loads(out)["manifest"]["command"] == argv[0]

    @pytest.mark.parametrize("delta", ["1e-310", "5e-324"])
    def test_subnormal_delta_writes_strict_json(self, capsys, delta):
        # 2 / delta overflows a double there, but the band's half-width does not
        rc, out, _ = run_cli(capsys, "simulate", "--n", "5", "--rho", "0.5", "--samples", "10",
                             "--delta", delta)
        assert rc == 0
        doc = strict_loads(out)
        assert doc["manifest"]["parameters"]["delta"] == float(delta)
        assert doc["data"]["summary"]["dkw_pass"]

    def test_not_applicable_values_are_null(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--rho", "0.5", "--n", "10")
        assert rc == 0
        skipped = [c for c in strict_loads(out)["data"]["checks"] if not c["applicable"]]
        assert skipped
        assert any(c["margin"] is None for c in skipped)

    def test_every_check_has_the_report_keys(self, capsys):
        # peak, mean, band, window and oracle reports, applicable or not, for
        # rho < 1 and rho >= 1: one margin each, and the note
        rc, out, _ = run_cli(capsys, "verify", "--rho", "0.5", "2", "--n", "10", "1000")
        assert rc == 0
        checks = strict_loads(out)["data"]["checks"]
        assert {c["inequality"] for c in checks} == {
            "peak_growth", "peak_decay", "mean_sandwich", "mean_near_capacity",
            "peak_term_sqrt_band", "concentration_window_mass", "oracle_equivalence"}
        for c in checks:
            assert sorted(c) == ["applicable", "inequality", "lhs", "margin", "n", "note",
                                 "passed", "rho", "rhs"]


@pytest.mark.parametrize("module", sorted(bdheight._EXPORTS))
def test_export_lists_name_what_the_submodules_define(module):
    # a star import fails on a listed name that is gone, and the package
    # re-exports only names its submodule lists
    scope = {}
    exec(f"from bdheight.{module} import *", scope)
    listed = set(sys.modules[f"bdheight.{module}"].__all__)
    assert set(scope) - {"__builtins__"} == listed
    assert set(bdheight._EXPORTS[module]) <= listed


def test_import_does_not_load_scipy():
    # importing scipy.special alone costs ~0.45 s per CLI start and numpy
    # ~0.14 s; nothing at runtime needs any of scipy or numpy.  A run loads
    # only the modules it uses, and every exported name still resolves on
    # first use.  No subcommand loads dataclasses, whose inspect (with ast,
    # dis and tokenize) costs ~12 ms, nor numpy, which loads inspect.  The
    # oracle that verify and the ladder run is plain Python, and all three
    # simulate modes draw from the standard library's random.  simulate's
    # moments are int / int, so no command loads fractions (with decimal,
    # ~3 ms).
    src = os.path.dirname(os.path.dirname(bdheight.__file__))
    code = """if True:
        import json, os, sys
        startup = []
        def loaded():
            startup.append([m for m in ("dataclasses", "inspect") if m in sys.modules])
            return sorted(m for m in sys.modules
                          if m.split(".")[0] in ("bdheight", "scipy", "numpy")
                          or m == "fractions")
        def run(*argv):
            assert bdheight.cli.main([*argv, "--output", os.devnull]) == 0
            return loaded()
        import bdheight
        steps = [loaded()]
        import bdheight.cli
        steps.append(loaded())
        steps.append(run("dist", "--n", "20000", "--rho", "0.5"))
        steps.append(run("alpha", "--rho", "0.5"))
        steps.append(run("sweep", "--rho", "0.5", "--n", "1000"))
        verified = run("verify", "--rho", "0.5", "--n", "10")
        simulated = run("simulate", "--n", "10", "--rho", "0.5", "--samples", "100")
        walked = run("simulate", "--n", "10", "--rho", "0.5", "--samples", "100",
                     "--mode", "jump-chain")
        names = {name: getattr(bdheight, name) is not None for name in bdheight.__all__}
        scope = {}
        exec("from bdheight import *", scope)
        print(json.dumps([steps, names, sorted(set(scope) - {"__builtins__"}),
                          sorted(bdheight.__all__), "oracle" in dir(bdheight), startup,
                          verified, simulated, walked]))
    """
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    (steps, names, star, exported, listed, startup, verified, simulated,
     walked) = json.loads(proc.stdout)
    cli_set = ["bdheight", "bdheight.cli", "bdheight.errors", "bdheight.exactdist",
               "bdheight.model"]
    limits_set = sorted([*cli_set, "bdheight.asymptotics"])
    assert steps == [["bdheight"], cli_set, cli_set, limits_set, limits_set]
    assert len(names) == 35 and all(names.values())  # __version__ and 34 exported names
    assert star == exported and listed
    # bdheight, bdheight.cli, dist, alpha, sweep, verify, a ladder simulate
    # and a walk
    assert startup == [[]] * 8
    assert verified == sorted([*limits_set, "bdheight.oracle"])
    assert simulated == walked == sorted([*verified, "bdheight.simulate"])
    # the oracle alone, run once, loads no numpy either
    code = """if True:
        import sys
        import bdheight.oracle
        from bdheight import make_params
        list(bdheight.oracle.log_hitting_sums(make_params(10, rho=0.5)))
        print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
    """
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["[]"]


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["dist", "--n", "1000", "--rho", "0.5"],
    ["alpha", "--rho", "0.3"],
    ["sweep", "--rho", "0.5", "--n", "1000", "1000000"],
    ["verify", "--n", "10", "1000"],
    ["simulate", "--n", "50", "--rho", "0.5", "--samples", "1000", "--seed", "1"],
    ["simulate", "--n", "12", "--rho", "0.5", "--samples", "1000", "--mode", "jump-chain"],
    ["simulate", "--n", "5", "--rho", "0.5", "--samples", "1000", "--mode", "full-ctmc"],
], ids="_".join)
def test_runs_without_numpy(argv):
    # numpy is no runtime dependency: every subcommand, and each simulate
    # mode, runs where importing numpy fails
    code = """if True:
        import sys
        sys.modules["numpy"] = None  # any import of numpy raises ImportError
        from bdheight.cli import entrypoint
        entrypoint()
    """
    src = os.path.dirname(os.path.dirname(bdheight.__file__))
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout


@pytest.mark.parametrize("argv, loads", [
    (["--version"], False),
    (["alpha", "--rho", "0.5"], False),
    (["sweep", "--rho", "0.5", "--n", "1000", "1000000"], False),
    (["verify", "--n", "1000", "10000"], False),
    (["simulate", "--n", "2000", "--rho", "0.5", "--samples", "1000"], False),
    (["dist", "--n", "1000", "--rho", "0.5"], False),
    (["dist", "--n", "100000", "--rho", "0.5"], True),
], ids=lambda v: "_".join(v) if isinstance(v, list) else None)
def test_only_large_data_loads_openssl(argv, loads):
    # hashlib loads OpenSSL's libcrypto, ~3.5 MB of RSS and 2.5-5 ms, so only
    # an artifact whose data passes _SMALL_HASH_BYTES imports it (README's
    # start-up table); dist --n 100000 writes ~2.5 MB.  Each command runs in
    # a fresh process, since the first large artifact loads it for good.
    code = """if True:
        import sys
        import bdheight.cli
        try:
            code = bdheight.cli.main(sys.argv[1:])
        except SystemExit as exc:  # --version
            code = exc.code
        print(code, "_hashlib" in sys.modules, "hashlib" in sys.modules, file=sys.stderr)
    """
    src = os.path.dirname(os.path.dirname(bdheight.__file__))
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert proc.stderr.split() == ["0", str(loads), str(loads)]


def test_only_dist_and_sweep_form_the_variance(capsys, monkeypatch):
    # a law forms its moments on first read: verify reads the mean of its
    # grid laws only, and the runs of the rest (the oracle cross-check's,
    # N <= 200); simulate reads only the runs.  dist and sweep write both
    # moments, whose values their pinned digests guard.
    laws = []
    law = bdheight.exactdist.height_distribution
    monkeypatch.setattr(bdheight.exactdist, "height_distribution",
                        lambda p: laws.append(law(p)) or laws[-1])

    def moments(*argv):
        laws.clear()
        assert run_cli(capsys, *argv)[0] == 0
        return [(d.N, "mean" in vars(d), "variance" in vars(d)) for d in laws]

    verified = moments("verify", "--n", "1000", "10000")
    oracle_ns = (1, 2, 3, 5, 10, 20, 50, 100, 200)
    assert len(verified) == 5 * (2 + len(oracle_ns))  # per default rho
    assert {(n, mean) for n, mean, _ in verified} == {(1000, True), (10000, True),
                                                      *((n, False) for n in oracle_ns)}
    assert not any(variance for *_, variance in verified)
    assert moments("simulate", "--n", "50", "--rho", "0.5", "--samples", "1000") == [
        (50, False, False)]
    assert moments("dist", "--n", "1000", "--rho", "0.5") == [(1000, True, True)]
    assert moments("sweep", "--rho", "0.5", "--n", "1000", "1000000") == [
        (1000, True, True), (1000000, True, True)]


def _loaded_by_a_bare_interpreter(names):
    """Those of ``names`` that ``python -c pass`` already loads here, as
    ``site`` may."""
    proc = subprocess.run([sys.executable, "-c", f"import sys; print(*(n in sys.modules "
                           f"for n in {names!r}))"], capture_output=True, text=True, check=True)
    return {n for n, loaded in zip(names, proc.stdout.split()) if loaded == "True"}


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["dist", "--n", "1000", "--rho", "0.5"],
    ["alpha", "--rho", "0.5"],
    ["sweep", "--rho", "0.5", "--n", "1000", "1000000"],
    ["verify", "--n", "1000", "10000"],
    ["simulate", "--n", "50", "--rho", "0.5", "--samples", "1000"],
], ids="_".join)
def test_rare_path_imports_stay_off_the_run_path(argv):
    # array serves only height_dist_oracle, which no command calls, and
    # numbers only a library caller's rate that is not exactly an int or a
    # float; argparse hands over exactly those.  Each command runs in a
    # fresh process.
    code = """if True:
        import sys
        import bdheight.cli
        try:
            code = bdheight.cli.main(sys.argv[1:])
        except SystemExit as exc:  # --version
            code = exc.code
        print(code, "array" in sys.modules, "numbers" in sys.modules, file=sys.stderr)
    """
    src = os.path.dirname(os.path.dirname(bdheight.__file__))
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    code, *loaded = proc.stderr.split()
    preloaded = _loaded_by_a_bare_interpreter(["array", "numbers"])
    assert code == "0"
    assert loaded == [str(name in preloaded) for name in ("array", "numbers")]


def test_rare_paths_still_load_what_they_need():
    # the oracle's dense survival is still an array('d'), and a rate of
    # another type than int or float is still checked against numbers.Real
    code = """if True:
        import json, sys
        import bdheight.oracle
        from bdheight import make_params
        loaded = lambda: ["array" in sys.modules, "numbers" in sys.modules]
        steps = [loaded()]
        surv = bdheight.oracle.height_dist_oracle(make_params(5, 0.5))
        steps.append(loaded())
        class Half(float):
            pass
        rho = make_params(5, Half(0.5)).rho
        steps.append(loaded())
        print(json.dumps([steps, type(surv).__module__, surv.typecode, len(surv),
                          type(rho).__name__]))
    """
    src = os.path.dirname(os.path.dirname(bdheight.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    steps, *rest = json.loads(proc.stdout)
    preloaded = _loaded_by_a_bare_interpreter(["array", "numbers"])
    bare = ["array" in preloaded, "numbers" in preloaded]
    assert steps == [bare, [True, bare[1]], [True, True]]
    assert rest == ["array", "d", 5, "float"]


def _dispatched_cpu_features() -> list[str]:
    """The SIMD features above numpy's baseline that numpy dispatches to on this host."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


@pytest.mark.parametrize("argv", [
    ["dist", "--n", "1000", "--rho", "0.5"],
    ["simulate", "--n", "50", "--rho", "0.5", "--samples", "1000", "--seed", "1"],
    ["verify", "--n", "10", "1000"],
], ids="_".join)
def test_bytes_do_not_depend_on_numpy_cpu_dispatch(argv):
    # numpy picks SIMD kernels (exp, expm1, log, ...) by CPU feature at run
    # time, and they differ from the C library's in the last bit.  The same
    # command must write the same bytes with those kernels switched off.
    features = _dispatched_cpu_features()
    if not features:
        pytest.skip("numpy dispatches to no CPU feature above its baseline here")
    src = os.path.dirname(os.path.dirname(bdheight.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    outputs = [subprocess.run([sys.executable, "-m", "bdheight.cli", *argv], env=run_env,
                              capture_output=True, check=True).stdout
               for run_env in (env, {**env, "NPY_DISABLE_CPU_FEATURES": " ".join(features)})]
    assert outputs[0] == outputs[1]


def test_oracle_bits_do_not_depend_on_numpy_cpu_dispatch():
    # The oracle's logs and exps are the C library's, so its bits are the
    # same with numpy's SIMD kernels switched on or off.  No artifact shows
    # every bit of it, so its outputs are hashed directly.
    features = _dispatched_cpu_features()
    if not features:
        pytest.skip("numpy dispatches to no CPU feature above its baseline here")
    code = """if True:
        import hashlib
        from array import array
        from bdheight import height_dist_oracle, log_hitting_sums, make_params
        digest = hashlib.sha256()
        for n in (10, 200, 2000):
            for rho in (0.25, 0.5, 0.75, 1.0, 2.0, 1e20):
                p = make_params(n, rho=rho)
                digest.update(array("d", log_hitting_sums(p)))
                digest.update(height_dist_oracle(p, cap=n))
        print(digest.hexdigest())
    """
    src = os.path.dirname(os.path.dirname(bdheight.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    digests = [subprocess.run([sys.executable, "-c", code], env=run_env, capture_output=True,
                              text=True, check=True).stdout
               for run_env in (env, {**env, "NPY_DISABLE_CPU_FEATURES": " ".join(features)})]
    assert digests[0] == digests[1]
