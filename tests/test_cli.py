"""CLI contract: flags, exit codes, artifact formats, manifests, stability."""

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
from bdheight.cli import (MAX_ROWS, _BLOCK, _canonical, _csv_body, _emit, _ints, _pieces,
                          _run_column, _Runs, _write, main)


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

    def test_csv_format(self, capsys):
        rc, out, _ = run_cli(capsys, "dist", "--n", "3", "--rho", "1", "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "k,survival,pmf"
        assert lines[1].split(",")[1] == "1"
        assert lines[2].split(",")[1] == "0.666666666666667"  # 15 significant digits
        assert any(line.startswith("# mean=") for line in lines)

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

    def test_csv_writes_null_as_an_empty_value(self, capsys):
        rc, out, _ = run_cli(capsys, "alpha", "--rho", "2", "--format", "csv")
        assert rc == 0
        assert out.splitlines()[:2] == ["rho,f,alpha,residual,iterations,c1,c2,c3",
                                        "2,1,,,,,,"]
        rc, out, _ = run_cli(capsys, "simulate", "--n", "5", "--rho", "0.5", "--samples", "10",
                             "--format", "csv")
        assert rc == 0
        assert "\n# mean_busy_duration=\n# manifest: " in out and "None" not in out

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

    def test_csv_format_is_refused(self, capsys):
        # the nested check records have no CSV form, so verify has no --format
        for fmt in ("json", "csv"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--rho", "0.5", "--n", "10", "--format", fmt])
            out, err = capsys.readouterr()
            assert (exc.value.code, out) == (2, "")
            assert err.startswith("usage: bdheight ") and "Traceback" not in err
            assert err.endswith(f": error: unrecognized arguments: --format {fmt}\n"), err
        rc, doc, _ = run_json(capsys, "verify", "--rho", "0.5", "--n", "10")
        assert rc == 0
        assert "format" not in doc["manifest"]["parameters"]

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
            "a31b09b83de6d8678e149a80f81f673ede1d84244733387d1286d401372afd9e")


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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_inputs_are_recorded_in_the_manifest_only(self, capsys, fmt):
        rc, out, _ = run_cli(capsys, "simulate", "--n", "30", "--rho", "0.6", "--samples", "500",
                             "--seed", "11", "--format", fmt)
        assert rc == 0
        if fmt == "json":
            doc = strict_loads(out)
            manifest, scalars = doc["manifest"], list(doc["data"]["summary"])
        else:
            *lines, last = out.splitlines()
            manifest = strict_loads(last.removeprefix("# manifest: "))
            scalars = [line[2:].split("=")[0] for line in lines if line.startswith("# ")]
        # the summary's scalars, JSON's key-sorted and CSV's in field order
        fields = ["empirical_mean", "empirical_variance", "sup_distance", "dkw_epsilon",
                  "dkw_pass", "mean_busy_duration"]
        assert scalars == (sorted(fields) if fmt == "json" else fields)
        assert manifest["parameters"] == {"N": 30, "rho": 0.6, "samples": 500, "seed": 11,
                                          "mode": "ladder", "delta": 0.01, "format": fmt}

    def test_csv_writes_a_bool_as_json_does(self, capsys, monkeypatch):
        argv = ["simulate", "--n", "10", "--rho", "0.5", "--samples", "100", "--format", "csv"]
        for passed in ("true", "false"):
            if passed == "false":  # a zero-width band fails every batch
                monkeypatch.setattr(simulate_module, "dkw_epsilon", lambda n, delta: 0.0)
            rc, out, _ = run_cli(capsys, *argv)
            assert rc == 0
            assert f"\n# dkw_pass={passed}\n" in out and "True" not in out and "False" not in out

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
        # ~4.4e4 estimated steps: above a lowered warning threshold, within
        # the budget
        monkeypatch.setattr(bdheight.cli, "_WALK_WARN_STEPS", 1e4)
        rc, _, err = run_cli(capsys, "simulate", "--n", "20", "--rho", "0.5", "--samples", "10",
                             "--mode", "jump-chain")
        assert rc == 0
        assert err.startswith("simulate: warning: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_law_and_columns_are_built_once(self, capsys, monkeypatch, fmt):
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
                           "--seed", "3", "--format", fmt)
        assert rc == 0
        assert calls == {"height_distribution": 1, "batch_columns": 1}

    def test_tripped_circuit_breaker_exits_2(self, capsys, monkeypatch):
        # test_simulate's circuit-breaker batch: 3 steps finish only the
        # excursions of height 1 and 2, and at rho = 0.01 most excursions
        # are the one step 1 -> 0
        monkeypatch.setattr(simulate_module, "MAX_EXCURSION_STEPS", 3)
        monkeypatch.setattr(simulate_module, "MAX_TOTAL_STEPS", math.inf)
        rc, out, err = run_cli(capsys, "simulate", "--n", "30", "--rho", "0.01",
                               "--samples", "1000", "--seed", "6", "--mode", "jump-chain")
        assert (rc, out) == (2, "")
        # after the step-estimate warning, one error line
        done = re.fullmatch(r"simulate: error: excursions exceeded 3 jump steps .*; "
                            r"(\d+) of 1000 samples completed", err.splitlines()[-1])
        assert done and 0 < int(done[1]) < 1000

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failed_band_with_assert_exits_1(self, tmp_path, capsys, monkeypatch, fmt):
        # a zero-width band fails every batch; the artifact is still written
        monkeypatch.setattr(simulate_module, "dkw_epsilon", lambda n, delta: 0.0)
        path = tmp_path / "batch"
        rc, out, err = run_cli(capsys, "simulate", "--n", "10", "--rho", "0.5", "--samples",
                               "100", "--format", fmt, "--output", str(path), "--assert")
        assert (rc, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("simulate: ECDF band exceeded: sup=") and "> eps=0\n" in err
        assert path.stat().st_size > 0

    def test_csv_contains_comparison_columns(self, capsys):
        rc, out, _ = run_cli(capsys, "simulate", "--n", "5", "--rho", "1",
                             "--samples", "1000", "--seed", "2", "--format", "csv")
        assert rc == 0
        header = out.splitlines()[0]
        assert header == "k,count,empirical_pmf,exact_pmf,empirical_cdf,exact_cdf,exact_survival"


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

    def test_csv_has_one_line_per_n(self, capsys):
        rc, out, err = run_cli(capsys, "sweep", "--rho", "0.5", "--n", "10", "100", "--format",
                               "csv")
        assert (rc, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == ("N,mean,variance,mean_over_N,var_over_N,mean_limit,var_limit,"
                            "mean_gap,var_gap")
        assert [line.split(",")[0] for line in lines[1:-1]] == ["10", "100"]

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
# pin, and a pin that moves shows that the data moved.
_PIN_VERSION = "0.3.6"


def _pinned_digest(blob: bytes) -> str:
    """sha256 of an artifact whose manifest's version is written as _PIN_VERSION."""
    field = b'"version":"%s"' % bdheight.__version__.encode()
    assert blob.count(field) == 1
    return hashlib.sha256(blob.replace(field, b'"version":"%s"' % _PIN_VERSION.encode())
                          ).hexdigest()


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

    @pytest.mark.parametrize("csv", [False, True], ids=["json", "csv"])
    @pytest.mark.parametrize("split", ["whole", "bytewise", "mixed"])
    @pytest.mark.parametrize("size", [0, 1, _T - 1, _T, _T + 1, 3 * _T + 7],
                             ids=["0", "1", "T-1", "T", "T+1", "3T+7"])
    def test_both_hash_paths_give_the_data_digest(self, tmp_path, monkeypatch, csv, split,
                                                   size):
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
        _emit("dist", {"N": 1}, pieces, str(path), csv=csv)
        manifest = cli._manifest("dist", {"N": 1}, hashlib.sha256(data).hexdigest())
        head, sep, end = ((b"", b"# manifest: ", b"\n") if csv
                          else (b'{"data":', b',"manifest":', b"}\n"))
        assert path.read_bytes() == head + data + sep + _canonical(manifest) + end
        assert builtin_used == [True] * (size <= _T)

    def test_without_the_builtin_sha256_hashlib_hashes_every_size(self, tmp_path):
        # An interpreter built without _sha2 (3.12+) or _sha256 hashes every
        # artifact with hashlib, to the same digest.
        code = """if True:
            import sys
            sys.modules["_sha2"] = sys.modules["_sha256"] = None
            import bdheight.cli as cli
            assert cli._builtin_sha256 is None and "_hashlib" not in sys.modules
            path, size = sys.argv[1], int(sys.argv[2])
            cli._emit("dist", {}, [bytes(range(256)) * (size // 256)], path, csv=True)
            print("_hashlib" in sys.modules)
        """
        src = os.path.dirname(os.path.dirname(bdheight.__file__))
        for size in (0, 256, _T, 2 * _T):
            path = tmp_path / f"{size}.csv"
            proc = subprocess.run([sys.executable, "-c", code, str(path), str(size)],
                                  env={**os.environ, "PYTHONPATH": src},
                                  capture_output=True, text=True, check=True)
            data = bytes(range(256)) * (size // 256)
            manifest = cli._manifest("dist", {}, hashlib.sha256(data).hexdigest())
            assert proc.stdout.split() == ["True"]
            assert path.read_bytes() == data + b"# manifest: " + _canonical(manifest) + b"\n"

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

    def test_csv_streams_its_body(self, tmp_path):
        # The body is made once, hashed as it is written, a block of lines
        # at a time.  Holding every line's bytes until the digest is known
        # traced ~22 MiB.
        tracemalloc.start()
        try:
            rc = main(["dist", "--n", "1000000", "--rho", "0.5", "--format", "csv",
                       "--output", str(tmp_path / "law.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("target", ["missing_dir", "directory", "empty", "dev_full"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, fmt, target):
        # an empty path is a path that cannot be opened, not stdout; on
        # /dev/full the open succeeds and the close's flush fails with ENOSPC
        if target == "dev_full" and not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        output = {"missing_dir": str(tmp_path / "missing" / "x"), "directory": str(tmp_path),
                  "empty": "", "dev_full": "/dev/full"}[target]
        rc, out, err = run_cli(capsys, "dist", "--n", "5", "--rho", "0.5", "--format", fmt,
                               "--output", output)
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
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_full_stdout_exits_2_without_traceback(self, fmt):
        # the 2.7 MB artifact fails in a write; the bytes left in stdout's
        # buffer must not fail again at exit
        src = os.path.dirname(os.path.dirname(bdheight.__file__))
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "bdheight.cli", "dist", "--n", "100000", "--rho", "0.5",
                 "--format", fmt],
                env={**os.environ, "PYTHONPATH": src}, stdout=full, stderr=subprocess.PIPE,
                timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.decode() == (
            f"dist: error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")

    # sha256 of whole artifacts, their version set to _PIN_VERSION, whose
    # ladder terms are built on math.lgamma
    @pytest.mark.parametrize("argv,digest", [
        (["dist", "--n", "1000", "--rho", "0.5"],
         "a42c13306fcde6f49f9bae82cce2b7ad37209dc9d44785f38d312eede4090ac3"),
        (["dist", "--n", "1000", "--rho", "0.5", "--format", "csv"],
         "fd00c87c249eb766bdc9139a27584a3d60f2fe455703a567445b49639b18ed09"),
        (["dist", "--n", "1", "--rho", "2"],
         "80607317a91a8a92a9abbd265a3c94530495163a264bd015d8f45bce58a4e655"),
        (["simulate", "--n", "50", "--rho", "0.5", "--samples", "1000", "--seed", "1"],
         "07f389b6ed7e6f6c508c7ecdf3fcdd9fad174ce7664a603dd1f29829a691f2c0"),
        (["simulate", "--n", "50", "--rho", "0.5", "--samples", "1000", "--seed", "1",
          "--format", "csv"],
         "31aac998093e1b494056f56b55fee43d81c39811f7f4cf8885a0f81b83c973b9"),
        # its k column reaches the blocks of 10**4 entries
        (["dist", "--n", "123457", "--rho", "0.5"],
         "db7fde9a80a7a63895af7134a48738e132de7cdbf520b889f9a40533169576b7"),
        # the duration sum (the walk as drawn by 0.3.9), the alpha and
        # bound-constant records and the limit-table rows
        (["simulate", "--n", "5", "--rho", "0.5", "--samples", "20000", "--seed", "1",
          "--mode", "full-ctmc"],
         "06fe2cf0a0de3da6c7a4836c483978f4d1d387740eed004433d039bcfcdf4ae9"),
        (["alpha", "--rho", "0.3"],
         "4c172fe004bbbfef702463250612dc852ade214cd557538d72667133ad657149"),
        (["alpha", "--rho", "0.3", "--format", "csv"],
         "4338a067878394eba6240e3c82c4c4330644871e0dd18c1624fd1f4b5e81e2af"),
        (["sweep", "--rho", "0.5", "--n", "1000", "1000000"],
         "dcb0b1d28486318b76973758842d9183edaf858337ef21c265721f71d5336ec9"),
        (["sweep", "--rho", "0.5", "--n", "1000", "1000000", "--format", "csv"],
         "cb9682dff601484c17ffe9f9ceb3a6025df24d0a677b7bc4932853cf255ba741"),
        # laws at N = 1e9 and 1e12, far past the default grid
        (["sweep", "--rho", "0.5", "--n", "1000000000", "1000000000000"],
         "02befc23af4e56319f00bb456a24416f1c64cc1b20d2471873a42b055d2cd7c5"),
        # the certificate records over the default rho grid, and with a
        # rho >= 1 and an N below the asserted threshold
        (["verify", "--n", "1000", "10000", "100000", "1000000"],
         "78f74d671fe8869392c17feda039e58040067912a4681c3520f1575e527ee2fc"),
        (["verify", "--rho", "0.5", "2", "--n", "10", "1000"],
         "7b8401e20548dc320ea6f725f767a17c604ec856735bcfdd8c8d0eadb27f691e"),
        # a mass bound of -inf, a decay and a band that are not applicable,
        # and a rho near 1
        (["verify", "--rho", "1e-300", "0.9", "--n", "1000", "100000"],
         "e256517958f73be16d5533a9eae728eab05a46b05cc8d888ca9e80303e338467"),
    ], ids=lambda v: "_".join(v) if isinstance(v, list) else "")
    def test_artifact_bytes_are_pinned(self, tmp_path, argv, digest):
        path = tmp_path / "artifact"
        assert main([*argv, "--output", str(path)]) == 0
        blob = path.read_bytes()
        doc = json.loads(blob.rpartition(b"# manifest: ")[2])  # a CSV's manifest, or the JSON
        assert doc.get("manifest", doc)["version"] == bdheight.__version__
        assert _pinned_digest(blob) == digest

    @pytest.mark.parametrize("argv", [
        ["dist", "--n", "1000", "--rho", "0.5"],
        ["alpha", "--rho", "0.3"],
        ["sweep", "--rho", "0.5", "--n", "1000", "1000000"],
        ["simulate", "--n", "50", "--rho", "0.5", "--samples", "1000", "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_csv_is_made_in_one_pass_with_the_manifest_last(self, capsys, monkeypatch, argv):
        # Each line is formatted once: the header, each row of alpha and
        # sweep, and each run's tail in the one body of dist and simulate.
        # A manifest line written first needs every piece twice, to hash
        # and then to write.
        lines, bodies = [], []
        csv_line, csv_body = cli._csv_line, cli._csv_body

        def counted_line(row):
            lines.append(row)
            return csv_line(row)

        def counted_body(columns):
            bodies.append(columns)
            return csv_body(columns)
        monkeypatch.setattr(cli, "_csv_line", counted_line)
        monkeypatch.setattr(cli, "_csv_body", counted_body)
        rc, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert rc == 0
        assert len(bodies) == (argv[0] in ("dist", "simulate"))
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        runs = sum(len(columns[0].values) for columns in bodies)
        assert len(lines) == (1 + runs if bodies else len(rows))
        # the last line is the manifest in its one canonical encoding, and
        # data_sha256 hashes every byte before it
        *data, last = out.encode().splitlines(keepends=True)
        assert last.startswith(b"# manifest: ") and last.endswith(b"\n")
        manifest = strict_loads(last[len(b"# manifest: "):])
        assert last == b"# manifest: " + _canonical(manifest) + b"\n"
        assert manifest["command"] == argv[0] and manifest["parameters"]["format"] == "csv"
        assert manifest["data_sha256"] == hashlib.sha256(b"".join(data)).hexdigest()
        assert not any(line.startswith(b"# manifest") for line in data)

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
            _emit("dist", {}, _pieces({"k": range(5), "x": _Runs([-math.inf], [1])}), None)
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


# Step-1 ranges: empty, single, about a piece long, at the 32- and 64-bit edges,
# and ones that start or end at a block of 10**4 entries or at a digit edge.
_RANGES = [
    range(1, 1), range(1, 2), range(1, 2**14 + 1), range(1, 2**15 + 3),
    range(0, 12), range(10**9 - 5, 10**9 + 5), range(2**63 - 4, 2**63 - 1),
    range(1, 9999), range(1, 10**4), range(1, 10**4 + 1), range(1, 10**4 + 2),
    range(9999, 10**4 + 7), range(10**4, 3 * 10**4), range(10**4 + 1, 10**5 - 1),
    range(10**5 - 1, 10**5 + 1), range(10**5 + 1, 10**6 - 1), range(10**6 - 1, 10**6 + 2),
    range(1, 10**6 + 2),
    # one partial block inside a large prefix
    range(123456789 * 10**4 + 17, 123456789 * 10**4 + 4321),
]


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

    @pytest.mark.parametrize("r", [*_RANGES, range(10**4 + 5, 10**4 + 50),
                                   range(123456, 123457), range(10**5 - 3, 10**5 + 3)], ids=str)
    @pytest.mark.parametrize("sep", [b",", b",0.5,5e-324\n"])
    def test_ints_writes_each_entry(self, r, sep):
        # short runs above 10**4 too
        pieces = list(_ints(r.start, r.stop, sep))
        assert b"".join(pieces) == b"".join(b"%d%b" % (k, sep) for k in r)
        assert all(piece.count(sep[-1:]) <= _BLOCK for piece in pieces)

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


@given(runs=st.lists(st.tuples(st.sampled_from(_INT_POOL), st.sampled_from(_FLOAT_POOL),
                               st.sampled_from(_FLOAT_POOL), st.integers(0, 12)), max_size=6))
# runs about a block long, and rows that cross k = 10**4 in a short run and in
# a long one
@example(runs=[(3, -0.0, 5e-324, 0), (1, 0.5, 1.0, _BLOCK - 1), (0, 0.1, 0.0, 0),
               (-1, 1e-310, 2.0, _BLOCK), (2**63 - 1, 0.0, -0.0, _BLOCK + 1),
               (9, 1 / 3, 1e300, 2 * _BLOCK + 3), (10, 2.5, 0.25, 0)])
@example(runs=[(1, 0.5, 1.0, _BLOCK - 7), (2, 0.25, 0.5, 20), (3, 1 / 3, 1e-310, 3 * _BLOCK)])
@settings(max_examples=100, deadline=None)
def test_csv_body_writes_the_rows_of_the_runs(runs):
    # one lengths list and runs of length 0 anywhere
    lengths = [n for *_, n in runs]
    columns = [_Runs([run[i] for run in runs], lengths) for i in range(3)]
    pieces = list(_csv_body(columns))
    assert all(piece.endswith(b"\n") and piece.count(b"\n") <= _BLOCK for piece in pieces)
    dense = [np.repeat(np.array(c.values, dtype=object), c.lengths).tolist() for c in columns]
    assert b"".join(pieces).splitlines(keepends=True) == [
        b"%d,%d,%.15g,%.15g\n" % (k, *row) for k, row in enumerate(zip(*dense), 1)]


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
        assert any(c["margin"] is None and c["floor_margin"] is None for c in skipped)


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
        steps.append(run("dist", "--n", "20000", "--rho", "0.5", "--format", "csv"))
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
    assert steps == [["bdheight"], cli_set, cli_set, cli_set, limits_set, limits_set]
    assert len(names) == 35 and all(names.values())  # __version__ and 34 exported names
    assert star == exported and listed
    # bdheight, bdheight.cli, dist (JSON and CSV), alpha, sweep, verify, a
    # ladder simulate and a walk
    assert startup == [[]] * 9
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
    ["dist", "--n", "1000", "--rho", "0.5", "--format", "csv"],
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


def _dispatched_cpu_features() -> list[str]:
    """The SIMD features above numpy's baseline that numpy dispatches to on this host."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


@pytest.mark.parametrize("argv", [
    ["dist", "--n", "1000", "--rho", "0.5"],
    ["dist", "--n", "1000", "--rho", "0.5", "--format", "csv"],
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
