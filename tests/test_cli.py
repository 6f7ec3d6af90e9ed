"""CLI contract: flags, exit codes, artifact formats, manifests, stability."""

import hashlib
import json
import math
import os
import re
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
import bdheight.simulate as simulate_module
from bdheight import height_distribution, make_params
from bdheight.cli import (MAX_ROWS, _CHUNK, _canonical, _csv_body, _emit_json, _run_column,
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

    def test_csv_format(self, capsys):
        rc, out, _ = run_cli(capsys, "dist", "--n", "3", "--rho", "1", "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("# manifest: ")
        assert lines[1] == "k,survival,pmf"
        assert lines[2].split(",")[1] == "1"
        assert lines[3].split(",")[1] == "0.666666666666667"  # 15 significant digits
        assert any(line.startswith("# mean=") for line in lines)

    def test_invalid_n_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "dist", "--n", "0", "--rho", "1")
        assert rc == 2
        assert "error" in err

    def test_rate_pair_accepted(self, capsys):
        rc, doc, _ = run_json(capsys, "dist", "--n", "10", "--nu", "1", "--mu", "2")
        assert rc == 0
        assert doc["manifest"]["parameters"]["rho"] == 0.5

    def test_conflicting_parameterizations_exit_2(self, capsys):
        rc, _, _ = run_cli(capsys, "dist", "--n", "3", "--rho", "1", "--nu", "1", "--mu", "1")
        assert rc == 2
        rc, _, _ = run_cli(capsys, "dist", "--n", "3")
        assert rc == 2

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

    def test_csv_format_is_refused(self, capsys):
        # the nested check records have no CSV form, so argparse refuses it
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--rho", "0.5", "--n", "10", "--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err
        rc, doc, _ = run_json(capsys, "verify", "--rho", "0.5", "--n", "10")
        assert rc == 0
        assert doc["manifest"]["parameters"]["format"] == "json"

    def test_nan_oracle_gap_fails(self, capsys, monkeypatch):
        # max(0.0, nan) is 0.0, so a nan gap once passed with lhs 0.0
        from bdheight import oracle
        monkeypatch.setattr(oracle, "height_dist_oracle", lambda p: np.full(p.N, math.nan))
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
        from bdheight.cli import _EQUIVALENCE_GRID_N

        def nan_at_the_end(p):
            survival = height_distribution(p).survival_values().copy()
            if p.N == _EQUIVALENCE_GRID_N[-1]:
                survival[-1] = math.nan
            return survival

        monkeypatch.setattr(oracle, "height_dist_oracle", nan_at_the_end)
        rc, out, err = run_cli(capsys, "verify", "--rho", "0.5", "--n", "10")
        assert rc == 1 and "oracle_equivalence" in err
        check, = [c for c in strict_loads(out)["data"]["checks"]
                  if c["inequality"] == "oracle_equivalence"]
        assert check["passed"] is False
        assert check["lhs"] is None and check["margin"] is None

    def test_corrupted_constant_fails(self, capsys):
        rc, doc, err = run_json(capsys, "verify", "--rho", "0.5", "--n", "2000",
                                "--selftest-corrupt")
        assert rc == 1
        assert doc["data"]["n_failed"] > 0
        assert "FAILED" in err


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
        assert sum(rows["count"]) == summary["n_samples"] == 5000

    def test_infeasible_walk_exits_2_with_warning(self, capsys):
        rc, _, err = run_cli(capsys, "simulate", "--n", "50", "--rho", "0.8",
                             "--samples", "1000", "--mode", "jump-chain")
        assert rc == 2
        assert "warning" in err or "error" in err

    def test_tripped_circuit_breaker_exits_2(self, capsys, monkeypatch):
        # test_simulate's circuit-breaker batch: 3 steps finish only the
        # excursions of height 1 and 2
        monkeypatch.setattr(simulate_module, "MAX_EXCURSION_STEPS", 3)
        monkeypatch.setattr(simulate_module, "MAX_TOTAL_STEPS", math.inf)
        rc, out, err = run_cli(capsys, "simulate", "--n", "30", "--rho", "5",
                               "--samples", "1000", "--seed", "3", "--mode", "jump-chain")
        assert (rc, out) == (2, "")
        # after the step-estimate warning, one error line
        done = re.fullmatch(r"simulate: error: excursions exceeded 3 jump steps .*; "
                            r"(\d+) of 1000 samples completed", err.splitlines()[-1])
        assert done and 0 < int(done[1]) < 1000

    def test_csv_contains_comparison_columns(self, capsys):
        rc, out, _ = run_cli(capsys, "simulate", "--n", "5", "--rho", "1",
                             "--samples", "1000", "--seed", "2", "--format", "csv")
        assert rc == 0
        header = out.splitlines()[1]
        assert header == "k,count,empirical_pmf,exact_pmf,empirical_cdf,exact_cdf"


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

    def test_non_ascending_grid_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "sweep", "--rho", "2", "--n", "100", "100")
        assert rc == 2
        assert "ascending" in err


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
        ["dist", "--n", "1000", "--nu", "1e-300", "--mu", "1e300"],
        ["dist", "--n", "10", "--nu", "1e300", "--mu", "1e-300"],
        ["simulate", "--n", "10", "--nu", "1e-300", "--mu", "1e300", "--samples", "10"],
    ], ids=["dist_rho_0", "dist_rho_inf", "simulate_rho_0"])
    def test_derived_rho_out_of_range_exits_2(self, capsys, argv):
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


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


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

    # sha256 of whole artifacts at version 0.3.4, whose ladder terms are
    # built on math.lgamma; a version bump changes the manifest and so these.
    @pytest.mark.parametrize("argv,digest", [
        (["dist", "--n", "1000", "--rho", "0.5"],
         "2d311d1d9d8b4ed72c7d78905b8c8bd99deae065b82c43c4dbb9442c3274c7da"),
        (["dist", "--n", "1000", "--rho", "0.5", "--format", "csv"],
         "c98c2eb04e26792382b4767c1abb3c76eebd6533b06ee310c940f4f9dd879990"),
        (["dist", "--n", "1", "--rho", "2"],
         "e0ffae3c6ebcad6aade11f084dca758905b6d5c0cea6274ffdd5f1602051ce9a"),
        (["simulate", "--n", "50", "--rho", "0.5", "--samples", "1000", "--seed", "1"],
         "244c45601ab4f25e475f14d7574bd3e0281bb013a3f2100c939eb9152127a3de"),
        (["simulate", "--n", "50", "--rho", "0.5", "--samples", "1000", "--seed", "1",
          "--format", "csv"],
         "69259a75eaf84e77d5801b1206c6bd5cdd18b7dd2a34bf87cb0fe140c2acad84"),
        # its k column reaches the blocks of 10**4 entries
        (["dist", "--n", "123457", "--rho", "0.5"],
         "c357a79d20ede74b61a1c80d49c985f0871d8ec215c03a917c6f9b8415ed4dd2"),
        # the duration sum, the alpha and bound-constant records and the
        # limit-table rows
        (["simulate", "--n", "5", "--rho", "0.5", "--samples", "20000", "--seed", "1",
          "--mode", "full-ctmc"],
         "bde0eb08a873d0d4ffd1533f80955971d26da90a908f3057ffd95021158f0817"),
        (["alpha", "--rho", "0.3"],
         "9b5cd2eb08e49b1989d55e4aa0a8bf47337e56c7d07afa9cdfaa3d894bc29b52"),
        (["alpha", "--rho", "0.3", "--format", "csv"],
         "dece51ff86d93e31afa52a64bc6fb1c635da41b175d5b2516124319b9ceed36f"),
        (["sweep", "--rho", "0.5", "--n", "1000", "1000000"],
         "02c3e80f7e2584d793eb347bfef5b13abd914222f42f89bff699de2903d8f7ec"),
        # laws at N = 1e9 and 1e12, far past the default grid
        (["sweep", "--rho", "0.5", "--n", "1000000000", "1000000000000"],
         "87b6a8c2042bc0c13599e12df7d7bcaebf97fafb89b7378dc424cc10128d2fc7"),
    ], ids=lambda v: "_".join(v) if isinstance(v, list) else "")
    def test_artifact_bytes_are_pinned(self, tmp_path, argv, digest):
        path = tmp_path / "artifact"
        assert main([*argv, "--output", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_non_finite_value_writes_no_file(self, tmp_path):
        # The NaN sits after a column that would already have been streamed.
        path = tmp_path / "law.json"
        data = {"rows": {"k": range(1, 3 * _CHUNK), "x": _Runs([0.5, math.nan], [1, 1])}}
        with pytest.raises(ValueError):
            _emit_json("dist", {}, data, str(path))
        assert not path.exists()
        path.write_bytes(b"an earlier artifact")
        with pytest.raises(ValueError):
            _emit_json("dist", {}, {"rows": data["rows"]["k"], "variance": math.inf},
                       str(path))
        assert path.read_bytes() == b"an earlier artifact"

    def test_non_finite_value_writes_nothing_to_stdout(self, capsys):
        with pytest.raises(ValueError):
            _emit_json("dist", {}, {"k": range(5), "x": _Runs([-math.inf], [1])}, None)
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


class TestCanonicalEncoder:
    @given(runs=st.lists(st.tuples(st.sampled_from(_FLOAT_POOL), st.integers(1, 40)),
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
           length=st.sampled_from([0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]))
    @settings(max_examples=200, deadline=None)
    def test_int64_column_encodes_as_its_list(self, values, length):
        a = np.resize(np.array(values, dtype=np.int64), length)
        doc = {"rows": {"c": _each(a), "b": _each(a[::-1])}}
        listed = {"rows": {"c": a.tolist(), "b": a[::-1].tolist()}}
        assert _canonical(doc) == canonical(listed)[:-1].encode()

    @given(runs=st.lists(st.tuples(st.sampled_from(_FLOAT_POOL), st.integers(0, 3)),
                         max_size=12),
           big=st.sampled_from([0, _CHUNK - 1, _CHUNK, 2 * _CHUNK + 1]))
    @settings(max_examples=200, deadline=None)
    def test_runs_encode_as_their_repeat(self, runs, big):
        # runs of length 0 anywhere, the last one included, and one long run
        values = [0.5, *(v for v, _ in runs)]
        lengths = [big, *(n for _, n in runs)]
        listed = np.repeat(values, lengths).tolist()
        assert _canonical({"c": _Runs(values, lengths)}) == canonical({"c": listed})[:-1].encode()

    @given(runs=st.lists(st.tuples(st.sampled_from(_FLOAT_POOL + _INT_POOL),
                                   st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                                    3 * _CHUNK + 7])), max_size=4))
    @example(runs=[(0.5, 3 * _CHUNK + 7), (-0.0, 0), (7, _CHUNK), (1.0, 0)])
    @settings(max_examples=60, deadline=None)
    def test_run_pieces_hold_at_most_a_chunk(self, runs):
        # runs of length 0 anywhere, the last one included, and runs on both
        # sides of a piece; no entry holds a comma, so a piece's commas count
        # its entries
        pieces = list(_run_column(_Runs([v for v, _ in runs], [n for _, n in runs])))
        assert max(piece.count(b",") for piece in pieces) <= _CHUNK
        listed = [v for v, n in runs for _ in range(n)]
        assert b"".join(pieces) == json.dumps(listed, separators=(",", ":")).encode()

    @pytest.mark.parametrize("r", [
        range(1, 1), range(1, 2), range(1, _CHUNK + 1), range(1, 2 * _CHUNK + 3),
        range(0, 12), range(10**9 - 5, 10**9 + 5), range(2**63 - 4, 2**63 - 1),
        # blocks of 10**4 entries: ranges that start or end at a block or digit edge
        range(1, 9999), range(1, 10**4), range(1, 10**4 + 1), range(1, 10**4 + 2),
        range(9999, 10**4 + 7), range(10**4, 3 * 10**4), range(10**4 + 1, 10**5 - 1),
        range(10**5 - 1, 10**5 + 1), range(10**5 + 1, 10**6 - 1), range(10**6 - 1, 10**6 + 2),
        range(1, 10**6 + 2),
        # one partial block inside a large prefix
        range(123456789 * 10**4 + 17, 123456789 * 10**4 + 4321),
    ], ids=str)
    def test_range_encodes_as_its_list(self, r):
        assert _canonical({"k": r}) == canonical({"k": list(r)})[:-1].encode()

    @pytest.mark.parametrize("length", [_CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
    def test_float_run_longer_than_a_piece(self, length):
        a = np.concatenate([[0.1, -0.0], np.full(length, 1 / 3), [0.0], np.full(length, 5e-324)])
        assert _canonical({"c": _each(a)}) == canonical({"c": a.tolist()})[:-1].encode()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_raises(self, bad):
        a = np.array([1.0, bad, bad, 2.0])
        with pytest.raises(ValueError):
            canonical({"c": a.tolist()})
        with pytest.raises(ValueError):
            _canonical({"c": _each(a)})


_CSV_RUN_LENGTHS = st.one_of(st.integers(0, 2),
                             st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]))


@given(runs=st.lists(st.tuples(st.sampled_from(_INT_POOL), st.sampled_from(_FLOAT_POOL),
                               st.sampled_from(_FLOAT_POOL), _CSV_RUN_LENGTHS), max_size=6))
@example(runs=[(3, -0.0, 5e-324, 0), (1, 0.5, 1.0, _CHUNK - 1), (0, 0.1, 0.0, 0),
               (-1, 1e-310, 2.0, _CHUNK), (2**63 - 1, 0.0, -0.0, _CHUNK + 1),
               (9, 1 / 3, 1e300, 2 * _CHUNK + 3), (10, 2.5, 0.25, 0)])
@settings(max_examples=100, deadline=None)
def test_csv_body_writes_the_rows_of_the_runs(runs):
    # one lengths list, runs of length 0 anywhere, and runs about a piece long
    lengths = [n for *_, n in runs]
    columns = [_Runs([run[i] for run in runs], lengths) for i in range(3)]
    pieces = list(_csv_body(columns))
    assert all(piece.endswith("\n") and piece.count("\n") <= _CHUNK for piece in pieces)
    dense = [np.repeat(np.array(c.values, dtype=object), c.lengths).tolist() for c in columns]
    assert "".join(pieces).splitlines(keepends=True) == [
        "%d,%d,%.15g,%.15g\n" % (k, *row) for k, row in enumerate(zip(*dense), 1)]


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
    """An argv of any subcommand at N in [1, 1e4]; the law as --rho or as
    --nu/--mu where the command takes both.  simulate draws at most 200
    samples in ladder mode, since a walk mode may be accepted at 1e9 steps."""
    command = draw(st.sampled_from(["dist", "alpha", "sweep", "verify", "simulate"]))
    n, rho = str(draw(st.integers(1, 10**4))), draw(_RHO)
    if command == "alpha":
        return [command, "--rho", repr(rho)]
    if command in ("sweep", "verify"):
        return [command, "--rho", repr(rho), "--n", n]
    law = ["--rho", repr(rho)]
    if draw(st.booleans()):
        mu = draw(st.floats(1e-3, 1e3))
        law = ["--nu", repr(rho * mu), "--mu", repr(mu)]
    if command == "dist":
        return [command, "--n", n, *law]
    return [command, "--n", n, *law, "--samples", str(draw(st.integers(1, 200))),
            "--seed", str(draw(st.integers(0, 2**32)))]


class TestStrictJson:
    @given(argv=_cli_runs())
    @settings(max_examples=200, deadline=None)
    def test_every_run_writes_strict_json_or_refuses(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "artifact")
            rc = main([*argv, "--output", path])
            if rc == 2:  # refused input writes no artifact
                assert not os.path.exists(path)
                return
            with open(path) as fh:
                doc = strict_loads(fh.read())
        assert doc["manifest"]["command"] == argv[0]
        # verify exits 1 when a check fails, as some do at rho = 0.01 and near 1
        assert rc == 0 or (argv[0] == "verify" and rc == 1 and not doc["data"]["passed"])

    @pytest.mark.parametrize("argv", _SMALL_N_RUNS, ids="_".join)
    def test_artifacts_parse_strictly(self, capsys, argv):
        rc, out, _ = run_cli(capsys, *argv)
        if rc == 2:  # refused input writes no artifact
            assert out == ""
            return
        assert strict_loads(out)["manifest"]["command"] == argv[0]

    def test_not_applicable_values_are_null(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--rho", "0.5", "--n", "10")
        assert rc == 0
        skipped = [c for c in strict_loads(out)["data"]["checks"] if not c["applicable"]]
        assert skipped
        assert any(c["margin"] is None and c["floor_margin"] is None for c in skipped)


def test_import_does_not_load_scipy():
    # importing scipy.special alone costs ~0.45 s per CLI start and numpy
    # ~0.14 s; nothing at runtime needs any of scipy, and no subcommand
    # needs numpy but a walk-mode simulate.  A run loads only the modules it
    # uses, and every exported name still resolves on first use.  No
    # subcommand loads dataclasses, whose inspect (with ast, dis and
    # tokenize) costs ~12 ms; only numpy loads inspect.  The oracle that
    # verify and the ladder run is plain Python, and the ladder draws from
    # the standard library's random; the walks import numpy for their
    # Philox streams.  simulate's moments are int / int, so no command
    # loads fractions (with decimal, ~3 ms).
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
    assert len(names) == 37 and all(names.values())  # __version__ and 36 exported names
    assert star == exported and listed
    # bdheight, bdheight.cli, dist (JSON and CSV), alpha, sweep, verify and
    # a ladder simulate; then a walk, whose numpy loads inspect
    assert len(startup) == 9
    assert startup[:8] == [[]] * 8
    assert verified == sorted([*limits_set, "bdheight.oracle"])
    assert simulated == sorted([*verified, "bdheight.simulate"])
    assert not any("dataclasses" in modules for modules in startup)
    assert "numpy" in walked and "fractions" not in walked
    # the oracle alone, run once, loads no numpy either
    code = """if True:
        import sys
        import bdheight.oracle
        from bdheight import make_params
        bdheight.oracle.log_hitting_sums(make_params(10, rho=0.5))
        print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
    """
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["[]"]


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
        from bdheight import height_dist_oracle, log_hitting_sums, make_params
        digest = hashlib.sha256()
        for n in (10, 200, 2000):
            for rho in (0.25, 0.5, 0.75, 1.0, 2.0, 1e20):
                p = make_params(n, rho=rho)
                digest.update(log_hitting_sums(p))
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
