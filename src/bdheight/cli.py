"""Command-line front door.

Subcommands
-----------
``dist``      exact height distribution (columns k, survival, pmf + moments)
``alpha``     growth constant alpha(rho) with residual and derived constants
``verify``    certified inequality suite over (rho, N) grids; exit 1 on failure
``simulate``  Monte Carlo batch with exact-law comparison and the ECDF band
``sweep``     mean/variance ratios against their limits along an N grid

Every artifact embeds a run manifest (tool, version, command, full
parameter set, SHA-256 of the data section); re-running the same command
reproduces the artifact byte for byte.  Exit codes: 0 success, 1 a
requested check failed, 2 usage or validation error.

A JSON artifact is exactly ``json.dumps(doc, sort_keys=True,
separators=(",", ":"), allow_nan=False)`` plus a newline.  The ``rows``
columns of ``dist`` and ``simulate`` are handed to the encoder as numpy
arrays, and a float column is written by runs of bit-identical values:
each run's ``repr`` is formatted once and repeated.  The law is constant
outside an O(log N) window, so a ``dist`` column of a million entries
holds a few hundred runs.  ``dist`` and ``simulate`` refuse more than
``MAX_ROWS`` rows (exit 2); ``sweep`` and ``verify`` build no column.
"""

from __future__ import annotations

import argparse
import codecs
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, asymptotics, exactdist, oracle, simulate
from .errors import CapacityError, ParameterError
from .model import make_params

__all__ = ["main", "entrypoint"]

_EQUIVALENCE_GRID_N = (1, 2, 3, 5, 10, 20, 50, 100, 200)
_EQUIVALENCE_TOL = 1e-10
_STIRLING_BAND_FACTOR = 10.0
_WALK_WARN_STEPS = 1e7
_STDOUT_CHUNK = 1 << 20
MAX_ROWS = 10**7  # rows of a dist or simulate artifact; 1e7 rows is ~0.3 GB of JSON


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".15g")
    return str(x)


def _manifest(command: str, parameters: dict, data_bytes: bytes) -> dict:
    return {
        "tool": "bdheight",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "data_sha256": hashlib.sha256(data_bytes).hexdigest(),
    }


def _encode_floats(a: np.ndarray, parts: list[str]) -> None:
    """Append ``json.dumps(a.tolist())`` for a 1-D float64 array, one piece per run.

    Runs are taken on the bit patterns, so ``-0.0`` and ``0.0`` stay apart.
    """
    if not a.size:
        parts.append("[]")
        return
    bits = a.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    values = a[starts]
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    items = list(map("{!r},".format, values.tolist()))
    counts = np.diff(starts, append=a.size).tolist()
    counts[-1] -= 1  # the last value is written without its comma
    parts.append("[")
    parts.extend(map(str.__mul__, items, counts))
    parts.append(items[-1][:-1] + "]")


def _encode(value, parts: list[str]) -> None:
    if isinstance(value, dict):
        parts.append("{")
        for i, key in enumerate(sorted(value)):
            parts.append(("," if i else "") + json.dumps(key) + ":")
            _encode(value[key], parts)
        parts.append("}")
    elif isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim == 1:
        _encode_floats(value, parts)
    else:
        if isinstance(value, np.ndarray):
            value = value.tolist()
        parts.append(json.dumps(value, sort_keys=True, separators=(",", ":"),
                                allow_nan=False))


def _canonical(data) -> bytes:
    """The bytes of ``json.dumps(data, sort_keys=True, separators=(",", ":"),
    allow_nan=False)``, where any value may also be a numpy array, encoded as
    its ``tolist()`` would be.  Dict keys are strings."""
    parts: list[str] = []
    _encode(data, parts)
    text = "".join(parts)
    del parts  # the run pieces are as large as the text; free them before encoding
    return text.encode("utf-8")


def _write(pieces: tuple[bytes, ...], output: str | None) -> None:
    if output:
        with open(output, "wb") as fh:
            fh.writelines(pieces)
        return
    # Decoded a MiB at a time, so no second copy of a large artifact is made.
    decoder = codecs.getincrementaldecoder("utf-8")()
    for piece in pieces:
        for start in range(0, len(piece), _STDOUT_CHUNK):
            sys.stdout.write(decoder.decode(piece[start:start + _STDOUT_CHUNK]))


def _emit_json(command: str, parameters: dict, data, output: str | None) -> None:
    # The data section is encoded once and the artifact carries exactly the
    # bytes that data_sha256 hashes.  "data" sorts before "manifest", so the
    # artifact is the canonical encoding of {"data": ..., "manifest": ...}.
    data_bytes = _canonical(data)
    manifest = _canonical(_manifest(command, parameters, data_bytes))
    _write((b'{"data":', data_bytes, b',"manifest":', manifest, b"}\n"), output)


def _csv_line(row) -> str:
    return ",".join(_fmt(x) for x in row)


def _emit_csv(command: str, parameters: dict, header: list[str],
              lines, footer: dict, output: str | None) -> None:
    """Write a CSV artifact whose body rows ``lines`` are already formatted."""
    body_lines = [",".join(header), *lines]
    body_lines += [f"# {key}={_fmt(value)}" for key, value in footer.items()]
    body = ("\n".join(body_lines) + "\n").encode("utf-8")
    manifest = json.dumps(_manifest(command, parameters, body), sort_keys=True, allow_nan=False)
    _write((f"# manifest: {manifest}\n".encode("utf-8"), body), output)


def _params_from_args(args) -> tuple:
    if args.rho is not None and (args.nu is not None or args.mu is not None):
        raise ParameterError("pass either --rho or the pair --nu/--mu, not both")
    if args.rho is not None:
        p = make_params(args.n, rho=args.rho)
    elif args.nu is not None and args.mu is not None:
        p = make_params(args.n, nu=args.nu, mu=args.mu)
    else:
        raise ParameterError("pass either --rho or both --nu and --mu")
    if p.N > MAX_ROWS:
        raise CapacityError(f"--n {p.N} exceeds the row limit of {MAX_ROWS} rows "
                            f"(MAX_ROWS); sweep gives the moments at any N")
    resolved = {"N": p.N, "nu": p.nu, "mu": p.mu, "rho": p.rho}
    return p, resolved


def _add_param_flags(sub, n_help: str):
    sub.add_argument("--n", type=int, required=True, help=n_help)
    sub.add_argument("--rho", type=float, default=None, help="birth/death rate ratio")
    sub.add_argument("--nu", type=float, default=None, help="per-idle-node birth rate")
    sub.add_argument("--mu", type=float, default=None, help="per-busy-node death rate")


def _add_output_flags(sub, formats=("json", "csv")):
    sub.add_argument("--format", choices=formats, default="json")
    sub.add_argument("--output", default=None, help="output path (default: stdout)")


def cmd_dist(args) -> int:
    p, resolved = _params_from_args(args)
    d = exactdist.height_distribution(p)
    surv = d.survival_values()
    parameters = {**resolved, "format": args.format}
    if args.format == "csv":
        lines = map("%d,%.15g,%.15g".__mod__,
                    zip(range(1, p.N + 1), surv.tolist(), d.pmf.tolist()))
        _emit_csv("dist", parameters, ["k", "survival", "pmf"], lines,
                  {"mean": d.mean, "variance": d.variance}, args.output)
    else:
        data = {
            "rows": {"k": np.arange(1, p.N + 1), "survival": surv, "pmf": d.pmf},
            "mean": d.mean,
            "variance": d.variance,
        }
        _emit_json("dist", parameters, data, args.output)
    return 0


def cmd_alpha(args) -> int:
    rho = args.rho
    if rho is None or not math.isfinite(rho) or rho <= 0.0:
        raise ParameterError(f"--rho must be a positive finite real, got {rho!r}")
    parameters = {"rho": rho, "format": args.format}
    if rho >= 1.0:
        data = {
            "rho": rho,
            "f": 1.0,
            "alpha": None,
            "residual": None,
            "iterations": None,
            "bracket": None,
            "constants": None,
            "note": "the mean-height fraction limit is exactly 1 for rho >= 1; "
                    "alpha and the derived constants apply to rho < 1 only",
        }
    else:
        sol = asymptotics.solve_alpha(rho)
        c = asymptotics.bound_constants(rho)
        data = {
            "rho": rho,
            "f": sol.alpha,
            "alpha": sol.alpha,
            "residual": sol.residual,
            "iterations": sol.iterations,
            "bracket": list(sol.bracket),
            "constants": {"c1": c.c1, "c2": c.c2, "c3": c.c3},
            "note": "",
        }
    if args.format == "csv":
        keys = ["rho", "f", "alpha", "residual", "iterations", "c1", "c2", "c3"]
        cns = data["constants"] or {"c1": None, "c2": None, "c3": None}
        row = [data["rho"], data["f"], data["alpha"], data["residual"],
               data["iterations"], cns["c1"], cns["c2"], cns["c3"]]
        _emit_csv("alpha", parameters, keys, [_csv_line(row)], {"note": data["note"]},
                  args.output)
    else:
        _emit_json("alpha", parameters, data, args.output)
    return 0


def _verify_checks(rhos: list[float], ns: list[int], corrupt: bool) -> list[dict]:
    checks: list[dict] = []
    for rho in rhos:
        if rho < 1.0:
            constants = asymptotics.bound_constants(rho)
            if corrupt:
                # Harness self-test: a wrong growth constant must surface
                # as a failing check and a nonzero exit.
                constants = asymptotics.BoundConstants(
                    rho=constants.rho, alpha=constants.alpha,
                    c1=0.25 * constants.c1, c2=constants.c2, c3=constants.c3)
            for n in ns:
                growth, decay = asymptotics.check_peak_ratio_bounds(n, rho, constants)
                checks.append(growth.to_dict())
                checks.append(decay.to_dict())
        for n in ns:
            d = exactdist.height_distribution(make_params(n, rho=rho))
            checks.append(asymptotics.check_mean_bounds(n, rho, d.mean).to_dict())
        if rho < 1.0:
            ratios = [asymptotics.stirling_ratio(n, rho) for n in ns if n >= 2]
            band = max(ratios) / min(ratios) if ratios else None
            checks.append({
                "inequality": "peak_term_sqrt_band",
                "n": max(ns), "rho": rho,
                "lhs": band, "rhs": _STIRLING_BAND_FACTOR,
                "margin": None if band is None else _STIRLING_BAND_FACTOR - band,
                "passed": band is not None and band <= _STIRLING_BAND_FACTOR,
                "applicable": len(ratios) >= 2,
                "floor_margin": None,
                "note": f"ratios t(h_n)/sqrt(n) over n in {sorted(n for n in ns if n >= 2)}",
            })
            for n in ns:
                if n >= asymptotics.MEAN_BOUND_MIN_N:
                    mass, lo, hi = asymptotics.concentration_mass(n, rho)
                    bound = asymptotics.concentration_mass_bound(n, rho)
                    checks.append({
                        "inequality": "concentration_window_mass",
                        "n": n, "rho": rho,
                        "lhs": mass, "rhs": bound, "margin": mass - bound,
                        "passed": mass >= bound, "applicable": True,
                        "floor_margin": None,
                        "note": f"window [{lo}, {hi}]",
                    })
    # closed form vs first-passage elimination
    for rho in rhos:
        worst = 0.0
        for n in _EQUIVALENCE_GRID_N:
            p = make_params(n, rho=rho)
            exact = exactdist.height_distribution(p).survival_values()
            fp = oracle.height_dist_oracle(p)
            worst = max(worst, float(abs(exact - fp).max()))
        checks.append({
            "inequality": "oracle_equivalence",
            "n": max(_EQUIVALENCE_GRID_N), "rho": rho,
            "lhs": worst, "rhs": _EQUIVALENCE_TOL,
            "margin": _EQUIVALENCE_TOL - worst,
            "passed": worst <= _EQUIVALENCE_TOL, "applicable": True,
            "floor_margin": None,
            "note": f"sup over k and N in {_EQUIVALENCE_GRID_N}",
        })
    return checks


def cmd_verify(args) -> int:
    rhos = args.rho if args.rho else [0.25, 0.5, 0.75, 1.0, 2.0]
    ns = args.n if args.n else [1000, 10000, 100000]
    if not rhos or not ns:
        raise ParameterError("verify needs nonempty rho and N grids")
    checks = _verify_checks(rhos, ns, args.selftest_corrupt)
    failed = [c for c in checks if c["applicable"] and not c["passed"]]
    data = {
        "checks": checks,
        "n_checks": len(checks),
        "n_failed": len(failed),
        "passed": not failed,
    }
    parameters = {"rho": rhos, "N": ns, "format": args.format,
                  "selftest_corrupt": args.selftest_corrupt}
    _emit_json("verify", parameters, data, args.output)
    if failed:
        for c in failed:
            print(f"verify: FAILED {c['inequality']} at n={c['n']}, rho={c['rho']}: "
                  f"margin={c['margin']}", file=sys.stderr)
        return 1
    return 0


def cmd_simulate(args) -> int:
    p, resolved = _params_from_args(args)
    workers = args.workers if args.workers is not None else _default_workers()
    cfg = simulate.SimulationConfig(
        params=p, n_samples=args.samples, seed=args.seed, mode=args.mode,
        worker_count=workers, dkw_delta=args.delta)
    if cfg.mode in (simulate.JUMP_CHAIN, simulate.FULL_CTMC):
        est = simulate.estimate_mean_excursion_steps(p) * args.samples
        if est > _WALK_WARN_STEPS:
            print(f"simulate: warning: estimated ~{est:.3g} total jump steps for this "
                  f"batch; consider --mode {simulate.LADDER}", file=sys.stderr)
    summary = simulate.run_batch(cfg)
    exact = exactdist.height_distribution(p)
    surv = exact.survival_values()
    cdf = exact.cdf_values()
    epmf = summary.empirical_pmf
    ecdf = epmf.cumsum()
    parameters = {**resolved, "samples": args.samples, "seed": args.seed,
                  "mode": args.mode, "workers": workers, "delta": args.delta,
                  "format": args.format}
    k = np.arange(1, p.N + 1)
    columns = {"count": np.array(summary.counts, dtype=np.int64), "empirical_pmf": epmf,
               "exact_pmf": exact.pmf, "empirical_cdf": ecdf, "exact_cdf": cdf}
    # counts and empirical_pmf are the rows' count and empirical_pmf columns
    scalars = {key: value for key, value in summary.to_dict().items()
               if key not in ("counts", "empirical_pmf")}
    if args.format == "csv":
        lines = map("%d,%d,%.15g,%.15g,%.15g,%.15g".__mod__,
                    zip(k.tolist(), *(c.tolist() for c in columns.values())))
        _emit_csv("simulate", parameters, ["k", *columns], lines, scalars, args.output)
    else:
        data = {"summary": scalars, "rows": {"k": k, **columns, "exact_survival": surv}}
        _emit_json("simulate", parameters, data, args.output)
    if args.assert_dkw and not summary.dkw_pass:
        print(f"simulate: ECDF band exceeded: sup={summary.sup_distance:.6g} > "
              f"eps={summary.dkw_epsilon:.6g}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    if args.rho is None:
        raise ParameterError("--rho is required for sweep")
    rows = asymptotics.convergence_table(args.rho, args.n)
    parameters = {"rho": args.rho, "N": args.n, "format": args.format}
    header = ["N", "mean", "variance", "mean_over_N", "var_over_N",
              "mean_limit", "var_limit", "mean_gap", "var_gap"]
    table = [[r.N, r.mean, r.variance, r.mean_ratio, r.var_ratio,
              r.mean_limit, r.var_limit, r.mean_gap, r.var_gap] for r in rows]
    if args.format == "csv":
        _emit_csv("sweep", parameters, header, map(_csv_line, table), {}, args.output)
    else:
        data = {"rows": [dict(zip(header, row)) for row in table]}
        _emit_json("sweep", parameters, data, args.output)
    return 0


def _default_workers() -> int:
    raw = os.environ.get("BDHEIGHT_WORKERS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdheight",
        description="Busy-period height of the finite birth-and-death chain: "
                    "exact law, growth constants, certified bounds, Monte Carlo.")
    parser.add_argument("--version", action="version", version=f"bdheight {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("dist", help="exact height distribution")
    _add_param_flags(sub, "number of nodes N (states 0..N)")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_dist)

    sub = subs.add_parser("alpha", help="growth constant alpha(rho) and derived constants")
    sub.add_argument("--rho", type=float, required=True)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_alpha)

    sub = subs.add_parser("verify", help="run the certified inequality suite")
    sub.add_argument("--rho", type=float, nargs="+", default=None)
    sub.add_argument("--n", type=int, nargs="+", default=None)
    sub.add_argument("--selftest-corrupt", action="store_true", help=argparse.SUPPRESS)
    _add_output_flags(sub, formats=("json",))  # the nested check records have no CSV form
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("simulate", help="Monte Carlo batch vs exact law")
    _add_param_flags(sub, "number of nodes N (states 0..N)")
    sub.add_argument("--samples", type=int, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--mode", choices=(simulate.LADDER, simulate.JUMP_CHAIN,
                                        simulate.FULL_CTMC),
                     default=simulate.LADDER)
    sub.add_argument("--workers", type=int, default=None,
                     help="worker count (default: $BDHEIGHT_WORKERS or 1); recorded "
                          "in the manifest only: chunks always run in order on one "
                          "thread")
    sub.add_argument("--delta", type=float, default=0.01,
                     help="ECDF band confidence parameter")
    sub.add_argument("--assert", dest="assert_dkw", action="store_true",
                     help="exit 1 if the ECDF band check fails")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_simulate)

    sub = subs.add_parser("sweep", help="limit-convergence table over an N grid")
    sub.add_argument("--rho", type=float, required=True)
    sub.add_argument("--n", type=int, nargs="+", required=True)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, CapacityError) as exc:
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
