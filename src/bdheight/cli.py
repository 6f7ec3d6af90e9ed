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
requested check failed or stdout was closed before the artifact was
written, 2 usage or validation error, a refused input or an aborted walk.

A JSON artifact is exactly ``json.dumps(doc, sort_keys=True,
separators=(",", ":"), allow_nan=False)`` plus a newline, streamed as
byte pieces that are hashed as they are written; the manifest comes
last.  Every value is checked before the first byte.  The ``rows``
columns of ``dist`` and ``simulate`` are written from runs of
bit-identical values, run by run: each run's ``repr`` is formatted once
and repeated, in pieces of at most ``_CHUNK`` entries, a long run's full
pieces shared.  The law is constant outside an O(log N) window, so the
law's own runs give ``dist`` a few hundred runs and no list of length N;
``simulate`` writes ``simulate.batch_columns``, the runs that its sup
distance is measured on.  The ``k`` column is a ``range``, written a
block of 10**4 entries at a time: each entry of a block is the block's
shared leading digits followed by "0000," .. "9999,".  One
``bytearray`` per width of the leading digits holds those suffixes, and
each block writes its digits into it by strided slice assignment, so
there is no per-entry formatting.  A CSV body is written from the same
runs: a run's values are formatted once and its k values joined with
them, in pieces of at most ``_CHUNK`` lines, hashed as each is built
and written after the manifest line.  ``dist`` and ``simulate`` refuse
more than ``MAX_ROWS`` rows (exit 2); ``sweep`` and ``verify`` build no column.

Start-up: this module imports the ``errors``, ``model`` and ``exactdist``
modules, which every subcommand needs, and no numpy.  The others are
imported by the commands that use them: ``alpha`` and ``sweep`` import
``asymptotics``, ``verify`` imports ``asymptotics`` and ``oracle``, and
``simulate`` imports ``simulate`` (which loads ``oracle``).  Only a
walk-mode ``simulate`` (``--mode jump-chain`` or ``full-ctmc``) loads
numpy, for its Philox streams; the default ladder draws from the
standard library's ``random``.  Only ``verify`` and ``simulate`` load
``oracle``.  No run but a walk loads ``inspect`` (with ``ast``, ``dis``
and ``tokenize``, ~12 ms), which numpy loads: the package's records are
``NamedTuple``s or small read-only classes, since the standard library's
record decorators import ``inspect``.  ``verify``'s oracle gap spreads
the law's runs against the oracle's ``array('d')``, so it needs no dense
view either.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from . import __version__, exactdist
from .errors import CapacityError, ParameterError, SimulationAbort
from .model import LADDER, SAMPLER_MODES, _positive_rate, make_params

__all__ = ["main", "entrypoint"]

_EQUIVALENCE_GRID_N = (1, 2, 3, 5, 10, 20, 50, 100, 200)
_EQUIVALENCE_TOL = 1e-10
_STIRLING_BAND_FACTOR = 10.0
_WALK_WARN_STEPS = 1e7
_CHUNK = 1 << 14  # entries per piece of a JSON column, lines per piece of a CSV body
_BLOCK = 10**4  # entries per piece of a range column: those that share all but 4 digits
MAX_ROWS = 10**7  # rows of a dist or simulate artifact; 1e7 rows is ~0.3 GB of JSON


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".15g")
    return str(x)


def _manifest(command: str, parameters: dict, data_sha256: str) -> dict:
    return {
        "tool": "bdheight",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "data_sha256": data_sha256,
    }


class _Runs(NamedTuple):
    """A column as runs: ``values[i]`` repeated ``lengths[i]`` times."""

    values: Sequence
    lengths: Sequence[int]


def _run_column(runs: _Runs) -> Iterator[bytes]:
    """Yield the JSON list of ``runs`` spread out, run by run, in pieces of
    at most ``_CHUNK`` entries, a long run's full pieces shared."""
    items = [(b"%r," % value, n) for value, n in zip(*runs) if n]
    if items:  # the last entry goes without its comma
        items[-1] = items[-1][0], items[-1][1] - 1
    yield b"["
    for item, n in items:
        if n >= _CHUNK:
            yield from itertools.repeat(item * _CHUNK, n // _CHUNK)
        if n % _CHUNK:
            yield item * (n % _CHUNK)
    yield items[-1][0][:-1] + b"]" if items else b"]"


def _range_column(r: range) -> Iterator[bytes]:
    """Yield ``json.dumps(list(r))`` for a range of nonnegative integers with
    step 1, in pieces of at most ``_BLOCK`` entries.

    The entry P * 10**4 + j is the digits of P followed by ``"%04d," % j``.
    For each width of P one ``bytearray`` block of 10**4 entries holds the
    suffixes, written once; each block of equal P then writes the digits
    of P into it by strided slice assignment and is copied out.  Entries
    below 10**4 are formatted by one bytes ``%``."""
    yield b"["
    body = r[:-1]
    start = body.start
    if start < min(body.stop, _BLOCK):
        stop = min(body.stop, _BLOCK)
        yield b"%d," * (stop - start) % tuple(range(start, stop))
        start = stop
    # byte c of "%04d," % j for j = 0..9999: the digit of each place, then ","
    suffix_columns = [b"".join(bytes([d]) * step for d in b"0123456789") * (_BLOCK // step // 10)
                      for step in (1000, 100, 10, 1)] + [b"," * _BLOCK]
    block, width = bytearray(), 0
    while start < body.stop:  # here start >= 10**4
        prefix, j = divmod(start, _BLOCK)
        stop = min(body.stop, start - j + _BLOCK)
        digits = str(prefix).encode()
        if len(digits) != width:  # a new width of P: lay out the suffixes
            width = len(digits)
            w = width + 5
            block = bytearray(_BLOCK * w)
            for c, column in enumerate(suffix_columns):
                block[width + c::w] = column
        for place, digit in enumerate(digits):
            block[place::w] = bytes([digit]) * _BLOCK
        yield bytes(memoryview(block)[j * w:(stop - start + j) * w])
        start = stop
    yield json.dumps(list(r[-1:]))[1:].encode()  # the last entry without its comma, and "]"


def _encode(value, parts: list) -> None:
    if isinstance(value, dict):
        parts.append(b"{")
        for i, key in enumerate(sorted(value)):
            parts.append((b"," if i else b"") + json.dumps(key).encode() + b":")
            _encode(value[key], parts)
        parts.append(b"}")
    elif isinstance(value, _Runs):
        if not all(map(math.isfinite, value.values)):
            raise ValueError("Out of range float values are not JSON compliant")
        parts.append(_run_column(value))
    elif isinstance(value, range) and value.step == 1:
        parts.append(_range_column(value))
    else:
        parts.append(json.dumps(value, sort_keys=True, separators=(",", ":"),
                                allow_nan=False).encode())


def _pieces(data) -> Iterator[bytes]:
    """The bytes of ``json.dumps(data, sort_keys=True, separators=(",", ":"),
    allow_nan=False)`` in pieces, where a value may also be a ``_Runs``
    (encoded as the list of its runs spread out) or a step-1 range of
    nonnegative integers (as its list).  Dict keys are strings.  Every
    value is checked before this returns; the columns are formatted as
    they are taken."""
    parts: list = []
    _encode(data, parts)
    return itertools.chain.from_iterable(
        (part,) if isinstance(part, bytes) else part for part in parts)


def _canonical(data) -> bytes:
    return b"".join(_pieces(data))


def _write(pieces: Iterable[bytes], output: str | None) -> None:
    if output:
        with open(output, "wb") as fh:
            fh.writelines(pieces)
        return
    sys.stdout.flush()  # text written before the artifact comes first
    sys.stdout.buffer.writelines(pieces)
    sys.stdout.buffer.flush()


def _emit_json(command: str, parameters: dict, data, output: str | None) -> None:
    # data_sha256 hashes exactly the data bytes written.  "data" sorts before
    # "manifest", so the artifact is the canonical {"data": ..., "manifest": ...}.
    data_pieces = _pieces(data)
    digest = hashlib.sha256()

    def artifact() -> Iterator[bytes]:
        yield b'{"data":'
        for piece in data_pieces:
            digest.update(piece)
            yield piece
        yield b',"manifest":' + _canonical(_manifest(command, parameters, digest.hexdigest()))
        yield b"}\n"

    _write(artifact(), output)


def _csv_line(row) -> str:
    return ",".join(map(_fmt, row)) + "\n"


def _csv_body(columns: list[_Runs]) -> Iterator[str]:
    """The CSV rows ``k,value,..`` for k = 1, 2, .. of columns given as runs on
    one lengths list, each run's values formatted once, in pieces of at most
    ``_CHUNK`` whole lines."""
    bounds = itertools.pairwise(itertools.accumulate(columns[0].lengths, initial=1))
    for *row, (lo, hi) in zip(*(c.values for c in columns), bounds):
        sep = "," + _csv_line(row)
        for start in range(lo, hi, _CHUNK):
            yield sep.join(map(str, range(start, min(start + _CHUNK, hi)))) + sep


def _emit_csv(command: str, parameters: dict, header: list[str],
              body: Iterable[str], footer: dict, output: str | None) -> None:
    """Write a CSV artifact whose body rows come as pieces of whole lines.
    Each piece is encoded and hashed in turn; the manifest line, which
    carries the digest, comes first."""
    pieces = [piece.encode("utf-8") for piece in itertools.chain(
        [_csv_line(header)], body, (f"# {k}={_fmt(v)}\n" for k, v in footer.items()))]
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece)
    manifest = json.dumps(_manifest(command, parameters, digest.hexdigest()),
                          sort_keys=True, allow_nan=False)
    _write((f"# manifest: {manifest}\n".encode("utf-8"), *pieces), output)


def _params_from_args(args) -> tuple:
    p = make_params(args.n, args.nu, args.mu, rho=args.rho)
    if p.N > MAX_ROWS:
        raise CapacityError(f"--n {p.N} exceeds the row limit of {MAX_ROWS} rows "
                            f"(MAX_ROWS); sweep gives the moments at any N")
    return p, p._asdict()


def _add_param_flags(sub):
    sub.add_argument("--n", type=int, required=True, help="number of nodes N (states 0..N)")
    sub.add_argument("--rho", type=float, default=None, help="birth/death rate ratio")
    sub.add_argument("--nu", type=float, default=None, help="per-idle-node birth rate")
    sub.add_argument("--mu", type=float, default=None, help="per-busy-node death rate")


def _add_output_flags(sub, formats=("json", "csv")):
    sub.add_argument("--format", choices=formats, default="json")
    sub.add_argument("--output", default=None, help="output path (default: stdout)")


def cmd_dist(args) -> int:
    p, resolved = _params_from_args(args)
    d = exactdist.height_distribution(p)
    parameters = {**resolved, "format": args.format}
    surv, pmf, lengths = d.column_runs()
    columns = {"survival": _Runs(surv, lengths), "pmf": _Runs(pmf, lengths)}
    if args.format == "csv":
        _emit_csv("dist", parameters, ["k", *columns], _csv_body(list(columns.values())),
                  {"mean": d.mean, "variance": d.variance}, args.output)
    else:
        data = {"rows": {"k": range(1, p.N + 1), **columns}, "mean": d.mean,
                "variance": d.variance}
        _emit_json("dist", parameters, data, args.output)
    return 0


def cmd_alpha(args) -> int:
    rho = _positive_rate("rho", args.rho)
    parameters = {"rho": rho, "format": args.format}
    data = {"rho": rho, "f": 1.0, "alpha": None, "residual": None, "iterations": None,
            "bracket": None, "constants": None,
            "note": "the mean-height fraction limit is exactly 1 for rho >= 1; "
                    "alpha and the derived constants apply to rho < 1 only"}
    if rho < 1.0:
        from . import asymptotics

        sol = asymptotics.solve_alpha(rho)
        c = asymptotics.bound_constants(rho)
        data.update(f=sol.alpha, alpha=sol.alpha, residual=sol.residual,
                    iterations=sol.iterations, bracket=list(sol.bracket),
                    constants={"c1": c.c1, "c2": c.c2, "c3": c.c3}, note="")
    if args.format == "csv":
        keys = ["rho", "f", "alpha", "residual", "iterations", "c1", "c2", "c3"]
        row = {**data, **(data["constants"] or dict.fromkeys(("c1", "c2", "c3")))}
        _emit_csv("alpha", parameters, keys, [_csv_line(row[k] for k in keys)],
                  {"note": data["note"]}, args.output)
    else:
        _emit_json("alpha", parameters, data, args.output)
    return 0


def _verify_checks(rhos: list[float], ns: list[int], corrupt: bool) -> list[dict]:
    from . import asymptotics, oracle

    checks: list[dict] = []
    for rho in rhos:
        # the laws first: they refuse an N too large for the bounds' floats
        laws = {n: exactdist.height_distribution(make_params(n, rho=rho)) for n in ns}
        if rho < 1.0:
            constants = asymptotics.bound_constants(rho)
            if corrupt:
                # Harness self-test: a wrong growth constant must surface
                # as a failing check and a nonzero exit.
                constants = constants._replace(c1=0.25 * constants.c1)
            for n in ns:
                growth, decay = asymptotics.check_peak_ratio_bounds(n, rho, constants)
                checks.append(growth.to_dict())
                checks.append(decay.to_dict())
        for n in ns:
            checks.append(asymptotics.check_mean_bounds(n, rho, laws[n].mean).to_dict())
        if rho < 1.0:
            ratios = [asymptotics.stirling_ratio(n, rho) for n in ns if n >= 2]
            band = max(ratios) / min(ratios) if ratios else math.nan
            # t(h_n) ~ sqrt(n) needs an interior peak; at h_n = 0 every ratio is 1/sqrt(n).
            interior = asymptotics.peak_index(constants.alpha, max(ns)) >= 1
            checks.append(asymptotics.BoundReport(
                inequality="peak_term_sqrt_band", n=max(ns), rho=rho,
                lhs=band, rhs=_STIRLING_BAND_FACTOR, margin=_STIRLING_BAND_FACTOR - band,
                passed=band <= _STIRLING_BAND_FACTOR,
                applicable=len(ratios) >= 2 and interior,
                note=f"ratios t(h_n)/sqrt(n) over n in {sorted(n for n in ns if n >= 2)}",
            ).to_dict())
            for n in ns:
                if n >= asymptotics.MEAN_BOUND_MIN_N:
                    mass, lo, hi = asymptotics.window_mass(laws[n])
                    bound = asymptotics.concentration_mass_bound(n, rho)
                    finite = math.isfinite(bound)  # a bound of -inf holds vacuously
                    checks.append(asymptotics.BoundReport(
                        inequality="concentration_window_mass", n=n, rho=rho,
                        lhs=mass, rhs=bound if finite else math.nan,
                        margin=mass - bound if finite else math.nan,
                        passed=mass >= bound, applicable=finite,
                        note=f"window [{lo}, {hi}]",
                    ).to_dict())
    # closed form vs first-passage elimination
    for rho in rhos:
        gaps = []
        for n in _EQUIVALENCE_GRID_N:
            p = make_params(n, rho=rho)
            survival, _, lengths = exactdist.height_distribution(p).column_runs()
            exact = itertools.chain.from_iterable(map(itertools.repeat, survival, lengths))
            gaps += (abs(e - f) for e, f in zip(exact, oracle.height_dist_oracle(p)))
        # nan if any gap is, so that a nan fails the check; max() alone would
        # skip a nan that is not the first gap
        worst = math.nan if any(map(math.isnan, gaps)) else float(max(gaps))
        checks.append(asymptotics.BoundReport(
            inequality="oracle_equivalence", n=max(_EQUIVALENCE_GRID_N), rho=rho,
            lhs=worst, rhs=_EQUIVALENCE_TOL, margin=_EQUIVALENCE_TOL - worst,
            passed=worst <= _EQUIVALENCE_TOL, applicable=True,
            note=f"sup over k and N in {_EQUIVALENCE_GRID_N}",
        ).to_dict())
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
    from . import simulate

    p, resolved = _params_from_args(args)
    cfg = simulate.SimulationConfig(params=p, n_samples=args.samples, seed=args.seed,
                                    mode=args.mode, dkw_delta=args.delta)
    if cfg.mode != LADDER:
        est = simulate.estimate_mean_excursion_steps(p) * args.samples
        if est > _WALK_WARN_STEPS:
            print(f"simulate: warning: estimated ~{est:.3g} total jump steps for this "
                  f"batch; consider --mode {LADDER}", file=sys.stderr)
    law = exactdist.height_distribution(p)
    summary = simulate.run_batch(cfg, law)
    columns = {name: _Runs(*runs) for name, runs in
               simulate.batch_columns(law, summary.counts, args.samples).items()}
    parameters = {**resolved, "samples": args.samples, "seed": args.seed,
                  "mode": args.mode, "delta": args.delta, "format": args.format}
    # the counts are the rows' count column, not a scalar; the CSV footer
    # keeps the summary's field order
    scalars = summary._asdict()
    del scalars["counts"]
    if args.format == "csv":
        _emit_csv("simulate", parameters, ["k", *columns], _csv_body(list(columns.values())),
                  scalars, args.output)
    else:
        surv, _, lengths = law.column_runs()
        rows = {"k": range(1, p.N + 1), **columns, "exact_survival": _Runs(surv, lengths)}
        _emit_json("simulate", parameters, {"summary": scalars, "rows": rows}, args.output)
    if args.assert_dkw and not summary.dkw_pass:
        print(f"simulate: ECDF band exceeded: sup={summary.sup_distance:.6g} > "
              f"eps={summary.dkw_epsilon:.6g}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    from . import asymptotics

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdheight",
        description="Busy-period height of the finite birth-and-death chain: "
                    "exact law, growth constants, certified bounds, Monte Carlo.")
    parser.add_argument("--version", action="version", version=f"bdheight {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("dist", help="exact height distribution")
    _add_param_flags(sub)
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
    _add_param_flags(sub)
    sub.add_argument("--samples", type=int, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--mode", choices=SAMPLER_MODES, default=LADDER)
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
    except (ParameterError, CapacityError, SimulationAbort) as exc:
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    try:
        code = main()
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        # Unwritten bytes stay buffered; on devnull the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
