"""Command-line front door.

Subcommands
-----------
``dist``      exact height distribution (columns k, survival, pmf + moments)
``alpha``     growth constant alpha(rho) with residual and derived constants
``verify``    certified inequality suite over (rho, N) grids; exit 1 on failure
``simulate``  Monte Carlo batch with exact-law comparison and the ECDF band
``sweep``     mean/variance ratios against their limits along an N grid, one
              ``asymptotics.ConvergencePoint`` per row, its fields the columns

``dist`` and ``simulate`` take the chain as ``--n`` and ``--rho``: every
number the package computes depends on the rates nu and mu only through
rho = nu / mu, so rho is the one rate it takes.  Exit codes: 0 success, 1
a requested check failed or stdout was closed before the artifact was
written, 2 a usage or validation error, an artifact that cannot be
opened, written or closed (on --output or stdout), a refused input or an
aborted walk.

Every artifact has one shape and one writer, ``_emit``, which makes it in
one pass: the data, streamed as byte pieces, then the run manifest (tool,
version, command, full parameter set, SHA-256 of the data) in its one
canonical encoding, ``_canonical``.
The manifest alone records the inputs, and re-running the same command
reproduces the artifact byte for byte.  An artifact is exactly
``json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)``
plus a newline, and every value, and every run's length, is checked
before the first byte.  The ``rows`` columns of ``dist`` and ``simulate``
are written from runs of bit-identical values, each of length at least
1, run by run, in pieces of at most ``_BLOCK`` entries: each run's
``repr`` is formatted once and repeated.  The law is constant outside an
O(log N) window, so the law's own runs give ``dist`` a few hundred runs
and no list of length N.  Those runs are canonical
(``HeightDistribution.column_runs``): every length is at least 1, the
lengths sum to N, no two adjacent runs are equal in (survival, pmf),
and ``np.repeat(values, lengths)`` is the column.  They stop at k = N;
``simulate``, whose ``exact_cdf`` reads the survival one height on, adds
P(H >= N + 1) = 0 itself, and writes ``SimulationSummary.columns``, the
runs that ``run_batch`` measured its sup distance on.  A block writer,
``_ints``, writes the ``k`` column from 1, each integer followed by a
comma, 10**4 at a time by strided slice assignment, with no per-entry
formatting.  ``dist`` and ``simulate`` refuse more than ``MAX_ROWS``
rows (exit 2); ``sweep`` and ``verify`` build no column.

Start-up: this module imports the ``errors``, ``model`` and ``exactdist``
modules, which every subcommand needs, and no numpy.  The others are
imported by the commands that use them: ``alpha``, ``sweep`` and
``verify`` import ``asymptotics``, whose certificate suite (``verify``)
imports ``oracle`` when called, and ``simulate`` imports ``simulate``
(which loads ``oracle``).  No run loads numpy: all three ``simulate``
modes draw from the standard library's ``random``.  Only ``verify`` and
``simulate`` load ``oracle``.  No run loads ``inspect`` (with ``ast``,
``dis`` and ``tokenize``, ~12 ms): the package's records are
``NamedTuple``s or small read-only classes, since the standard library's
record decorators import ``inspect``.  No run loads OpenSSL's libcrypto
(``hashlib``, ~3.5 MB) but one whose data passes ``_SMALL_HASH_BYTES``:
``_emit`` alone picks the hasher.  ``verify`` only emits the reports of
``asymptotics.verify_reports`` and names the failed ones.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from . import __version__, exactdist
from .errors import BDHeightError, CapacityError, ParameterError
from .model import LADDER, SAMPLER_MODES, _positive_rate, make_params

__all__ = ["main", "entrypoint"]

_BLOCK = 10**4  # entries per piece of a column
MAX_ROWS = 10**7  # rows of a dist or simulate artifact; 1e7 rows is ~0.3 GB of JSON
# Data of at most this many bytes is hashed by CPython's built-in SHA-256,
# larger data by hashlib's: loading OpenSSL's libcrypto costs ~3.5 MB of RSS
# and 2.5-5 ms, and repays it from 0.6-0.8 MB (~0.8 against 5-7 ms/MB on a
# 2-vCPU Xeon).
_SMALL_HASH_BYTES = 256 * 1024


def _hashlib_sha256():
    import hashlib  # loads OpenSSL's libcrypto

    return hashlib.sha256()


try:  # compiled into the interpreter, so it loads no shared library
    from _sha2 import sha256 as _builtin_sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _builtin_sha256  # CPython 3.10 and 3.11
    except ImportError:  # an interpreter built without either hashes with hashlib
        _builtin_sha256 = _hashlib_sha256


class _Runs(NamedTuple):
    """A column as runs: ``values[i]`` repeated ``lengths[i]`` times, each
    length at least 1."""

    values: Sequence
    lengths: Sequence[int]


def _run_column(runs: _Runs) -> Iterator[bytes]:
    """Yield the JSON list of ``runs`` spread out, run by run, in pieces of
    at most ``_BLOCK`` entries, a long run's full pieces shared."""
    items = [(b"%r," % value, n) for value, n in zip(*runs, strict=True)]
    if items:  # the last entry goes without its comma
        items[-1] = items[-1][0], items[-1][1] - 1
    yield b"["
    for item, n in items:
        if n >= _BLOCK:
            yield from itertools.repeat(item * _BLOCK, n // _BLOCK)
        if n % _BLOCK:
            yield item * (n % _BLOCK)
    yield items[-1][0][:-1] + b"]" if items else b"]"


def _ints(n: int) -> Iterator[bytes]:
    """Yield ``b"%d," % k`` for k = 1..n-1, the ``k`` column of n rows but
    its last entry, in pieces of at most ``_BLOCK`` entries: k < 10**4,
    formatted by one bytes ``%``, then one piece per 10**4 entries.

    The entry P * 10**4 + j is the digits of P, ``b"%04d," % j``.  One
    ``bytearray`` block of 10**4 entries per width of P holds those
    suffixes; each piece writes the digits of its P into it by strided
    slice assignment and is copied out."""
    head = range(1, min(n, _BLOCK))
    yield b"%d," * len(head) % tuple(head)
    # byte c of b"%04d," % j for j = 0..9999: the digit of each place, then the comma
    suffix_columns = [b"".join(bytes([d]) * step for d in b"0123456789") * (_BLOCK // step // 10)
                      for step in (1000, 100, 10, 1)] + [b"," * _BLOCK]
    block, width = bytearray(), 0
    for prefix in range(1, (n - 1) // _BLOCK + 1):
        digits = b"%d" % prefix
        if len(digits) != width:  # a new width of P: lay out the suffixes
            width = len(digits)
            w = width + len(suffix_columns)
            block = bytearray(_BLOCK * w)
            for c, column in enumerate(suffix_columns):
                block[width + c::w] = column
        for place, digit in enumerate(digits):
            block[place::w] = bytes([digit]) * _BLOCK
        yield bytes(memoryview(block)[:min(n - prefix * _BLOCK, _BLOCK) * w])


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
        if min(value.lengths, default=1) < 1:
            raise ValueError("a run's length must be at least 1")
        parts.append(_run_column(value))
    elif isinstance(value, range) and value == range(1, len(value) + 1):  # k = 1..N
        parts += [b"[", _ints(len(value)), b"%d]" % len(value) if value else b"]"]
    else:
        parts.append(json.dumps(value, sort_keys=True, separators=(",", ":"),
                                allow_nan=False).encode())


def _pieces(data) -> Iterator[bytes]:
    """The bytes of ``json.dumps(data, sort_keys=True, separators=(",", ":"),
    allow_nan=False)`` in pieces, where a value may also be a ``_Runs``
    (encoded as the list of its runs spread out) or ``range(1, N + 1)``,
    the ``k`` column (as its list); any other range raises ``TypeError``,
    as ``json.dumps`` does.  Dict keys are strings.  Every
    value is checked before this returns; the columns are formatted as
    they are taken."""
    parts: list = []
    _encode(data, parts)
    return itertools.chain.from_iterable(
        (part,) if isinstance(part, bytes) else part for part in parts)


def _canonical(data) -> bytes:
    return b"".join(_pieces(data))


def _stdout_to_devnull() -> None:
    # Unwritten bytes stay buffered; on devnull the flush at exit cannot fail again.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _write_replacing(pieces: Iterable[bytes], output: str) -> None:
    """Write a temporary file in ``output``'s directory, with the mode
    ``open()`` would give, and move it onto ``output`` once complete; on
    any error remove it, so the old ``output`` is left as it was.  The
    file is ``.bdheight-<pid>.tmp``, or ``.bdheight-<pid>-<i>.tmp`` for the
    least i >= 1 that is free, if a run killed mid-write left that name."""
    stem = os.path.join(os.path.dirname(output), f".bdheight-{os.getpid()}")
    for i in itertools.count():
        tmp = f"{stem}-{i}.tmp" if i else f"{stem}.tmp"
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:
            pass
    try:
        with open(fd, "wb") as fh:
            fh.writelines(pieces)
        os.replace(tmp, output)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _replaceable(output: str) -> bool:
    """Whether ``_write_replacing`` writes ``output``: a regular file that is
    not a symbolic link, or a file name that does not exist yet.  A device
    (/dev/null, /dev/full), a FIFO or a link such as /dev/stdout is not."""
    if not os.path.lexists(output):
        return bool(os.path.basename(output))  # '' and 'dir/' fail to open as before
    return os.path.isfile(output) and not os.path.islink(output)


def _write(pieces: Iterable[bytes], output: str | None) -> None:
    """Write the artifact to ``output``, or to stdout if it is None.  An
    ``output`` that is ``_replaceable`` is replaced whole, and any other is
    written in place.  An ``OSError`` in opening, writing, closing or
    replacing is a ``ParameterError`` (exit 2), save a ``BrokenPipeError``,
    which ``entrypoint`` exits 1 on."""
    try:
        if output is None:
            sys.stdout.flush()  # text written before the artifact comes first
            sys.stdout.buffer.writelines(pieces)
            sys.stdout.buffer.flush()
        elif _replaceable(output):
            _write_replacing(pieces, output)
        else:
            with open(output, "wb") as fh:
                fh.writelines(pieces)
    except BrokenPipeError:
        raise
    except OSError as exc:
        if output is None:
            _stdout_to_devnull()
        target = "stdout" if output is None else f"--output {output}"
        raise ParameterError(f"cannot write {target}: {exc.strerror}") from None


def _emit(command: str, parameters: dict, pieces: Iterable[bytes], output: str | None) -> None:
    """Write an artifact in one pass: the data ``pieces``, written as they
    come, then the manifest with their SHA-256 in its canonical encoding,
    framed as the canonical {"data": ..., "manifest": ...}, since "data"
    sorts first.  The pieces are held, not joined, until they pass
    ``_SMALL_HASH_BYTES`` or end; this is the one place that picks the
    hasher.  Data that ends within the limit is hashed by the built-in
    SHA-256, and data that passes it by hashlib's.  Either is fed the held
    pieces one by one, which are then dropped, and then each piece as it
    is written.  Both give the same digest."""

    def artifact() -> Iterator[bytes]:
        yield b'{"data":'
        rest, held, size = iter(pieces), [], 0
        for piece in rest:
            held.append(piece)
            size += len(piece)
            yield piece
            if size > _SMALL_HASH_BYTES:
                break
        digest = (_hashlib_sha256 if size > _SMALL_HASH_BYTES else _builtin_sha256)()
        for piece in held:
            digest.update(piece)
        held.clear()
        for piece in rest:
            digest.update(piece)
            yield piece
        manifest = {"tool": "bdheight", "version": __version__, "command": command,
                    "parameters": parameters, "data_sha256": digest.hexdigest()}
        yield b',"manifest":' + _canonical(manifest) + b"}\n"

    _write(artifact(), output)


def _params_from_args(args) -> tuple:
    p = make_params(args.n, args.rho)
    if p.N > MAX_ROWS:
        raise CapacityError(f"--n {p.N} exceeds the row limit of {MAX_ROWS} rows "
                            f"(MAX_ROWS); sweep gives the moments at any N")
    return p, p._asdict()


def _add_param_flags(sub):
    sub.add_argument("--n", type=int, required=True, help="number of nodes N (states 0..N)")
    sub.add_argument("--rho", type=float, required=True, help="rate ratio rho = nu/mu")


def _add_output_flag(sub):
    sub.add_argument("--output", default=None, help="output path (default: stdout)")


def cmd_dist(args) -> int:
    p, resolved = _params_from_args(args)
    d = exactdist.height_distribution(p)
    surv, pmf, lengths = d.column_runs()
    rows = {"k": range(1, p.N + 1), "survival": _Runs(surv, lengths), "pmf": _Runs(pmf, lengths)}
    data = {"rows": rows, "mean": d.mean, "variance": d.variance}
    _emit("dist", resolved, _pieces(data), args.output)
    return 0


def cmd_alpha(args) -> int:
    rho = _positive_rate("rho", args.rho)
    data = {"rho": rho, "f": 1.0, "alpha": None, "residual": None, "iterations": None,
            "bracket": None, "constants": None,
            "note": "the mean-height fraction limit is exactly 1 for rho >= 1; "
                    "alpha and the derived constants apply to rho < 1 only"}
    if rho < 1.0:
        from . import asymptotics

        sol = asymptotics.solve_alpha(rho)
        c = asymptotics.bound_constants(sol)
        data.update(f=sol.alpha, alpha=sol.alpha, residual=sol.residual,
                    iterations=sol.iterations, bracket=list(sol.bracket),
                    constants={"c1": c.c1, "c2": c.c2, "c3": c.c3}, note="")
    _emit("alpha", {"rho": rho}, _pieces(data), args.output)
    return 0


def cmd_verify(args) -> int:
    from . import asymptotics

    checks = [r.to_dict() for r in asymptotics.verify_reports(args.rho, args.n)]
    failed = [c for c in checks if c["applicable"] and not c["passed"]]
    data = {
        "checks": checks,
        "n_checks": len(checks),
        "n_failed": len(failed),
        "passed": not failed,
    }
    _emit("verify", {"rho": args.rho, "N": args.n}, _pieces(data), args.output)
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
    # a batch over the budget is refused; one past a hundredth of it is warned of
    if (est := simulate._walk_steps(cfg)) > simulate.MAX_TOTAL_STEPS / 100:
        print(f"simulate: warning: this batch costs an estimated ~{est:.3g} jump "
              f"steps; consider --mode {LADDER}", file=sys.stderr)
    summary = simulate.run_batch(cfg)
    rows = {"k": range(1, p.N + 1),
            **{name: _Runs(*runs) for name, runs in summary.columns.items()}}
    parameters = {**resolved, "samples": args.samples, "seed": args.seed,
                  "mode": args.mode, "delta": args.delta}
    # the counts and columns are the rows, not scalars
    scalars = summary._asdict()
    del scalars["counts"], scalars["columns"]
    _emit("simulate", parameters, _pieces({"summary": scalars, "rows": rows}), args.output)
    if args.assert_dkw and not summary.dkw_pass:
        print(f"simulate: ECDF band exceeded: sup={summary.sup_distance:.6g} > "
              f"eps={summary.dkw_epsilon:.6g}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    from . import asymptotics

    rows = [r._asdict() for r in asymptotics.convergence_table(args.rho, args.n)]
    _emit("sweep", {"rho": args.rho, "N": args.n}, _pieces({"rows": rows}), args.output)
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
    _add_output_flag(sub)
    sub.set_defaults(func=cmd_dist)

    sub = subs.add_parser("alpha", help="growth constant alpha(rho) and derived constants")
    sub.add_argument("--rho", type=float, required=True)
    _add_output_flag(sub)
    sub.set_defaults(func=cmd_alpha)

    sub = subs.add_parser("verify", help="run the certified inequality suite")
    sub.add_argument("--rho", type=float, nargs="+", default=[0.25, 0.5, 0.75, 1.0, 2.0])
    sub.add_argument("--n", type=int, nargs="+", default=[1000, 10000, 100000])
    _add_output_flag(sub)
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
    _add_output_flag(sub)
    sub.set_defaults(func=cmd_simulate)

    sub = subs.add_parser("sweep", help="limit-convergence table over an N grid")
    sub.add_argument("--rho", type=float, required=True)
    sub.add_argument("--n", type=int, nargs="+", required=True)
    _add_output_flag(sub)
    sub.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BDHeightError as exc:
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    try:
        code = main()
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        _stdout_to_devnull()
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
