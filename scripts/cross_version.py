#!/usr/bin/env python3
"""Check that CLI artifacts have the same data bytes on several interpreters
or source trees.

Usage::

    python3 scripts/cross_version.py /path/to/python3.10 /path/to/python3.13 ...
    python3 scripts/cross_version.py python3=/tmp/parent/src python3

Each argument is ``PYTHON`` or ``PYTHON=SRC``: the interpreter runs each
command below from the source tree SRC (``PYTHONPATH=SRC``, so nothing needs
installing), by default this checkout's ``src``, with numpy blocked, since
the package needs none at run time.  So one run compares interpreters, a
parent's ``git archive`` with this tree, or both.  The script prints every
command's ``data_sha256`` per argument, after ``exit 1`` for a ``verify`` that
wrote its artifact and failed a check, and exits 1 if any other command
fails, an interpreter cannot be started, or any two arguments disagree.  It
needs no network.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

COMMANDS = [
    "dist --n 100000 --rho 0.5",
    "dist --n 1 --rho 2",
    "dist --n 10001 --rho 0.5",
    "simulate --n 2000 --rho 0.5 --samples 200000 --seed 7 --delta 1e-6 --assert",
    "verify --n 1000 10000",
    "verify --n 1000 10000 100000 1000000",
    "verify --rho 0.95",  # exits 1: peak_term_sqrt_band fails at n = 10**5
    "verify --rho 0.5 2 --n 1 2 1000",  # not-applicable reports, and rho >= 1
    "sweep --rho 0.5 --n 1000000 1000",
    "alpha --rho 0.3",
    "simulate --n 12 --rho 0.5 --samples 9000 --seed 3 --mode jump-chain",
    "simulate --n 5 --rho 0.5 --samples 20000 --seed 1 --mode full-ctmc",
    "simulate --n 1024 --rho 0.001 --samples 9000 --seed 5 --mode jump-chain",
]

# blocks numpy (any import of it raises ImportError), then runs the CLI
_RUN = 'import sys; sys.modules["numpy"] = None; from bdheight.cli import entrypoint; entrypoint()'


def data_sha256(python: str, command: str, src: str) -> str:
    """The artifact's manifest digest, after ``exit 1`` if the run wrote its
    artifact and exited 1 (a failed check), or an ``error: ...`` line if the
    run fails otherwise."""
    try:
        proc = subprocess.run([python, "-c", _RUN, *command.split()], capture_output=True,
                              env={**os.environ, "PYTHONPATH": src})
    except OSError as exc:  # no such interpreter, or not executable
        return f"error: cannot run {python}: {exc.strerror}"
    if proc.returncode in (0, 1):
        try:
            digest = json.loads(proc.stdout)["manifest"]["data_sha256"]
        except (ValueError, KeyError, TypeError):  # no whole artifact was written
            pass
        else:
            return f"exit 1 {digest}" if proc.returncode else digest
    last = proc.stderr.decode(errors="replace").strip().rpartition("\n")[2]
    return f"error: exit {proc.returncode}: {last}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+", metavar="PYTHON[=SRC]",
                        help="an interpreter, and the source tree it runs (default: this "
                             "checkout's src)")
    args = parser.parse_args()
    here = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    ok = True
    for command in COMMANDS:
        digests = {}
        for run in args.runs:
            python, _, src = run.partition("=")
            digests[run] = data_sha256(python, command, src or here)
        same = len(set(digests.values())) == 1 and not any(
            d.startswith("error") for d in digests.values())
        ok &= same
        print(f"{'same' if same else 'DIFFERENT'}  {command}")
        for run, digest in digests.items():
            print(f"    {digest}  {run}")
    print("all commands agree" if ok else "MISMATCH", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
