#!/usr/bin/env python3
"""Check that CLI artifacts have the same data bytes on several interpreters.

Usage::

    python3 scripts/cross_version.py /path/to/python3.10 /path/to/python3.13 ...

Each interpreter runs each command below from this checkout's ``src``
(``PYTHONPATH=src``, so nothing needs installing) with numpy blocked, since
the package needs none at run time.  The script prints every command's
``data_sha256`` per interpreter and exits 1 if any command fails or any two
interpreters disagree.  It needs no network.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

COMMANDS = [
    "dist --n 100000 --rho 0.5",
    "simulate --n 2000 --rho 0.5 --samples 200000 --seed 7 --delta 1e-6 --assert",
    "verify --n 1000 10000",
    "verify --n 1000 10000 100000 1000000",
    "sweep --rho 0.5 --n 1000000 1000",
    "alpha --rho 0.3",
    "simulate --n 12 --rho 0.5 --samples 9000 --seed 3 --mode jump-chain",
    "simulate --n 5 --rho 0.5 --samples 20000 --seed 1 --mode full-ctmc",
    "simulate --n 1024 --rho 0.001 --samples 9000 --seed 5 --mode jump-chain",
]

# blocks numpy (any import of it raises ImportError), then runs the CLI
_RUN = 'import sys; sys.modules["numpy"] = None; from bdheight.cli import entrypoint; entrypoint()'


def data_sha256(python: str, command: str, src: str) -> str:
    """The artifact's manifest digest, or an ``error: ...`` line if the run fails."""
    proc = subprocess.run([python, "-c", _RUN, *command.split()], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src})
    if proc.returncode:
        return f"error: exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}"
    return json.loads(proc.stdout)["manifest"]["data_sha256"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pythons", nargs="+", help="interpreter paths")
    args = parser.parse_args()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    ok = True
    for command in COMMANDS:
        digests = {python: data_sha256(python, command, src) for python in args.pythons}
        same = len(set(digests.values())) == 1 and not any(
            d.startswith("error") for d in digests.values())
        ok &= same
        print(f"{'same' if same else 'DIFFERENT'}  {command}")
        for python, digest in digests.items():
            print(f"    {digest}  {python}")
    print("all commands agree" if ok else "MISMATCH", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
