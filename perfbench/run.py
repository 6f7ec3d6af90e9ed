"""Benchmark of the ``bdheight`` command line on three workloads.

Run from the repository root; the package need not be installed::

    python3 perfbench/run.py --workload dist_1e6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` runs the CLI as child processes, one at a time, as
``python -m bdheight.cli ...`` with ``PYTHONPATH=src`` and
``BDHEIGHT_WORKERS`` unset, and reaps each with ``os.wait4`` to read that
child's own peak RSS.  It reports the end-to-end metrics.  Times are
scaled to a reference CPU speed measured next to each child (see
``launch.py``).

``--trace 1`` runs ``cli.main`` in a fresh child per run under
``perfbench/tracing.py``, untraced and traced in turn, and reports the
per-layer metrics.

Every run checks the artifacts it produced.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``perfbench/NOTES.md`` describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import artifact
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent

SETUP_RUNS = 7            # timed `--version` runs per benchmark run, spread over it
IMPORT_RUNS = 3           # `-X importtime` runs per traced benchmark run
MIN_RUNS = 2              # every set has a rerun, so artifact bytes are compared
BUDGET_FACTOR = 4         # no child runs past this many times --seconds
# Reference time of launch.py's calibration loop.  It takes about this long on
# the machine described in NOTES.md, so scaled times read close to raw ones there.
CAL_REF_S = 2e-3
IMPORT_MODULES = ("cli", "model", "exactdist", "oracle", "asymptotics", "simulate", "errors")

VERIFY_NS = (1000, 10000, 100000, 1000000)
VERIFY_RHOS = (0.25, 0.5, 0.75, 1.0, 2.0)  # the default rho grid of `verify`
SIM_N, SIM_SAMPLES = 2000, 200000


@dataclass(frozen=True)
class Workload:
    argv: Callable[[int], list[str]]
    laws: tuple[tuple[int, float], ...]   # (N, rho) pairs the run computes
    make_check: Callable[[], Callable[[dict], str | None]]
    predicted: str                        # per-layer metric expected to dominate cli.main


WORKLOADS = {
    "dist_1e6": Workload(
        argv=lambda seed: ["dist", "--n", "1000000", "--rho", "0.5"],
        laws=((1000000, 0.5),),
        make_check=lambda: artifact.dist_check(1000000, 0.5),
        predicted="cli.self_s"),
    "verify_grid": Workload(
        argv=lambda seed: ["verify", "--n", *map(str, VERIFY_NS)],
        laws=tuple((n, rho) for rho in VERIFY_RHOS for n in VERIFY_NS),
        make_check=lambda: artifact.verify_check,
        predicted="exactdist.busy_s"),
    "simulate_ladder": Workload(
        argv=lambda seed: ["simulate", "--n", str(SIM_N), "--rho", "0.5",
                           "--samples", str(SIM_SAMPLES), "--seed", str(seed),
                           "--delta", "1e-6", "--assert"],
        laws=((SIM_N, 0.5),),
        make_check=lambda: artifact.simulate_check(SIM_SAMPLES),
        predicted="simulate.self_s"),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "output_bytes": "bytes"}

PER_LAYER_UNITS = {
    "cli.main_s": "s", "cli.self_s": "s", "cli.peak_rss_delta_mb": "MB",
    "exactdist.calls": "count", "exactdist.terms": "count", "exactdist.busy_s": "s",
    "exactdist.ns_per_term": "ns", "exactdist.oracle_gap": "abs",
    "asymptotics.calls": "count", "asymptotics.self_s": "s",
    "oracle.calls": "count", "oracle.terms": "count", "oracle.busy_s": "s",
    "simulate.self_s": "s", "simulate.samples_per_s": "1/s", "simulate.cpu_s": "s",
    "simulate.peak_rss_delta_mb": "MB",
    "model.calls": "count", "model.busy_s": "s",
    **{f"{m}.import_s": "s" for m in IMPORT_MODULES},
    **{f"{layer}.errors": "count" for layer in tracing.LAYERS},
    "trace.overhead_frac": "ratio", "trace.predicted_share": "ratio",
    "trace.missing": "count", "trace.empty_layers": "count",
}


@dataclass
class Child:
    wall_s: float
    cal_s: float      # median time of the calibration loop while the child ran
    rss_mb: float
    exit: int | None  # None when the child was killed at its timeout

    @property
    def scaled_s(self) -> float:
        """Wall time at the reference CPU speed, on which CAL_REF_S holds."""
        return self.wall_s * CAL_REF_S / self.cal_s


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("BDHEIGHT_WORKERS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], timeout: float) -> Child:
    """Run one child to completion through ``launch.py``, which stays small (see there)."""
    with open(OUT / "stderr.log", "ab") as log:
        proc = subprocess.run([sys.executable, str(HERE / "launch.py"), str(timeout), "--", *argv],
                              cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=log, timeout=timeout + 60.0,
                              check=True)
    return Child(**json.loads(proc.stdout))


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "bdheight.cli", *args]


class ArtifactJudge:
    """Checks the first artifact of one set; every later one must repeat its bytes."""

    def __init__(self, check):
        self.check = check
        self.first: tuple[str, str | None] | None = None  # (digest, verdict) of the first

    def __call__(self, child: Child, path: Path) -> tuple[str | None, int]:
        """(failure reason or None, artifact size in bytes)."""
        if child.exit is None:
            return "timed out", 0
        if child.exit != 0:
            return f"exit code {child.exit}", 0
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return "no artifact written", 0
        path.unlink()
        digest = hashlib.sha256(blob).hexdigest()
        if self.first is None:
            try:
                verdict = self.check(json.loads(blob))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                verdict = f"unreadable artifact: {exc!r}"
            self.first = (digest, verdict)
        elif digest != self.first[0]:
            return "artifact bytes differ from the first run of this set", len(blob)
        return self.first[1], len(blob)


class Budget:
    """The time limits of one workload's measurement, all derived from ``--seconds``.

    Once a set has its minimum of runs, no child starts that is expected to
    end after ``seconds``.  No child starts that is expected to end after
    ``BUDGET_FACTOR * seconds``, and none runs more than a second past it."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def has_room(self, longest: float, within: float | None = None) -> bool:
        end = BUDGET_FACTOR * self.seconds if within is None else within
        return self.elapsed() + longest <= end

    def timeout(self) -> float:
        return max(1.0, BUDGET_FACTOR * self.seconds - self.elapsed())


def measure_end_to_end(name: str, w: Workload, seed: int, seconds: float, report) -> tuple:
    """CLI runs, each after the `--version` runs due by then.

    The `--version` runs are spread over the measuring time in proportion
    to it, SETUP_RUNS in all, so `setup_s` does not depend on one moment of
    a machine whose speed drifts."""
    budget = Budget(seconds)
    judge = ArtifactJudge(w.make_check())
    path = OUT / f"{name}.artifact"
    setup, runs = [], []
    failed = 0

    def setup_run():
        nonlocal failed
        child = spawn(cli_argv(["--version"]), timeout=min(60.0, budget.timeout()))
        failed += child.exit != 0
        setup.append(child)

    while True:
        due = max(1, min(SETUP_RUNS, math.ceil(SETUP_RUNS * budget.elapsed() / seconds)))
        while len(setup) < due and budget.has_room(setup[-1].wall_s if setup else 0.0):
            setup_run()
        longest = max((c.wall_s for c, _ in runs), default=0.0)
        if len(runs) >= MIN_RUNS and not budget.has_room(longest, within=seconds):
            break
        if not budget.has_room(1.25 * longest):
            report(f"{name}: stopping after {len(runs)} runs to stay within the time budget")
            break
        path.unlink(missing_ok=True)
        child = spawn(cli_argv([*w.argv(seed), "--output", str(path)]), timeout=budget.timeout())
        reason, size = judge(child, path)
        report(f"{name}: run {len(runs) + 1}: {child.scaled_s:.3f} s scaled "
               f"({child.wall_s:.3f} s raw, calibration {1e3 * child.cal_s:.3f} ms), "
               f"{child.rss_mb:.1f} MB, "
               f"{size} bytes, {reason or 'correct'}")
        failed += reason is not None
        runs.append((child, size))
    while len(setup) < SETUP_RUNS and budget.has_room(setup[-1].wall_s):
        setup_run()
    report(f"{name}: setup runs, scaled (raw): "
           + ", ".join(f"{c.scaled_s:.3f} ({c.wall_s:.3f}) s" for c in setup))
    report(f"{name}: raw medians: wall {statistics.median(c.wall_s for c, _ in runs):.6g} s, "
           f"setup {statistics.median(c.wall_s for c in setup):.6g} s")
    metrics = {
        "wall_s": (statistics.median(c.scaled_s for c, _ in runs), len(runs)),
        "setup_s": (statistics.median(c.scaled_s for c in setup), len(setup)),
        "peak_rss_mb": (statistics.median(c.rss_mb for c, _ in runs), len(runs)),
        "output_bytes": (statistics.median(size for _, size in runs), len(runs)),
    }
    return metrics, len(setup) + len(runs), failed


def import_times(report) -> dict[str, tuple[float, int]]:
    """Cumulative import time per package module, from ``-X importtime``."""
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bdheight.cli"],
                              cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        found = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[1].isdigit() and parts[2].startswith("bdheight."):
                found[parts[2].removeprefix("bdheight.")] = int(parts[1]) / 1e6
        runs.append(found)
    out = {}
    for module in IMPORT_MODULES:
        values = [r[module] for r in runs if module in r]
        if not values:
            report(f"module bdheight.{module} is missing from -X importtime; reported as 0")
        out[f"{module}.import_s"] = (statistics.median(values) if values else 0.0, len(values))
    return out


def measure_layers(name: str, w: Workload, seed: int, seconds: float, report) -> tuple:
    budget = Budget(seconds)
    judge = ArtifactJudge(w.make_check())
    path = OUT / f"{name}.artifact"
    record_path = OUT / f"{name}.record.json"
    records = {False: [], True: []}
    attempted = failed = 0
    pair_s = []
    while not pair_s or budget.has_room(max(pair_s), within=seconds):
        if not budget.has_room(1.25 * max(pair_s, default=0.0)):
            break
        pair_start = time.perf_counter()
        for traced in (False, True):
            path.unlink(missing_ok=True)
            record_path.unlink(missing_ok=True)
            flags = ["--record", str(record_path), *([] if traced else ["--untraced"])]
            child = spawn([sys.executable, str(HERE / "tracing.py"), *flags,
                           "--", *w.argv(seed), "--output", str(path)],
                          timeout=budget.timeout())
            attempted += 1
            reason, _ = judge(child, path)
            if reason is None and not record_path.exists():
                reason = "no trace record written"
            if reason:
                failed += 1
                report(f"{name}: {'traced' if traced else 'untraced'} run failed: {reason}")
                continue
            records[traced].append(json.loads(record_path.read_text()))
        pair_s.append(time.perf_counter() - pair_start)
    if not records[True]:
        return {}, attempted, failed

    per_run = []
    notes = set()
    for record in records[True]:
        m, n = tracing.layer_metrics(record)
        per_run.append(m)
        notes.update(n)
    metrics = {key: (statistics.median(m[key] for m in per_run), len(per_run))
               for key in per_run[0]}
    metrics.update(import_times(report))
    missing_imports = sum(metrics[f"{m}.import_s"][1] == 0 for m in IMPORT_MODULES)
    metrics["trace.missing"] = (metrics["trace.missing"][0] + missing_imports, len(per_run))
    metrics["exactdist.oracle_gap"] = (artifact.oracle_gap(w.laws), 1)
    main_traced = statistics.median(r["main_s"] for r in records[True])
    if records[False]:
        main_untraced = statistics.median(r["main_s"] for r in records[False])
        metrics["trace.overhead_frac"] = (main_traced / main_untraced - 1.0,
                                          len(records[False]))
    else:
        report(f"{name}: no untraced run succeeded; trace.overhead_frac reported as 0")
        metrics["trace.overhead_frac"] = (0.0, 0)
    metrics["trace.predicted_share"] = (metrics[w.predicted][0] / metrics["cli.main_s"][0],
                                        len(per_run))
    for note in sorted(notes):
        report(f"{name}: {note}")
    return metrics, attempted, failed


def machine_facts() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
                             ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown (git not available)"
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the bdheight CLI.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload; no CLI run starts that is "
                             f"expected to end after it, once a set has {MIN_RUNS}, and no "
                             f"child runs past {BUDGET_FACTOR} times it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "bdheight" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'bdheight' / 'cli.py'} not found; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    print(f"# machine: {json.dumps(machine_facts(), sort_keys=True)}", flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    measure = measure_layers if args.trace else measure_end_to_end

    def report(line):
        print(f"# {line}", flush=True)

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, attempted, failed = measure(name, WORKLOADS[name], args.seed, args.seconds,
                                             report)
        result["attempted"] += attempted
        result["failed"] += failed
        report(f"{name}: fail_frac {failed / attempted:.4g} ratio ({failed} of {attempted})")
        for key, unit in units.items():
            if key not in metrics:
                report(f"{name}: metric {key} was not measured")
                continue
            value, samples = metrics[key]
            report(f"{name}: {key} {value:.6g} {unit} (median of n={samples})")
            label = key if len(names) == 1 else f"{name}.{key}"
            result["metrics"][label] = {"value": value, "unit": unit}
    result["correct"] = result["failed"] == 0 and result["attempted"] > 0 and all(
        (key if len(names) == 1 else f"{n}.{key}") in result["metrics"]
        for n in names for key in units)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
