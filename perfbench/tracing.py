"""Spans around the public functions of ``bdheight``, recorded from outside the package.

Run as a script, this file calls ``bdheight.cli.main`` in its own process
and writes one JSON record at exit::

    PYTHONPATH=src python3 perfbench/tracing.py --record rec.json -- dist --n 10 --rho 0.5
    PYTHONPATH=src python3 perfbench/tracing.py --record rec.json --untraced -- dist --n 10 --rho 1

With ``--untraced`` no wrapper is installed and only the duration of
``cli.main`` is recorded; the two runs together give the tracing overhead.

Each public function of a layer module is wrapped where its callers look
it up: on its own module (``exactdist.height_distribution``), and on every
package module that imported the name directly (``from .model import
make_params`` puts ``make_params`` on ``cli``, ``asymptotics``, ...).
Nothing under ``src/`` changes.  Spans stay in memory until the run ends.

``layer_metrics`` turns one record into the per-layer numbers.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import resource
import sys
import threading
import time

LAYERS = ("cli", "model", "exactdist", "oracle", "asymptotics", "simulate")

# Lookup sites the three workloads reach.  A site the package no longer
# has is reported as missing; the run goes on without its spans.
REQUIRED_SITES = (
    ("exactdist", "height_distribution"),
    ("exactdist", "log_r_term"),
    ("oracle", "height_dist_oracle"),
    ("oracle", "conditional_ascent_probs"),
    ("asymptotics", "bound_constants"),
    ("asymptotics", "check_peak_ratio_bounds"),
    ("asymptotics", "check_mean_bounds"),
    ("asymptotics", "concentration_mass"),
    ("simulate", "run_batch"),
    ("cli", "make_params"),
    ("asymptotics", "make_params"),
    ("oracle", "jump_up_probs"),
    ("simulate", "jump_up_probs"),
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _work(subject) -> tuple[int | None, int | None]:
    """(N, samples) of a call whose first argument is a chain, a law or a batch config."""
    params = getattr(subject, "params", subject)
    n = getattr(params, "N", None)
    samples = getattr(subject, "n_samples", None)
    return (n if isinstance(n, int) else None,
            samples if isinstance(samples, int) else None)


class Tracer:
    """Collects spans: name, start, end, parent index, CPU time, peak-RSS growth."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()

    def wrap(self, name: str, fn):
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            n, samples = _work(args[0] if args else None)
            span = {"name": name, "parent": stack[-1] if stack else None,
                    "n": n, "samples": samples, "error": False}
            stack.append(len(spans))
            spans.append(span)
            rss0 = _maxrss_mb()
            cpu0 = time.process_time()
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                span["cpu_s"] = time.process_time() - cpu0
                span["rss_delta_mb"] = _maxrss_mb() - rss0
                stack.pop()

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every public function of the layer modules; return the missing sites."""
    modules, missing = {}, []
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"bdheight.{layer}")
        except ModuleNotFoundError:
            missing.append(f"module bdheight.{layer}")
    wrappers = {}
    for layer, mod in modules.items():
        if layer == "cli":
            continue
        for name in getattr(mod, "__all__", ()):
            fn = getattr(mod, name, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[fn] = tracer.wrap(f"{layer}.{name}", fn)
    for mod in (sys.modules["bdheight"], *modules.values()):
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])
    wrapped = set(wrappers.values())
    missing += [f"{layer}.{name}" for layer, name in REQUIRED_SITES
                if getattr(modules.get(layer), name, None) not in wrapped]
    return missing


def _outermost(spans: list[dict], layer: str) -> list[dict]:
    """Spans of ``layer`` that no other span of the same layer encloses."""
    out = []
    for span in spans:
        if _layer(span) != layer:
            continue
        parent = span["parent"]
        while parent is not None and _layer(spans[parent]) != layer:
            parent = spans[parent]["parent"]
        if parent is None:
            out.append(span)
    return out


def _layer(span: dict) -> str:
    return span["name"].split(".", 1)[0]


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(record: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced run, and notes on what had no spans."""
    spans = record["spans"]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += _dur(span)
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    errors = {layer: 0 for layer in LAYERS}
    for i, span in enumerate(spans):
        layer = _layer(span)
        calls[layer] += 1
        errors[layer] += span["error"]
        self_s[layer] += _dur(span) - child_time[i]
    top = {layer: _outermost(spans, layer) for layer in LAYERS}
    busy = {layer: sum(_dur(s) for s in top[layer]) for layer in LAYERS}

    def terms(layer):
        sized = [s for s in top[layer] if s["n"] is not None]
        return sum(s["n"] for s in sized), sum(_dur(s) for s in sized)

    notes = [f"no spans in layer {layer}" for layer in LAYERS if calls[layer] == 0]
    notes += [f"missing lookup site {site}" for site in record["missing"]]
    ex_terms, ex_sized_s = terms("exactdist")
    or_terms, _ = terms("oracle")
    samples = sum(s["samples"] or 0 for s in top["simulate"])
    m = {
        "cli.main_s": busy["cli"],
        "cli.self_s": self_s["cli"],
        "cli.peak_rss_delta_mb": max((s["rss_delta_mb"] for s in top["cli"]), default=0.0),
        "exactdist.calls": calls["exactdist"],
        "exactdist.terms": ex_terms,
        "exactdist.busy_s": busy["exactdist"],
        "exactdist.ns_per_term": ex_sized_s / ex_terms * 1e9 if ex_terms else 0.0,
        "asymptotics.calls": calls["asymptotics"],
        "asymptotics.self_s": self_s["asymptotics"],
        "oracle.calls": calls["oracle"],
        "oracle.terms": or_terms,
        "oracle.busy_s": busy["oracle"],
        "simulate.self_s": self_s["simulate"],
        "simulate.samples_per_s": samples / busy["simulate"] if busy["simulate"] else 0.0,
        "simulate.cpu_s": sum((s["cpu_s"] for s in top["simulate"]), 0.0),
        "simulate.peak_rss_delta_mb": max((s["rss_delta_mb"] for s in top["simulate"]),
                                          default=0.0),
        "model.calls": calls["model"],
        "model.busy_s": busy["model"],
        "trace.missing": len(record["missing"]),
        "trace.empty_layers": sum(calls[layer] == 0 for layer in LAYERS),
    }
    errors["cli"] = int(record["exit"] != 0)  # a raising cli.main also exits nonzero
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors[layer]
    if not ex_terms:
        notes.append("exactdist.ns_per_term has no terms to divide by")
    if not samples:
        notes.append("simulate.samples_per_s has no samples to divide by")
    return m, notes


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", required=True, help="path of the JSON record")
    parser.add_argument("--untraced", action="store_true", help="install no wrappers")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from bdheight import cli

    tracer = Tracer()
    missing = [] if args.untraced else install(tracer)
    main = cli.main if args.untraced else tracer.wrap("cli.main", cli.main)
    record = {"exit": 1, "main_s": None, "spans": tracer.spans, "missing": missing}
    start = time.perf_counter()
    try:
        record["exit"] = main(cli_args)
    except SystemExit as exc:
        record["exit"] = exc.code if isinstance(exc.code, int) else 1
    finally:
        record["main_s"] = time.perf_counter() - start
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return record["exit"]


if __name__ == "__main__":
    sys.exit(_main())
