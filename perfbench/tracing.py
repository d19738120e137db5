"""Span recorder for the traced benchmark run.

Wraps the public functions of each ``synthmeter`` module listed in
``TARGETS``. Each call records a span: name, start, end, parent span id,
the growth of the process's ``ru_maxrss`` high-water mark across the
call, and work counters computed from the call's arguments and return
value. Spans stay in memory; the child process writes them out when it
ends and ``layer_metrics`` folds them into per-layer numbers.

The wrapper replaces the function wherever a ``synthmeter`` module holds
it, because callers that bound it with ``from ... import`` (``report``
binds ``read_wide``, ``cli`` binds ``ingest``, ``write_wide`` and
``split_households``) look it up in their own namespace. Metrics are
named after the module that defines the function. No traced function
calls itself, so a layer's total time is the plain sum of its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import resource
import sys
import time


def _rows(data) -> int:
    values = getattr(data, "values", data)
    return len(values)


# "min_side" (rows of the smaller input) is kept per span, not reported
def _bandwidth(args, result):
    a, b = _rows(args["x"]), _rows(args["y"])
    return {"pairs": (a + b) * (a + b - 1) // 2, "min_side": min(a, b)}


def _mmd(args, result):
    a, b = _rows(args["x"]), _rows(args["y"])
    return {"kernel_evals": a * a + b * b + a * b, "min_side": min(a, b)}


def _nn_scan(args, result):
    return {"pairs": _rows(args["query"]) * _rows(args["reference"])}


def _train(args, result):
    config = args["config"]
    return {"steps": config.epochs * math.ceil(_rows(args["inputs"]) / config.batch_size)}


def _em(args, result):
    return {"em_iterations": len(result.log_likelihood_trace)}


def _read(args, result):
    return {"rows": len(result), "bytes": os.path.getsize(args["path"])}


def _write(args, result):
    return {"rows": len(args["profiles"]), "bytes": os.path.getsize(args["path"])}


def _digest(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _ingest(args, result):
    return {"readings": result.rows_read}


S = ("calls", "s")
# (module, function, reported fields, counter function). "s" is self time,
# "total_s" includes child spans; other fields are counters or derived.
TARGETS = [
    ("kernels", "median_heuristic_bandwidth", S + ("pairs", "rss_growth_mb"), _bandwidth),
    ("kernels", "mmd2_rbf", S + ("kernel_evals", "rss_growth_mb"), _mmd),
    ("kernels", "nearest_neighbor_distances", S + ("pairs",), _nn_scan),
    ("kernels", "acf", ("s",), None),
    ("kernels", "peak_mask", ("s",), None),
    ("kernels", "pca_project", ("s",), None),
    ("kernels", "per_slot_statistics", S, None),
    ("nnet", "train", S + ("steps", "us_per_step"), _train),
    ("nnet", "forward", S, None),
    ("nnet", "logits", ("s",), None),
    ("gmm", "fit", S + ("em_iterations",), _em),
    ("gmm", "predict", S, None),
    ("gmm", "sample", ("s",), None),
    ("profiles", "read_wide", S + ("rows", "bytes"), _read),
    ("poisoning", "read_registry", ("s",), None),
    ("profiles", "ingest", ("s", "readings"), _ingest),
    ("profiles", "write_wide", ("s", "rows", "bytes"), _write),
    ("profiles", "split_households", ("s",), None),
    ("demo", "make_population", ("s",), None),
    ("demo", "write_long_csv", ("s",), None),
    ("poisoning", "inject", ("s",), None),
    ("generators", "gmm_generate", ("total_s",), None),
    ("cli", "labelled_gmm_synthetic", ("total_s",), None),
    ("cli", "build_demo_workspace", ("total_s",), None),
    ("fidelity", "evaluate_fidelity", ("total_s",), None),
    ("privacy", "reconstruction_ks", ("total_s",), None),
    ("privacy", "reconstruction_poisoned", ("total_s",), None),
    ("privacy", "mia_plain", ("total_s",), None),
    ("privacy", "mia_poisoned", ("total_s",), None),
    ("utility", "tstr_classify", ("total_s",), None),
    ("utility", "tstr_forecast_mean", ("total_s",), None),
    ("utility", "tstr_forecast_quantile", ("total_s",), None),
    ("report", "run_full_evaluation", ("s",), None),
    ("report", "file_digest", ("s", "bytes"), _digest),
]

UNITS = {"s": "s", "total_s": "s", "rss_growth_mb": "MB", "us_per_step": "us", "bytes": "B"}


def layer_metric_names() -> list[str]:
    return [f"{mod}.{fn}.{field}" for mod, fn, fields, _ in TARGETS for field in fields]


def unit_of(field: str) -> str:
    return UNITS.get(field, "count")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Keeps the spans of one process in memory, in start order."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, counters):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "rss_start_mb": _maxrss_mb(),
            }
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_end_mb"] = _maxrss_mb()
                self._open.pop()
            if counters is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counters(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target in every loaded synthmeter module that binds it."""
        importlib.import_module("synthmeter.cli")
        modules = [m for name, m in sys.modules.items() if name.startswith("synthmeter")]
        for mod, fn, _, counters in TARGETS:
            original = getattr(importlib.import_module(f"synthmeter.{mod}"), fn)
            traced = self.wrap(f"{mod}.{fn}", original, counters)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)


def self_values(spans: list[dict]) -> tuple[dict, dict]:
    """Self time and self RSS growth per span id: own minus child coverage."""
    self_s = {s["id"]: s["end"] - s["start"] for s in spans}
    self_mb = {s["id"]: s["rss_end_mb"] - s["rss_start_mb"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            self_s[s["parent"]] -= s["end"] - s["start"]
            self_mb[s["parent"]] -= s["rss_end_mb"] - s["rss_start_mb"]
    return self_s, self_mb


def span_sums(*processes: list[dict]) -> dict[str, float]:
    """``<layer>.<field>`` summed over the spans of the given processes (span
    ids are unique within one process only): calls, self time ``s``,
    ``total_s``, ``rss_growth_mb`` and the work counters."""
    sums: dict[str, float] = {}
    for spans in processes:
        self_s, self_mb = self_values(spans)
        for s in spans:
            for field, value in (
                ("calls", 1),
                ("s", self_s[s["id"]]),
                ("total_s", s["end"] - s["start"]),
                ("rss_growth_mb", self_mb[s["id"]]),
                *s.get("counts", {}).items(),
            ):
                key = f"{s['name']}.{field}"
                sums[key] = sums.get(key, 0) + value
    return sums


def layer_metrics(*processes: list[dict]) -> dict[str, float]:
    """Every per-layer metric of ``TARGETS`` over the given processes' spans."""
    sums = span_sums(*processes)
    out = {name: sums.get(name, 0) for name in layer_metric_names()}
    steps = sums.get("nnet.train.steps", 0)
    out["nnet.train.us_per_step"] = 1e6 * sums["nnet.train.s"] / steps if steps else 0.0
    return out


def peak_setter(spans: list[dict]) -> str | None:
    """The deepest span during which the final RSS high-water mark was reached."""
    if not spans:
        return None
    peak = max(s["rss_end_mb"] for s in spans)
    depth = {}
    for s in spans:
        depth[s["id"]] = 0 if s["parent"] is None else depth[s["parent"]] + 1
    raised = [s for s in spans if s["rss_end_mb"] == peak and s["rss_start_mb"] < peak]
    return max(raised, key=lambda s: depth[s["id"]])["name"] if raised else None
