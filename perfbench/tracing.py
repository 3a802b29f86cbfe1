"""Span tracing of masim's layer functions, installed from outside the package.

A :class:`Tracer` replaces each target function with a timing wrapper in
every ``masim`` module that binds it.  ``from .channel import field_on_grid``
copies the name into ``positioning``, ``gainmap`` and ``estimation``, so
patching ``masim.channel`` alone would miss most calls.  Spans are kept in
memory as ``(name, start, end, parent, run)`` rows and saved when the run
ends; :func:`layer_metrics` turns them into per-layer calls, self times and
work counts.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Functions to wrap, as "<masim module>.<function>", each with the work
# counters drawn from its arguments and result: {counter: f(args, kwargs, result)}.
TARGETS = {
    "channel.sample_stochastic_channel": {
        "paths": lambda a, k, r: len(r.coefficients)},
    "channel.field_on_grid": {
        "points": lambda a, k, r: np.size(r[0]),
        # Grid points times paths: the computed operation count of the kernel.
        "path_points": lambda a, k, r: np.size(r[0]) * len(_arg(a, k, 0, "spec").coefficients)},
    "channel.channel_gain": {
        "positions": lambda a, k, r: np.size(r)},
    "positioning.max_snr_position": {},
    "positioning.max_sinr_position": {},
    "mimo.sequential_position_search": {
        "passes": lambda a, k, r: len(r.pass_capacities),
        "improved": lambda a, k, r: int(r.capacity > r.initial_capacity)},
    "mimo.build_channel_matrix": {},
    "estimation.omp_estimate": {
        "atoms": lambda a, k, r: len(r.indices)},
    "estimation.reconstruct_and_score": {},
    "estimation.simulate_measurements": {},
    "beams.optimize_uniform_spacing": {},
    "beams.two_beam_weights_fpa": {},
    "beams.beam_pattern": {},
    "gainmap.evaluate_map": {},
    "util.write_csv_atomic": {
        "bytes": lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))},
    "util.write_json_atomic": {},
    "util.map_indexed": {},
    "experiments.run_experiment": {},
}

# Spans that bracket other layers (config handling, dispatch, the trial
# loop) rather than doing one layer's compute; their self time is left out
# of trace.coverage_frac.
COVERAGE_EXCLUDED = ("experiments.run_experiment", "util.map_indexed")


def per_layer_specs() -> list[tuple[str, str, str]]:
    """``(metric, unit, better)`` for every per-layer metric, in report order."""
    specs = []
    for name, counters in TARGETS.items():
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
        for counter in counters:
            if counter == "improved":
                specs.append((f"{name}.improved_frac", "ratio", "higher"))
            else:
                unit = "B" if counter == "bytes" else "count"
                specs.append((f"{name}.{counter}", unit, "lower"))
    specs += [
        ("positioning.evals_per_search", "count", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.coverage_frac", "ratio", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return specs


class Tracer:
    """Wraps the target functions of the imported ``masim`` modules."""

    def __init__(self, targets: dict = TARGETS):
        self.targets = targets
        self.names = list(targets)
        self.spans: list = []    # (name index, start, end, parent slot, run) per span
        self.counts: dict = {}   # "<function>.<counter>" -> total
        self.absent: list = []   # targets or counters that could not be measured
        self.run = 0
        self._stack: list = []
        self._restore: list = []

    def install(self) -> None:
        """Wrap every binding of each target; names that no longer exist are recorded as absent."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "masim" or n.startswith("masim."))]
        for index, name in enumerate(self.names):
            module_name, _, func_name = name.rpartition(".")
            original = getattr(sys.modules.get(f"masim.{module_name}"), func_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(index, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, index: int, fn):
        name = self.names[index]
        counters = list(self.targets[name].items())
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.run)
            for counter, count in counters:
                key = f"{name}.{counter}"
                try:
                    counts[key] = counts.get(key, 0) + int(count(args, kwargs, result))
                except Exception:  # the result's shape changed; report the counter as absent
                    if key not in self.absent:
                        self.absent.append(key)
            return result

        return traced

    def save(self, path: str) -> None:
        """Write the spans as ``names`` and an (n, 5) ``spans`` array to an .npz file."""
        rows = np.array(self.spans, dtype=float).reshape(-1, 5)
        np.savez(path, names=np.array(self.names), spans=rows)


def self_times(starts: np.ndarray, ends: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its direct children cover.

    ``parents[i]`` is the row of span i's parent, or -1.  Spans come from one
    thread's call stack, so a span's children are disjoint intervals inside
    it and the part they cover is the sum of their durations.
    """
    durations = ends - starts
    child = parents >= 0
    covered = np.bincount(parents[child].astype(int), weights=durations[child],
                          minlength=durations.size)
    return durations - covered


def layer_metrics(names, spans: np.ndarray, counts: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced child from its spans and counters."""
    index = spans[:, 0].astype(int)
    self_s = self_times(spans[:, 1], spans[:, 2], spans[:, 3])
    calls = np.bincount(index, minlength=len(names))
    busy = np.bincount(index, weights=self_s, minlength=len(names))
    metrics = {}
    for i, name in enumerate(names):
        metrics[f"{name}.calls"] = int(calls[i])
        metrics[f"{name}.self_s"] = float(busy[i])
    for name, counters in TARGETS.items():
        for counter in counters:
            total = counts.get(f"{name}.{counter}", 0)
            if counter == "improved":
                n = metrics.get(f"{name}.calls", 0)
                metrics[f"{name}.improved_frac"] = total / n if n else 0.0
            else:
                metrics[f"{name}.{counter}"] = total
    searches = (metrics.get("positioning.max_snr_position.calls", 0)
                + metrics.get("positioning.max_sinr_position.calls", 0))
    positions = metrics.get("channel.channel_gain.positions", 0)
    metrics["positioning.evals_per_search"] = positions / searches if searches else 0.0
    metrics["trace.spans"] = int(index.size)
    covered = sum(float(busy[i]) for i, name in enumerate(names) if name not in COVERAGE_EXCLUDED)
    metrics["trace.coverage_frac"] = covered / wall_s if wall_s > 0 else 0.0
    return metrics
