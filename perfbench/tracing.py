"""Timing wrappers around trilat's layer functions, for the traced run.

Modules bind these functions by name at import (``classifier`` holds its own
``compute_bundle`` and ``objective_value``), so each function object is
wrapped once and the one wrapper is bound under every name in every trilat
module that refers to it: no caller is missed and none is counted twice.
A function a later version no longer has is reported as absent.
"""
from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

TARGETS = {
    "classifier": ("solve", "solve_isosceles", "solve_general"),
    "thresholds": ("compute_bundle", "d3_star_root", "threshold_P", "g_aux"),
    "regions": ("objective_value",),
    "geometry": ("circle_circle_intersect", "canonical_frame"),
    "oracle": ("brute_force_minimize", "_evaluate", "_prune", "_cluster",
               "_refine_rep", "_objective_scalar"),
}

# Functions whose wall-clock spans are kept, to subtract from their caller.
SPANNED = ("classifier.solve_isosceles",)


class Tracer:
    """Per function: calls, thread CPU seconds, plus a few oracle counters."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.cpu: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.spans: List[Tuple[float, float]] = []
        self.absent: List[str] = []
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, Callable]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "trilat" or name.startswith("trilat.")]
        for module_name, names in TARGETS.items():
            module = importlib.import_module("trilat." + module_name)
            for name in names:
                key = f"{module_name}.{name}"
                fn = getattr(module, name, None)
                if fn is None:
                    self.absent.append(key)
                    continue
                wrapper = self._wrap(key, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def _count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def _wrap(self, key: str, fn: Callable) -> Callable:
        after = _AFTER.get(key)
        spanned = key in SPANNED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            c0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1 = time.thread_time()
                t1 = time.perf_counter()
                with self._lock:
                    self.calls[key] = self.calls.get(key, 0) + 1
                    self.cpu[key] = self.cpu.get(key, 0.0) + (c1 - c0)
                if spanned:
                    self.spans.append((t0, t1))
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    # -- derived figures ----------------------------------------------------

    def count(self, key: str) -> int:
        return self.calls.get(key, 0)

    def per_call_us(self, key: str) -> float:
        n = self.calls.get(key, 0)
        return self.cpu.get(key, 0.0) / n * 1e6 if n else 0.0

    def ratio(self, key: str, base: str) -> float:
        n = self.calls.get(base, 0)
        return self.calls.get(key, 0) / n if n else 0.0


def _after_prune(tracer: Tracer, args, result) -> None:
    """Cap hits and the candidates the survivor cap dropped."""
    from trilat import oracle
    cap = getattr(oracle, "_SURVIVOR_CAP", None)
    if cap is None or len(result[0]) < cap:
        return
    _px, _py, vals, vmin, band, lip, cell = args
    kept = int(np.count_nonzero(vals <= vmin + max(band, lip * cell)))
    tracer._count("prune.cap_hits", 1)
    tracer._count("prune.capped_out", kept - cap)


def _after_cluster(tracer: Tracer, args, result) -> None:
    tracer._count("cluster.points", len(args[0]))


def _after_minimize(tracer: Tracer, args, result) -> None:
    tracer._count("refine.kept", len(result.minima))


_AFTER = {
    "oracle._prune": _after_prune,
    "oracle._cluster": _after_cluster,
    "oracle.brute_force_minimize": _after_minimize,
}


def union_seconds(spans: List[Tuple[float, float]]) -> float:
    """Length of the union of possibly overlapping intervals."""
    total = 0.0
    end: Optional[float] = None
    for a, b in sorted(spans):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def parse_importtime(stderr: str) -> Tuple[float, float]:
    """(trilat ms, numpy ms) from ``-X importtime`` output.

    trilat is the sum of the cumulative times of the top-level imports named
    trilat*; numpy is the cumulative time of its first import, at any depth.
    """
    trilat_us = 0.0
    numpy_us: Optional[float] = None
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = float(parts[1])
        name = parts[2]
        if name.startswith(" trilat"):
            trilat_us += cumulative
        if numpy_us is None and name.strip() == "numpy":
            numpy_us = cumulative
    return trilat_us / 1e3, (numpy_us or 0.0) / 1e3


def parse_main_ms(stderr: str) -> Optional[float]:
    for line in stderr.splitlines():
        if line.startswith("main_ms "):
            return float(line.split()[1])
    return None
