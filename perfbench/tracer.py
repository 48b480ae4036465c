"""Span tracing of the package's layers, installed from outside.

`Tracer.install` replaces every public function of the traced modules with
a recording wrapper, at each module attribute that holds it, so calls made
through ``from .darboux import synthesize_samples``-style bindings are seen
too.  A span is (id, name, start, end, parent id, thread id, counts); spans
stay in memory until `Tracer.dump`, and `layer_metrics` derives the
per-layer figures from them after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import os
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

PACKAGE = "soliton_tbp"

# module -> traced public functions (None: all of them).  Of asymptotics only
# the envelope calls that auto_grid makes are traced.
TRACED = {
    "darboux": None,
    "metrics": None,
    "optimizer": None,
    "scattering": None,
    "propagation": None,
    "io": None,
    "asymptotics": ("envelope_duration", "envelope_bandwidth", "tail_envelope"),
}


def _rows(result):
    return result.shape[0] if result.ndim > 1 else 1


# per-span work counts, from a call's bound arguments and its result
COUNTS = {
    "darboux.synthesize_samples": lambda a, r: {"samples": r.size, "rows": _rows(r)},
    "darboux.synthesize_phases": lambda a, r: {"rows": _rows(r)},
    "darboux.auto_grid": lambda a, r: {"grid_samples": r.n_samples},
    "darboux.union_grid": lambda a, r: {"grid_samples": r.n_samples},
    "scattering.scatter_many": lambda a, r: {
        "lambdas": np.atleast_1d(a["lams"]).size, "samples": a["signal"].grid.n_samples},
    "propagation.propagate": lambda a, r: {
        "step_samples": a["plan"].n_steps * a["signal"].grid.n_samples},
    "io.load_signal": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "io.save_signal": lambda a, r: {"bytes": os.path.getsize(a["path"])},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []

    @contextmanager
    def span(self, name):
        """Record the enclosed block; the yielded dict collects its counts."""
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        counts = {}
        start = time.perf_counter()
        try:
            yield counts
        except BaseException as exc:
            counts["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident(), counts))

    def _wrap(self, name, fn):
        count = COUNTS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if count:
                    counts.update(count(signature.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def install(self):
        """Wrap the traced functions at every attribute of the loaded package."""
        wrappers = {}
        for short, only in TRACED.items():
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and (only is None or attr in only)):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path):
        keys = ("id", "name", "start", "end", "parent", "thread", "counts")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


UNITS = {
    "darboux.synth_s": "s",
    "darboux.samples": "count",
    "darboux.samples_per_s": "1/s",
    "darboux.grid_s": "s",
    "darboux.grid_samples_mean": "count",
    "metrics.scan_s": "s",
    "metrics.signals": "count",
    "metrics.signals_per_s": "1/s",
    "metrics.link_s_p50": "s",
    "metrics.link_s_p95": "s",
    "optimizer.points": "count",
    "optimizer.pool_busy": "fraction",
    "scattering.eig_s": "s",
    "scattering.amp_s": "s",
    "scattering.scatter_small_s": "s",
    "scattering.scatter_large_s": "s",
    "scattering.cells": "count",
    "scattering.cells_per_s": "1/s",
    "scattering.newton_batches": "count",
    "propagation.propagate_s": "s",
    "propagation.step_samples": "count",
    "propagation.step_samples_per_s": "1/s",
    "io.signal_io_s": "s",
    "io.signal_bytes": "bytes",
}


def _quantile(values, q):
    """Nearest-rank quantile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans, main_thread: int, workers: int) -> dict:
    """Per-layer figures of one traced run (see the README for their meaning)."""
    by_id = {s[0]: s for s in spans}
    done = [s for s in spans if "error" not in s[6]]
    child_time = {}
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])

    def named(*names, failed=False):
        return [s for s in (spans if failed else done) if s[1] in names]

    def total(items):
        return sum(s[3] - s[2] for s in items)

    def parent_name(s):
        return by_id[s[4]][1] if s[4] in by_id else None

    synth = named("darboux.synthesize_samples")
    grids = named("darboux.auto_grid", "darboux.union_grid")
    scans = named("metrics.t_max_b_max")
    scan_self = sum(s[3] - s[2] - child_time.get(s[0], 0.0) for s in scans)
    signals = sum(s[6]["rows"] for s in named("darboux.synthesize_phases")
                  if parent_name(s) == "metrics.t_max_b_max")
    links = [s[3] - s[2] for s in named("metrics.t_hat_b_hat")]
    worker_roots = [s for s in spans if s[5] != main_thread and s[4] is None]
    sweep_wall = total(named("optimizer.run_sweep"))
    scatter = named("scattering.scatter_many")
    small = [s for s in scatter if s[6]["lambdas"] <= 8]
    large = [s for s in scatter if s[6]["lambdas"] > 8]
    cells = sum(s[6]["lambdas"] * s[6]["samples"] for s in scatter)
    props = named("propagation.propagate")
    step_samples = sum(s[6]["step_samples"] for s in props)
    signal_io = named("io.load_signal", "io.save_signal")
    samples = sum(s[6]["samples"] for s in synth)
    return {
        "darboux.synth_s": total(synth),
        "darboux.samples": samples,
        "darboux.samples_per_s": _rate(samples, total(synth)),
        "darboux.grid_s": total(grids),
        "darboux.grid_samples_mean": (sum(s[6]["grid_samples"] for s in grids) / len(grids)
                                      if grids else 0.0),
        "metrics.scan_s": scan_self,
        "metrics.signals": signals,
        "metrics.signals_per_s": _rate(signals, scan_self),
        "metrics.link_s_p50": _quantile(links, 0.5),
        "metrics.link_s_p95": _quantile(links, 0.95),
        "optimizer.points": sum(1 for s in named("optimizer.spectrum_for_point", failed=True)
                                if s[5] != main_thread),
        "optimizer.pool_busy": (total(worker_roots) / (sweep_wall * workers)
                                if sweep_wall > 0 else 0.0),
        "scattering.eig_s": total(named("scattering.find_eigenvalues")),
        "scattering.amp_s": total(named("scattering.discrete_amplitude")),
        "scattering.scatter_small_s": total(small),
        "scattering.scatter_large_s": total(large),
        "scattering.cells": cells,
        "scattering.cells_per_s": _rate(cells, total(scatter)),
        "scattering.newton_batches": sum(1 for s in scatter
                                         if parent_name(s) == "scattering.find_eigenvalues"),
        "propagation.propagate_s": total(props),
        "propagation.step_samples": step_samples,
        "propagation.step_samples_per_s": _rate(step_samples, total(props)),
        "io.signal_io_s": total(signal_io),
        "io.signal_bytes": sum(s[6]["bytes"] for s in signal_io),
    }
