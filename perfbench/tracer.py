"""Per-layer spans for the traced benchmark run, recorded from outside.

The tracer replaces the functions named in ``LAYERS`` with timing wrappers
by patching module attributes (every ``starkladder`` module that holds the
function, so calls between modules are caught too) and restores them on
exit.  The package source is not touched.  Work counts come from each
call's arguments and return value, so they repeat exactly from run to run.

Spans are kept in memory: name, start, end and the span that caused it.  A
layer's self time is its spans' durations minus the time covered by their
child spans.  A function that a later version of the package no longer has
is skipped and its metrics read 0; so are the counts of a function whose
signature changed.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field


def _monodromy(args, result):
    return {"steps": getattr(result, "integration_steps", 0)}


def _crossing_scan(args, result):
    return {"fields": args["resolution"]}


def _tridiagonal(args, result):
    matrix = args["matrix"]
    rows = getattr(matrix, "size", None)
    return {"rows": rows if isinstance(rows, int) else len(matrix),
            "levels": len(result)}


def _propagate(args, result):
    state = args["state"]
    span = float(args["t_grid"][-1]) - state.time
    return {"site_time": state.amplitudes.size * span}


def _chain(args, result):
    return {"sites": result.size}


def _jacobi(args, result):
    n = len(args["matrix"])
    return {"n_cubed": n ** 3}


PACKAGE = "starkladder"

# layer name -> (module, attribute path inside it, work-count hook)
LAYERS = {
    "cli.main": ("cli", "main", None),
    "spectra_exact.monodromy": ("spectra_exact", "monodromy", _monodromy),
    "spectra_exact.find_avoided_crossings": ("spectra_exact", "find_avoided_crossings",
                                             _crossing_scan),
    "spectra_exact.ws_spectrum_floquet": ("spectra_exact", "ws_spectrum_floquet", None),
    "spectra_exact.ws_spectrum_truncated": ("spectra_exact", "ws_spectrum_truncated", None),
    "spectra_exact.eigenvalues_symmetric_tridiagonal": (
        "spectra_exact", "eigenvalues_symmetric_tridiagonal", _tridiagonal),
    "dynamics.propagate": ("dynamics", "propagate", _propagate),
    "dynamics.bloch_transfer_experiment": ("dynamics", "bloch_transfer_experiment", None),
    "dynamics.mean_quasimomentum": ("dynamics", "mean_quasimomentum", None),
    "dynamics.band_projectors": ("dynamics", "band_projectors", None),
    "dynamics.BandProjector.apply": ("dynamics", "BandProjector.apply", None),
    "dynamics.lower_band_state": ("dynamics", "lower_band_state", None),
    "dynamics.mean_upper_population": ("dynamics", "mean_upper_population", None),
    "dynamics.eigh_tridiagonal": ("dynamics", "eigh_tridiagonal", None),
    "continuum.hermitian_eigen_small": ("continuum", "hermitian_eigen_small", _jacobi),
    "continuum.continuum_bloch_bands": ("continuum", "continuum_bloch_bands", None),
    "model.build_chain": ("model", "build_chain", _chain),
}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Context manager that records spans of the ``LAYERS`` functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, func, hook):
        signature = inspect.signature(func) if hook else None

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = Span(name, parent, time.perf_counter())
            self.spans.append(span)
            self._open.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if hook:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.counts = hook(bound.arguments, result)
                except (KeyError, AttributeError, TypeError):
                    pass  # a changed signature leaves the counts at 0, never the call
            return result

        return wrapper

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, (module, path, hook) in LAYERS.items():
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module}")
            except ModuleNotFoundError:
                continue
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            func = getattr(owner, attr, None)
            if func is None:
                continue
            wrapper = self._wrap(name, func, hook)
            holders = [owner] if owner_path else [
                m for m in modules if getattr(m, attr, None) is func]
            for holder in holders:
                self._restore.append((holder, attr, func))
                setattr(holder, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, attr, func in reversed(self._restore):
            setattr(holder, attr, func)
        self._restore.clear()
        return False

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, inclusive and self seconds, summed work counts."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in LAYERS}
        for span, children in zip(self.spans, child_time):
            entry = stats[span.name]
            entry["calls"] += 1
            entry["total_s"] += span.end - span.start
            entry["self_s"] += span.end - span.start - children
            for key, value in span.counts.items():
                entry[key] = entry.get(key, 0) + value
        return stats

    def child_counts(self, parent: str, child: str, key: str) -> float:
        """Sum of ``key`` over ``child`` spans opened directly inside ``parent``."""
        return sum(span.counts.get(key, 0) for span in self.spans
                   if span.name == child and span.parent is not None
                   and self.spans[span.parent].name == parent)
