"""Timing spans around phasesync's layers, installed from outside the library.

Each target is a module-level name through which the CLI reaches a layer
(or a SyncResult method). Installing replaces it with a wrapper that
records (layer, start, end, parent span) in memory; a layer's self time is
its span's duration minus the time its child spans cover. A target that
no longer exists is reported absent and its layer reads 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


def _path_arg(args, kwargs, position: int):
    return kwargs["path"] if "path" in kwargs else args[position]


def _file_bytes(position: int):
    return lambda args, kwargs, result: os.path.getsize(_path_arg(args, kwargs, position))


# (layer, module, attribute path, extra count name, count of one call)
TARGETS = (
    ("cli.main", "phasesync.cli", ("main",), None, None),
    ("panel.load_panel_csv", "phasesync.cli", ("load_panel_csv",),
     "panel.load_panel_csv.cells", lambda args, kwargs, result: len(result) * result.n),
    ("panel.load_recession_csv", "phasesync.cli", ("load_recession_csv",), None, None),
    ("panel.write_panel_csv", "phasesync.cli", ("write_panel_csv",),
     "panel.write_panel_csv.bytes", _file_bytes(1)),
    ("spectral.detrend_linear", "phasesync.cli", ("detrend_linear",), None, None),
    ("spectral.bandpass", "phasesync.cli", ("bandpass",), None, None),
    ("pipeline.run_pipeline", "phasesync.cli", ("run_pipeline",),
     "sync.pair_months", lambda args, kwargs, result: result.n_pairs * result.n_samples),
    ("pipeline.annotate_recessions", "phasesync.cli", ("annotate_recessions",), None, None),
    ("pipeline.write_metadata", "phasesync.cli", ("write_metadata",), None, None),
    ("spectral.detrend_linear", "phasesync.pipeline", ("detrend_linear",), None, None),
    ("spectral.bandpass", "phasesync.pipeline", ("bandpass",), None, None),
    ("spectral.trim_edges", "phasesync.pipeline", ("trim_edges",), None, None),
    ("analytic.analytic_signal", "phasesync.pipeline", ("analytic_signal",), None, None),
    ("sync.phase_difference", "phasesync.pipeline", ("phase_difference",), None, None),
    ("sync.sync_index_windowed", "phasesync.pipeline", ("sync_index_windowed",), None, None),
    ("kernels.windowed_resultant_sq", "phasesync.sync", ("windowed_resultant_sq",), None, None),
    ("pipeline.write_gamma_csv", "phasesync.pipeline", ("SyncResult", "write_gamma_csv"),
     "pipeline.write_gamma_csv.bytes", _file_bytes(1)),
    ("pipeline.write_ratio_wide_csv", "phasesync.pipeline",
     ("SyncResult", "write_ratio_wide_csv"), None, None),
    ("pipeline.write_ratio_long_csv", "phasesync.pipeline",
     ("SyncResult", "write_ratio_long_csv"), None, None),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))
COUNTS = tuple(dict.fromkeys(count for *_, count, _ in TARGETS if count))


class Tracer:
    """Spans of one traced call, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, layer: str, fn, count_name=None, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                try:
                    self.counts[count_name] += count(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, OSError):
                    pass  # the layer's signature or result changed; count stays 0
            return result

        return timed

    def layer_totals(self) -> dict[str, float]:
        """<layer>.self_ms and <layer>.calls for every layer, plus the counts."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {f"{layer}.{key}": 0.0 for layer in LAYERS for key in ("self_ms", "calls")}
        for (layer, start, end, _), inner in zip(self.spans, child):
            totals[f"{layer}.self_ms"] += (end - start - inner) * 1e3
            totals[f"{layer}.calls"] += 1
        totals.update({name: self.counts.get(name, 0) for name in COUNTS})
        return totals

    def root_seconds(self) -> float:
        """Summed duration of the top-level spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Wrap every target; returns (undo list for uninstall, absent targets)."""
    undo, absent = [], []
    for layer, module, attrs, count_name, count in TARGETS:
        label = ".".join((module,) + attrs)
        try:
            owner = importlib.import_module(module)
        except ImportError:
            absent.append(label)
            continue
        for attr in attrs[:-1]:
            owner = getattr(owner, attr, None)
        original = getattr(owner, attrs[-1], None)
        if not callable(original):
            absent.append(label)
            continue
        setattr(owner, attrs[-1], tracer.wrap(layer, original, count_name, count))
        undo.append((owner, attrs[-1], original))
    return undo, absent


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
