"""Layer spans for one spdc-etalon CLI invocation, recorded from outside.

The tracer replaces the module attributes (and `_EVALUATORS` entries)
that callers look up at call time with timing wrappers, so nothing in
`src/` changes.  Wrapping the defining module would miss calls made
through names imported elsewhere: `spectra` imports
`scattering_matrix`, `coefficient_arrays`, ... directly, and `cli`
imports `parse_config` and `compare_grids`, so the wrappers sit in the
importing modules.

Spans are kept in memory, one tuple per call:
(layer, thread id, start, end, self time), where self time is the
duration minus the time covered by traced calls nested in it on the
same thread.  Counters record work done at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import operator
import threading
import time
from collections import Counter
from contextlib import contextmanager

# Spans whose summed duration is work done by a sweep worker inside
# `_evaluate_pixels` (the kinematics build and the model evaluation).
BUSY_LAYERS = ("spectra.build_batch", "simplified.eval", "rigorous.eval")

# Unit of every metric `Tracer.layer_metrics` returns.
UNITS = {
    "config.parse_s": "s",
    "materials.index_s": "s",
    "materials.index_points": "count",
    "layerstack.coeff_s": "s",
    "layerstack.enhance_s": "s",
    "spectra.build_batch_s": "s",
    "spectra.build_batch_calls": "count",
    "rigorous.interaction_s": "s",
    "rigorous.boundary_s": "s",
    "rigorous.solve_s": "s",
    "rigorous.probs_s": "s",
    "rigorous.matrix_bytes": "B-computed",
    "simplified.eval_s": "s",
    "spectra.reduce_s": "s",
    "spectra.parallel_eff": "frac",
    "spectra.masked_frac": "frac",
    "cli.write_s": "s",
    "cli.write_bytes": "B",
    "cli.write_rows": "count",
    "cli.write_mb_per_s": "MB/s",
}

# Layer name -> per-layer metric of its summed self time.
TIMED_LAYERS = {
    "config.parse": "config.parse_s",
    "materials.index": "materials.index_s",
    "layerstack.coeff": "layerstack.coeff_s",
    "layerstack.enhance": "layerstack.enhance_s",
    "spectra.build_batch": "spectra.build_batch_s",
    "rigorous.interaction": "rigorous.interaction_s",
    "rigorous.boundary": "rigorous.boundary_s",
    "rigorous.solve": "rigorous.solve_s",
    "rigorous.probs": "rigorous.probs_s",
    "simplified.eval": "simplified.eval_s",
    "spectra.reduce": "spectra.reduce_s",
    "cli.write": "cli.write_s",
}


def _count_index_points(tracer, args, result):
    # index_with_mask(model, wavelength_nm) and refractive_index(model, wavelength_nm)
    tracer.add("index_points", getattr(args[1], "size", 1))


def _count_matrix_bytes(tracer, args, result):
    arrays = result if isinstance(result, tuple) else (result,)
    tracer.add("matrix_bytes", sum(a.nbytes for a in arrays))


def _count_masked(tracer, args, result):
    _values, mask = result
    tracer.add("masked_pixels", int(mask.sum()))
    tracer.add("evaluated_pixels", int(mask.size))


def _count_written(tracer, args, result):
    # _write_csv(path, config, command, columns, rows); read back after the
    # span closed so the count does not inflate cli.write_s.
    with open(args[0], "rb") as fh:
        data = fh.read()
    header_lines = data.count(b"\n#") + (1 if data.startswith(b"#") else 0)
    tracer.add("write_bytes", len(data))
    tracer.add("write_rows", data.count(b"\n") - header_lines - 1)


# (owner, key, layer, counter).  An owner with a `[]` suffix names a
# dict whose entry `key` is wrapped; otherwise `key` is an attribute.
TARGETS = (
    ("spdc_etalon.cli", "parse_config", "config.parse", None),
    ("spdc_etalon.spectra", "index_with_mask", "materials.index", _count_index_points),
    ("spdc_etalon.spectra", "refractive_index", "materials.index", _count_index_points),
    ("spdc_etalon.spectra", "coefficient_arrays", "layerstack.coeff", None),
    ("spdc_etalon.spectra", "enhancement_arrays", "layerstack.enhance", None),
    ("spdc_etalon.spectra", "round_trip_denominator", "layerstack.enhance", None),
    ("spdc_etalon.spectra", "_build_batch", "spectra.build_batch", None),
    ("spdc_etalon.spectra", "_evaluate_pixels", "spectra.evaluate_pixels", _count_masked),
    ("spdc_etalon.spectra._EVALUATORS[]", "simplified", "simplified.eval", None),
    ("spdc_etalon.spectra._EVALUATORS[]", "rigorous", "rigorous.eval", None),
    ("spdc_etalon.spectra", "interaction_matrix", "rigorous.interaction", _count_matrix_bytes),
    ("spdc_etalon.spectra", "boundary_matrices", "rigorous.boundary", _count_matrix_bytes),
    ("spdc_etalon.spectra", "scattering_matrix", "rigorous.solve", _count_matrix_bytes),
    ("spdc_etalon.spectra", "pair_probabilities", "rigorous.probs", None),
    ("spdc_etalon.spectra.SpectrumGrid", "normalized", "spectra.reduce", None),
    ("spdc_etalon.spectra", "r_squared", "spectra.reduce", None),
    ("spdc_etalon.cli", "compare_grids", "spectra.reduce", None),
    ("spdc_etalon.cli", "_write_csv", "cli.write", _count_written),
)


def _resolve(owner):
    """Import the module part of a dotted owner and walk the rest."""
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(owner)


class Tracer:
    """Thread-safe span and counter recorder for one process."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, name, value):
        with self._lock:
            self.counts[name] += value

    def wrap(self, layer, fn, counter=None):
        """Return `fn` wrapped in a span of `layer` (and its counter)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                nested = stack.pop()
                if stack:
                    stack[-1] += end - start
                span = (layer, threading.get_ident(), start, end, end - start - nested)
                with self._lock:
                    self.spans.append(span)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore.

        Every target is resolved before anything is patched; a name
        that no longer resolves raises LookupError, so a renamed layer
        fails the traced run instead of reading as zero.
        """
        resolved = []
        for owner, key, layer, counter in self.targets:
            is_item = owner.endswith("[]")
            get, put = (operator.getitem, operator.setitem) if is_item else (getattr, setattr)
            try:
                container = _resolve(owner.removesuffix("[]"))
                original = get(container, key)
            except (ImportError, AttributeError, KeyError, TypeError) as exc:
                name = f"{owner[:-2]}[{key!r}]" if is_item else f"{owner}.{key}"
                raise LookupError(f"trace target {name} does not resolve: {exc}") from exc
            resolved.append((put, container, key, original, layer, counter))

        patched = []
        try:
            for put, container, key, original, layer, counter in resolved:
                put(container, key, self.wrap(layer, original, counter))
                patched.append((put, container, key, original))
            yield self
        finally:
            for put, container, key, original in reversed(patched):
                put(container, key, original)

    def layer_metrics(self):
        """Per-layer metrics of everything recorded so far."""
        with self._lock:
            spans = list(self.spans)
            counts = Counter(self.counts)

        self_time = Counter()
        calls = Counter()
        for layer, _tid, _start, _end, own in spans:
            self_time[layer] += own
            calls[layer] += 1
        metrics = {metric: self_time[layer] for layer, metric in TIMED_LAYERS.items()}

        write_s = metrics["cli.write_s"]
        metrics.update(
            {
                "materials.index_points": counts["index_points"],
                "spectra.build_batch_calls": calls["spectra.build_batch"],
                "rigorous.matrix_bytes": counts["matrix_bytes"],
                "spectra.parallel_eff": _parallel_efficiency(spans),
                "spectra.masked_frac": (
                    counts["masked_pixels"] / counts["evaluated_pixels"]
                    if counts["evaluated_pixels"]
                    else 0.0
                ),
                "cli.write_bytes": counts["write_bytes"],
                "cli.write_rows": counts["write_rows"],
                "cli.write_mb_per_s": counts["write_bytes"] / write_s / 1e6 if write_s else 0.0,
            }
        )
        return metrics


def _parallel_efficiency(spans):
    """Busy time over threads x wall time, summed over `_evaluate_pixels` calls.

    `_evaluate_pixels` runs one call at a time on the main thread, so the
    busy spans that start inside a call's interval belong to it; the
    threads it used are the distinct threads those spans ran on.
    """
    calls = [s for s in spans if s[0] == "spectra.evaluate_pixels"]
    busy = [s for s in spans if s[0] in BUSY_LAYERS]
    busy_total = capacity = 0.0
    for _layer, _tid, start, end, _own in calls:
        inside = [s for s in busy if start <= s[2] <= end]
        threads = len({s[1] for s in inside})
        busy_total += sum(s[3] - s[2] for s in inside)
        capacity += threads * (end - start)
    return busy_total / capacity if capacity else 0.0

