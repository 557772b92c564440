"""In-process span tracer for the traced replay of a workload.

Wrappers replace the public functions of the ``cdmr`` modules under the name
the calling module uses (``cdmr.cli.cdmr_sweep``, ``cdmr.cavity.ensemble_shift``,
...), so a call is seen at the boundary where one layer calls the next.  Each
wrapped call records a span (name, start, end, parent) in memory; self times
and call counts are derived from the spans after the replay.  A name that a
later version of the program no longer has is skipped and reported as a dead
hook, since its metrics then read 0 while the time moves into the caller.
"""

import gzip
import importlib
import json
import os
import time
from math import prod

# Prefix of the line run.py prints for hooks that could not be installed.
DEAD_HOOKS = "dead hooks (metrics read 0)"

# Per-layer metrics, in the order of BENCHMARK.json: (name, unit).
PER_LAYER = [
    ("import.total_ms", "ms"), ("import.scipy_ms", "ms"),
    ("config.validate_ms", "ms"), ("config.validate_calls", "count"),
    ("config.group_fn_ms", "ms"), ("config.group_fn_calls", "count"),
    ("spins.nv_transition_ms", "ms"), ("spins.nv_transition_calls", "count"),
    ("spins.p1_transition_ms", "ms"), ("spins.p1_transition_calls", "count"),
    ("spins.exact_ms", "ms"), ("spins.exact_calls", "count"),
    ("polarization.relaxation_ms", "ms"), ("polarization.relaxation_calls", "count"),
    ("cavity.sweep_ms", "ms"), ("cavity.sweep_calls", "count"),
    ("cavity.effective_frequency_ms", "ms"),
    ("cavity.ensemble_shift_ms", "ms"), ("cavity.ensemble_shift_calls", "count"),
    ("cavity.reflectivity_ms", "ms"), ("cavity.reflectivity_calls", "count"),
    ("cavity.resonance_ms", "ms"), ("cavity.resonance_calls", "count"),
    ("coupling.loop_field_ms", "ms"), ("coupling.field_points", "count"),
    ("coupling.save_ms", "ms"), ("coupling.save_bytes", "bytes"),
    ("coupling.load_ms", "ms"), ("coupling.load_rows", "count"),
    ("coupling.integral_ms", "ms"),
    ("nonlinear.expansion_ms", "ms"), ("nonlinear.onset_ms", "ms"),
    ("nonlinear.onset_calls", "count"), ("nonlinear.steady_state_calls", "count"),
    ("fitting.lsq_ms", "ms"), ("fitting.fits", "count"), ("fitting.nfev", "count"),
    ("fitting.transition_calls", "count"), ("fitting.load_ms", "ms"),
    ("cli.csv_write_ms", "ms"), ("cli.csv_bytes", "bytes"), ("cli.json_write_ms", "ms"),
    ("trace.overhead_s", "s"),
]


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _grid_points(field_map):
    return prod(field_map.shape)


class Tracer:
    """Spans as [name, start, end, parent index] plus plain counters."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span ``name``; ``after(tracer, args, result)`` adds counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def counter(self, name, fn, after=None):
        """``fn`` counted under ``name`` without a span."""

        def counted(*args, **kwargs):
            self.count(name)
            result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        return counted

    def self_times(self):
        """{span name: (summed self seconds, calls)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start - inner), calls + 1)
        return out

    def dump(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": self.spans,
                       "counts": self.counts}, handle)


def _wrap_group_builder(tracer, builder):
    def traced_builder(*args, **kwargs):
        return tracer.wrap("config.group_fn", builder(*args, **kwargs))
    return traced_builder


def _after_fit(tracer, args, result):
    tracer.count("fitting.nfev", int(result.iterations))


# (module, attribute, span name, after): ``after(tracer, args, result)`` adds counts.
HOOKS = [
    ("cdmr.cli", "validate_config", "config.validate", None),
    ("cdmr.config", "nv_transition_frequencies", "spins.nv_transition", None),
    ("cdmr.config", "p1_transition_frequencies", "spins.p1_transition", None),
    ("cdmr.cli", "nv_transition_frequencies", "spins.nv_transition", None),
    ("cdmr.cli", "p1_transition_frequencies", "spins.p1_transition", None),
    ("cdmr.cli", "nv_exact_transitions", "spins.exact", None),
    ("cdmr.config", "effective_relaxation", "polarization.relaxation", None),
    ("cdmr.cli", "cdmr_sweep", "cavity.sweep", None),
    ("cdmr.cavity", "effective_frequency", "cavity.effective_frequency", None),
    ("cdmr.cavity", "ensemble_shift", "cavity.ensemble_shift", None),
    ("cdmr.cavity", "reflectivity", "cavity.reflectivity", None),
    ("cdmr.cavity", "extract_effective_resonance", "cavity.resonance", None),
    ("cdmr.config", "generate_loop_field", "coupling.loop_field",
     lambda t, a, r: t.count("coupling.field_points", _grid_points(r))),
    ("cdmr.cli", "save_field_map", "coupling.save",
     lambda t, a, r: t.count("coupling.save_bytes", _file_bytes(a[1]))),
    ("cdmr.config", "load_field_map", "coupling.load",
     lambda t, a, r: t.count("coupling.load_rows", _grid_points(r))),
    ("cdmr.cli", "effective_coupling", "coupling.integral", None),
    ("cdmr.cli", "weak_expansion", "nonlinear.expansion", None),
    ("cdmr.cli", "bistability_onset", "nonlinear.onset", None),
    ("cdmr.fitting", "least_squares", "fitting.lsq", None),
    ("cdmr.cli", "load_odmr_csv", "fitting.load", None),
    ("cdmr.cli", "load_trace_csv", "fitting.load", None),
    ("cdmr.cli", "write_table_csv", "cli.csv_write",
     lambda t, a, r: t.count("cli.csv_bytes", _file_bytes(a[0]))),
    ("cdmr.cli", "write_matrix_csv", "cli.csv_write",
     lambda t, a, r: t.count("cli.csv_bytes", _file_bytes(a[0]))),
    ("cdmr.cli", "_write_json", "cli.json_write", None),
]
# Counted without a span: calls too frequent or too thin for a span to say more.
COUNTERS = [
    ("cdmr.nonlinear", "duffing_steady_states", "nonlinear.steady_state_calls", None),
    ("cdmr.cli", "fit_orientation", "fitting.fits", _after_fit),
    ("cdmr.cli", "fit_cavity_lineshape", "fitting.fits", _after_fit),
    ("cdmr.cli", "fit_lorentzian_fwhm", "fitting.fits", _after_fit),
]


def install(tracer):
    """Install every wrapper.

    Returns (a function that restores the originals, the ``module.attribute``
    names that could not be wrapped).
    """
    saved, missing = [], []

    def patch(module_name, attr, make):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{attr}")
            return
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            return
        saved.append((module, attr, original))
        setattr(module, attr, make(original))

    for module_name, attr, name, after in HOOKS:
        patch(module_name, attr, lambda fn, name=name, after=after: tracer.wrap(name, fn, after))
    for module_name, attr, name, after in COUNTERS:
        patch(module_name, attr, lambda fn, name=name, after=after: tracer.counter(name, fn, after))
    # Calls to the NV line formula made by the fits, besides their span.
    patch("cdmr.fitting", "nv_transition_frequencies",
          lambda fn: tracer.wrap("spins.nv_transition", tracer.counter(
              "fitting.transition_calls", fn)))
    patch("cdmr.cli", "group_builder", lambda fn: _wrap_group_builder(tracer, fn))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore, missing


def layer_metrics(tracer):
    """Per-layer values from the spans and counters (times in ms)."""
    values = {name: 0.0 if unit == "ms" else 0 for name, unit in PER_LAYER}
    for span, (seconds, calls) in tracer.self_times().items():
        if f"{span}_ms" in values:
            values[f"{span}_ms"] = seconds * 1e3
        if f"{span}_calls" in values:
            values[f"{span}_calls"] = calls
    for name, amount in tracer.counts.items():
        values[name] = amount
    return values
