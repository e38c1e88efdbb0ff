"""In-memory span tracer that wraps the public functions of each layer.

A target is patched at every module-level name it is bound to in the
``fnlslab`` and ``perfbench`` modules (``fnlslab.experiments.integrate`` as
well as ``fnlslab.evolution.integrate``), or on its class for methods, and
``numpy.fft.fft``/``ifft`` are wrapped as the ``spectral.fft`` layer.  Each
call records a span ``(name, start, end, parent)``; spans stay in memory and
are written out when the traced pass ends.  ``restore`` puts every original
object back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# (layer name, module, attribute path); methods are "Class.method"
LAYERS = (
    ("spectral.fft", "numpy.fft", "fft"),
    ("spectral.fft", "numpy.fft", "ifft"),
    ("evolution.integrate", "fnlslab.evolution", "integrate"),
    ("nonlinearity.evaluate_values", "fnlslab.nonlinearity", "PolynomialNonlinearity.evaluate_values"),
    ("nonlinearity.evaluate", "fnlslab.nonlinearity", "PolynomialNonlinearity.evaluate"),
    ("nonlinearity.check_wellposedness_condition", "fnlslab.nonlinearity", "check_wellposedness_condition"),
    ("energy.modified_energy", "fnlslab.energy", "modified_energy"),
    ("energy.correction_term", "fnlslab.energy", "correction_term"),
    ("energy.energy_audit", "fnlslab.energy", "energy_audit"),
    ("growth.resonant_decomposition", "fnlslab.growth", "resonant_decomposition"),
    ("growth.gauge_shift", "fnlslab.growth", "gauge_shift"),
    ("growth.directional_growth", "fnlslab.growth", "directional_growth"),
    ("growth.resonant_norm_audit", "fnlslab.growth", "resonant_norm_audit"),
    ("experiments.run", "fnlslab.experiments", "run"),
    ("experiments.paired_growth_probe", "fnlslab.experiments", "paired_growth_probe"),
    ("estimates.run_ensemble", "fnlslab.estimates", "run_ensemble"),
)

LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))

COMPLEX_BYTES = 16


def _fft_points(args, kwargs) -> int:
    """Summed transform length of one numpy.fft call (batch size x length)."""
    a = np.asarray(args[0] if args else kwargs["a"])
    n = args[1] if len(args) > 1 else kwargs.get("n")
    axis = args[2] if len(args) > 2 else kwargs.get("axis", -1)
    return a.size if n is None else a.size // a.shape[axis] * n


class Tracer:
    """Records spans and counters around the layer functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []  # (name id, start, end, parent)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        scan = [m for name, m in list(sys.modules.items()) if name.split(".")[0] in ("fnlslab", "perfbench")]
        try:
            for layer, module_name, path in LAYERS:
                module = importlib.import_module(module_name)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, attr, self._wrap(layer, vars(cls)[attr]))
                    continue
                original = getattr(module, path)
                wrapper = self._wrap(layer, original)
                self._patch(module, path, wrapper)
                for mod in scan:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        except BaseException:
            self.restore()
            raise

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) for every name currently patched."""
        return list(self._patches)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer: str, fn):
        if layer not in self.names:
            self.names.append(layer)
        name_id = self.names.index(layer)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        track_memory = layer == "growth.resonant_decomposition"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((name_id, 0.0, 0.0, parent))
            stack.append(idx)
            start_mem = track_memory and not tracemalloc.is_tracing()
            if start_mem:
                tracemalloc.start()
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
                if start_mem:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    counters[f"{layer}.peak_mb"] = max(counters[f"{layer}.peak_mb"], peak / 2**20)
            if layer == "spectral.fft":
                counters["spectral.fft.points"] += _fft_points(args, kwargs)
            elif layer == "evolution.integrate":
                counters["evolution.integrate.steps"] += round(out.times[-1] / out.config.dt)
            elif layer == "nonlinearity.check_wellposedness_condition":
                counters[f"{layer}.trials"] += out.trials
            return out

        return wrapper

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls and self time per layer, plus the layer-specific counters."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(LAYER_NAMES, 0)
        self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        total_s = dict.fromkeys(LAYER_NAMES, 0.0)
        for i, (name_id, start, end, parent) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += end - start - child[i]
            total_s[name] += end - start
        out: dict[str, float] = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        points = int(self.counters["spectral.fft.points"])
        out["spectral.fft.points"] = points
        out["spectral.fft.bytes"] = 2 * COMPLEX_BYTES * points  # read input, write output
        steps = int(self.counters["evolution.integrate.steps"])
        out["evolution.integrate.steps"] = steps
        out["evolution.integrate.step_us"] = 1e6 * total_s["evolution.integrate"] / steps if steps else 0.0
        out["nonlinearity.check_wellposedness_condition.trials"] = int(
            self.counters["nonlinearity.check_wellposedness_condition.trials"]
        )
        out["growth.resonant_decomposition.peak_mb"] = self.counters["growth.resonant_decomposition.peak_mb"]
        return out

    def write_spans(self, path: str) -> None:
        """One JSON object per line: name, start, end, parent (span index or -1)."""
        with open(path, "w") as fh:
            for name_id, start, end, parent in self.spans:
                fh.write(json.dumps({"name": self.names[name_id], "start": start, "end": end, "parent": parent}))
                fh.write("\n")
