"""Spans around calls into each heraldsim layer, recorded from outside.

The tracer wraps a layer's public functions at every name they are looked up
under: ``cli`` and ``wdm`` bind their imports by name, so ``simulate`` is
wrapped as ``heraldsim.montecarlo.simulate``, ``heraldsim.cli.simulate`` and
``heraldsim.wdm.simulate`` alike.  Spans (layer, start, end, parent, op) are
kept in memory; self time is a span's duration minus its child spans.

Spans are not collected from worker processes (``--workers 2``); the time the
parent spends waiting on them counts as ``cli`` self time.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

LAYERS = {
    "montecarlo.simulate": ("heraldsim.montecarlo", ("simulate",)),
    "montecarlo.estimate": ("heraldsim.montecarlo", (
        "estimate_metrics", "analytic_predictions", "analytic_std_errs")),
    "scenario": ("heraldsim.scenario", ("load_scenario_dict", "build_scenario", "set_path")),
    "core": ("heraldsim.core", (
        "link_metrics", "psnr_gain_approx", "qber_from_psnr", "g2_predicted")),
    "calibration": ("heraldsim.calibration", (
        "beta_mu_from_rate", "mu_from_g2", "calibrate_source", "solve_channel_loss")),
    "wdm": ("heraldsim.wdm", ("aggregate",)),
    "cli": ("heraldsim.cli", ("main",)),
}
MODULES = ("heraldsim", "heraldsim.core", "heraldsim.calibration", "heraldsim.montecarlo",
           "heraldsim.scenario", "heraldsim.wdm", "heraldsim.cli")


def _count_simulate(counts: Counter, result) -> None:
    counts["slots"] += result.slots
    counts["heralds"] += result.heralds
    counts["gated_slots"] += result.gated_slots


def _count_wdm(counts: Counter, result) -> None:
    counts["channels"] += len(result.per_channel)


COUNTERS = {"montecarlo.simulate": _count_simulate, "wdm": _count_wdm}


class Tracer:
    """Installs timing wrappers and records one span per wrapped call."""

    def __init__(self) -> None:
        self.spans: list = []   # [layer, start, end, parent index or -1, op]
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, layer: str, fn):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function under every module name bound to it.

        A wrapper keeps the original's name and module, so a pool pickling
        the wrapped ``simulate`` by reference finds the wrapper itself.
        """
        for layer, (home, names) in LAYERS.items():
            for name in names:
                original = getattr(sys.modules[home], name, None)
                if original is None:
                    continue
                wrapper = self._wrap(layer, original)
                for module_name in MODULES:
                    module = sys.modules[module_name]
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def layer_totals(spans: list, lo: int, hi: int) -> dict:
    """Per layer: ``busy_s`` (outermost spans), ``self_s`` and ``calls`` in spans[lo:hi].

    A call is an entry into the layer from outside it; nested calls within
    the same layer add neither busy time nor calls.
    """
    child = [0.0] * (hi - lo)
    for j in range(lo, hi):
        layer, start, end, parent, _ = spans[j]
        if parent >= lo:
            child[parent - lo] += end - start
    out = {layer: {"busy_s": 0.0, "self_s": 0.0, "calls": 0} for layer in LAYERS}
    for j in range(lo, hi):
        layer, start, end, parent, _ = spans[j]
        totals = out[layer]
        totals["self_s"] += end - start - child[j - lo]
        while parent >= lo and spans[parent][0] != layer:
            parent = spans[parent][3]
        if parent < lo:
            totals["busy_s"] += end - start
            totals["calls"] += 1
    return out
