"""Spans around the public functions of each ergopump module.

The tracer replaces each listed function, in every ergopump module that binds
it, with a wrapper that records one span per call: the name, start and end
times, and the span that was open when the call began (its parent). Spans are
kept in memory and written out once, when the run ends. A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# module -> functions timed in it; `linprog` is scipy's, as bound in driver
LAYERS = {
    "documents": ("parse_game", "serialize_certificate", "parse_certificate",
                  "recheck_certificate"),
    "game": ("make_game", "validate", "normalize_rewards", "game_params",
             "local_reward_matrix"),
    "matrix_game": ("local_values", "solve_value", "local_value", "solve_matrix_game"),
    "pump": ("modified_pump", "partition", "r_bounds", "auxiliary_graph",
             "find_closed_sets"),
    "driver": ("decide_ergodicity", "reduce_potential", "linprog"),
    "witness": ("build_witness", "verify_witness", "bar_actions"),
    "markov": ("best_response_value", "limiting_matrix"),
}

SPAN_NAMES = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Records spans while installed; `uninstall` restores every original."""

    def __init__(self):
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._patched = []  # (module, attribute, original)
        self._observers = defaultdict(list)

    def observe(self, span_name: str, callback):
        """Call callback(result) after every traced call of span_name."""
        self._observers[span_name].append(callback)

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "ergopump" or name.startswith("ergopump.")]
        for index, span_name in enumerate(SPAN_NAMES):
            module_name, fn_name = span_name.split(".")
            home = importlib.import_module(f"ergopump.{module_name}")
            original = getattr(home, fn_name)
            wrapper = self._wrap(index, original, self._observers.get(span_name, ()))
            # linprog is timed only where the driver calls it
            targets = [home] if fn_name == "linprog" else modules
            for module in targets:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, index, fn, observers):
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            names.append(index)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            for callback in observers:
                callback(result)
            return result

        return traced

    def arrays(self):
        """Span columns: name index into SPAN_NAMES, parent span (-1 for a
        root), start and end in perf_counter seconds."""
        return (np.frombuffer(self._name, dtype=np.int32),
                np.frombuffer(self._parent, dtype=np.int32),
                np.frombuffer(self._start, dtype=np.float64),
                np.frombuffer(self._end, dtype=np.float64))

    def summary(self) -> dict:
        """Per span name: calls, total span seconds and self seconds."""
        name, parent, start, end = self.arrays()
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=len(duration))
        self_time = duration - child_time
        width = len(SPAN_NAMES)
        calls = np.bincount(name, minlength=width)
        total = np.bincount(name, weights=duration, minlength=width)
        own = np.bincount(name, weights=self_time, minlength=width)
        out = {}
        for index, span_name in enumerate(SPAN_NAMES):
            out[f"{span_name}.calls"] = int(calls[index])
            out[f"{span_name}.s"] = float(total[index])
            out[f"{span_name}.self_s"] = float(own[index])
        out["self_s_total"] = float(self_time.sum())
        return out

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(SPAN_NAMES), name=name,
                            parent=parent, start=start, end=end)
