"""Spans around calls into segbreak's public functions, recorded from outside.

The tracer replaces each traced function in every ``segbreak`` module
namespace that binds it (``segment_cost`` is bound in ``segmentation`` and
``simulation``, ``optimal_breakpoints`` in ``segmentation``, ``selection``,
``simulation``, ``cli`` and the package itself), so calls made through any
of those names are seen.  Spans are kept in memory as parallel lists and
written out once at the end of the run; self times are derived from the
spans afterwards, so the wrapper itself does only list appends and two clock
reads.

Only calls made in this process are seen: a traced Monte Carlo run must use
one worker.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, function) pairs, in report order.
TRACED = (
    ("cli", "main"),
    ("selection", "select_k"),
    ("selection", "active_set_standard_errors"),
    ("segmentation", "optimal_breakpoints"),
    ("segmentation", "refit_breakpoints_two_stage"),
    ("segmentation", "build_cost_table"),
    ("segmentation", "pair_costs"),
    ("segmentation", "segment_cost"),
    ("solvers", "face_step"),
    ("solvers", "lasso_cd"),
    ("solvers", "ols"),
    ("solvers", "kkt_check"),
    ("simulation", "run_monte_carlo"),
    ("simulation", "replication_dataset"),
    ("simulation", "sample_limit_law"),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)

# Counters recorded at the same boundaries as the spans.
COUNTERS = (
    "segmentation.pairs_costed",
    "segmentation.cost_table_bytes",
    "solvers.face_step.accepted",
)


class Tracer:
    """In-memory span recorder.  One instance per traced run."""

    def __init__(self):
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.run = []
        self._stack = []
        self._run_id = -1
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, code: int, fn, after=None):
        name, start, end, parent, run, stack = (
            self.name, self.start, self.end, self.parent, self.run, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(code)
            parent.append(stack[-1] if stack else -1)
            run.append(self._run_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _count_pairs(self, result):
        self.counters["segmentation.pairs_costed"] += len(result)

    def _count_table(self, result):
        table_bytes = result.shape[0] * result.shape[1] * 8
        key = "segmentation.cost_table_bytes"
        self.counters[key] = max(self.counters[key], table_bytes)

    def _count_face(self, result):
        if result is not None:
            self.counters["solvers.face_step.accepted"] += 1

    @contextmanager
    def traced_run(self, run_id: int):
        """Patch the traced functions for the duration of one run.

        ``segbreak`` must already be imported."""
        after = {
            "segmentation.pair_costs": self._count_pairs,
            "segmentation.build_cost_table": self._count_table,
            "solvers.face_step": self._count_face,
        }
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "segbreak" or key.startswith("segbreak.")]
        undo = []
        for code, (mod, fn) in enumerate(TRACED):
            original = getattr(sys.modules[f"segbreak.{mod}"], fn)
            wrapper = self._wrap(code, original, after.get(f"{mod}.{fn}"))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
        self._run_id = run_id
        try:
            yield self
        finally:
            self._run_id = -1
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.name, dtype=np.int16),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "run": np.asarray(self.run, dtype=np.int32),
        }

    def save(self, path) -> None:
        """Write the spans out; ``names`` maps the integer span names."""
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())


def layer_stats(spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Calls, total and self seconds per span name.

    A span's self time is its duration minus the durations of its direct
    children, which nest inside it because calls are synchronous.
    """
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    self_time = dur - child_time
    stats = {}
    for code, label in enumerate(SPAN_NAMES):
        mask = name == code
        stats[label] = {
            "calls": int(np.count_nonzero(mask)),
            "total_s": float(dur[mask].sum()),
            "self_s": float(self_time[mask].sum()),
        }
    return stats


def stubborn_resolves(spans: dict[str, np.ndarray]) -> int:
    """``segment_cost`` calls made from inside ``pair_costs``: the batched
    problems that used the whole sweep budget and were re-solved by the
    scalar path."""
    name, parent = spans["name"], spans["parent"]
    seg = SPAN_NAMES.index("segmentation.segment_cost")
    pairs = SPAN_NAMES.index("segmentation.pair_costs")
    mask = (name == seg) & (parent >= 0)
    return int(np.count_nonzero(name[parent[mask]] == pairs))
