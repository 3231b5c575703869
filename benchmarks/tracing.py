"""Timing spans around kqreg's public functions, installed from outside.

A traced run replaces each listed function with a wrapper that records a span
(name, start, end, parent) and per-span counts in memory.  Spans nest on one
stack because every workload runs in one thread.  The benchmark writes the
spans out when the run ends and derives per-layer times from them:

* ``<name>.s``      total time inside calls to the function;
* ``<name>.self_s`` that time minus the time of traced calls made inside it;
* ``<name>.calls``  and named counts such as rows or kernel entries.

A function is wrapped under one span name in every module that imported it
(``solver.gram`` and ``verification.gram`` both record ``kernels.gram``), so
a call is seen whichever module made it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Span and count recorder; one per traced run."""

    def __init__(self):
        # name, start, end, index of the enclosing span (-1 at top level), label
        self.spans: list[tuple[str, float, float, int, str | None]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _traced(self, name: str, fn, counter, label):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, None))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, label(args) if label else None)
                self.counts[f"{name}.calls"] += 1
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[f"{name}.{key}"] += int(value)
            return result

        return traced

    def wrap(self, owner, attr: str, name: str, counter=None, label=None) -> None:
        """Replace ``owner.attr`` (a function, method or classmethod) by a traced
        wrapper.  ``counter(args, result)`` returns counts to add under
        ``name``; ``label(args)`` tags the span (e.g. by kernel kind)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self._traced(name, raw.__func__, counter, label)))
        else:
            setattr(owner, attr, self._traced(name, raw, counter, label))

    def wrap_item(self, table: dict, key, name: str) -> None:
        """Replace a function held in a dispatch table by a traced wrapper."""
        table[key] = self._traced(name, table[key], None, None)

    def metrics(self) -> dict[str, float]:
        """Per span name: total seconds (.s), self seconds (.self_s), calls and
        counts; per label: total seconds (<name>.<label>.s)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, label), inner in zip(self.spans, child):
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += (end - start) - inner
            if label is not None:
                out[f"{name}.{label}.s"] += end - start
        out.update(self.counts)
        return dict(out)

    def count_under(self, name: str, parent_name: str) -> int:
        """Number of ``name`` spans whose enclosing traced span is ``parent_name``."""
        return sum(1 for n, _, _, p, _ in self.spans
                   if n == name and p >= 0 and self.spans[p][0] == parent_name)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "spans": [{"name": n, "start": s, "end": e, "parent": p, "label": lab}
                          for n, s, e, p, lab in self.spans],
                "counts": dict(self.counts),
            }, fh)


def _rows(arr) -> int:
    a = np.asarray(arr)
    return 1 if a.ndim < 2 else a.shape[0]


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every measured kqreg layer."""
    from kqreg import capacity, cli, experiments, kernels, solver, spectral, verification

    def gram_entries(args, result):
        return {"entries": _rows(args[1]) ** 2}

    def cross_entries(args, result):
        return {"entries": _rows(args[1]) * _rows(args[2])}

    for module in (kernels, solver, spectral, capacity, verification, experiments):
        if hasattr(module, "gram"):
            tracer.wrap(module, "gram", "kernels.gram", gram_entries)
        if hasattr(module, "cross_gram"):
            tracer.wrap(module, "cross_gram", "kernels.cross_gram", cross_entries)

    tracer.wrap(solver, "fit", "solver.fit", label=lambda args: type(args[0]).__name__.lower())
    tracer.wrap(solver, "pinball", "loss.pinball")
    tracer.wrap(solver, "duality_gap", "solver.duality_gap")
    tracer.wrap(solver, "objective", "solver.objective")
    tracer.wrap(solver.Model, "predict", "solver.Model.predict",
                lambda args, result: {"rows": _rows(args[1])})
    tracer.wrap(solver.Model, "norm_sq", "solver.Model.norm_sq")
    tracer.wrap(solver.Model, "save", "solver.Model.save")
    tracer.wrap(solver.Model, "load", "solver.Model.load")
    tracer.wrap(solver.DataSet, "from_csv", "solver.DataSet.from_csv",
                lambda args, result: {"rows": result.n})

    tracer.wrap(experiments, "rate_experiment", "experiments.rate_experiment")
    for attr in ("generate", "target_values", "conditional_excess"):
        tracer.wrap(experiments, attr, f"experiments.{attr}")

    tracer.wrap(verification, "dual_grid_oracle", "verification.dual_grid_oracle")
    for suite in list(verification.SUITES):
        tracer.wrap_item(verification.SUITES, suite, f"verification.{suite}")

    tracer.wrap(spectral, "decompose", "spectral.decompose")
    tracer.wrap(spectral, "approx_error", "spectral.approx_error")
    for attr in ("cover_ball", "sample_additive_ball", "additive_net"):
        tracer.wrap(capacity, attr, f"capacity.{attr}")

    tracer.wrap(cli, "main", "cli")
