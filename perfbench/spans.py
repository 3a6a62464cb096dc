"""In-memory span tracing of fairmlp's layers, and the per-layer metrics
derived from the spans.

Spans are recorded by wrapping public functions at the name through
which their caller looks them up (modules import functions by name, so
``fairmlp.lagrange.forward`` and ``fairmlp.audit.forward`` are patched
separately). A span is ``(name, start, end, parent)`` with ``parent`` the
index of the enclosing span or -1. Nothing is written until the traced
command has finished.
"""

from __future__ import annotations

import importlib
import statistics
import time

import numpy as np

# (module, attribute looked up by the caller, span name)
PATCHES = [
    ("fairmlp.data", "load_csv", "data.load_csv"),
    ("fairmlp.data", "encode", "data.encode"),
    ("fairmlp.data", "kfold", "data.kfold"),
    ("fairmlp.data", "epoch_batches", "data.epoch_batches"),
    ("fairmlp.audit", "epoch_batches", "audit.epoch_batches"),
    ("fairmlp.lagrange", "forward", "model.forward"),
    ("fairmlp.audit", "forward", "model.forward"),
    ("fairmlp.lagrange", "backward", "model.backward"),
    ("fairmlp.model", "load_checkpoint", "model.load_checkpoint"),
    ("fairmlp.lagrange", "adam_step", "numcore.adam_step"),
    ("fairmlp.lagrange", "Batch", "fairloss.Batch"),
    ("fairmlp.audit", "Batch", "fairloss.Batch"),
    ("fairmlp.fairloss", "constraint_value", "fairloss.constraint_value"),
    ("fairmlp.fairloss", "grad_wrt_p", "fairloss.grad_wrt_p"),
    ("fairmlp.fairloss", "cross_entropy", "fairloss.cross_entropy"),
    ("fairmlp.fairloss", "q_mean", "fairloss.q_mean"),
    ("fairmlp.lagrange", "train_step", "lagrange.train_step"),
    ("fairmlp.lagrange", "fit", "lagrange.fit"),
    ("fairmlp.audit", "evaluate", "audit.evaluate"),
]

class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent]
        self.results: dict[int, object] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, results = self.spans, self._stack, self.results
        # the training batches are kept to count duplicated batch slots
        keep = name == "data.epoch_batches"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(i)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[i][1], spans[i][2] = start, end
            if keep:
                results[i] = out
            return out

        return traced

    def install(self) -> None:
        for module_name, attr, span_name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent), kids in zip(spans, children):
        covered, reach = 0.0, start
        for c0, c1 in sorted(kids):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def dup_fraction(epochs) -> float:
    """Share of batch slots filled with a row already placed that epoch."""
    slots = distinct = 0
    for batches in epochs:
        rows = np.concatenate(batches)
        slots += rows.size
        distinct += np.unique(rows).size
    return (slots - distinct) / slots if slots else 0.0


def layer_metrics(spans, results) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced command, as name -> (value, unit).

    Times are medians per call, except: Adam runs twice per step (the
    weights, then the one-element multiplier), so its median is taken over
    steps of the two calls' sum; the fairloss functions are called with
    several batch kinds, so their time is the mean per call. A layer the
    command never calls reports 0 calls and 0 time.
    """
    self_t = self_times(spans)
    dur: dict[str, list[float]] = {}
    slf: dict[str, list[float]] = {}
    under: dict[tuple[str, str], list[float]] = {}
    adam_per_step: dict[int, float] = {}
    for (name, start, end, parent), s in zip(spans, self_t):
        dur.setdefault(name, []).append(end - start)
        slf.setdefault(name, []).append(s)
        parent_name = spans[parent][0] if parent >= 0 else ""
        under.setdefault((name, parent_name), []).append(end - start)
        if name == "numcore.adam_step":
            adam_per_step[parent] = adam_per_step.get(parent, 0.0) + end - start

    def med(name, scale):
        return _median(dur.get(name, [])) * scale

    def calls(name):
        return float(len(dur.get(name, [])))

    fwd_train = under.get(("model.forward", "lagrange.train_step"), [])
    fwd_eval = under.get(("model.forward", "audit.evaluate"), [])
    train_epochs = [results[i] for i, sp in enumerate(spans)
                    if sp[0] == "data.epoch_batches"]
    m = {
        "data.load_csv.s": (med("data.load_csv", 1.0), "s"),
        "data.encode.s": (med("data.encode", 1.0), "s"),
        "data.encode.calls": (calls("data.encode"), "count"),
        "data.kfold.ms": (med("data.kfold", 1e3), "ms"),
        "data.epoch_batches.ms_per_epoch": (med("data.epoch_batches", 1e3), "ms"),
        "data.epoch_batches.calls": (calls("data.epoch_batches"), "count"),
        "data.epoch_batches.dup_frac": (dup_fraction(train_epochs), "frac"),
        "model.forward.median_ms": (_median(fwd_train) * 1e3, "ms"),
        "model.forward.calls": (float(len(fwd_train)), "count"),
        "model.forward.eval_s": (_median(fwd_eval), "s"),
        "model.backward.median_ms": (med("model.backward", 1e3), "ms"),
        "model.backward.calls": (calls("model.backward"), "count"),
        "model.load_checkpoint.ms": (med("model.load_checkpoint", 1e3), "ms"),
        "numcore.adam_step.median_ms": (_median(list(adam_per_step.values())) * 1e3, "ms"),
        "numcore.adam_step.calls": (calls("numcore.adam_step"), "count"),
    }
    for fn in ("Batch", "constraint_value", "grad_wrt_p", "cross_entropy",
               "q_mean"):
        name = f"fairloss.{fn}"
        total = dur.get(name, [])
        m[f"{name}.us"] = (statistics.fmean(total) * 1e6 if total else 0.0, "us")
        m[f"{name}.calls"] = (calls(name), "count")
    m.update({
        "lagrange.train_step.median_ms": (med("lagrange.train_step", 1e3), "ms"),
        "lagrange.train_step.self_median_ms":
            (_median(slf.get("lagrange.train_step", [])) * 1e3, "ms"),
        "lagrange.fit.s": (med("lagrange.fit", 1.0), "s"),
        "lagrange.fit.self_s": (_median(slf.get("lagrange.fit", [])), "s"),
        "lagrange.steps": (calls("lagrange.train_step"), "count"),
        "lagrange.epochs": (calls("data.epoch_batches"), "count"),
        "audit.evaluate.s": (med("audit.evaluate", 1.0), "s"),
        "audit.evaluate.self_s": (_median(slf.get("audit.evaluate", [])), "s"),
        "cli.main.self_s": (_median(slf.get("cli.main", [])), "s"),
    })
    return m
