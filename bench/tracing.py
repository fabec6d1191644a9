"""Spans and counts recorded around calls into comotion's public functions.

``Tracer.install`` replaces each traced function at every comotion module
attribute that binds it. ``from ... import`` copies a binding into the
importing module, so every binding has to be replaced for calls made inside
comotion to be seen as well as calls made by the benchmark. ``uninstall``
puts the original functions back, so untraced work runs the unmodified code.

Spans are kept in memory as parallel lists (name, parent, start, end) and
written once, when the run ends. A span's self time is its duration minus the
durations of its child spans; calls are single-threaded, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import logging
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _rows(x) -> int:
    return np.shape(x)[0] if np.ndim(x) > 1 else 1


def _not_positive_definite(m) -> bool:
    m = np.asarray(m, dtype=np.float64)
    try:
        np.linalg.cholesky(0.5 * (m + m.T))
    except np.linalg.LinAlgError:
        return True
    return False


# Per-call counters, keyed by span name: hook(args, result) -> {counter: amount}.
# Hooks read positional arguments, which is how comotion and the benchmark call
# these functions.
_HOOKS = {
    "hmm.em_fit": lambda a, r: {"iters": len(r[1])},
    "hmm.state_log_liks": lambda a, r: {"rows": _rows(a[1])},
    "hmm.conditional_moments": lambda a, r: {"rows": _rows(a[1])},
    "kernels.chol_logpdf": lambda a, r: {"rows": _rows(a[0])},
    "gauss.regularize_spd": lambda a, r: {"repairs": _not_positive_definite(a[0])},
    "vae.encode_batch": lambda a, r: {"rows": _rows(a[1])},
    "kin.ik_with_prior": lambda a, r: {"iters": r.iterations, "converged": r.converged},
    "train.save_bundle": lambda a, r: {"bytes": os.path.getsize(a[1])},
}

# (module under comotion, function): the public calls that make up each layer.
# A span is named after the module without its leading underscore.
TRACED = (
    ("hmm", "em_fit"),
    ("hmm", "state_log_liks"),
    ("hmm", "forward"),
    ("hmm", "forward_step"),
    ("hmm", "conditional_moments"),
    ("hmm", "gmr_condition"),
    ("hmm", "contact_gate"),
    ("_kernels", "forward_log"),
    ("_kernels", "backward_log"),
    ("_kernels", "xi_counts"),
    ("_kernels", "chol_logpdf"),
    ("gauss", "regularize_spd"),
    ("vae", "encode_batch"),
    ("vae", "decode"),
    ("vae", "hhi_loss"),
    ("vae", "hri_loss"),
    ("vae", "conditional_latents"),
    ("net", "mlp_forward"),
    ("net", "mlp_backward"),
    ("net", "adam_step"),
    ("kin", "ik_with_prior"),
    ("kin", "jacobian"),
    ("infer", "reactive_step"),
    ("train", "train_hhi"),
    ("train", "train_hri"),
    ("train", "save_bundle"),
    ("train", "load_bundle"),
    ("evaluate", "evaluate_bundle"),
)

# Substrings of comotion's warnings that name a repeated condition.
LOG_EVENTS = {
    "reseed": "reseeding",
    "occupancy_fallback": "occupancy collapsed",
    "gate_disabled": "gate disabled",
}


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its children.

    ``parent`` holds each span's parent index, or -1 for a root span.
    """
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.shape[0])
    return dur - covered


class LogCounter(logging.Handler):
    """Counts comotion's warnings by event and keeps them off the terminal."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counting = False
        self.counts: dict[str, int] = dict.fromkeys(LOG_EVENTS, 0)

    def emit(self, record: logging.LogRecord) -> None:
        if not self.counting:
            return
        message = record.getMessage()
        for event, text in LOG_EVENTS.items():
            if text in message:
                self.counts[event] += 1

    def attach(self) -> None:
        logger = logging.getLogger("comotion")
        logger.addHandler(self)
        logger.propagate = False

    def detach(self) -> None:
        logger = logging.getLogger("comotion")
        logger.removeHandler(self)
        logger.propagate = True


class Tracer:
    """Records spans and per-call counts while installed."""

    def __init__(self):
        self.name: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.logs = LogCounter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(float("nan"))
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook is not None:
                for counter, amount in hook(args, result).items():
                    self.counts[f"{name}.{counter}"] += amount
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr in TRACED:
            original = getattr(importlib.import_module(f"comotion.{module_name}"), attr)
            wrapper = self._wrap(f"{module_name.lstrip('_')}.{attr}", original)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] != "comotion":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)
        self.logs.counting = True

    def uninstall(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()
        self.logs.counting = False

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        parent = np.asarray(self.parent, dtype=np.int64)
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        own = self_times(parent, start, end)
        totals: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.name):
            t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += end[i] - start[i]
            t["self_s"] += own[i]
        return totals

    def write(self, path: Path) -> None:
        names = sorted(set(self.name))
        index = {n: i for i, n in enumerate(names)}
        t0 = min(self.start, default=0.0)
        doc = {
            "names": names,
            "name": [index[n] for n in self.name],
            "parent": self.parent,
            "start_s": [s - t0 for s in self.start],
            "end_s": [e - t0 for e in self.end],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump(doc, f)
