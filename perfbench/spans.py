"""Span tracing at the public boundaries of the qst layers.

A :class:`Tracer` installs pass-through wrappers on the public functions and
methods named in :data:`HOOKS`.  Each wrapper records one span (name, op id,
parent span, start, end, exception type if any), calls through, and re-raises
whatever the call raised.  Spans stay in memory until :meth:`Tracer.write`.
Counters that need the call's arguments or result (rows, elements, bytes) are
taken at the same boundary.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from contextlib import contextmanager

import numpy as np

from qst import checkpoint, data, nn, optim, prior, tasks, tensor
from qst.autoencoder import SkillAutoencoder
from qst.fsq import FsqLayer
from workloads import cpu_time


def _rows(arr, item_ndim: int) -> int:
    """Leading batch size of ``arr``, or 1 for a single unbatched item."""
    arr = np.asarray(arr)
    return arr.shape[0] if arr.ndim > item_ndim else 1


def _logits_rows(args, kwargs, result):
    # batch x context positions the call recomputes: task, history, start, tokens
    model, task_idx, _, tokens = args[:4]
    given = np.asarray(tokens).shape[1] if np.ndim(tokens) == 2 else 0
    return {"prior.logits_rows": len(task_idx) * (2 + model.cfg.history + given)}


def _adam_elements(args, kwargs, result):
    params = args[0].params.values()
    return {"optim.adam_elements": sum(p.data.size for p in params if p.grad is not None)}


# (owner, attribute, span name, counter taking (args, kwargs, result))
HOOKS = (
    (prior.SkillPrior, "__init__", "prior.init", None),
    (prior.SkillPrior, "from_checkpoint", "prior.from_checkpoint", None),
    (prior.SkillPrior, "to_checkpoint", "prior.to_checkpoint", None),
    (prior.SkillPrior, "sample", "prior.sample", None),
    (prior.SkillPrior, "logits", "prior.logits", _logits_rows),
    (prior.SkillPrior, "nll", "prior.nll", None),
    (SkillAutoencoder, "__init__", "autoencoder.init", None),
    (SkillAutoencoder, "params", "autoencoder.params", None),
    (SkillAutoencoder, "encode", "autoencoder.encode",
     lambda a, k, r: {"autoencoder.windows": _rows(a[1], 2)}),
    (SkillAutoencoder, "decode", "autoencoder.decode",
     lambda a, k, r: {"autoencoder.windows": _rows(a[1], 1)}),
    (SkillAutoencoder, "recon_loss", "autoencoder.recon_loss",
     lambda a, k, r: {"autoencoder.windows": _rows(a[1], 2)}),
    (FsqLayer, "codes_to_features", "fsq.codes_to_features", None),
    (nn.TransformerBlock, "__call__", "nn.transformer_block", None),
    (nn.CrossAttentionBlock, "__call__", "nn.cross_attention_block", None),
    (tensor.Tensor, "backward", "tensor.backward", None),
    (optim.Adam, "step", "optim.adam_step", _adam_elements),
    (tasks.PointEnv, "step", "tasks.env_step", None),
    (tasks, "generate_suite", "tasks.generate_suite", None),
    (data, "window_arrays", "data.window_arrays",
     lambda a, k, r: {"data.windows": r[0].shape[0]}),
    (data, "write_dataset", "data.write_dataset", None),
    (data, "read_dataset", "data.read_dataset", None),
    (checkpoint.Checkpoint, "save", "checkpoint.save",
     lambda a, k, r: {"checkpoint.bytes": os.path.getsize(a[1])}),
    (checkpoint.Checkpoint, "load", "checkpoint.load", None),
    (checkpoint.Checkpoint, "content_sha256", "checkpoint.sha256", None),
)


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread and
    are timed in process CPU time, the clock of the end-to-end figures."""

    def __init__(self):
        self.spans: list[list] = []  # [name, op, parent index, start, end, error]
        self.counts: Counter = Counter()
        self.op = -1  # id of the benchmark operation in progress; -1 in setup
        self.suspended = False  # while set, wrappers call through without a span
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, self.op, parent, cpu_time(), None, None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        except BaseException as exc:
            record[5] = type(exc).__name__
            raise
        finally:
            record[4] = cpu_time()
            self._stack.pop()

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            if self.suspended:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.counts.update(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every hook for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, counter in HOOKS:
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, name, counter))
                else:
                    wrapped = self._wrap(original, name, counter)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def verifying(self):
        """One ``check`` span for the benchmark's own checking passes; the
        layer calls inside it are not counted as the workload's."""
        with self.span("check"):
            self.suspended = True
            try:
                yield
            finally:
                self.suspended = False

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter = Counter()
        for i, (name, _, _, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return dict(out)

    def calls(self) -> dict[str, int]:
        return dict(Counter(record[0] for record in self.spans))

    def write(self, path) -> None:
        keys = ("name", "op", "parent", "start", "end", "error")
        with open(path, "w", encoding="ascii") as fh:
            for i, record in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dict(zip(keys, record))}) + "\n")

