"""Patch-based span recording for the traced benchmark run.

The traced run wraps public functions of every ``repro`` layer from the
benchmark's own code: a method is patched on the class that defines it,
and a function that a caller imported by name is patched in that
caller's module too.  Spans are kept in memory (one list, per-thread
parent stacks) and written out once the run ends.  :meth:`Recorder.install`
and :meth:`Recorder.uninstall` swap the wrappers in and out, so traced
and untraced ops can alternate inside one process.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Recorder", "Span", "LAYER_TARGETS", "aggregate"]


def _tokens_size(args, kwargs, result):
    tokens = kwargs["tokens"] if "tokens" in kwargs else args[3]
    return int(tokens.size)


def _sgns_pairs(args, kwargs, result):
    """(center, context) pairs one ``SkipGramModel.train`` call trains on:
    ``walks_to_pairs`` emits both directions per offset, for every epoch."""
    walks = kwargs["walks"] if "walks" in kwargs else args[1]
    window = kwargs.get("window", args[2] if len(args) > 2 else 5)
    epochs = kwargs.get("epochs", args[3] if len(args) > 3 else 3)
    num_walks, length = walks.shape
    per_epoch = sum(2 * num_walks * (length - offset)
                    for offset in range(1, min(window, length - 1) + 1))
    return per_epoch * epochs


def _rows_returned(args, kwargs, result):
    return int(result)


def _server_seconds(args, kwargs, result):
    return float(result["seconds"])


#: (span name, "module:Owner.attr" or "module:function", amount callback)
#: — every public function the traced run wraps, grouped by layer.
LAYER_TARGETS: tuple[tuple[str, str, object], ...] = (
    ("graph.walks", "repro.graph.walk_engine:WalkEngine.walks", None),
    ("graph.walks", "repro.graph.walk_engine:WalkEngine.uniform_walks", None),
    ("graph.walks", "repro.graph.walk_engine:WalkEngine.node2vec_walks",
     None),
    ("embedding.sgns", "repro.embedding.word2vec:SkipGramModel.train",
     _sgns_pairs),
    ("nn.backward", "repro.nn.tensor:Tensor.backward", None),
    ("nn.lstm_cell", "repro.nn.rnn:LSTMCell.forward", None),
    ("nn.decode_step", "repro.nn.backend:Backend.decode_step", _tokens_size),
    ("nn.decode_step", "repro.nn.backend:FusedNumpyBackend.decode_step",
     _tokens_size),
    ("train.step", "repro.train.trainer:train_step", None),
    ("train.step", "repro.train:train_step", None),
    ("train.step", "repro.core.fairgen:train_step", None),
    ("train.step", "repro.models.graphrnn:train_step", None),
    ("train.step", "repro.models.netgan:train_step", None),
    ("train.step", "repro.models.gae:train_step", None),
    ("train.step", "repro.models.taggen:train_step", None),
    ("core.context_sample",
     "repro.core.context_sampling:ContextSampler.sample", None),
    ("core.discriminator",
     "repro.core.discriminator:FairDiscriminator.train_step", None),
    ("models.fairgen.fit", "repro.core.fairgen:FairGen.fit", None),
    ("models.fairgen.generate", "repro.core.fairgen:FairGen.generate", None),
    ("models.graphrnn.fit", "repro.models.graphrnn:GraphRNN.fit", None),
    ("models.graphrnn.generate", "repro.models.graphrnn:GraphRNN.generate",
     None),
    ("models.netgan.fit", "repro.models.netgan:NetGAN.fit", None),
    ("models.netgan.generate", "repro.models.netgan:NetGAN.generate", None),
    ("models.sample", "repro.models.walk_lm:TransformerWalkModel.sample",
     None),
    ("models.assemble", "repro.models.base:assemble_from_scores", None),
    ("models.assemble", "repro.models:assemble_from_scores", None),
    ("models.assemble", "repro.core.fairgen:assemble_from_scores", None),
    ("models.assemble", "repro.models.netgan:assemble_from_scores", None),
    ("models.assemble", "repro.models.gae:assemble_from_scores", None),
    ("models.assemble", "repro.models.taggen:assemble_from_scores", None),
    ("models.propose", "repro.models.base:GraphGenerativeModel.propose_edges",
     None),
    ("models.propose", "repro.core.fairgen:FairGen.propose_edges", None),
    ("eval.classify",
     "repro.eval.classification:cross_validated_accuracy", None),
    ("eval.classify", "repro.eval:cross_validated_accuracy", None),
    ("eval.classify", "repro.eval.augmentation:cross_validated_accuracy",
     None),
    ("serve.step", "repro.serve.engine:ContinuousBatcher.step",
     _rows_returned),
    ("nn.prefill", "repro.nn.inference:WalkDecoder.prefill", None),
    ("serve.server", "repro.serve.daemon:ServeDaemon.generate",
     _server_seconds),
)


@dataclass(eq=False)
class Span:
    name: str
    thread: int
    phase: str | None
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    amount: float | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _resolve(target: str):
    """``"pkg.mod:Owner.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Recorder:
    """In-memory span recorder over monkey-patched layer entry points."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: label stamped on every span opened while it is set (the
        #: serving workload marks its batcher and HTTP phases)
        self.phase: str | None = None
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, amount):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span = Span(name, threading.get_ident(), recorder.phase,
                        stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)
            if amount is not None:
                span.amount = amount(args, kwargs, result)
            return result

        return traced

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("recorder already installed")
        for name, target, amount in LAYER_TARGETS:
            owner, attr = _resolve(target)
            if isinstance(owner, type):
                original = owner.__dict__[attr]  # defined on this class
            else:
                original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, amount))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_chrome_trace(self, path: Path) -> None:
        """Dump spans as Chrome ``trace_event`` complete events."""
        if not self.spans:
            return
        origin = min(span.start for span in self.spans)
        ids = {id(span): i for i, span in enumerate(self.spans)}
        events = []
        for i, span in enumerate(self.spans):
            args = {"id": i}
            if span.parent is not None:
                args["parent"] = ids.get(id(span.parent))
            if span.phase is not None:
                args["phase"] = span.phase
            if span.amount is not None:
                args["amount"] = span.amount
            events.append({"name": span.name, "ph": "X", "pid": 1,
                           "tid": span.thread,
                           "ts": (span.start - origin) * 1e6,
                           "dur": span.seconds * 1e6, "args": args})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds, amount.

    Inclusive time counts only the outermost span of a name, so a
    patched method that calls another patched method of the same layer
    (``WalkEngine.walks`` -> ``node2vec_walks``) is not counted twice.
    Self time is a span's duration minus that of its direct children.
    """
    child_seconds: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            key = id(span.parent)
            child_seconds[key] = child_seconds.get(key, 0.0) + span.seconds
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "inclusive_s": 0.0,
                                           "self_s": 0.0, "amount": 0.0})
        row["calls"] += 1
        row["self_s"] += span.seconds - child_seconds.get(id(span), 0.0)
        if span.amount is not None:
            row["amount"] += span.amount
        ancestor = span.parent
        while ancestor is not None and ancestor.name != span.name:
            ancestor = ancestor.parent
        if ancestor is None:
            row["inclusive_s"] += span.seconds
    return table
