"""Span tracing around the public functions of the wlann layers.

The tracer wraps functions from outside the package: it swaps each
target for a wrapper in every loaded `wlann` module namespace that holds
it (or on its class, for methods), records one span per call, and puts
the originals back on `uninstall`. Spans stay in memory until the run
writes them out. Nothing inside `src/` is changed.

A span is (id, name, thread, start, end, parent, op), where op is the
op index or SETUP. Calls made outside a set-up or an op root, such as a
run's own output checks, record nothing. The parent is the
innermost open span of the same thread; a span opened by a worker thread
with nothing open on its own stack takes the main thread's innermost
span as parent, so work fanned out by `scoring.evaluate` nests under it.
Self time is a span's duration minus the union of its children's
intervals, which stays correct when children run in parallel threads.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable


def _result_length(args, kwargs, result):
    return len(result)


def _file_size(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


@dataclass(frozen=True)
class Target:
    """One traced function: where it lives, its span name, optional counter.

    The counter, called with (args, kwargs, result), gives the number a
    span records next to its times: samples produced, bytes of a file.
    """

    module: str
    attr: str  # "func" or "Class.method"
    span: str
    counter: Callable | None = None


TARGETS = (
    Target("wlann.dsp.resample", "resample", "dsp.resample", _result_length),
    Target("wlann.dsp.butterworth", "apply_filter", "dsp.apply_filter"),
    Target("wlann.dsp.mel", "log_mel", "dsp.log_mel"),
    Target("wlann.dsp.augment", "spec_augment", "dsp.spec_augment"),
    *(
        Target("wlann.ndiff.functional", name, f"ndiff.{name}")
        for name in (
            "conv1d", "conv1d_vjp", "linear", "linear_vjp", "softmax", "softmax_vjp",
            "layer_norm", "layer_norm_vjp", "gelu", "gelu_vjp",
        )
    ),
    Target("wlann.ndiff.attention", "multi_head_self_attention", "ndiff.multi_head_self_attention"),
    Target("wlann.ndiff.attention", "multi_head_self_attention_vjp", "ndiff.multi_head_self_attention_vjp"),
    Target("wlann.ndiff.gru", "bigru", "ndiff.bigru"),
    Target("wlann.ndiff.gru", "bigru_vjp", "ndiff.bigru_vjp"),
    *(
        Target("wlann.model.network", name, f"model.{name}")
        for name in (
            "waveform_branch", "waveform_branch_vjp", "ast_branch", "ast_branch_vjp",
            "classify_head", "classify_head_vjp",
        )
    ),
    Target("wlann.model.pipeline", "prepare_input", "model.prepare_input"),
    Target("wlann.train.focal", "focal_loss", "train.focal_loss"),
    Target("wlann.train.adam", "Adam.step", "train.adam.step"),
    Target("wlann.train.adam", "Adam.zero_grads", "train.adam.zero_grads"),
    Target("wlann.train.loop", "save_checkpoint", "train.save_checkpoint", _file_size),
    Target("wlann.train.loop", "load_checkpoint", "train.load_checkpoint"),
    Target("wlann.train.loop", "prepare_split", "train.prepare_split"),
    Target("wlann.dataio.audio", "load_wav", "dataio.load_wav", _file_size),
    Target("wlann.dataio.audio", "write_wav", "dataio.write_wav"),
    Target("wlann.dataio.corpus", "load_corpus_splits", "dataio.load_corpus_splits"),
    Target("wlann.dataio.corpus", "Corpus.event_clip", "dataio.event_clip"),
    Target("wlann.dataio.synth", "generate_synthetic_corpus", "dataio.generate_synthetic_corpus"),
    Target("wlann.scoring", "score", "scoring.score"),
    Target("wlann.scoring", "render_report", "scoring.render_report"),
    Target("wlann.scoring", "evaluate", "scoring.evaluate"),
)

ROOT_SPANS = ("setup", "op")
SETUP = -1


@dataclass
class Span:
    id: int
    name: str
    thread: int
    start: float
    end: float
    parent: int | None
    op: int
    count: float = 0.0

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "thread": self.thread, "start": self.start,
            "end": self.end, "parent": self.parent, "op": self.op, "count": self.count,
        }


class Tracer:
    """Installs span-recording wrappers and keeps the spans it records."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._op: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> tuple[int, int | None, float]:
        thread = threading.get_ident()
        stack = self._stacks.setdefault(thread, [])
        if stack:
            parent = stack[-1]
        else:
            main_stack = self._stacks.get(self._main)
            parent = main_stack[-1] if thread != self._main and main_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(self, name, span_id, parent, start, count=0.0) -> None:
        end = time.perf_counter()
        self._stacks[threading.get_ident()].pop()
        if self._op is not None:
            self.spans.append(
                Span(span_id, name, threading.get_ident(), start, end, parent, self._op, count)
            )

    def root(self, name: str, op: int):
        """Context manager for the root span of the set-up (op=SETUP) or an op."""
        tracer = self

        class _Root:
            def __enter__(self):
                tracer._op = op
                self.opened = tracer._open(name)

            def __exit__(self, *exc):
                tracer._close(name, *self.opened)
                tracer._op = None
                return False

        return _Root()

    def _wrap(self, original, target: Target):
        counter = target.counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            opened = self._open(target.span)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self._close(target.span, *opened)
                raise
            self._close(target.span, *opened, counter(args, kwargs, result) if counter else 0.0)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            module = importlib.import_module(target.module)
            if "." in target.attr:
                class_name, method = target.attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._swap(owner, method, original, self._wrap(original, target))
                continue
            original = getattr(module, target.attr)
            wrapper = self._wrap(original, target)
            for name, loaded in list(sys.modules.items()):
                if not (name == "wlann" or name.startswith("wlann.")) or loaded is None:
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._swap(loaded, attr, original, wrapper)

    def _swap(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# Aggregation


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = (span.end - span.start) - covered
    return result


def summarize(spans: list[Span]) -> dict:
    """Totals per span name, split into the set-up and the ops.

    Returns a dict with "ops" (traced op count), "op_s" (each op's
    duration), "setup" and "op" (span name -> total self seconds, calls
    and counter), "layer_self_s" (self time of all non-root spans in
    ops), "worker_busy_s" (time worker threads spent in spans under
    `scoring.evaluate`) and "evaluate_wall_s".
    """
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    summary = {"op_s": [], "setup": {}, "op": {}, "worker_busy_s": 0.0, "evaluate_wall_s": 0.0}
    for span in spans:
        if span.name == "op":
            summary["op_s"].append(span.end - span.start)
        if span.name in ROOT_SPANS:
            continue
        scope = summary["setup" if span.op == SETUP else "op"]
        entry = scope.setdefault(span.name, {"self_s": 0.0, "calls": 0, "count": 0.0})
        entry["self_s"] += own[span.id]
        entry["calls"] += 1
        entry["count"] += span.count
        parent = by_id.get(span.parent)
        if span.name == "scoring.evaluate":
            summary["evaluate_wall_s"] += span.end - span.start
        elif parent is not None and parent.name == "scoring.evaluate" and parent.thread != span.thread:
            summary["worker_busy_s"] += span.end - span.start
    summary["ops"] = len(summary["op_s"])
    summary["layer_self_s"] = sum(
        own[span.id] for span in spans if span.op != SETUP and span.name not in ROOT_SPANS
    )
    return summary
