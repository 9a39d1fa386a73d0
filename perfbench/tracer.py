"""Span tracer that wraps ``loggad`` functions from outside the package.

Each hook names one function, method or cached property of a ``loggad``
module. While a :class:`Tracer` is installed, every call to a hooked
target records a span (id, name, start, end, parent id, run id) in memory;
:meth:`Tracer.write` saves them as JSON lines when the run ends.

A name is patched where it is looked up, not only where it is defined:
``from x import f`` copies ``f`` into the importing module, so every
``loggad`` module attribute bound to the same object is replaced too. A
hook whose target no longer exists is reported as absent instead of
raising, so the benchmark keeps working while the program changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional

# hook name -> (module, attribute path inside the module)
HOOKS: dict[str, tuple[str, str]] = {
    "ingest.read_jsonl": ("loggad.ingest", "read_jsonl"),
    "ingest.write_jsonl": ("loggad.ingest", "write_jsonl"),
    "ingest.window": ("loggad.ingest", "window"),
    "evaluation.load_loghub_sample": ("loggad.evaluation", "load_loghub_sample"),
    "evaluation.generate_synthetic": ("loggad.evaluation", "generate_synthetic"),
    "evaluation.score": ("loggad.evaluation", "score"),
    "keywords.extract_top": ("loggad.keywords", "extract_top"),
    "keywords.score": ("loggad.keywords", "score"),
    "keywords.drift": ("loggad.keywords", "drift"),
    "graph.build": ("loggad.graph", "build"),
    "graph.transition": ("loggad.graph", "transition_probabilities"),
    "graph.induce": ("loggad.graph", "induce_sequence_subgraph"),
    "graph.adjacency": ("loggad.graph", "Subgraph.adjacency"),
    "walks.fit_length": ("loggad.walks", "fit_length_model"),
    "walks.sample": ("loggad.walks", "sample_walk"),
    "annotator.pretrain": ("loggad.annotator", "pretrain"),
    "annotator.finetune": ("loggad.annotator", "finetune"),
    "annotator.annotate": ("loggad.annotator", "annotate"),
    "annotator.vote_annotate": ("loggad.annotator", "vote_annotate"),
    "annotator.loss_and_grads": ("loggad.annotator", "loss_and_grads"),
    "annotator.forward": ("loggad.annotator", "forward"),
    "classifier.train": ("loggad.classifier", "train"),
    "classifier.loss_and_grads": ("loggad.classifier", "loss_and_grads"),
    "classifier.predict": ("loggad.classifier", "predict"),
    "nn.zeros_like_params": ("loggad.nn", "zeros_like_params"),
    "nn.accumulate": ("loggad.nn", "accumulate"),
    "nn.adam_step": ("loggad.nn", "Adam.step"),
    "nn.save_checkpoint": ("loggad.nn", "save_checkpoint"),
    "nn.load_checkpoint": ("loggad.nn", "load_checkpoint"),
    "pipeline.run_pipeline": ("loggad.pipeline", "run_pipeline"),
    "pipeline.bootstrap": ("loggad.pipeline", "bootstrap"),
    "pipeline.run_iteration": ("loggad.pipeline", "run_iteration"),
    "pipeline.write_iteration_artifacts": ("loggad.pipeline", "_write_iteration_artifacts"),
    "pipeline.write_manifest": ("loggad.pipeline", "_write_manifest"),
    "cli.detect": ("loggad.cli", "cmd_detect"),
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.results: dict[str, list] = {}  # hook -> return values kept by observe()
        self._observed: dict[str, Callable] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, 0.0, 0.0, parent, self.run_id)
        self.spans.append(s)
        self._stack.append(s.id)
        s.start = time.perf_counter()
        return s

    def _close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack.pop()

    def observe(self, hook: str, reduce: Callable) -> None:
        """Keep ``reduce(result)`` for every call of ``hook``."""
        self._observed[hook] = reduce
        self.results[hook] = []

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        for hook, (module_name, path) in HOOKS.items():
            if not self._patch(hook, module_name, path):
                self.absent.append(hook)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, hook: str, fn: Callable) -> Callable:
        tracer = self
        reduce = self._observed.get(hook)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = tracer._open(hook)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(s)
            if reduce is not None:
                try:
                    value = reduce(result)
                except (AttributeError, TypeError):  # the program changed shape: a gap, not a crash
                    value = None
                tracer.results[hook].append(value)
            return result

        return traced

    def _patch(self, hook: str, module_name: str, path: str) -> bool:
        module = sys.modules.get(module_name)
        if module is None:
            return False
        *owner_path, attr = path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
            if original is None:
                return False
            if isinstance(original, cached_property):
                replacement = cached_property(self._wrap(hook, original.func))
                replacement.__set_name__(owner, attr)
            elif isinstance(original, property):
                replacement = property(self._wrap(hook, original.fget))
            elif callable(original):
                replacement = self._wrap(hook, original)
            else:
                return False
            self._set(owner, attr, original, replacement)
            return True
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        replacement = self._wrap(hook, original)
        # rebind every loggad module name that refers to the same object
        for name, mod in list(sys.modules.items()):
            if name == "loggad" or name.startswith("loggad."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, replacement)
        return True

    def _set(self, owner, attr, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    # -- output ----------------------------------------------------------
    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                         "parent": s.parent, "run_id": s.run_id}
                    )
                    + "\n"
                )


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds (outermost only) and self seconds.

    Self time is a span's duration minus the durations of its direct
    children. Nested spans of the same name count once toward inclusive
    time, so recursion is not double-counted.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})
        row["calls"] += 1
        row["self_seconds"] += (s.end - s.start) - child_time[s.id]
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            row["seconds"] += s.end - s.start
    return out


def check_spans(spans: list[Span], tolerance: float = 1e-6) -> list[str]:
    """Structural problems: negative self time, or a child outside its parent."""
    problems = []
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.end < s.start:
            problems.append(f"span {s.id} {s.name} ends before it starts")
        if s.parent is not None:
            parent = spans[s.parent]
            child_time[s.parent] += s.end - s.start
            if s.start < parent.start - tolerance or s.end > parent.end + tolerance:
                problems.append(f"span {s.id} {s.name} lies outside parent {parent.name}")
    for s in spans:
        if (s.end - s.start) - child_time[s.id] < -tolerance:
            problems.append(f"span {s.id} {s.name} has negative self time")
    return problems
