"""Per-layer spans recorded from outside the package.

The tracer replaces the public functions of each lqrec module with wrappers
at the attribute their callers look up (``lqrec.training.embed_instance``,
not ``lqrec.model.embed_instance``, because training imported the name).
Inside a phase, each call records a span: name ``<phase>.<module>.<function>``,
start, end, parent span and request id. The request id is the step index in
train, the record index in eval and the line index in answer. Spans stay in
memory in flat arrays and are written out when the run ends.

The span map is checked both ways: a boundary whose attribute no longer
exists fails before anything runs, and a boundary that records no call in a
phase where it must run fails after the run. Both name the boundary, so a
refactor cannot silently zero a layer metric.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


class SpanMapError(RuntimeError):
    """A wrapped boundary is gone, or recorded no call where it must run."""


@dataclass(frozen=True)
class Boundary:
    layer: str  # "<module>.<function>", named where the function is defined
    targets: tuple[str, ...]  # "module:attr" or "module:Class.attr" callers use
    phases: tuple[str, ...]  # phases in which it must record at least one call
    after: Callable | None = None  # (tracer, args, result) after a return


def _count_tape_nodes(tracer: "Tracer", args, result) -> None:
    # compute_loss(tape, batch, ...): the tape is complete once it returns.
    tracer.counters["tape_nodes"] += len(args[0].nodes)
    tracer.counters["tape_instances"] += len(args[1])


SPAN_MAP = (
    Boundary("cli.main", ("lqrec.cli:main",), ("setup", "answer")),
    Boundary("synth.clustered_world", ("lqrec.synth:clustered_world",), ("setup",)),
    Boundary("kg.split_edges", ("lqrec.kg:split_edges",), ("setup",)),
    Boundary("kg.save_split", ("lqrec.kg:save_split",), ("setup",)),
    Boundary("kg.load_split", ("lqrec.kg:load_split",), ("setup",)),
    Boundary("model.save_checkpoint", ("lqrec.model:save_checkpoint",), ("setup",)),
    Boundary("model.load_checkpoint", ("lqrec.cli:load_checkpoint",), ("setup",)),
    Boundary("dataset.build_dataset", ("lqrec.dataset:build_dataset",), ("build",)),
    Boundary("dataset.sample_requirement", ("lqrec.dataset:sample_requirement",),
             ("build",)),
    Boundary("oracle.answer_requirement", ("lqrec.oracle:answer_requirement",),
             ("build",)),
    Boundary("oracle.answer_preference", ("lqrec.oracle:answer_preference",),
             ("build",)),
    Boundary("kg.sorted_items", ("lqrec.kg:KnowledgeGraph.sorted_items",),
             ("build", "train", "answer")),
    Boundary("dataset.write_dataset", ("lqrec.dataset:write_dataset",), ("build",)),
    Boundary("dataset.verify_dataset", ("lqrec.dataset:verify_dataset",), ("build",)),
    Boundary("training.train", ("lqrec.training:train",), ("train",)),
    Boundary("training.sample_negatives", ("lqrec.training:sample_negatives",),
             ("train",)),
    Boundary("training.compute_loss", ("lqrec.training:compute_loss",), ("train",),
             after=_count_tape_nodes),
    Boundary("model.embed_instance",
             ("lqrec.training:embed_instance", "lqrec.evaluation:embed_instance",
              "lqrec.cli:embed_instance"),
             ("train", "eval", "answer")),
    Boundary("model.score_items", ("lqrec.training:score_items",), ("train",)),
    Boundary("autodiff.backward", ("lqrec.autodiff:backward",), ("train",)),
    Boundary("autodiff.adam_step", ("lqrec.training:adam_step",), ("train",)),
    Boundary("evaluation.evaluate", ("lqrec.evaluation:evaluate",), ("eval",)),
    Boundary("model.catalog_scores",
             ("lqrec.evaluation:catalog_scores", "lqrec.cli:catalog_scores"),
             ("eval", "answer")),
    Boundary("evaluation.filtered_rank", ("lqrec.evaluation:filtered_rank",),
             ("eval",)),
    Boundary("query.parse_query", ("lqrec.cli:parse_query",), ("answer",)),
    Boundary("oracle.answer_joint", ("lqrec.oracle:answer_joint",), ("answer",)),
    Boundary("evaluation.rank_items", ("lqrec.cli:rank_items",), ("answer",)),
)

# Where the request id advances: train counts optimizer steps, eval counts
# records (one embedding each), answer counts parsed lines.
REQUEST_ADVANCE = {
    "train": ("autodiff.adam_step", "exit"),
    "eval": ("model.embed_instance", "enter"),
    "answer": ("query.parse_query", "enter"),
}


def _resolve(target: str):
    """(owner object, attribute name) for "module:attr" / "module:Cls.attr"."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@dataclass
class LayerStats:
    self_s: float
    total_s: float
    calls: int


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.errors: Counter = Counter()  # (span name, exception type)
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._phase: str | None = None
        self._request = -1
        self._requests: dict[str, int] = {}  # per phase, across its rounds
        self._installed: list[tuple[object, str, object]] = []

    # -- installing the wrappers -------------------------------------------

    def install(self) -> None:
        missing = []
        resolved = []
        for b in SPAN_MAP:
            for target in b.targets:
                try:
                    owner, attr = _resolve(target)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    missing.append(f"{b.layer} ({target})")
                    continue
                resolved.append((b, owner, attr, original))
        if missing:
            raise SpanMapError("wrapped boundary no longer exists: "
                               + ", ".join(missing))
        for b, owner, attr, original in resolved:
            setattr(owner, attr, self._wrap(b, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, boundary: Boundary, fn):
        layer, after = boundary.layer, boundary.after

        def wrapper(*args, **kwargs):
            phase = self._phase
            if phase is None:
                return fn(*args, **kwargs)
            advance = REQUEST_ADVANCE.get(phase)
            if advance == (layer, "enter"):
                self._request += 1
            idx = self._open(f"{phase}.{layer}")
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[(f"{phase}.{layer}", type(exc).__name__)] += 1
                raise
            finally:
                self._close(idx)
            if after is not None:
                after(self, args, result)
            if advance == (layer, "exit"):
                self._request += 1
            return result

        return wrapper

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def phase(self, name: str):
        """Root span of one phase; wrapped calls record only inside one."""
        advance = REQUEST_ADVANCE.get(name)
        first = -1 if advance is None or advance[1] == "enter" else 0
        self._request = self._requests.get(name, first)
        self._phase = name
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self._requests[name] = self._request
            self._phase = None

    # -- results ---------------------------------------------------------------

    def stats(self) -> dict[str, LayerStats]:
        """Self seconds (duration minus child spans), inclusive seconds and
        calls per span name."""
        n_names = len(self.names)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = np.bincount(name_id, weights=dur - child, minlength=n_names)
        total_s = np.bincount(name_id, weights=dur, minlength=n_names)
        calls = np.bincount(name_id, minlength=n_names)
        return {name: LayerStats(float(self_s[i]), float(total_s[i]), int(calls[i]))
                for i, name in enumerate(self.names)}

    def check_calls(self, stats: dict[str, LayerStats]) -> None:
        silent = [
            f"{phase}.{b.layer}"
            for b in SPAN_MAP
            for phase in b.phases
            if f"{phase}.{b.layer}" not in stats
        ]
        if silent:
            raise SpanMapError("boundary recorded no calls where it must run: "
                               + ", ".join(silent))

    def write(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
        )
