"""Benchmark construction: sample grounded (user, requirement) instances per
query shape and emit train/valid/test JSON-lines files.

Requirements are instantiated backward from a seed item, walking in-edges so
the seed is guaranteed to satisfy the query. Train instances are grounded on
the train graph only. Valid/test instances are grounded on the full graph and
kept only when at least one joint answer is unreachable by train-graph
traversal, so test targets always require inferring a held-out edge.
"""

from __future__ import annotations

import bisect
import json
import os
import random
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass

from . import oracle
from .artifacts import ArtifactMismatchError, atomic_write, parse_json
from .kg import KgSplit, KnowledgeGraph, UnknownNameError
from .oracle import TASK_JOINT, TASK_REQ, TASKS, grounding, record_answers
from .query import (
    ALL_SHAPES,
    And,
    Anchor,
    BASIC_SHAPES,
    Or,
    Project,
    QueryNode,
    QueryShape,
    SHAPE_TEMPLATES,
    ZERO_SHOT_SHAPES,
    canonicalize,
    classify_shape,
    parse_query,
    serialize_query,
    shape_from_name,
)

# Per split: the shapes its records may hold, and whether it is held out
# (grounded on the full graph, with hard answers) or on the train graph.
SPLITS = {"train": (BASIC_SHAPES, False), "valid": (BASIC_SHAPES, True),
          "test": (ALL_SHAPES, True)}
SPLIT_NAMES = tuple(SPLITS)

DATASET_FILES = {name: f"{name}.jsonl" for name in SPLIT_NAMES}
STATS_FILE = "stats.txt"


class SamplingError(RuntimeError):
    """A sampling attempt dead-ended; callers retry within their budget."""


class ConfigError(ValueError):
    pass


def read_key_values(path: str, parsers: Mapping[str, Callable[[str], object]]) -> dict:
    """Parsed values of a ``key=value`` config file, keyed as in the file.

    ``#`` starts a comment and blank lines are skipped. Each value goes through
    its key's entry in ``parsers``; a line that is not UTF-8, holds a byte-order
    mark (U+FEFF) or has no ``=``, an unknown key, a value its parser rejects or
    a key given twice raises ``ConfigError`` naming ``path:line`` (and the key).
    """
    values = {}
    with open(path, "rb") as f:  # lines split as in text mode
        for lineno, raw in enumerate(f.read().splitlines(), start=1):
            try:
                line = raw.decode("utf-8").split("#", 1)[0].strip()
            except UnicodeDecodeError:
                raise ConfigError(f"{path}:{lineno}: not UTF-8") from None
            if not line:
                continue
            if "\ufeff" in line:
                raise ConfigError(f"{path}:{lineno}: U+FEFF byte-order mark")
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in parsers:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                value = parsers[key](value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = value
    return values


def at_least(key: str, value: int | None, floor: int) -> int | None:
    """``value`` unless it is below ``floor``, else ``ConfigError``; None passes."""
    if value is not None and value < floor:
        raise ConfigError(f"{key} must be at least {floor}, got {value}")
    return value


def _checked_count(split_name: str, shape: QueryShape, count: int) -> int:
    """``count`` if it is a valid request for the cell, else ``ConfigError``;
    the record loader checks each record's shape as a request for one."""
    if not isinstance(shape, QueryShape):
        raise ConfigError(f"shape key {shape!r} of split {split_name!r} is not a QueryShape")
    if count < 0:
        raise ConfigError(f"negative count for {split_name}/{shape.value}")
    if count > 0 and shape not in SPLITS[split_name][0]:
        raise ConfigError(f"shape {shape.value} not allowed in split {split_name!r}"
                          + ("; the zero-shot shapes are reserved for testing"
                             if shape in ZERO_SHOT_SHAPES else ""))
    return count


# Sampling knobs that must be at least 1: a smaller value emits no record.
_KNOBS = ("max_retries", "answer_cap")


_DATASET_KEYS: dict[str, Callable[[str], object]] = {
    "seed": int,
    **{key: lambda value, key=key: at_least(key, int(value), 1) for key in _KNOBS},
    **{f"{split_name}.{shape.value}":
       lambda value, split_name=split_name, shape=shape:
           _checked_count(split_name, shape, int(value))
       for split_name in SPLIT_NAMES for shape in ALL_SHAPES},
}


@dataclass
class DatasetConfig:
    """Per-split, per-shape instance counts plus sampling knobs.

    ``answer_cap`` drops over-broad requirements (huge answer sets carry no
    ranking signal); ``max_retries`` bounds resampling per requested instance.
    """

    counts: dict[str, dict[QueryShape, int]]
    seed: int
    max_retries: int = 200
    answer_cap: int = 100

    def __post_init__(self):
        for key in _KNOBS:
            at_least(key, getattr(self, key), 1)
        for split_name, by_shape in self.counts.items():
            if split_name not in SPLIT_NAMES:
                raise ConfigError(f"unknown split {split_name!r}")
            for shape, count in by_shape.items():
                _checked_count(split_name, shape, count)

    @classmethod
    def from_file(cls, path: str) -> "DatasetConfig":
        """Key=value file: `seed=7`, `max_retries=...`, `answer_cap=...`, and
        one `SPLIT.SHAPE=count` line per requested cell, e.g. `test.ip=50`."""
        values = read_key_values(path, _DATASET_KEYS)
        if "seed" not in values:
            raise ConfigError(f"{path}: missing required key 'seed'")
        counts: dict[str, dict[QueryShape, int]] = {}
        for key in [k for k in values if "." in k]:
            split_name, shape_name = key.split(".")
            counts.setdefault(split_name, {})[shape_from_name(shape_name)] = values.pop(key)
        return cls(counts=counts, **values)


@dataclass(frozen=True)
class RecInstance:
    """A grounded (user, requirement) pair with its three answer sets.

    ``answers`` maps task name to the set reachable on the instance's defining
    graph (the train graph for train instances, otherwise the train-reachable
    "easy" subset). ``hard`` holds the answers that additionally need held-out
    edges; it is absent on train instances.
    """

    user: int
    requirement: QueryNode
    shape: QueryShape
    answers: dict[str, frozenset[int]]
    hard: dict[str, frozenset[int]] | None = None


def _pick_other_target(kg: KnowledgeGraph, node: int, rng: random.Random) -> int:
    """A uniform in-edge target other than ``node``, itself an in-edge target."""
    targets = kg.in_edge_targets
    if len(targets) < 2:
        raise SamplingError("no second union branch available")
    j = rng.randrange(len(targets) - 1)
    return targets[j + (j >= bisect.bisect_left(targets, node))]


def _ground(kg: KnowledgeGraph, skel: tuple, target: int, rng: random.Random,
            root: bool) -> QueryNode:
    """A query of skeleton ``skel`` whose answer set contains ``target``.

    A projection takes one random in-edge of its target and an intersection
    ``len(children)`` distinct ones, one per child projection. A union
    grounds its first branch at its own target and every other branch at a
    random other target: a seed item at the root, an in-edge target other
    than its own below it.
    """
    kind = skel[0]
    if kind == "e":
        return Anchor(target)
    if kind == "or":
        branches = [_ground(kg, skel[1][0], target, rng, False)]
        for child in skel[1][1:]:
            other = (kg.seed_items[rng.randrange(len(kg.seed_items))] if root
                     else _pick_other_target(kg, target, rng))
            branches.append(_ground(kg, child, other, rng, False))
        return Or(tuple(branches))
    rels, heads = kg.in_edges(target)
    n = 1 if kind == "p" else len(skel[1])
    if len(heads) < n:
        raise SamplingError(f"entity {target} needs {n} in-edges, has {len(heads)}")
    if kind == "p":
        i = rng.randrange(len(heads))
        return Project(rels[i], _ground(kg, skel[1], heads[i], rng, False))
    return And(tuple(Project(rels[i], _ground(kg, child[1], heads[i], rng, False))
                     for child, i in zip(skel[1], rng.sample(range(len(heads)), n))))


def sample_requirement(
    kg: KnowledgeGraph, shape: QueryShape, rng: random.Random
) -> QueryNode:
    """Ground the shape's template backward from a random seed item.

    The returned query is canonical and its answer set provably contains the
    seed item. Dead ends (nodes without the needed in-edges) raise
    :class:`SamplingError`; callers resample.
    """
    if shape not in SHAPE_TEMPLATES:
        raise ValueError(f"cannot sample shape {shape}")
    seeds = kg.seed_items
    if not seeds:
        raise SamplingError("no item has in-edges")
    seed_item = seeds[rng.randrange(len(seeds))]
    return canonicalize(_ground(kg, SHAPE_TEMPLATES[shape], seed_item, rng, True), kg)


def _likers(kg: KnowledgeGraph, items: frozenset[int]) -> list[int]:
    """Users with an interaction edge into any of ``items``, ascending. For
    a requirement's answers these are exactly the users whose joint answer
    set is nonempty."""
    return sorted({h for _, heads in kg.in_runs(items, kg.like_rel) for h in heads})


def sample_instance(
    split: KgSplit,
    shape: QueryShape,
    split_name: str,
    rng: random.Random,
    cfg: DatasetConfig,
) -> RecInstance:
    """Sample one grounded instance for the given benchmark split.

    The paired user is uniform among the users whose joint answer set is
    nonempty: one draw from the requirement answers' likers (``_likers``).
    Valid/test instances must have at least one hard joint answer
    (``oracle.record_answers``) or they are resampled.
    """
    held_out = SPLITS[split_name][1]
    kg = grounding(split, held_out)
    for _ in range(cfg.max_retries):
        try:
            q = sample_requirement(kg, shape, rng)
        except SamplingError:
            continue
        a_req = oracle.answer_requirement(kg, q, cfg.answer_cap)
        if not a_req:  # unsatisfiable, or over the cap (None)
            continue
        likers = _likers(kg, a_req)
        if not likers:
            continue
        u = likers[rng.randrange(len(likers))]
        answers, hard = record_answers(split, held_out, u, q, a_req)
        if hard is None or hard[TASK_JOINT]:
            return RecInstance(u, q, shape, answers, hard)
    raise SamplingError(
        f"retry budget exhausted sampling a {shape.value} instance for {split_name}"
    )


@dataclass
class BuildReport:
    """A build's requested counts per cell and the records it sampled, by
    split. Emitted counts, shortfalls and the mean full-graph requirement
    and hard joint answer counts are all read off the records."""

    requested: dict[str, dict[QueryShape, int]]
    datasets: dict[str, list[RecInstance]]

    def _cells(self) -> Iterator[tuple[str, QueryShape, int, list[RecInstance]]]:
        """(split, shape, requested count, records) of each requested cell."""
        for split_name in SPLIT_NAMES:
            for shape in ALL_SHAPES:
                want = self.requested.get(split_name, {}).get(shape, 0)
                if want:
                    yield split_name, shape, want, [
                        i for i in self.datasets.get(split_name, ()) if i.shape == shape]

    @property
    def shortfalls(self) -> list[tuple[str, QueryShape, int, int]]:
        """(split, shape, requested, emitted) of each cell that fell short."""
        return [(split_name, shape, want, len(got))
                for split_name, shape, want, got in self._cells() if len(got) < want]

    def to_text(self) -> str:
        lines = [
            f"{'split':<7}{'shape':<7}{'requested':>10}{'emitted':>9}"
            f"{'mean|req|':>11}{'mean hard':>11}"
        ]
        for split_name, shape, want, got in self._cells():
            n_req = sum(len(i.answers[TASK_REQ]) + (len(i.hard[TASK_REQ]) if i.hard else 0)
                        for i in got)
            n_hard = [len(i.hard[TASK_JOINT]) for i in got if i.hard]
            hard_txt = f"{sum(n_hard) / len(n_hard):11.2f}" if n_hard else f"{'-':>11}"
            lines.append(
                f"{split_name:<7}{shape.value:<7}{want:>10}{len(got):>9}"
                f"{n_req / max(len(got), 1):11.2f}{hard_txt}"
            )
        if shortfalls := self.shortfalls:
            lines.append("shortfalls:")
            for split_name, shape, req, emitted in shortfalls:
                lines.append(
                    f"  {split_name}/{shape.value}: requested {req}, emitted {emitted}"
                )
        return "\n".join(lines) + "\n"


def instance_to_record(inst: RecInstance, kg: KnowledgeGraph) -> dict:
    ev = kg.entity_vocab

    def names(ids: frozenset[int]) -> list[str]:
        return sorted(ev.name_of(i) for i in ids)

    record = {
        "user": ev.name_of(inst.user),
        "query": serialize_query(inst.requirement, kg),
        "shape": inst.shape.value,
        "answers": {task: names(inst.answers[task]) for task in TASKS},
    }
    if inst.hard is not None:
        record["hard"] = {task: names(inst.hard[task]) for task in TASKS}
    return record


def _check_record(record) -> None:
    """``ValueError`` unless ``record`` has the fields and field types that
    ``instance_to_record`` writes; the vocabulary lookup checks each name."""
    if not isinstance(record, dict):
        raise ValueError("record is not a JSON object")
    for key in ("user", "query", "shape"):
        if not isinstance(record.get(key), str):
            raise ValueError(f"field {key!r} is not a string")
    for key in ("answers", "hard") if record.get("hard") is not None else ("answers",):
        sets = record.get(key)
        if not (isinstance(sets, dict)
                and all(isinstance(sets.get(task), list) for task in TASKS)):
            raise ValueError(f"field {key!r} is not a name list per task")


def record_to_instance(record: dict, kg: KnowledgeGraph) -> RecInstance:
    """The instance ``record`` describes: its user a user, every answer an item."""
    _check_record(record)
    ev = kg.entity_vocab
    user = ev.id_of(record["user"])
    if user not in kg.users:
        raise ValueError(f"user {record['user']!r} is not a user")

    def ids(names: list[str]) -> frozenset[int]:
        out = frozenset(ev.id_of(n) for n in names)
        if not out <= kg.items:
            raise ValueError(f"answer {ev.name_of(min(out - kg.items))!r} is not an item")
        return out

    hard = record.get("hard")
    return RecInstance(
        user=user,
        requirement=parse_query(record["query"], kg),
        shape=shape_from_name(record["shape"]),
        answers={task: ids(record["answers"][task]) for task in TASKS},
        hard={task: ids(hard[task]) for task in TASKS} if hard is not None else None,
    )


def build_dataset(
    split: KgSplit, cfg: DatasetConfig
) -> tuple[dict[str, list[RecInstance]], BuildReport]:
    """Sample all requested instances, deterministically under ``cfg.seed``.

    Each (split, shape) cell draws from its own derived RNG stream, so cells
    are independent of each other and of request order. A cell that
    exhausts its retry budget stops short; the report lists it as a
    shortfall rather than raising.
    """
    datasets: dict[str, list[RecInstance]] = {name: [] for name in SPLIT_NAMES}
    for split_name, records in datasets.items():
        for shape in ALL_SHAPES:
            rng = random.Random(f"{cfg.seed}:{split_name}:{shape.value}")
            try:
                for _ in range(cfg.counts.get(split_name, {}).get(shape, 0)):
                    records.append(sample_instance(split, shape, split_name, rng, cfg))
            except SamplingError:
                pass
    return datasets, BuildReport(requested=cfg.counts, datasets=datasets)


def write_dataset(
    datasets: dict[str, list[RecInstance]],
    report: BuildReport,
    kg: KnowledgeGraph,
    out_dir: str,
) -> None:
    """Each split's records as JSON lines, then the report as ``stats.txt``;
    every file is written through :func:`artifacts.atomic_write`."""
    os.makedirs(out_dir, exist_ok=True)
    for split_name, instances in datasets.items():
        with atomic_write(os.path.join(out_dir, DATASET_FILES[split_name])) as f:
            for inst in instances:
                f.write(json.dumps(instance_to_record(inst, kg), sort_keys=True,
                                   separators=(",", ":")).encode("utf-8") + b"\n")
    with atomic_write(os.path.join(out_dir, STATS_FILE)) as f:
        f.write(report.to_text().encode("utf-8"))


def verify_dataset(split: KgSplit, out_dir: str) -> list[str]:
    """Re-derive every emitted record with the oracle and report violations.

    Each file is read by :func:`read_records`, so a record it rejects (a
    shape its split may not hold among them) raises ``ArtifactMismatchError``
    naming ``path:line``. Each record's answer sets must equal those
    ``oracle.record_answers`` derives from a fresh traversal of its split's
    graph; a violation names ``split:line``, the record's file line.
    """
    violations = []
    for split_name, (_, held_out) in SPLITS.items():
        if not os.path.exists(os.path.join(out_dir, DATASET_FILES[split_name])):
            continue
        kg = grounding(split, held_out)
        for lineno, inst in read_records(out_dir, split_name, kg):
            where = f"{split_name}:{lineno}"
            answers, hard = record_answers(split, held_out, inst.user, inst.requirement,
                                           oracle.answer_requirement(kg, inst.requirement))
            if inst.answers != answers:
                violations.append(f"{where}: answer sets disagree with oracle")
            if inst.hard != hard:
                violations.append(f"{where}: hard answer sets disagree with oracle")
    return violations


def read_records(data_dir: str, split_name: str,
                 kg: KnowledgeGraph) -> Iterator[tuple[int, RecInstance]]:
    """``(file line, instance of kg)`` of each record in ``split_name``'s
    JSON-lines file in ``data_dir``; blank lines are counted and skipped.

    A line that is not UTF-8 JSON, not a record of the form ``instance_to_record``
    writes, names an unknown entity or relation, has a user or answer of the
    wrong kind or hard answers without a joint one, declares a shape its query
    does not have or its split may not hold (``SPLITS``), lacks hard answers
    in a held-out split, or in the train split has hard answers or an empty
    answer set raises ``ArtifactMismatchError`` naming ``path:line``.
    """
    path = os.path.join(data_dir, DATASET_FILES[split_name])
    held_out = SPLITS[split_name][1]
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                inst = record_to_instance(parse_json(line, f"{path}:{lineno}"), kg)
                shape = classify_shape(inst.requirement)
                if shape != inst.shape:
                    raise ValueError(f"a {shape.value} query labelled "
                                     f"{inst.shape.value}")
                _checked_count(split_name, inst.shape, 1)
                if (inst.hard is not None) != held_out:
                    raise ValueError("a valid/test record without hard answers" if held_out
                                     else "a train record with hard answers")
                if held_out and not inst.hard[TASK_JOINT]:
                    raise ValueError("hard answers with an empty joint set")
                if not held_out and (empty := [t for t in TASKS if not inst.answers[t]]):
                    raise ValueError(f"a train record with an empty {empty[0]} answer set")
            except (ValueError, UnknownNameError) as exc:
                raise ArtifactMismatchError(f"{path}:{lineno}: {exc}") from None
            yield lineno, inst


def load_instances(data_dir: str, split_name: str,
                   kg: KnowledgeGraph) -> list[RecInstance]:
    """The instances :func:`read_records` reads."""
    return [inst for _, inst in read_records(data_dir, split_name, kg)]
