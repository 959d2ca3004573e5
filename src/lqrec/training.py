"""Multi-task training loop: negative sampling, logistic loss, Adam, early stop.

Each instance contributes one logistic-loss term per trained task (joint /
requirement / preference: those with a positive weight), built from the
logits of one positive and ``n_neg`` negatives drawn uniformly, with
replacement, from outside that task's known answer set: ``softplus(-z)``
for the positive and ``softplus(z)`` for each negative, averaged over the
1 + n_neg logits. This is the binary cross-entropy of their sigmoids. Task
terms are weighted and summed, then averaged over the batch. Every trained
task's answer set must be nonempty in every instance: the sets are packed
once per ``train`` call (``pack_answers``), which refuses an empty one, and
each step draws a whole batch's positives and negatives from that table in
a few array calls (``sample_negatives``), one block per trained task.

One ``np.random.Generator`` seeded from ``config.seed`` drives shuffling and
sampling: identical configs reproduce identical checkpoints bit for bit
under a fixed numpy version (numpy does not promise Generator streams across
versions).
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import autodiff
from .artifacts import atomic_write, write_json
from .autodiff import AdamState, Tape, Tensor, adam_step
from .dataset import RecInstance, at_least, read_key_values
from .evaluation import evaluate
from .kg import KnowledgeGraph
from .model import (VARIANTS, ModelParams, embed_instance, model_variant, score_items,
                    save_checkpoint)
from .oracle import TASKS


class DegenerateInstanceError(ValueError):
    """A trained task's answer set is empty (no positive) or covers the whole
    catalog (no negative)."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; diagnostics were dumped to ``dump_path``."""

    def __init__(self, message: str, dump_path: str | None = None):
        super().__init__(message)
        self.dump_path = dump_path


@dataclass
class TrainConfig:
    d: int = 64
    k: int = 4
    gamma: float = 12.0
    lr: float = 1e-3
    epochs: int = 100
    batch_size: int = 128
    n_neg: int = 32
    task_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    patience: int | None = 10
    variant: str = "mtl"
    seed: int | None = None
    eval_every: int = 1
    eval_k: int = 20
    stop_threshold: float | None = None

    def __post_init__(self):
        if not any(effective_task_weights(self.variant, _task_weights(self.task_weights))):
            raise ValueError(f"task_weights {tuple(self.task_weights)} leave variant "
                             f"{self.variant!r} no positive task weight")
        for key, floor in _INT_FLOORS.items():
            at_least(key, getattr(self, key), floor)
        for key in _FLOAT_KEYS:
            _checked_float(key, getattr(self, key))

    @classmethod
    def from_file(cls, path: str, **overrides) -> "TrainConfig":
        """Key=value config file; keyword overrides win over file values."""
        return cls(**{**read_key_values(path, _TRAIN_KEYS), **overrides})


def _task_weights(weights: Sequence[float]) -> tuple[float, ...]:
    """``weights`` as a tuple: three finite entries >= 0, not all 0; else ``ValueError``."""
    if len(weights) != 3:
        raise ValueError("task_weights must have three entries")
    if not all(math.isfinite(w) and w >= 0 for w in weights) or not any(weights):
        raise ValueError("task_weights must be finite and at least 0, and one "
                         f"must be positive, got {tuple(weights)}")
    return tuple(weights)


# The least value of each integer setting (``patience`` and ``seed`` may
# also be None).
_INT_FLOORS = {"d": 1, "k": 1, "batch_size": 1, "eval_every": 1, "eval_k": 1,
               "n_neg": 0, "epochs": 0, "patience": 0, "seed": 0}


# Real-valued settings must be finite, and these also positive.
_POSITIVE_FLOATS = ("gamma", "lr")
_FLOAT_KEYS = _POSITIVE_FLOATS + ("stop_threshold",)


def _checked_float(key: str, value: float | None) -> float | None:
    """``value`` unless it breaks ``key``'s rule above, else ``ValueError``;
    ``stop_threshold`` may also be None."""
    if value is None and key == "stop_threshold":
        return value
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value}")
    if key in _POSITIVE_FLOATS and value <= 0:
        raise ValueError(f"{key} must be positive, got {value}")
    return value


_TRAIN_KEYS: dict[str, Callable[[str], object]] = {
    **{key: lambda value, key=key, floor=floor: at_least(key, int(value), floor)
       for key, floor in _INT_FLOORS.items() if key != "patience"},
    **{key: lambda value, key=key: _checked_float(key, float(value))
       for key in _FLOAT_KEYS},
    "patience": lambda value: at_least("patience", None if value == "none" else int(value),
                                       _INT_FLOORS["patience"]),
    "task_weights": lambda value: _task_weights([float(p) for p in value.split(",")]),
    "variant": model_variant,
}


def effective_task_weights(variant: str, weights) -> tuple[float, float, float]:
    """``weights``, with 0 for each task that ``VARIANTS[variant]`` does not train."""
    trains = VARIANTS[model_variant(variant)].trains
    return tuple(float(w) if task in trains else 0.0 for task, w in zip(TASKS, weights))


class AnswerPack(NamedTuple):
    """The answer sets of the trained ``tasks`` of a training set as CSR arrays.

    Row ``len(tasks) * i + t`` holds instance i's answers for ``tasks[t]``,
    sorted and never empty, at ``answers[answer_start[r]:answer_start[r +
    1]]``. Its pool, ``items`` minus those answers, has ``pool[r]`` items.
    With ``taken`` the sorted catalog positions of the row's answers,
    ``shift_keys[answer_start[r] + k]`` is ``r * (len(items) + 1) + taken[k]
    - k``: pool index j is catalog position j plus the number of the row's
    keys up to ``r * (len(items) + 1) + j``.
    """

    tasks: tuple[str, ...]
    items: np.ndarray
    answers: np.ndarray
    answer_start: np.ndarray
    shift_keys: np.ndarray
    pool: np.ndarray


def pack_answers(instances: Sequence[RecInstance], items: Sequence[int],
                 weights: tuple[float, float, float], n_neg: int) -> AnswerPack:
    """Pack the answer sets of the tasks with a positive weight against the
    sorted catalog ``items``, which must hold every one of them (``ValueError``
    otherwise). An empty set leaves no positive, and with ``n_neg`` > 0 a set
    that covers the catalog leaves nothing to contrast: either raises
    ``DegenerateInstanceError`` naming the instance and task."""
    items = np.asarray(items, dtype=np.int64)
    tasks = tuple(task for task, weight in zip(TASKS, weights) if weight)
    sets = [inst.answers[task] for inst in instances for task in tasks]
    counts = np.fromiter(map(len, sets), np.int64, len(sets))
    flat = np.fromiter(chain.from_iterable(sets), np.int64, int(counts.sum()))
    row = np.repeat(np.arange(len(sets)), counts)
    taken = np.searchsorted(items, flat)
    found = taken < len(items)
    found[found] = items[taken[found]] == flat[found]
    if not found.all():
        i = min(np.flatnonzero(~found), key=lambda i: (row[i], flat[i]))
        inst, task = divmod(int(row[i]), len(tasks))
        raise ValueError(f"instance {inst}: {tasks[task]} answer {int(flat[i])} "
                         "is not a catalog item")
    span = len(items) + 1
    keys = np.sort(row * span + taken)  # each row's catalog positions, ascending
    answer_start = np.concatenate(([0], np.cumsum(counts)))
    pool = len(items) - counts
    degenerate = np.flatnonzero((counts == 0) | ((pool == 0) & (n_neg > 0)))
    if degenerate.size:
        inst, task = divmod(int(degenerate[0]), len(tasks))
        what = "is empty" if counts[degenerate[0]] == 0 else "covers the entire catalog"
        raise DegenerateInstanceError(f"instance {inst}: the {tasks[task]} answer "
                                      f"set {what}")
    return AnswerPack(tasks, items, items[keys - row * span], answer_start,
                      keys - (np.arange(len(keys)) - answer_start[row]), pool)


def _pool_items(pack: AnswerPack, rows: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Item ``picks[i, j]`` of pack row ``rows[i]``'s pool."""
    keys = rows[:, None] * (len(pack.items) + 1) + picks
    shift = np.searchsorted(pack.shift_keys, keys, side="right")
    return pack.items[picks + shift - pack.answer_start[rows, None]]


def sample_negatives(
    pack: AnswerPack, batch: np.ndarray, n_neg: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """One positive and ``n_neg`` negatives per instance of the batch (indices
    into the packed instances) and trained task, as ``{task: ids}``: one
    ``(len(batch), 1 + n_neg)`` block per task, row b for ``batch[b]``.

    ``ids[:, 0]`` is uniform over the row's answers and each of ``ids[:,
    1:]`` uniform over its pool, drawn with replacement. Pool indices map to
    items through the shift keys, so no negative is an answer.
    """
    n_tasks = len(pack.tasks)
    rows = (n_tasks * np.asarray(batch, dtype=np.int64)[:, None]
            + np.arange(n_tasks)).ravel()
    start, end = pack.answer_start[rows], pack.answer_start[rows + 1]
    ids = np.empty((len(rows), 1 + n_neg), dtype=np.int64)
    ids[:, 0] = pack.answers[start + rng.integers(0, end - start)]
    draws = rng.integers(0, pack.pool[rows, None], size=(len(rows), n_neg))
    ids[:, 1:] = _pool_items(pack, rows, draws)
    return {task: ids[t::n_tasks] for t, task in enumerate(pack.tasks)}


def compute_loss(
    tape: Tape,
    batch: Sequence[RecInstance],
    samples: dict[str, np.ndarray],
    params: ModelParams,
    kg: KnowledgeGraph,
    task_weights: tuple[float, float, float],
) -> Tensor:
    """Weighted multi-task logistic loss, averaged over the batch.

    ``samples`` is ``sample_negatives``'s ``{task: ids}``, a block of every
    batch row for each task it trains. The batch embeds those tasks only, in
    one ``embed_instance`` call; each task's tail is its block's logits (one
    ``score_items`` op) and their ``logistic_loss`` times the task's weight.
    An instance's term is the mean over its 1 + n_neg logits, so a task's
    mean term over the batch is the block's mean."""
    if not batch:
        raise ValueError("empty batch")
    task_emb = embed_instance(tape, params, [inst.user for inst in batch],
                              [inst.requirement for inst in batch], kg.like_rel,
                              tuple(samples))
    total: Tensor | None = None
    for task, ids in samples.items():
        term = tape.logistic_loss(score_items(tape, params, task_emb[task], ids),
                                  task_weights[TASKS.index(task)])
        total = term if total is None else tape.add(total, term)
    return total


@dataclass
class TrainResult:
    best_epoch: int
    best_metric: float | None
    epochs_run: int
    history: list[dict]
    checkpoint_path: str | None


def train(
    train_instances: list[RecInstance],
    params: ModelParams,
    kg: KnowledgeGraph,
    config: TrainConfig,
    valid_instances: list[RecInstance] | None = None,
    out_dir: str | None = None,
    valid_target: str = "hard",
) -> TrainResult:
    """Epoch loop with shuffled batches, Adam updates, and early stopping.

    Validation hit@``eval_k`` runs every ``eval_every`` epochs; the best
    checkpoint is retained (and restored into ``params`` on return). Training
    stops early when the no-improvement streak reaches ``patience`` or the
    validation metric reaches ``stop_threshold``. A non-finite loss aborts
    with a diagnostic dump. ``train_log.jsonl`` is written when the loop ends.
    ``config`` must describe ``params`` (same d, k, gamma and variant).
    """
    if differ := [f"{key} {getattr(config, key)!r} in the config, {getattr(params, key)!r} "
                  "in the params" for key in ("d", "k", "gamma", "variant")
                  if getattr(config, key) != getattr(params, key)]:
        raise ValueError("config does not describe the params: " + "; ".join(differ))
    if config.seed is None:
        raise ValueError("training requires an explicit seed")
    if not train_instances:
        raise ValueError("no training instances")
    rng = np.random.default_rng(config.seed)
    state = AdamState(params.named(), lr=config.lr)
    weights = effective_task_weights(config.variant, config.task_weights)
    pack = pack_answers(train_instances, kg.sorted_items(), weights, config.n_neg)
    metric_name = f"hit@{config.eval_k}"

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    history: list[dict] = []
    best_metric: float | None = None
    best_epoch = 0
    streak = 0
    epochs_run = 0
    try:
        for epoch in range(1, config.epochs + 1):
            epochs_run = epoch
            order = rng.permutation(len(train_instances))
            epoch_loss = 0.0
            for start in range(0, len(order), config.batch_size):
                chunk = order[start:start + config.batch_size]
                batch = [train_instances[idx] for idx in chunk]
                tape = Tape()  # frees the last step's graph before sampling
                params.zero_grads()
                samples = sample_negatives(pack, chunk, config.n_neg, rng)
                # a diverging step overflows; the non-finite loss, not a
                # numpy warning, reports it
                with np.errstate(over="ignore", invalid="ignore"):
                    loss = compute_loss(tape, batch, samples, params, kg, weights)
                    loss_value = float(loss.data)
                    if not math.isfinite(loss_value):
                        info = {
                            "epoch": epoch,
                            "batch_start": start,
                            "loss": repr(loss_value),
                            "param_norms": {
                                name: float(np.abs(t.data).max())
                                for name, t in params.named().items()
                            },
                        }
                        path = out_dir and os.path.join(out_dir, "divergence.json")
                        if path:
                            write_json(path, info)
                        raise TrainingDivergedError(
                            f"non-finite loss at epoch {epoch}", dump_path=path
                        )
                    autodiff.backward(tape, loss)
                    adam_step(params.named(), state)
                epoch_loss += loss_value * len(chunk)
            entry = {"epoch": epoch, "loss": epoch_loss / len(order)}
            validated = valid_instances and epoch % config.eval_every == 0
            if validated:
                report = evaluate(valid_instances, params, kg,
                                  ks=(config.eval_k,), target=valid_target)
                metric = report.averages.get(metric_name, 0.0)
                entry["val_" + metric_name] = metric
                if best_metric is None or metric > best_metric:
                    best_metric = metric
                    best_epoch = epoch
                    best_snap = {name: t.data.copy() for name, t in params.named().items()}
                    streak = 0
                else:
                    streak += 1
            history.append(entry)
            if validated and (
                    (config.stop_threshold is not None
                     and metric >= config.stop_threshold)
                    or (config.patience is not None and streak >= config.patience)):
                break
    finally:
        if out_dir is not None:
            with atomic_write(os.path.join(out_dir, "train_log.jsonl")) as f:
                f.write("".join(json.dumps(entry, sort_keys=True) + "\n"
                                for entry in history).encode("utf-8"))

    if valid_instances and best_metric is not None:
        for name, t in params.named().items():
            t.data[...] = best_snap[name]
    else:
        best_epoch = epochs_run

    checkpoint_path = None
    if out_dir is not None:
        checkpoint_path = os.path.join(out_dir, "checkpoint_best.ckpt")
        save_checkpoint(params, checkpoint_path)
    return TrainResult(
        best_epoch=best_epoch,
        best_metric=best_metric,
        epochs_run=epochs_run,
        history=history,
        checkpoint_path=checkpoint_path,
    )
