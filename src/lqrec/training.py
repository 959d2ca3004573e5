"""Multi-task training loop: negative sampling, BCE loss, Adam, early stop.

Each instance contributes one binary cross-entropy term per active task
(joint / requirement / preference), built from one positive and ``n_neg``
uniform negatives disjoint from that task's known answer set, averaged over
the 1 + n_neg scores. Task terms are weighted and summed, then averaged over
the batch. Every answer set is packed once per ``train`` call
(``pack_answers``), and each step draws a whole batch's positives and
negatives from that table in a few array calls (``sample_negatives``).

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
from .dataset import RecInstance, read_key_values
from .evaluation import evaluate
from .kg import KnowledgeGraph
from .model import ModelParams, embed_instance, model_variant, score_items, save_checkpoint
from .oracle import TASKS


class DegenerateInstanceError(ValueError):
    """A task's answer set covers the whole catalog; nothing to contrast."""


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
        model_variant(self.variant)
        if not any(effective_task_weights(self.variant, _task_weights(self.task_weights))):
            raise ValueError(f"task_weights {tuple(self.task_weights)} leave variant "
                             f"{self.variant!r} no positive task weight")
        for key in _INT_FLOORS:
            _checked_int(key, getattr(self, key))
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


def _checked_int(key: str, value: int | None) -> int | None:
    """``value`` unless it is below ``key``'s floor, else ``ValueError``."""
    if value is not None and value < _INT_FLOORS[key]:
        raise ValueError(f"{key} must be at least {_INT_FLOORS[key]}, got {value}")
    return value


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
    **{key: lambda value, key=key: _checked_int(key, int(value))
       for key in _INT_FLOORS if key != "patience"},
    **{key: lambda value, key=key: _checked_float(key, float(value))
       for key in _FLOAT_KEYS},
    "patience": lambda value: _checked_int("patience", None if value == "none" else int(value)),
    "task_weights": lambda value: _task_weights([float(p) for p in value.split(",")]),
    "variant": model_variant,
}


def effective_task_weights(variant: str, weights) -> tuple[float, float, float]:
    w = tuple(float(x) for x in weights)
    if variant == "single-task":
        return (w[0], 0.0, 0.0)
    if variant == "no-al":
        return (w[0], 0.0, w[2])
    if variant == "no-au":
        return (w[0], w[1], 0.0)
    return w


class AnswerPack(NamedTuple):
    """The (instance, task) answer sets of a training set as CSR arrays.

    Row ``3 * i + t`` holds instance i's answers for ``TASKS[t]`` (none when
    the task's weight is 0), sorted, at ``answers[answer_start[r]:
    answer_start[r + 1]]``. Its pool, ``items`` minus those answers, has
    ``pool[r]`` items. With ``taken`` the sorted catalog positions of the
    row's answers, ``shift_keys[answer_start[r] + k]`` is ``r * (len(items)
    + 1) + taken[k] - k``: pool index j is catalog position j plus the
    number of the row's keys up to ``r * (len(items) + 1) + j``.
    """

    items: np.ndarray
    answers: np.ndarray
    answer_start: np.ndarray
    shift_keys: np.ndarray
    pool: np.ndarray


def pack_answers(instances: Sequence[RecInstance], items: Sequence[int],
                 weights: tuple[float, float, float], n_neg: int) -> AnswerPack:
    """Pack against the sorted catalog ``items``, which must hold every
    weighted answer (``ValueError`` otherwise). A weighted answer set that
    covers the catalog leaves nothing to contrast: with ``n_neg`` > 0 it
    raises ``DegenerateInstanceError``."""
    items = np.asarray(items, dtype=np.int64)
    sets = [inst.answers[task] if weight else ()
            for inst in instances for task, weight in zip(TASKS, weights)]
    counts = np.fromiter(map(len, sets), np.int64, len(sets))
    flat = np.fromiter(chain.from_iterable(sets), np.int64, int(counts.sum()))
    row = np.repeat(np.arange(len(sets)), counts)
    answers = flat[np.lexsort((flat, row))]
    if (outside := np.isin(answers, items, invert=True)).any():
        i = int(outside.argmax())
        inst, task = divmod(int(row[i]), 3)
        raise ValueError(f"instance {inst}: {TASKS[task]} answer {int(answers[i])} "
                         "is not a catalog item")
    taken = np.searchsorted(items, answers)
    answer_start = np.concatenate(([0], np.cumsum(counts)))
    shift = taken - (np.arange(len(taken)) - answer_start[row])
    pool = len(items) - counts
    degenerate = np.flatnonzero((counts > 0) & (pool == 0))
    if n_neg and degenerate.size:
        inst, task = divmod(int(degenerate[0]), 3)
        raise DegenerateInstanceError(f"instance {inst}: the {TASKS[task]} answer "
                                      "set covers the entire catalog")
    return AnswerPack(items, answers, answer_start, row * (len(items) + 1) + shift, pool)


def _first_distinct(draws: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``n`` distinct values of each row in draw order, for the rows
    that have ``n`` (the returned mask)."""
    order = np.argsort(draws, axis=1, kind="stable")
    ranked = np.take_along_axis(draws, order, axis=1)
    keep = np.ones(draws.shape, dtype=bool)
    np.put_along_axis(keep, order[:, 1:], ranked[:, 1:] != ranked[:, :-1], axis=1)
    keep &= np.cumsum(keep, axis=1) <= n
    full = keep.sum(axis=1) == n
    return draws[full][keep[full]].reshape(-1, n), full


def _pool_items(pack: AnswerPack, rows: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Item ``picks[i, j]`` of pack row ``rows[i]``'s pool."""
    keys = rows[:, None] * (len(pack.items) + 1) + picks
    shift = np.searchsorted(pack.shift_keys, keys, side="right")
    return pack.items[picks + shift - pack.answer_start[rows, None]]


def sample_negatives(
    pack: AnswerPack, batch: np.ndarray, n_neg: int, rng: np.random.Generator
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """One positive and ``n_neg`` negatives per non-empty row of the batch
    (indices into the packed instances), as ``{task: (batch rows, ids)}``.

    ``ids[:, 0]`` is uniform over the row's answers and ``ids[:, 1:]`` over
    its pool, without replacement if the pool has ``n_neg`` items and with
    replacement otherwise. Pool indices map to items through the shift keys,
    so no negative is an answer; rows short of distinct draws are redrawn at
    twice the width.
    """
    local = np.arange(3 * len(batch))
    rows = 3 * np.asarray(batch, dtype=np.int64).repeat(3) + local % 3
    start, end = pack.answer_start[rows], pack.answer_start[rows + 1]
    rows, local, start, end = (a[end > start] for a in (rows, local, start, end))
    ids = np.empty((len(rows), 1 + n_neg), dtype=np.int64)
    ids[:, 0] = pack.answers[start + rng.integers(0, end - start)]
    if n_neg:
        pool, width = pack.pool[rows], n_neg + n_neg // 2 + 4
        draws = rng.integers(0, pool[:, None], size=(len(rows), width))
        picks = draws[:, :n_neg].copy()  # kept by rows with pool < n_neg
        todo = np.flatnonzero(pool >= n_neg)
        draws = draws[todo]
        while todo.size:
            got, full = _first_distinct(draws, n_neg)
            picks[todo[full]] = got
            todo, width = todo[~full], 2 * width
            if todo.size:
                draws = rng.integers(0, pool[todo, None], size=(len(todo), width))
        ids[:, 1:] = _pool_items(pack, rows, picks)
    task = local % 3
    return {name: (local[task == t] // 3, ids[task == t])
            for t, name in enumerate(TASKS) if (task == t).any()}


def compute_loss(
    tape: Tape,
    batch: Sequence[RecInstance],
    samples: dict[str, tuple[np.ndarray, np.ndarray]],
    params: ModelParams,
    kg: KnowledgeGraph,
    task_weights: tuple[float, float, float],
) -> Tensor:
    """Weighted multi-task BCE, averaged over the batch.

    ``samples`` is ``sample_negatives``'s ``{task: (batch rows, ids)}``.
    The batch embeds in one ``embed_instance`` call and each task scores its
    rows in one ``score_items`` call. An instance's term is the mean over its
    1 + n_neg scores, so a task's summed terms are its (rows x scores) mean
    times its row count.
    """
    if not batch:
        raise ValueError("empty batch")
    task_emb = embed_instance(tape, params, [inst.user for inst in batch],
                              [inst.requirement for inst in batch], kg.like_rel)
    covered = np.zeros(len(batch), dtype=bool)
    total: Tensor | None = None
    for task, weight in zip(TASKS, task_weights):
        rows, ids = samples.get(task, ((), ()))
        if task not in task_emb or not len(rows):
            continue
        covered[rows] = True
        q_task = task_emb[task]
        if len(rows) < len(batch):
            q_task = tape.gather(q_task, rows)
        probs = score_items(tape, params, q_task, ids)
        labels = np.zeros(probs.shape)
        labels[:, 0] = 1.0
        bce = tape.bce_loss(probs, Tensor(labels))
        term = tape.scale_shift(bce, weight * len(rows) / len(batch), 0.0)
        total = term if total is None else tape.add(total, term)
    if not covered.all():
        raise ValueError("instance contributed no loss terms")
    return total


@dataclass
class TrainResult:
    best_epoch: int
    best_metric: float | None
    epochs_run: int
    history: list[dict]
    checkpoint_path: str | None


def _snapshot(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in params.named().items()}


def _restore(params: ModelParams, snap: dict[str, np.ndarray]) -> None:
    for name, t in params.named().items():
        t.data[...] = snap[name]


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
    """
    if config.seed is None:
        raise ValueError("training requires an explicit seed")
    if not train_instances:
        raise ValueError("no training instances")
    rng = np.random.default_rng(config.seed)
    state = AdamState(params.named(), lr=config.lr)
    weights = effective_task_weights(params.variant, config.task_weights)
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
                    best_snap = _snapshot(params)
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
        _restore(params, best_snap)
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
