"""Multi-task training loop: negative sampling, BCE loss, Adam, early stop.

Each instance contributes one binary cross-entropy term per active task
(joint / requirement / preference), built from one positive and ``n_neg``
uniform negatives disjoint from that task's known answer set, averaged over
the 1 + n_neg scores. Task terms are weighted and summed, then averaged over
the batch. Everything is driven by a single seeded RNG: identical configs
reproduce identical checkpoints bit for bit.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff
from .autodiff import AdamState, Tape, Tensor, adam_step
from .dataset import TASKS, RecInstance, read_key_values
from .evaluation import evaluate
from .kg import KnowledgeGraph
from .model import ModelParams, embed_instance, model_variant, score_items, save_checkpoint


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
        _task_weights(self.task_weights)

    @classmethod
    def from_file(cls, path: str, **overrides) -> "TrainConfig":
        """Key=value config file; keyword overrides win over file values."""
        return cls(**{**read_key_values(path, _TRAIN_KEYS), **overrides})


def _task_weights(weights: Sequence[float]) -> tuple[float, ...]:
    """``weights`` as a tuple if it has one entry per task, else ``ValueError``."""
    if len(weights) != 3:
        raise ValueError("task_weights must have three entries")
    return tuple(weights)


_TRAIN_KEYS: dict[str, Callable[[str], object]] = {
    **dict.fromkeys(("d", "k", "epochs", "batch_size", "n_neg", "eval_every",
                     "eval_k", "seed"), int),
    **dict.fromkeys(("gamma", "lr", "stop_threshold"), float),
    "patience": lambda value: None if value == "none" else int(value),
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


class _NegativePool(Sequence):
    """``items`` minus an answer set, as a read-only view.

    Element j is found by bisecting the sorted positions of the answers in
    ``items``: the view costs O(|answers| log |items|) to build and
    O(log |answers|) per element, where the pool as a list costs O(|items|).
    """

    def __init__(self, items: Sequence[int], answers: frozenset[int]):
        self._items = items
        n = len(items)
        taken = sorted(p for a in answers
                       if (p := bisect.bisect_left(items, a)) < n and items[p] == a)
        # shifts[k] = kept items before the k-th excluded position
        self._shifts = [pos - k for k, pos in enumerate(taken)]
        self._len = n - len(taken)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, j: int) -> int:
        if not 0 <= j < self._len:
            raise IndexError(j)
        return self._items[j + bisect.bisect_right(self._shifts, j)]


def sample_negatives(
    task_answers: frozenset[int],
    items: Sequence[int],
    n_neg: int,
    rng: random.Random,
) -> list[int]:
    """Uniform negatives outside the answer set, without replacement when the
    pool allows it, with replacement otherwise.

    ``items`` must be sorted and distinct (``KnowledgeGraph.sorted_items``).
    The pool is a lazy view of ``items`` minus the answers; ``rng`` sees the
    same population as with the pool built as a list, so the draws are the
    same.
    """
    if n_neg == 0:
        return []
    pool = _NegativePool(items, task_answers)
    if not pool:
        raise DegenerateInstanceError("answer set covers the entire catalog")
    if len(pool) >= n_neg:
        return rng.sample(pool, n_neg)
    return [pool[rng.randrange(len(pool))] for _ in range(n_neg)]


def _instance_samples(
    inst: RecInstance,
    items: Sequence[int],
    n_neg: int,
    weights: tuple[float, float, float],
    rng: random.Random,
) -> dict[str, tuple[int, list[int]]]:
    samples = {}
    for task, weight in zip(TASKS, weights):
        if weight == 0.0:
            continue
        answers = sorted(inst.answers[task])
        if not answers:
            continue
        pos = answers[rng.randrange(len(answers))]
        negs = sample_negatives(inst.answers[task], items, n_neg, rng)
        samples[task] = (pos, negs)
    return samples


def compute_loss(
    tape: Tape,
    batch: list[tuple[RecInstance, dict[str, tuple[int, list[int]]]]],
    params: ModelParams,
    kg: KnowledgeGraph,
    task_weights: tuple[float, float, float],
) -> Tensor:
    """Weighted multi-task BCE, averaged over the batch.

    The whole batch embeds in one ``embed_instance`` call. Each task then
    scores all its (positive, negatives) rows in one ``score_items`` call;
    an instance's term is the mean over its 1 + n_neg scores, so a task's
    summed terms are its (rows x scores) mean times its row count.
    """
    if not batch:
        raise ValueError("empty batch")
    weight_by_task = dict(zip(TASKS, task_weights))
    task_emb = embed_instance(tape, params, [inst.user for inst, _ in batch],
                              [inst.requirement for inst, _ in batch],
                              kg.like_rel)
    # (task, ids per row) -> (batch rows, [pos, *negs] per row)
    groups: dict[tuple[str, int], tuple[list[int], list[list[int]]]] = {}
    for row, (_, samples) in enumerate(batch):
        tasks = [task for task in samples if task in task_emb]
        if not tasks:
            raise ValueError("instance contributed no loss terms")
        for task in tasks:
            pos, negs = samples[task]
            rows, ids = groups.setdefault((task, 1 + len(negs)), ([], []))
            rows.append(row)
            ids.append([pos, *negs])
    total: Tensor | None = None
    for (task, width), (rows, ids) in groups.items():
        q_task = task_emb[task]
        if len(rows) < len(batch):
            q_task = tape.gather(q_task, rows)
        probs = score_items(tape, params, q_task, ids)
        labels = np.zeros((len(rows), width))
        labels[:, 0] = 1.0
        bce = tape.bce_loss(probs, Tensor(labels))
        term = tape.scale_shift(
            bce, weight_by_task[task] * len(rows) / len(batch), 0.0)
        total = term if total is None else tape.add(total, term)
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


def _dump_divergence(out_dir: str | None, info: dict) -> str | None:
    if out_dir is None:
        return None
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "divergence.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(info, f, indent=2, sort_keys=True)
    return path


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
    with a diagnostic dump.
    """
    if config.seed is None:
        raise ValueError("training requires an explicit seed")
    if not train_instances:
        raise ValueError("no training instances")
    rng = random.Random(config.seed)
    state = AdamState(params.named(), lr=config.lr)
    weights = effective_task_weights(params.variant, config.task_weights)
    items = kg.sorted_items()
    metric_name = f"hit@{config.eval_k}"

    log_file = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        log_file = open(os.path.join(out_dir, "train_log.jsonl"), "w",
                        encoding="utf-8")

    history: list[dict] = []
    best_metric: float | None = None
    best_epoch = 0
    best_snap = _snapshot(params)
    streak = 0
    epochs_run = 0
    try:
        for epoch in range(1, config.epochs + 1):
            epochs_run = epoch
            order = rng.sample(range(len(train_instances)), len(train_instances))
            epoch_loss = 0.0
            for start in range(0, len(order), config.batch_size):
                chunk = order[start:start + config.batch_size]
                batch = []
                for idx in chunk:
                    inst = train_instances[idx]
                    batch.append(
                        (inst, _instance_samples(inst, items, config.n_neg,
                                                 weights, rng))
                    )
                tape = Tape()
                params.zero_grads()
                loss = compute_loss(tape, batch, params, kg, weights)
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
                    path = _dump_divergence(out_dir, info)
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
            if log_file:
                log_file.write(json.dumps(entry, sort_keys=True) + "\n")
            if validated and (
                    (config.stop_threshold is not None
                     and metric >= config.stop_threshold)
                    or (config.patience is not None and streak >= config.patience)):
                break
    finally:
        if log_file:
            log_file.close()

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
