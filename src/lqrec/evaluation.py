"""Ranking evaluation: filtered ranks, hit@K / ndcg@K, per-shape report.

Inference scores every catalog item against the joint-task embedding. Each
target answer is ranked with all other known answers of its record removed
from the candidate list (the usual filtered protocol), ties broken by
ascending item id. Per-answer ndcg uses binary relevance: 1/log2(rank + 1)
inside the cutoff, else 0. Aggregation is mean over answers, then records,
then an unweighted mean over shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape
from .dataset import TASK_JOINT, RecInstance
from .kg import KnowledgeGraph
from .model import ModelParams, catalog_scores, embed_instance
from .query import ALL_SHAPES


@dataclass
class EvalReport:
    ks: tuple[int, ...]
    per_shape: dict[str, dict[str, float]]
    averages: dict[str, float]
    counts: dict[str, int] = field(default_factory=dict)
    variant: str = ""

    def metric_names(self) -> list[str]:
        return [f"hit@{k}" for k in self.ks] + [f"ndcg@{k}" for k in self.ks]

    def to_json_dict(self) -> dict:
        return {
            "ks": list(self.ks),
            "per_shape": self.per_shape,
            "avg": self.averages,
            "counts": self.counts,
            "variant": self.variant,
        }

    def to_text(self) -> str:
        cols = [s.value for s in ALL_SHAPES]
        header = f"{'metric':<9}" + "".join(f"{c:>8}" for c in cols) + f"{'avg':>8}"
        lines = [header]
        for metric in self.metric_names():
            cells = []
            for c in cols:
                v = self.per_shape.get(c, {}).get(metric)
                cells.append(f"{v:8.4f}" if v is not None else f"{'-':>8}")
            avg = self.averages.get(metric)
            avg_txt = f"{avg:8.4f}" if avg is not None else f"{'-':>8}"
            lines.append(f"{metric:<9}" + "".join(cells) + avg_txt)
        return "\n".join(lines) + "\n"


def filtered_rank(
    scores: np.ndarray,
    item_ids: np.ndarray,
    target: int,
    filter_out: frozenset[int],
) -> int:
    """1-based rank of ``target`` with other known answers removed.

    A competitor outranks the target when it scores strictly higher, or ties
    and has the smaller id.
    """
    pos = int(np.searchsorted(item_ids, target))
    target_score = scores[pos]
    keep = np.ones(len(item_ids), dtype=bool)
    if filter_out:
        drop = np.fromiter(
            (i for i in filter_out if i != target), dtype=np.int64, count=-1
        )
        if drop.size:
            keep[np.searchsorted(item_ids, np.sort(drop))] = False
    keep[pos] = False
    better = (scores > target_score) | (
        (scores == target_score) & (item_ids < target)
    )
    return 1 + int(np.count_nonzero(better & keep))


def rank_items(
    params: ModelParams,
    q_task: np.ndarray,
    item_ids,
    exclude: frozenset[int] = frozenset(),
    top_n: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(item ids, scores) by descending score, ties broken by ascending id.

    The catalog is scored once. With ``top_n`` only the first ``top_n`` of
    that order come back: ``argpartition`` picks the candidates, every item
    tied with the score at the cut stays in, and only those are sorted.
    """
    ids = np.asarray(item_ids, dtype=np.int64)
    scores = catalog_scores(params, q_task, ids)
    if exclude:
        keep = ~np.isin(ids, np.fromiter(exclude, dtype=np.int64))
        ids, scores = ids[keep], scores[keep]
    if top_n is not None and top_n < len(ids):
        cut = scores[np.argpartition(-scores, top_n - 1)[top_n - 1]]
        candidates = np.flatnonzero(scores >= cut)
        ids, scores = ids[candidates], scores[candidates]
    order = np.lexsort((ids, -scores))[:top_n]
    return ids[order], scores[order]


def _per_answer_metrics(rank: int, ks) -> dict[str, float]:
    out = {}
    for k in ks:
        out[f"hit@{k}"] = 1.0 if rank <= k else 0.0
        out[f"ndcg@{k}"] = 1.0 / math.log2(rank + 1) if rank <= k else 0.0
    return out


def evaluate(
    instances: list[RecInstance],
    params: ModelParams,
    kg: KnowledgeGraph,
    ks: tuple[int, ...] = (10, 20),
    target: str = "hard",
) -> EvalReport:
    """Score the catalog per record and aggregate ranking metrics per shape.

    All records embed in one batch (grouped by skeleton, no gradients); the
    catalog is then scored one record at a time.

    ``target="hard"`` ranks the held-out-only answers (test protocol) and
    requires every record to carry them; ``target="answers"`` ranks the
    record's known joint answers instead (train-fit diagnostics).
    """
    if target not in ("hard", "answers"):
        raise ValueError(f"unknown target {target!r}")
    item_ids = np.asarray(kg.sorted_items(), dtype=np.int64)
    metric_names = [f"hit@{k}" for k in ks] + [f"ndcg@{k}" for k in ks]
    by_shape: dict[str, dict[str, list[float]]] = {}

    records = []
    for inst in instances:
        if target == "hard":
            if inst.hard is None:
                raise ValueError(
                    "record lacks hard answers; evaluation on the hard target "
                    "requires a valid/test record"
                )
            targets = inst.hard[TASK_JOINT]
        else:
            targets = inst.answers[TASK_JOINT]
        if not targets:
            raise ValueError("record has no target answers to rank")
        known = inst.answers[TASK_JOINT]
        if inst.hard is not None:
            known = known | inst.hard[TASK_JOINT]
        records.append((inst.shape.value, targets, known))

    if instances:
        joint = embed_instance(Tape(record=False), params,
                               [inst.user for inst in instances],
                               [inst.requirement for inst in instances],
                               kg.like_rel)[TASK_JOINT].data
    # one record's catalog at a time: never a (records, items, d) array
    for row, (shape, targets, known) in enumerate(records):
        scores = catalog_scores(params, joint[row], item_ids)
        sums = dict.fromkeys(metric_names, 0.0)
        for answer in sorted(targets):
            rank = filtered_rank(scores, item_ids, answer, known)
            for name, value in _per_answer_metrics(rank, ks).items():
                sums[name] += value
        shape_bucket = by_shape.setdefault(
            shape, {name: [] for name in metric_names}
        )
        for name in metric_names:
            shape_bucket[name].append(sums[name] / len(targets))

    per_shape = {
        shape: {name: sum(vals) / len(vals) for name, vals in buckets.items()}
        for shape, buckets in by_shape.items()
    }
    averages = {
        name: sum(per_shape[s][name] for s in per_shape) / len(per_shape)
        for name in metric_names
    } if per_shape else {}
    counts = {
        shape: len(next(iter(buckets.values()))) for shape, buckets in by_shape.items()
    }
    return EvalReport(
        ks=tuple(ks),
        per_shape=per_shape,
        averages=averages,
        counts=counts,
        variant=params.variant,
    )
