"""Ranking evaluation: filtered ranks, hit@K / ndcg@K, per-shape report.

Inference scores every catalog item against the joint-task embedding, from
a ``model.Catalog`` (the item embeddings as a column table) built once per
``evaluate`` call, so the table is never gathered per record. ``evaluate``
scores its records in blocks of ``SCORE_BLOCK // n_items``, one
``catalog_scores`` call per block, and ranks each record's row. Each target
answer is ranked with all other known answers of its record removed
from the candidate list (the usual filtered protocol), ties broken by
ascending item id. Per-answer ndcg uses binary relevance: 1/log2(rank + 1)
inside the cutoff, else 0. Aggregation is mean over answers, then records,
then an unweighted mean over shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import EAGER
from .dataset import RecInstance
from .kg import KnowledgeGraph
from .model import Catalog, ModelParams, catalog_scores, embed_instance
from .oracle import TASK_JOINT
from .query import ALL_SHAPES

# Scores per ``evaluate`` block: one ``catalog_scores`` call scores
# SCORE_BLOCK // n_items records (at least one), so its (B, n_items)
# accumulator and sigmoid temporaries (256 KB each) stay in the L2 cache.
SCORE_BLOCK = 2**15


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


def filtered_rank(scores: np.ndarray, item_ids: np.ndarray, targets: np.ndarray,
                  known: np.ndarray) -> np.ndarray:
    """1-based rank of each target among the catalog minus ``known``.

    ``targets`` is a subset of ``known``, so every target has the same
    competitors, and one pass ranks them all. A competitor outranks a target
    when it scores strictly higher, or ties and has the smaller id.
    """
    keep = np.ones(len(item_ids), dtype=bool)
    keep[np.searchsorted(item_ids, known)] = False
    rivals, rival_ids = scores[keep], item_ids[keep]
    mine = scores[np.searchsorted(item_ids, targets)][:, None]
    better = (rivals > mine) | ((rivals == mine) & (rival_ids < targets[:, None]))
    return 1 + np.count_nonzero(better, axis=1)


def rank_items(
    catalog: Catalog,
    q_task: np.ndarray,
    top_n: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(item ids, scores) by descending score, ties broken by ascending id.

    The catalog is scored once. With ``top_n`` only the first ``top_n`` of
    that order come back: ``argpartition`` picks the candidates, every item
    tied with the score at the cut stays in, and only those are sorted.
    """
    ids = catalog.ids
    scores = catalog_scores(catalog, q_task)
    if top_n is not None and top_n < len(ids):
        cut = scores[np.argpartition(-scores, top_n - 1)[top_n - 1]]
        candidates = np.flatnonzero(scores >= cut)
        ids, scores = ids[candidates], scores[candidates]
    order = np.lexsort((ids, -scores))[:top_n]
    return ids[order], scores[order]


def _record_metrics(ranks: list[int], ks) -> dict[str, float]:
    """hit@k and ndcg@k of one record: the mean over its targets' ranks."""
    out = {}
    for k in ks:
        hits = dcg = 0.0
        for rank in ranks:
            if rank <= k:
                hits += 1.0
                dcg += 1.0 / math.log2(rank + 1)
        out[f"hit@{k}"] = hits / len(ranks)
        out[f"ndcg@{k}"] = dcg / len(ranks)
    return out


def evaluate(
    instances: list[RecInstance],
    params: ModelParams,
    kg: KnowledgeGraph,
    ks: tuple[int, ...] = (10, 20),
    target: str = "hard",
) -> EvalReport:
    """Score the catalog per record and aggregate ranking metrics per shape.

    All records embed in one batch on ``EAGER`` (grouped by skeleton, no
    tape). One ``Catalog`` of the current parameters is built per call (never
    kept across calls: training changes the parameters between them). The
    records score it in blocks of ``SCORE_BLOCK // n_items``, one
    ``catalog_scores`` call per block, and each record ranks its row.

    ``target="hard"`` ranks the held-out-only answers (test protocol) and
    requires every record to carry them; ``target="answers"`` ranks the
    record's known joint answers instead (train-fit diagnostics). Each
    cutoff in ``ks`` must be at least 1 and appear once.
    """
    if target not in ("hard", "answers"):
        raise ValueError(f"unknown target {target!r}")
    if min(ks, default=1) < 1 or len(set(ks)) < len(ks):
        raise ValueError(f"cutoffs must be distinct and at least 1, got {list(ks)}")
    catalog = Catalog(params, kg.sorted_items())
    item_ids = catalog.ids
    if instances:
        joint = embed_instance(EAGER, params, [inst.user for inst in instances],
                               [inst.requirement for inst in instances],
                               kg.like_rel)[TASK_JOINT]
    block = max(1, SCORE_BLOCK // max(1, len(item_ids)))
    by_shape: dict[str, list[dict[str, float]]] = {}
    for row, inst in enumerate(instances):
        if row % block == 0:
            scores = catalog_scores(catalog, joint[row:row + block])
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
        ranks = filtered_rank(scores[row % block], item_ids,
                              np.array(sorted(targets)),
                              np.array(sorted(known))).tolist()
        by_shape.setdefault(inst.shape.value, []).append(_record_metrics(ranks, ks))

    metric_names = [f"hit@{k}" for k in ks] + [f"ndcg@{k}" for k in ks]
    per_shape = {
        shape: {name: sum(m[name] for m in rows) / len(rows) for name in metric_names}
        for shape, rows in by_shape.items()
    }
    averages = {
        name: sum(per_shape[s][name] for s in per_shape) / len(per_shape)
        for name in metric_names
    } if per_shape else {}
    return EvalReport(
        ks=tuple(ks),
        per_shape=per_shape,
        averages=averages,
        counts={shape: len(rows) for shape, rows in by_shape.items()},
        variant=params.variant,
    )
