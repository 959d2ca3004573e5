"""Ranking evaluation: filtered ranks, hit@K / ndcg@K, per-shape report.

``evaluate`` builds one ``model.Catalog`` (the item embeddings as a column
table) per call and works in blocks of ``SCORE_BLOCK // n_items`` records:
one ``catalog_scores`` call scores a block and one ``filtered_rank`` call
ranks all its targets. Each target is ranked with the other known answers
of its record removed from the candidates (the usual filtered protocol),
ties broken by ascending item id. Per-answer ndcg is 1/log2(rank + 1)
inside the cutoff, else 0 (binary relevance). Aggregation is mean over
answers, then records, then an unweighted mean over shapes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import EAGER
from .dataset import RecInstance
from .kg import KnowledgeGraph
from .model import Catalog, ModelParams, catalog_scores, embed_instance
from .oracle import TASK_JOINT
from .query import ALL_SHAPES, QueryShape

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

    @staticmethod
    def metric_names(ks: tuple[int, ...]) -> list[str]:
        return [f"hit@{k}" for k in ks] + [f"ndcg@{k}" for k in ks]

    def to_json_dict(self) -> dict:
        return {
            "ks": list(self.ks),
            "per_shape": self.per_shape,
            "avg": self.averages,
            "counts": self.counts,
            "variant": self.variant,
        }

    def to_text(self) -> str:
        cols = [s.value for s in QueryShape if s in ALL_SHAPES or s.value in self.per_shape]
        header = f"{'metric':<9}" + "".join(f"{c:>8}" for c in cols) + f"{'avg':>8}"
        lines = [header]
        for metric in self.metric_names(self.ks):
            cells = []
            for c in cols:
                v = self.per_shape.get(c, {}).get(metric)
                cells.append(f"{v:8.4f}" if v is not None else f"{'-':>8}")
            avg = self.averages.get(metric)
            avg_txt = f"{avg:8.4f}" if avg is not None else f"{'-':>8}"
            lines.append(f"{metric:<9}" + "".join(cells) + avg_txt)
        return "\n".join(lines) + "\n"


def filtered_rank(scores: np.ndarray, item_ids: np.ndarray, targets, known,
                  *, first: int = 0) -> np.ndarray:
    """1-based rank of each target among the catalog minus its record's known ids.

    ``scores`` is a ``(B, n_items)`` block with one collection of target ids
    and one of known ids per row, or one row with one of each. Ranks come
    back in record order, each record's by ascending id. A rival outranks a
    target if it scores higher, or ties with a smaller id, and is not known.
    Pass ``j`` ranks every record's ``j``-th target. ``ValueError`` names an
    id missing from ``item_ids`` and its record, counted from ``first``."""
    if scores.ndim == 1:
        return filtered_rank(scores[None], item_ids, [targets], [known], first=first)
    lens = [*map(len, targets), *map(len, known)]
    rows = np.repeat(np.tile(np.arange(len(scores)), 2), lens)  # each id's record
    ids = np.fromiter(itertools.chain(*targets, *known), np.int64, len(rows))
    n = sum(lens[:len(scores)])  # the target ids come first, then the known ids
    ids[:n] = ids[np.lexsort((ids[:n], rows[:n]))]  # ascending within each record
    pos = np.searchsorted(item_ids, ids)
    found = pos < len(item_ids)
    found[found] = item_ids[pos[found]] == ids[found]
    if not found.all():
        bad = np.argmin(found)
        raise ValueError(f"record {first + rows[bad]}: answer {ids[bad]} is not a catalog item")
    rivals = scores.astype(float)
    rivals[rows[n:], pos[n:]] = np.nan  # compares false: never outranks
    counts = np.array(lens[:len(scores)], dtype=np.intp)
    ranks, starts = np.empty(n, dtype=np.intp), np.cumsum(counts) - counts
    for j in range(counts.max(initial=0)):
        row = np.flatnonzero(counts > j)
        at = pos[starts[row] + j]
        mine = scores[row, at][:, None]
        theirs = rivals if len(row) == len(rivals) else rivals[row]
        better = (theirs > mine).sum(axis=1, dtype=np.uint32)
        if (tied := theirs == mine).any():  # a tie outranks from a smaller id only
            tie, tie_at = np.divmod(np.flatnonzero(tied), theirs.shape[1])
            better = better + np.bincount(tie[tie_at < at[tie]], minlength=len(row))
        ranks[starts[row] + j] = 1 + better
    return ranks


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


def check_cutoffs(ks: tuple[int, ...]) -> tuple[int, ...]:
    """``ks`` if every cutoff is at least 1 and appears once, else ``ValueError``."""
    if min(ks, default=1) < 1 or len(set(ks)) < len(ks):
        raise ValueError(f"cutoffs must be distinct and at least 1, got {list(ks)}")
    return ks


def evaluate(instances: list[RecInstance], params: ModelParams, kg: KnowledgeGraph,
             ks: tuple[int, ...] = (10, 20), target: str = "hard") -> EvalReport:
    """Score the catalog per block of records and aggregate ranking metrics per shape.

    All records embed in one batch on ``EAGER`` (grouped by skeleton, no
    tape). One ``Catalog`` of the current parameters is built per call (never
    kept across calls: training changes the parameters between them). Each
    block of ``SCORE_BLOCK // n_items`` records takes one ``catalog_scores``
    and one ``filtered_rank`` call.

    ``target="hard"`` ranks the held-out-only answers (test protocol) and
    requires every record to carry them; ``target="answers"`` ranks the
    record's known joint answers instead (train-fit diagnostics). Each
    cutoff in ``ks`` must be at least 1 and appear once.
    """
    if target not in ("hard", "answers"):
        raise ValueError(f"unknown target {target!r}")
    check_cutoffs(ks)
    if target == "hard" and any(inst.hard is None for inst in instances):
        raise ValueError("record lacks hard answers; evaluation on the hard "
                         "target requires a valid/test record")
    answers = [inst.answers[TASK_JOINT] for inst in instances]
    hard = [frozenset() if inst.hard is None else inst.hard[TASK_JOINT] for inst in instances]
    targets = hard if target == "hard" else answers
    if not all(targets):
        raise ValueError("record has no target answers to rank")
    known = [a | h for a, h in zip(answers, hard)]
    catalog = Catalog(params, kg.sorted_items())
    if instances:
        joint = embed_instance(EAGER, params, [inst.user for inst in instances],
                               [inst.requirement for inst in instances],
                               kg.like_rel, (TASK_JOINT,))[TASK_JOINT]
    block = max(1, SCORE_BLOCK // max(1, len(catalog.ids)))
    by_shape: dict[str, list[dict[str, float]]] = {}
    for start in range(0, len(instances), block):
        ranks = iter(filtered_rank(catalog_scores(catalog, joint[start:start + block]),
                                   catalog.ids, targets[start:start + block],
                                   known[start:start + block], first=start).tolist())
        for inst, ids in zip(instances[start:start + block], targets[start:start + block]):
            by_shape.setdefault(inst.shape.value, []).append(
                _record_metrics(list(itertools.islice(ranks, len(ids))), ks))

    names = EvalReport.metric_names(ks)
    per_shape = {shape: {n: sum(m[n] for m in rows) / len(rows) for n in names}
                 for shape, rows in by_shape.items()}
    averages = {n: sum(m[n] for m in per_shape.values()) / len(per_shape)
                for n in names} if per_shape else {}
    return EvalReport(ks=tuple(ks), per_shape=per_shape, averages=averages,
                      counts={shape: len(rows) for shape, rows in by_shape.items()},
                      variant=params.variant)
