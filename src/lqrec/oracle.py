"""Exact query answering by graph traversal, and the easy/hard answer split.

Evaluation is bottom-up over the AST. Intermediate variable sets range over
all entities; only the root result is filtered to the item catalog. On an
incomplete graph the traversal is deliberately incomplete too: answers that
need a held-out edge are exactly the "hard" answers used for testing.
``hard_answers`` is the one place that rule is written: per task, the
full-graph answers minus the train-graph ones. All functions are pure and
safe to run concurrently on a shared graph.
"""

from __future__ import annotations

from .kg import KgSplit, KnowledgeGraph
from .query import And, Anchor, Or, Project, QueryNode

TASK_JOINT = "joint"
TASK_REQ = "req"
TASK_PREF = "pref"
TASKS = (TASK_JOINT, TASK_REQ, TASK_PREF)


def _eval_entities(kg: KnowledgeGraph, q: QueryNode) -> frozenset[int]:
    if isinstance(q, Anchor):
        return frozenset((q.entity,))
    if isinstance(q, Project):
        base = _eval_entities(kg, q.child)
        out: set[int] = set()
        for e in base:
            out |= kg.neighbors_out(e, q.rel)
        return frozenset(out)
    if isinstance(q, And):
        sets = [_eval_entities(kg, c) for c in q.children]
        sets.sort(key=len)
        acc = sets[0]
        for s in sets[1:]:
            acc &= s
            if not acc:
                break
        return acc
    if isinstance(q, Or):
        acc: set[int] = set()
        for c in q.children:
            acc |= _eval_entities(kg, c)
        return frozenset(acc)
    raise TypeError(f"not a query node: {q!r}")


def answer_requirement(kg: KnowledgeGraph, q: QueryNode) -> frozenset[int]:
    """Items satisfying the requirement; empty when unsatisfiable."""
    return _eval_entities(kg, q) & kg.items


def answer_preference(kg: KnowledgeGraph, u: int) -> frozenset[int]:
    """Items the user has an interaction edge to."""
    return kg.neighbors_out(u, kg.like_rel) & kg.items


def answer_joint(kg: KnowledgeGraph, u: int, q: QueryNode) -> frozenset[int]:
    """Items satisfying both the requirement and the user's preference."""
    return answer_requirement(kg, q) & answer_preference(kg, u)


def answer_sets(kg: KnowledgeGraph, u: int,
                req: frozenset[int]) -> dict[str, frozenset[int]]:
    """The answer set of each task for user ``u`` on ``kg``, given ``req``,
    the requirement's answers on ``kg``."""
    pref = answer_preference(kg, u)
    return {TASK_JOINT: req & pref, TASK_REQ: req, TASK_PREF: pref}


def hard_answers(split: KgSplit, u: int, q: QueryNode, full: dict[str, frozenset[int]]
                 ) -> tuple[dict[str, frozenset[int]], dict[str, frozenset[int]]]:
    """(easy, hard) answer sets per task of user ``u`` and requirement ``q``,
    given ``full``, their :func:`answer_sets` on the full graph: easy ones
    are reachable on the train graph, hard ones only with held-out edges."""
    easy = answer_sets(split.train, u, answer_requirement(split.train, q))
    return easy, {task: full[task] - easy[task] for task in TASKS}
