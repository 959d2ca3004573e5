"""Exact query answering by graph traversal, and the easy/hard answer split.

A query node is evaluated *within* a candidate set: it returns only its
answers in that set, so it builds little more than its caller keeps (a
semi-join reduction, Bernstein & Chiu 1981). A requirement is evaluated
within the item catalog and a joint answer within the user's preference set.
An intersection evaluates its shallowest child first and each further child
within the running result. A projection whose candidate set is smaller than
its base (its child's answers over all entities) checks each candidate's
in-edges; otherwise it unions the base's tails. With a ``cap``, a projection
or union at the root stops as soon as it holds more answers than that.

On an incomplete graph the traversal is deliberately incomplete too: answers
that need a held-out edge are exactly the "hard" answers used for testing.
``record_answers`` is the one place that rule is written: per task, hard
answers are the full-graph answers minus the train-graph ("easy") ones. All
functions are pure and safe to run concurrently on a shared graph.
"""

from __future__ import annotations

from .kg import KgSplit, KnowledgeGraph
from .query import And, Anchor, Or, Project, QueryNode

TASK_JOINT = "joint"
TASK_REQ = "req"
TASK_PREF = "pref"
TASKS = (TASK_JOINT, TASK_REQ, TASK_PREF)


def _depth(q: QueryNode) -> int:
    if isinstance(q, Anchor):
        return 0
    return 1 + (_depth(q.child) if isinstance(q, Project) else max(map(_depth, q.children)))


def _project(kg: KnowledgeGraph, rel: int, base: frozenset[int],
             within: frozenset[int] | None, cap: int | None) -> frozenset[int] | None:
    """Tails of ``rel`` edges from ``base`` within ``within``; None once more
    than ``cap`` of them are found."""
    if within is not None and len(within) < len(base):
        # Keep each candidate with an in-edge of ``rel`` from ``base``.
        out = []
        for c, heads in kg.in_runs(within, rel):
            if not base.isdisjoint(heads):
                out.append(c)
                if cap is not None and len(out) > cap:
                    return None
        return frozenset(out)
    acc: set[int] = set()
    tails, none = kg.out_index.get, frozenset()
    for e in base:
        acc |= tails((e, rel), none)
        if cap is not None and len(acc) > cap:
            if within is not None:
                acc &= within  # so each later trim costs at most cap + one tail set
            if len(acc) > cap:
                return None
    return frozenset(acc) if within is None else within.intersection(acc)


def _eval(kg: KnowledgeGraph, q: QueryNode, within: frozenset[int] | None,
          cap: int | None = None) -> frozenset[int] | None:
    """Answers of ``q`` in ``within`` (all entities when None). With a
    ``cap``, None may stand for more than ``cap`` answers; an intersection
    ignores it."""
    if isinstance(q, Anchor):
        return frozenset((q.entity,)) if within is None or q.entity in within else frozenset()
    if isinstance(q, Project):
        return _project(kg, q.rel, _eval(kg, q.child, None), within, cap)
    if isinstance(q, And):
        first, *rest = sorted(q.children, key=_depth)
        acc = _eval(kg, first, within)
        for c in rest:
            if not acc:
                break
            acc = _eval(kg, c, acc)
        return acc
    if isinstance(q, Or):
        acc: set[int] = set()
        for c in q.children:
            part = _eval(kg, c, within, cap)
            if part is None:
                return None
            acc |= part
            if cap is not None and len(acc) > cap:
                return None
        return frozenset(acc)
    raise TypeError(f"not a query node: {q!r}")


def answer_requirement(kg: KnowledgeGraph, q: QueryNode,
                       cap: int | None = None) -> frozenset[int] | None:
    """Items satisfying the requirement; empty when unsatisfiable. With a
    ``cap``, None when there are more than ``cap`` of them."""
    a = _eval(kg, q, kg.items, cap)
    return None if a is None or (cap is not None and len(a) > cap) else a


def answer_preference(kg: KnowledgeGraph, u: int) -> frozenset[int]:
    """Items the user has an interaction edge to."""
    return kg.neighbors_out(u, kg.like_rel)


def answer_joint(kg: KnowledgeGraph, u: int, q: QueryNode) -> frozenset[int]:
    """Items satisfying both the requirement and the user's preference."""
    return _eval(kg, q, answer_preference(kg, u))


def grounding(split: KgSplit, held_out: bool) -> KnowledgeGraph:
    """The graph a record is grounded on: the full one if held out (valid/test)."""
    return split.full if held_out else split.train


def record_answers(split: KgSplit, held_out: bool, u: int, q: QueryNode, req: frozenset[int]
                   ) -> tuple[dict[str, frozenset[int]], dict[str, frozenset[int]] | None]:
    """``(answers, hard)`` per task of user ``u`` and requirement ``q``, given
    ``req``, the answers of ``q`` on its :func:`grounding`: for a train record
    its train-graph sets and None; for a held-out one the easy sets, reachable
    on the train graph, and the hard ones, the full-graph sets minus them."""
    pref = answer_preference(grounding(split, held_out), u)
    answers = {TASK_JOINT: req & pref, TASK_REQ: req, TASK_PREF: pref}
    if not held_out:
        return answers, None
    easy, _ = record_answers(split, False, u, q, answer_requirement(split.train, q))
    return easy, {task: answers[task] - easy[task] for task in TASKS}
