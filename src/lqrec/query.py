"""Requirement query AST: s-expression syntax, canonical form, shape taxonomy.

Concrete syntax::

    query := (p REL query) | (and query query ...) | (or query query ...)
           | (e NAME)

Names resolve against a graph's vocabularies. A valid requirement ends in a
projection, intersection, or union; a bare anchor is rejected at the root.
Intersection and union nodes keep their children sorted by serialized form,
so structurally equal queries always serialize to the same text.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Union

from .kg import NAME_SEPARATORS, KnowledgeGraph


class QuerySyntaxError(ValueError):
    """Parse failure; ``offset`` is the character index in the input text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Anchor:
    entity: int


@dataclass(frozen=True)
class Project:
    rel: int
    child: "QueryNode"


@dataclass(frozen=True)
class And:
    children: tuple["QueryNode", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("intersection needs at least 2 children")


@dataclass(frozen=True)
class Or:
    children: tuple["QueryNode", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("union needs at least 2 children")


QueryNode = Union[Anchor, Project, And, Or]


class QueryShape(enum.Enum):
    """Template taxonomy; the last four only ever appear at evaluation time."""

    ONE_P = "1p"
    TWO_P = "2p"
    THREE_P = "3p"
    TWO_I = "2i"
    THREE_I = "3i"
    IP = "ip"
    PI = "pi"
    TWO_U = "2u"
    UP = "up"
    UNCLASSIFIED = "other"


BASIC_SHAPES = (
    QueryShape.ONE_P,
    QueryShape.TWO_P,
    QueryShape.THREE_P,
    QueryShape.TWO_I,
    QueryShape.THREE_I,
)
ZERO_SHOT_SHAPES = (QueryShape.IP, QueryShape.PI, QueryShape.TWO_U, QueryShape.UP)
ALL_SHAPES = BASIC_SHAPES + ZERO_SHOT_SHAPES


def shape_from_name(name: str) -> QueryShape:
    try:
        return QueryShape(name)
    except ValueError:
        raise ValueError(f"unknown query shape {name!r}") from None


def serialize_query(q: QueryNode, kg: KnowledgeGraph) -> str:
    """Canonical s-expression text; injective on canonical nodes."""
    if isinstance(q, Anchor):
        return f"(e {kg.entity_vocab.name_of(q.entity)})"
    if isinstance(q, Project):
        return f"(p {kg.relation_vocab.name_of(q.rel)} {serialize_query(q.child, kg)})"
    if isinstance(q, And):
        inner = " ".join(serialize_query(c, kg) for c in q.children)
        return f"(and {inner})"
    if isinstance(q, Or):
        inner = " ".join(serialize_query(c, kg) for c in q.children)
        return f"(or {inner})"
    raise TypeError(f"not a query node: {q!r}")


def canonicalize(q: QueryNode, kg: KnowledgeGraph) -> QueryNode:
    """Sort intersection/union children recursively by their serialized text."""
    if isinstance(q, Anchor):
        return q
    if isinstance(q, Project):
        return Project(q.rel, canonicalize(q.child, kg))
    children = tuple(canonicalize(c, kg) for c in q.children)
    children = tuple(sorted(children, key=lambda c: serialize_query(c, kg)))
    return type(q)(children)


# The parser recurses once per level; the deepest template has 4 levels.
MAX_QUERY_DEPTH = 64


# A token is a parenthesis or a maximal run of name characters; the
# separators between tokens are dropped.
_TOKEN = re.compile("[()]|[^" + re.escape(NAME_SEPARATORS) + "]+")


def _offset(text: str, i: int) -> int:
    """Where token ``i`` of ``text`` starts; ``len(text)`` past the last."""
    return ([m.start() for m in _TOKEN.finditer(text)] + [len(text)])[i]


def _parse_node(text: str, tokens: list[str], i: int, kg: KnowledgeGraph,
                depth: int = 1) -> tuple[QueryNode, int]:
    """The node whose ``(`` is ``tokens[i]``, and the index after its ``)``;
    ``tokens`` ends in ``""``, which is not a name either (``"" in "()"``)."""
    if tokens[i] != "(":
        raise QuerySyntaxError("expected '('", _offset(text, i))
    if depth > MAX_QUERY_DEPTH:
        raise QuerySyntaxError(f"query nested deeper than {MAX_QUERY_DEPTH} levels",
                               _offset(text, i))
    open_i, head = i, tokens[i + 1]
    if head in "()":
        raise QuerySyntaxError("expected a name", _offset(text, i + 1))
    i += 2
    if head in ("e", "p"):
        kind, vocab = (("entity", kg.entity_vocab) if head == "e"
                       else ("relation", kg.relation_vocab))
        if tokens[i] in "()":
            raise QuerySyntaxError("expected a name", _offset(text, i))
        if tokens[i] not in vocab:
            raise QuerySyntaxError(f"unknown {kind} {tokens[i]!r}", _offset(text, i))
        ident = vocab.id_of(tokens[i])
        if head == "e":
            node: QueryNode = Anchor(ident)
            i += 1
        else:
            child, i = _parse_node(text, tokens, i + 1, kg, depth + 1)
            node = Project(ident, child)
    elif head in ("and", "or"):
        children = []
        while tokens[i] != ")":
            if tokens[i] != "(":
                raise QuerySyntaxError("expected a subquery", _offset(text, i))
            child, i = _parse_node(text, tokens, i, kg, depth + 1)
            children.append(child)
        if len(children) < 2:
            raise QuerySyntaxError(f"({head} ...) needs at least 2 children",
                                   _offset(text, open_i))
        node = And(tuple(children)) if head == "and" else Or(tuple(children))
    else:
        raise QuerySyntaxError(f"expected one of p/and/or/e, got {head!r}",
                               _offset(text, open_i) + 1)
    if tokens[i] != ")":
        raise QuerySyntaxError("expected ')'", _offset(text, i))
    return node, i + 1


def parse_query(text: str, kg: KnowledgeGraph) -> QueryNode:
    """Parse and canonicalize a requirement query.

    Bare anchors are rejected at the root: a requirement must end in a
    projection, intersection, or union.
    """
    tokens = _TOKEN.findall(text) + [""]
    node, i = _parse_node(text, tokens, 0, kg)
    if i != len(tokens) - 1:
        raise QuerySyntaxError("trailing input after query", _offset(text, i))
    if isinstance(node, Anchor):
        raise QuerySyntaxError("a bare anchor is not a requirement", 0)
    return canonicalize(node, kg)


# One row per shape: the shape's skeleton (see ``skeleton``). Children are
# listed in the order ``dataset.sample_requirement`` grounds them; the
# children of an intersection are projections.
_1P = ("p", ("e",))
_2P = ("p", _1P)
SHAPE_TEMPLATES: dict[QueryShape, tuple] = {
    QueryShape.ONE_P: _1P,
    QueryShape.TWO_P: _2P,
    QueryShape.THREE_P: ("p", _2P),
    QueryShape.TWO_I: ("and", (_1P, _1P)),
    QueryShape.THREE_I: ("and", (_1P, _1P, _1P)),
    QueryShape.IP: ("p", ("and", (_1P, _1P))),
    QueryShape.PI: ("and", (_2P, _1P)),
    QueryShape.TWO_U: ("or", (_1P, _1P)),
    QueryShape.UP: ("p", ("or", (_1P, _1P))),
}


def skeleton(q: QueryNode, ids: list[int] | None = None) -> tuple:
    """The query's structure with its ids erased: ``("e",)``,
    ``("p", child)`` or ``("and"|"or", children)``.

    Children keep their order, so the two child orders of a shape are two
    skeletons. When given, ``ids`` receives the anchor and relation ids,
    children before the projection that applies to them.
    """
    if ids is None:
        ids = []
    if isinstance(q, Anchor):
        ids.append(q.entity)
        return ("e",)
    if isinstance(q, Project):
        child = skeleton(q.child, ids)
        ids.append(q.rel)
        return ("p", child)
    if isinstance(q, (And, Or)):
        kind = "and" if isinstance(q, And) else "or"
        return (kind, tuple(skeleton(c, ids) for c in q.children))
    raise TypeError(f"not a query node: {q!r}")


def _unordered(skel: tuple) -> tuple:
    """``skel`` with the children of every intersection and union sorted."""
    if skel[0] == "e":
        return skel
    if skel[0] == "p":
        return ("p", _unordered(skel[1]))
    return (skel[0], tuple(sorted(_unordered(c) for c in skel[1])))


_SHAPE_OF_SKELETON = {_unordered(t): shape for shape, t in SHAPE_TEMPLATES.items()}


def classify_shape(q: QueryNode) -> QueryShape:
    """Exact template match against ``SHAPE_TEMPLATES``.

    Invariant under child order of intersections/unions; anything that does
    not match a template is ``UNCLASSIFIED``.
    """
    return _SHAPE_OF_SKELETON.get(_unordered(skeleton(q)), QueryShape.UNCLASSIFIED)
