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
from dataclasses import dataclass
from typing import Union

from .kg import KnowledgeGraph


class QuerySyntaxError(ValueError):
    """Parse failure; ``offset`` is the byte position in the input text."""

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


class _Reader:
    """Cursor over the input with byte offsets for error reporting."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise QuerySyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def token(self) -> str:
        start = self.pos
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c.isspace() or c in "()":
                break
            self.pos += 1
        if self.pos == start:
            raise QuerySyntaxError("expected a name", start)
        return self.text[start:self.pos]


def _parse_node(r: _Reader, kg: KnowledgeGraph, depth: int = 1) -> QueryNode:
    r.skip_ws()
    open_pos = r.pos
    r.expect("(")
    if depth > MAX_QUERY_DEPTH:
        raise QuerySyntaxError(
            f"query nested deeper than {MAX_QUERY_DEPTH} levels", open_pos
        )
    r.skip_ws()
    head = r.token()
    if head == "e":
        r.skip_ws()
        name_pos = r.pos
        name = r.token()
        if name not in kg.entity_vocab:
            raise QuerySyntaxError(f"unknown entity {name!r}", name_pos)
        node: QueryNode = Anchor(kg.entity_vocab.id_of(name))
    elif head == "p":
        r.skip_ws()
        name_pos = r.pos
        name = r.token()
        if name not in kg.relation_vocab:
            raise QuerySyntaxError(f"unknown relation {name!r}", name_pos)
        child = _parse_node(r, kg, depth + 1)
        node = Project(kg.relation_vocab.id_of(name), child)
    elif head in ("and", "or"):
        children = []
        while True:
            r.skip_ws()
            if r.peek() == ")":
                break
            if r.peek() != "(":
                raise QuerySyntaxError("expected a subquery", r.pos)
            children.append(_parse_node(r, kg, depth + 1))
        if len(children) < 2:
            raise QuerySyntaxError(
                f"({head} ...) needs at least 2 children", open_pos
            )
        node = And(tuple(children)) if head == "and" else Or(tuple(children))
    else:
        raise QuerySyntaxError(
            f"expected one of p/and/or/e, got {head!r}", open_pos + 1
        )
    r.skip_ws()
    r.expect(")")
    return node


def parse_query(text: str, kg: KnowledgeGraph) -> QueryNode:
    """Parse and canonicalize a requirement query.

    Bare anchors are rejected at the root: a requirement must end in a
    projection, intersection, or union.
    """
    r = _Reader(text)
    node = _parse_node(r, kg)
    r.skip_ws()
    if r.pos != len(r.text):
        raise QuerySyntaxError("trailing input after query", r.pos)
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
