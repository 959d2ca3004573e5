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

_SHAPE_BY_NAME = {s.value: s for s in QueryShape}


def shape_from_name(name: str) -> QueryShape:
    try:
        return _SHAPE_BY_NAME[name]
    except KeyError:
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


def _parse_node(r: _Reader, kg: KnowledgeGraph) -> QueryNode:
    r.skip_ws()
    open_pos = r.pos
    r.expect("(")
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
        child = _parse_node(r, kg)
        node = Project(kg.relation_vocab.id_of(name), child)
    elif head in ("and", "or"):
        children = []
        while True:
            r.skip_ws()
            if r.peek() == ")":
                break
            if r.peek() != "(":
                raise QuerySyntaxError("expected a subquery", r.pos)
            children.append(_parse_node(r, kg))
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


def _is_1p(q: QueryNode) -> bool:
    return isinstance(q, Project) and isinstance(q.child, Anchor)


def _is_2p(q: QueryNode) -> bool:
    return isinstance(q, Project) and _is_1p(q.child)


def _is_3p(q: QueryNode) -> bool:
    return isinstance(q, Project) and _is_2p(q.child)


def classify_shape(q: QueryNode) -> QueryShape:
    """Exact template match against the nine-shape taxonomy.

    Invariant under child order of intersections/unions; anything that does
    not match a template is ``UNCLASSIFIED``.
    """
    if isinstance(q, Project):
        if _is_1p(q):
            return QueryShape.ONE_P
        if _is_2p(q):
            return QueryShape.TWO_P
        if _is_3p(q):
            return QueryShape.THREE_P
        inner = q.child
        if isinstance(inner, And) and len(inner.children) == 2 and all(
            _is_1p(c) for c in inner.children
        ):
            return QueryShape.IP
        if isinstance(inner, Or) and len(inner.children) == 2 and all(
            _is_1p(c) for c in inner.children
        ):
            return QueryShape.UP
        return QueryShape.UNCLASSIFIED
    if isinstance(q, And):
        kids = q.children
        if len(kids) == 2 and all(_is_1p(c) for c in kids):
            return QueryShape.TWO_I
        if len(kids) == 3 and all(_is_1p(c) for c in kids):
            return QueryShape.THREE_I
        if len(kids) == 2:
            flags = sorted((_is_1p(c), _is_2p(c)) for c in kids)
            if flags == [(False, True), (True, False)]:
                return QueryShape.PI
        return QueryShape.UNCLASSIFIED
    if isinstance(q, Or):
        if len(q.children) == 2 and all(_is_1p(c) for c in q.children):
            return QueryShape.TWO_U
        return QueryShape.UNCLASSIFIED
    return QueryShape.UNCLASSIFIED

