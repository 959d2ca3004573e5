import random

import pytest

from lqrec.query import (
    ALL_SHAPES,
    MAX_QUERY_DEPTH,
    And,
    Anchor,
    Or,
    Project,
    QueryShape,
    QuerySyntaxError,
    canonicalize,
    classify_shape,
    parse_query,
    serialize_query,
)
from lqrec.dataset import SamplingError, sample_requirement


def q(text, kg):
    return parse_query(text, kg)


def sample_with_retry(kg, shape, rng, budget=200):
    for _ in range(budget):
        try:
            return sample_requirement(kg, shape, rng)
        except SamplingError:
            continue
    raise AssertionError(f"could not sample a {shape.value} query")


def test_parse_pi_example(tiny_kg):
    node = q("(and (p r2 (p r1 (e a))) (p r2 (e b)))", tiny_kg)
    assert classify_shape(node) == QueryShape.PI


def test_bare_anchor_rejected(tiny_kg):
    with pytest.raises(QuerySyntaxError):
        q("(e a)", tiny_kg)


def test_syntax_error_offset(tiny_kg):
    with pytest.raises(QuerySyntaxError) as exc:
        q("(p r1 (e a)", tiny_kg)
    assert exc.value.offset == 11


def test_nesting_limit(tiny_kg):
    def chain(levels):
        return "(p r1 " * (levels - 1) + "(e a)" + ")" * (levels - 1)

    assert isinstance(q(chain(MAX_QUERY_DEPTH), tiny_kg), Project)
    for levels in (MAX_QUERY_DEPTH + 1, 2000):
        with pytest.raises(QuerySyntaxError, match="nested deeper") as exc:
            q(chain(levels), tiny_kg)
        assert exc.value.offset == MAX_QUERY_DEPTH * len("(p r1 ")
    # children of and/or count a level too: the projections sit at 65
    ors = MAX_QUERY_DEPTH - 1
    text = "(or " * ors + "(and (p r1 (e a)) (p r2 (e b)))" + " (e c))" * ors
    with pytest.raises(QuerySyntaxError, match="nested deeper"):
        q(text, tiny_kg)


def test_unknown_entity(tiny_kg):
    with pytest.raises(QuerySyntaxError, match="unknown entity"):
        q("(p r1 (e nosuch))", tiny_kg)


def test_unknown_relation(tiny_kg):
    with pytest.raises(QuerySyntaxError, match="unknown relation"):
        q("(p nosuch (e a))", tiny_kg)


def test_and_arity(tiny_kg):
    with pytest.raises(QuerySyntaxError, match="at least 2"):
        q("(and (p r1 (e a)))", tiny_kg)


def test_trailing_garbage(tiny_kg):
    with pytest.raises(QuerySyntaxError, match="trailing"):
        q("(p r1 (e a)) extra", tiny_kg)


def test_whitespace_insensitive(tiny_kg):
    a = q("(p r1 (e a))", tiny_kg)
    b = q("  ( p   r1\n\t( e   a ) )  ", tiny_kg)
    assert a == b


def test_serialize_one_p(tiny_kg):
    node = q("(p r1 (e a))", tiny_kg)
    assert serialize_query(node, tiny_kg) == "(p r1 (e a))"


def test_canonical_child_order(tiny_kg):
    a = q("(and (p r1 (e a)) (p r2 (e b)))", tiny_kg)
    b = q("(and (p r2 (e b)) (p r1 (e a)))", tiny_kg)
    assert a == b
    assert serialize_query(a, tiny_kg) == serialize_query(b, tiny_kg)


def test_classify_templates(tiny_kg):
    ev = tiny_kg.entity_vocab.id_of
    rv = tiny_kg.relation_vocab.id_of
    a, b, r1, r2 = ev("a"), ev("b"), rv("r1"), rv("r2")
    p1 = Project(r1, Anchor(a))
    cases = [
        (p1, QueryShape.ONE_P),
        (Project(r2, p1), QueryShape.TWO_P),
        (Project(r1, Project(r2, p1)), QueryShape.THREE_P),
        (And((p1, Project(r2, Anchor(b)))), QueryShape.TWO_I),
        (And((p1, Project(r2, Anchor(b)), Project(r2, Anchor(a)))),
         QueryShape.THREE_I),
        (Project(r1, And((p1, Project(r2, Anchor(b))))), QueryShape.IP),
        (And((Project(r2, p1), Project(r2, Anchor(b)))), QueryShape.PI),
        (Or((p1, Project(r2, Anchor(b)))), QueryShape.TWO_U),
        (Project(r2, Or((p1, Project(r2, Anchor(b))))), QueryShape.UP),
    ]
    for node, expected in cases:
        assert classify_shape(node) == expected, expected
    p2 = Project(r2, p1)
    near_misses = [
        And((p1, And((p1, p1)))),
        Or((p1, p1, Project(r2, Anchor(b)))),  # 3-branch union
        Project(r1, Project(r2, p2)),  # 4p chain
        Project(r1, And((p1, p1, Project(r2, Anchor(b))))),  # ip over three
        And((p2, Project(r1, p1))),  # pi with two 2p branches
        Project(r1, Or((p1, And((p1, p1))))),  # up over an intersection
        And((p1, Or((p1, Project(r2, Anchor(b)))))),  # or inside an and
        Anchor(a),
    ]
    for node in near_misses:
        assert classify_shape(node) == QueryShape.UNCLASSIFIED, node


def test_classify_invariant_under_reordering(tiny_kg):
    ev = tiny_kg.entity_vocab.id_of
    rv = tiny_kg.relation_vocab.id_of
    two_p = Project(rv("r2"), Project(rv("r1"), Anchor(ev("a"))))
    one_p = Project(rv("r2"), Anchor(ev("b")))
    assert classify_shape(And((two_p, one_p))) == QueryShape.PI
    assert classify_shape(And((one_p, two_p))) == QueryShape.PI


def test_roundtrip_random_queries(world):
    # parse(serialize(q)) == q over backward-sampled queries of all shapes
    rng = random.Random(37)
    for shape in ALL_SHAPES:
        for _ in range(25):
            node = sample_with_retry(world, shape, rng)
            text = serialize_query(node, world)
            assert parse_query(text, world) == node
            # serializing is stable (no object-identity leakage)
            assert serialize_query(parse_query(text, world), world) == text


def test_canonicalize_idempotent(world):
    rng = random.Random(5)
    for shape in ALL_SHAPES:
        node = sample_with_retry(world, shape, rng)
        assert canonicalize(node, world) == node
