"""Traversal answers vs direct truth-table enumeration of the query formula."""

import random
from collections import defaultdict

from lqrec.dataset import SamplingError, sample_requirement
from lqrec.kg import graph_from_names, split_edges
from lqrec.oracle import (TASK_JOINT, TASK_PREF, TASK_REQ, TASKS, answer_joint,
                          answer_preference, answer_requirement, answer_sets,
                          hard_answers)
from lqrec.query import ALL_SHAPES, And, Anchor, Or, Project, parse_query
from lqrec.synth import random_graph


def brute_force_answers(kg, q):
    """Independent oracle: evaluate the query formula per item by recursion
    over raw triples, with existential variables enumerated directly."""
    in_map = defaultdict(list)
    for h, r, t in kg.triples:
        in_map[(r, t)].append(h)
    memo = {}

    def truth(node, target):
        key = (node, target)
        if key in memo:
            return memo[key]
        if isinstance(node, Anchor):
            result = target == node.entity
        elif isinstance(node, Project):
            result = any(truth(node.child, h) for h in in_map[(node.rel, target)])
        elif isinstance(node, And):
            result = all(truth(c, target) for c in node.children)
        elif isinstance(node, Or):
            result = any(truth(c, target) for c in node.children)
        else:
            raise TypeError(node)
        memo[key] = result
        return result

    return frozenset(i for i in kg.items if truth(q, i))


def random_shaped_query(kg, shape, rng):
    """Shape template with uniformly random anchors/relations; answers are
    often empty, which exercises the unsatisfiable paths."""
    ents = list(range(kg.n_entities))
    rels = list(range(kg.n_relations))

    def p(child):
        return Project(rng.choice(rels), child)

    def leaf():
        return p(Anchor(rng.choice(ents)))

    by_shape = {
        "1p": leaf,
        "2p": lambda: p(leaf()),
        "3p": lambda: p(p(leaf())),
        "2i": lambda: And((leaf(), leaf())),
        "3i": lambda: And((leaf(), leaf(), leaf())),
        "ip": lambda: p(And((leaf(), leaf()))),
        "pi": lambda: And((p(leaf()), leaf())),
        "2u": lambda: Or((leaf(), leaf())),
        "up": lambda: p(Or((leaf(), leaf()))),
    }
    return by_shape[shape.value]()


def test_intersection_example():
    kg = graph_from_names(
        [("a", "r1", "x"), ("b", "r2", "x"), ("a", "r1", "y"),
         ("u", "likes", "x")],
        ["x", "y"], ["u"], "likes",
    )
    q = parse_query("(and (p r1 (e a)) (p r2 (e b)))", kg)
    x = kg.entity_vocab.id_of("x")
    assert answer_requirement(kg, q) == {x}
    assert answer_requirement(kg, q) == brute_force_answers(kg, q)


def test_union_example():
    kg = graph_from_names(
        [("a", "r1", "x"), ("b", "r2", "x"), ("a", "r1", "y"),
         ("u", "likes", "x")],
        ["x", "y"], ["u"], "likes",
    )
    q = parse_query("(or (p r1 (e a)) (p r2 (e b)))", kg)
    x, y = kg.entity_vocab.id_of("x"), kg.entity_vocab.id_of("y")
    assert answer_requirement(kg, q) == {x, y}
    assert answer_requirement(kg, q) == brute_force_answers(kg, q)


def test_projection_over_empty_child(tiny_kg):
    q = parse_query("(p r1 (p r2 (e z)))", tiny_kg)
    assert answer_requirement(tiny_kg, q) == frozenset()


def test_preference(tiny_kg):
    ev = tiny_kg.entity_vocab.id_of
    assert answer_preference(tiny_kg, ev("u1")) == {ev("x"), ev("z")}
    assert answer_preference(tiny_kg, ev("u2")) == {ev("y")}


def test_preference_is_one_hop_query(tiny_kg):
    # preference must equal the explicit one-hop query through the like edge
    for name in ("u1", "u2"):
        u = tiny_kg.entity_vocab.id_of(name)
        q = Project(tiny_kg.like_rel, Anchor(u))
        assert answer_preference(tiny_kg, u) == (
            frozenset(tiny_kg.items) & brute_force_answers(tiny_kg, q)
        )


def test_joint_is_intersection(tiny_kg):
    ev = tiny_kg.entity_vocab.id_of
    q = parse_query("(p r1 (e a))", tiny_kg)  # {x, y}
    assert answer_joint(tiny_kg, ev("u1"), q) == {ev("x")}
    assert answer_joint(tiny_kg, ev("u2"), q) == {ev("y")}
    # disjoint operands yield the empty set
    q2 = parse_query("(p r2 (e b))", tiny_kg)  # {x, z}, u2 likes only y
    assert answer_joint(tiny_kg, ev("u2"), q2) == frozenset()
    # always a subset of each operand
    joint = answer_joint(tiny_kg, ev("u1"), q)
    assert joint <= answer_requirement(tiny_kg, q)
    assert joint <= answer_preference(tiny_kg, ev("u1"))


def test_intermediate_variables_not_item_filtered():
    # the middle hop passes through a non-item entity
    kg = graph_from_names(
        [("a", "r1", "m"), ("m", "r2", "x"), ("u", "likes", "x")],
        ["x"], ["u"], "likes",
    )
    q = parse_query("(p r2 (p r1 (e a)))", kg)
    assert answer_requirement(kg, q) == {kg.entity_vocab.id_of("x")}


def test_oracle_equals_brute_force_random():
    rng = random.Random(123)
    for trial in range(8):
        kg = random_graph(
            n_entities=30, n_triples=140, n_relations=4, n_items=10,
            n_users=4, seed=trial,
        )
        for shape in ALL_SHAPES:
            for _ in range(6):
                q = random_shaped_query(kg, shape, rng)
                assert answer_requirement(kg, q) == brute_force_answers(kg, q)


def test_monotonicity_under_edge_addition():
    rng = random.Random(9)
    kg_small = random_graph(n_entities=25, n_triples=80, seed=1)
    rows = [
        (
            kg_small.entity_vocab.name_of(t.head),
            kg_small.relation_vocab.name_of(t.rel),
            kg_small.entity_vocab.name_of(t.tail),
        )
        for t in kg_small.triples
    ]
    extra = rows + [("e1", "r0", "e2"), ("e3", "r1", "e4"), ("e5", "r2", "e0")]
    kg_big = graph_from_names(
        extra,
        [kg_small.entity_vocab.name_of(i) for i in sorted(kg_small.items)],
        [kg_small.entity_vocab.name_of(u) for u in sorted(kg_small.users)],
        "likes",
    )
    for shape in ALL_SHAPES:
        for _ in range(5):
            q = random_shaped_query(kg_small, shape, rng)
            assert answer_requirement(kg_small, q) <= answer_requirement(kg_big, q)


def test_shared_subquery_object_matches_fresh_copies(world_split):
    # evaluating a query that reuses one subtree object must equal evaluating
    # a structurally identical tree built from fresh nodes
    kg = world_split.full
    rng = random.Random(2)
    for _ in range(20):
        try:
            sub = sample_requirement(kg, ALL_SHAPES[0], rng)
        except SamplingError:
            continue
        shared = Or((sub, Project(0, sub)))
        fresh = Or(
            (
                Project(sub.rel, Anchor(sub.child.entity)),
                Project(0, Project(sub.rel, Anchor(sub.child.entity))),
            )
        )
        assert answer_requirement(kg, shared) == answer_requirement(kg, fresh)


def full_and_hard_answers(split, u, q):
    full = answer_sets(split.full, u, answer_requirement(split.full, q))
    return full, *hard_answers(split, u, q, full)


def test_hard_answers(world_split):
    rng = random.Random(31)
    split = world_split
    found_hard = {task: 0 for task in TASKS}
    for _ in range(300):
        try:
            q = sample_requirement(split.full, ALL_SHAPES[rng.randrange(9)], rng)
        except SamplingError:
            continue
        for u in sorted(split.full.users):
            full, easy, hard = full_and_hard_answers(split, u, q)
            for kg, sets in ((split.full, full), (split.train, easy)):
                assert sets == {TASK_JOINT: answer_joint(kg, u, q),
                                TASK_REQ: answer_requirement(kg, q),
                                TASK_PREF: answer_preference(kg, u)}
            for task in TASKS:
                assert easy[task] & hard[task] == frozenset()
                assert easy[task] | hard[task] == full[task]
                found_hard[task] += bool(hard[task])
    assert all(found_hard.values())


def test_hard_answer_via_held_out_edge():
    rows = [("a", "r1", "x"), ("a", "r1", "y"), ("a", "r1", "z"),
            ("b", "r1", "x"), ("b", "r1", "y"), ("b", "r1", "z"),
            ("u", "likes", "x"), ("u", "likes", "y"), ("u", "likes", "z"),
            ("v", "likes", "x"), ("v", "likes", "y")]
    kg = graph_from_names(rows, ["x", "y", "z"], ["u", "v"], "likes")
    q = parse_query("(p r1 (e a))", kg)
    u = kg.entity_vocab.id_of("u")
    # find a seed whose hold-out removes a (a, r1, *) or (u, likes, *) edge
    for seed in range(200):
        split = split_edges(kg, 0.2, seed)
        _, easy, hard = full_and_hard_answers(split, u, q)
        if hard[TASK_JOINT]:
            for item in hard[TASK_JOINT]:
                assert item not in answer_joint(split.train, u, q)
                assert item in answer_joint(split.full, u, q)
            return
    raise AssertionError("no split produced a hard answer")
