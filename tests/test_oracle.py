"""Traversal answers vs direct truth-table enumeration of the query formula."""

import random
from collections import defaultdict

import pytest

from lqrec import oracle
from lqrec.dataset import SamplingError, sample_requirement
from lqrec.kg import graph_from_names, split_edges
from lqrec.oracle import (TASK_JOINT, TASK_PREF, TASK_REQ, TASKS, answer_joint,
                          answer_preference, answer_requirement, record_answers)
from lqrec.query import ALL_SHAPES, And, Anchor, Or, Project, parse_query
from lqrec.synth import clustered_world, random_graph


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


# --- reference: the former bottom-up traversal ------------------------------


def reference_entities(kg, q):
    """Every entity answering ``q``, bottom-up over the AST: a projection
    unions the tails of its whole base, an intersection meets the answer
    sets of all its children, smallest first."""
    if isinstance(q, Anchor):
        return frozenset((q.entity,))
    if isinstance(q, Project):
        out = set()
        for e in reference_entities(kg, q.child):
            out |= kg.neighbors_out(e, q.rel)
        return frozenset(out)
    if isinstance(q, And):
        sets = sorted((reference_entities(kg, c) for c in q.children), key=len)
        acc = sets[0]
        for s in sets[1:]:
            acc &= s
        return acc
    if isinstance(q, Or):
        return frozenset().union(*(reference_entities(kg, c) for c in q.children))
    raise TypeError(q)


def reference_requirement(kg, q, cap=None):
    """``answer_requirement`` as the reference traversal and a cap check on
    its finished answer set."""
    answers = reference_entities(kg, q) & kg.items
    return None if cap is not None and len(answers) > cap else answers


def reference_joint(kg, u, q):
    return reference_requirement(kg, q) & answer_preference(kg, u)


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
    """The full-graph answer sets per task, computed here, and the easy and
    hard sets ``record_answers`` derives for a held-out record."""
    req, pref = answer_requirement(split.full, q), answer_preference(split.full, u)
    full = {TASK_JOINT: req & pref, TASK_REQ: req, TASK_PREF: pref}
    return full, *record_answers(split, True, u, q, req)


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


# --- answering within candidate sets, against the reference traversal --------


def hub_world():
    """Few, large clusters: each root ``scopes`` half the attributes and each
    attribute ``tags`` or ``marks`` about a third of its cluster's items."""
    return clustered_world(n_clusters=4, attrs_per_cluster=4, items_per_cluster=40,
                           n_users=16, tags_per_item=3, likes_per_user=8, seed=7)


@pytest.fixture(scope="module")
def cases():
    """(graph, requirement) pairs of all nine shapes: uniformly random ones
    (mostly unsatisfiable) and backward-grounded ones, on random graphs and
    on a hub-heavy clustered world."""
    rng = random.Random(404)
    graphs = [random_graph(n_entities=30, n_triples=140, n_relations=4, n_items=10,
                           n_users=4, seed=trial) for trial in range(4)]
    out = []
    for kg in [*graphs, hub_world()]:
        for shape in ALL_SHAPES:
            for _ in range(3):
                out.append((kg, random_shaped_query(kg, shape, rng)))
                try:
                    out.append((kg, sample_requirement(kg, shape, rng)))
                except SamplingError:
                    pass
    return out


def candidate_sets(kg, rng):
    entities = range(kg.n_entities)
    return [frozenset(), kg.items, frozenset(entities) - kg.items,
            *(frozenset(rng.sample(entities, n)) for n in (1, 3, kg.n_entities // 3))]


def test_answers_within_candidate_sets_equal_reference(cases):
    rng = random.Random(5)
    nonempty = 0
    for kg, q in cases:
        full = reference_entities(kg, q)
        assert oracle._eval(kg, q, None) == full, q
        for within in candidate_sets(kg, rng):
            assert oracle._eval(kg, q, within) == full & within, (q, sorted(within))
        answers = answer_requirement(kg, q)
        assert answers == full & kg.items == brute_force_answers(kg, q), q
        for u in kg.users:
            assert answer_joint(kg, u, q) == reference_joint(kg, u, q), (q, u)
        nonempty += bool(answers)
    assert nonempty > len(cases) // 3


class CountingDict(dict):
    """A graph index that counts its ``get`` calls."""

    def __init__(self, index):
        super().__init__(index)
        self.gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


class CountingRuns:
    """``kg.in_runs`` that counts the in-edge runs it hands out."""

    def __init__(self, in_runs):
        self.in_runs, self.gets = in_runs, 0

    def __call__(self, targets, rel):
        for run in self.in_runs(targets, rel):
            self.gets += 1
            yield run


def count_index_reads(kg, monkeypatch):
    """(in_runs, out_index) of ``kg`` replaced by counting copies."""
    in_runs, out_index = CountingRuns(kg.in_runs), CountingDict(kg.out_index)
    monkeypatch.setattr(kg, "in_runs", in_runs)
    monkeypatch.setattr(kg, "out_index", out_index)
    return in_runs, out_index


def test_projection_runs_both_directions(cases, monkeypatch):
    # A projection checks its candidates' in-edges (``in_runs`` reads) or
    # unions its base's tails (``out_index`` reads); the requirements and
    # joint answers of these cases take both ways.
    graphs = {id(kg): kg for kg, _ in cases}.values()
    counters = [count_index_reads(kg, monkeypatch) for kg in graphs]
    for kg, q in cases:
        answer_requirement(kg, q)
    assert sum(out_index.gets for _, out_index in counters) > 0
    for kg, q in cases:
        for u in kg.users:
            answer_joint(kg, u, q)
    assert sum(in_runs.gets for in_runs, _ in counters) > 0


def test_cap_contract(cases):
    # None exactly when the answer set is larger than the cap, else the set.
    rng = random.Random(6)
    over = 0
    for kg, q in cases:
        answers = reference_requirement(kg, q)
        n = len(answers)
        for cap in {n, max(n - 1, 0), 0, 1, rng.randrange(len(kg.items) + 2)}:
            got = answer_requirement(kg, q, cap)
            assert got == (None if n > cap else answers), (q, cap)
            over += got is None
    assert over


@pytest.mark.parametrize("seed", [1, 2])
def test_cap_contract_of_a_candidate_scan(seed):
    # A projection into fewer candidates than its base checks the candidates'
    # in-edges; with a cap, None exactly when more than cap of them qualify.
    kg = clustered_world(seed=seed)
    rng = random.Random(seed)
    base = frozenset(kg.users)
    within = frozenset(rng.sample(kg.sorted_items(), len(base) - 1))
    answers = frozenset(c for c in within
                        if any(c in kg.neighbors_out(u, kg.like_rel) for u in base))
    n = len(answers)
    assert n > 1
    for cap in (None, 0, 1, n - 1, n, n + 1):
        got = oracle._project(kg, kg.like_rel, base, within, cap)
        assert got == (None if cap is not None and n > cap else answers), cap


def test_cap_stops_a_hub_projection_early(monkeypatch):
    # (p tags (p scopes (e root0))): 8 scoped attributes with 154 tag edges
    # to 77 items; a cap of 5 stops the union after a few attributes.
    kg = hub_world()
    q = parse_query("(p tags (p scopes (e root0)))", kg)
    answers = reference_requirement(kg, q)
    assert len(answers) > 5
    _, out_index = count_index_reads(kg, monkeypatch)
    assert answer_requirement(kg, q) == answers
    uncapped, out_index.gets = out_index.gets, 0
    assert answer_requirement(kg, q, 5) is None
    assert 0 < out_index.gets < uncapped
