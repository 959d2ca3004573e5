import random

import pytest

from lqrec.kg import (
    GraphFormatError,
    SplitInfeasibleError,
    UnknownNameError,
    graph_from_names,
    load_graph,
    load_split,
    save_split,
    split_edges,
)
from lqrec.synth import clustered_world


def test_load_counts(tmp_path):
    (tmp_path / "t.tsv").write_text("a\tr1\tx\na\tr1\ty\nu\tlikes\tx\n")
    (tmp_path / "items.txt").write_text("x\ny\n")
    (tmp_path / "users.txt").write_text("u\n")
    kg = load_graph(
        str(tmp_path / "t.tsv"),
        str(tmp_path / "items.txt"),
        str(tmp_path / "users.txt"),
        "likes",
    )
    assert kg.n_entities == 4
    assert kg.n_relations == 2
    assert len(kg.triples) == 3
    a, r1 = kg.entity_vocab.id_of("a"), kg.relation_vocab.id_of("r1")
    x, y = kg.entity_vocab.id_of("x"), kg.entity_vocab.id_of("y")
    assert kg.neighbors_out(a, r1) == {x, y}


def test_empty_triple_file(tmp_path):
    (tmp_path / "t.tsv").write_text("")
    (tmp_path / "i.txt").write_text("")
    (tmp_path / "u.txt").write_text("")
    with pytest.raises(GraphFormatError, match="empty graph"):
        load_graph(str(tmp_path / "t.tsv"), str(tmp_path / "i.txt"),
                   str(tmp_path / "u.txt"), "likes")


def test_malformed_line_reports_lineno(tmp_path):
    (tmp_path / "t.tsv").write_text("a\tr1\tx\nbad line no tabs\n")
    with pytest.raises(GraphFormatError, match="t.tsv:2"):
        load_graph(str(tmp_path / "t.tsv"), str(tmp_path / "t.tsv"),
                   str(tmp_path / "t.tsv"), "r1")


def test_unknown_item_name():
    with pytest.raises(UnknownNameError):
        graph_from_names([("a", "r", "b")], ["missing"], [], "r")


def test_unknown_like_relation():
    with pytest.raises(UnknownNameError):
        graph_from_names([("a", "r", "b")], ["b"], ["a"], "nope")


def test_interaction_edges_validated():
    # like edge from a non-user head must be rejected
    with pytest.raises(GraphFormatError, match="interaction"):
        graph_from_names(
            [("a", "likes", "b"), ("u", "likes", "b")], ["b"], ["u"], "likes"
        )


def test_first_appearance_ids(tiny_kg):
    assert tiny_kg.entity_vocab.name_of(0) == "a"
    assert tiny_kg.entity_vocab.name_of(1) == "x"
    assert tiny_kg.relation_vocab.name_of(0) == "r1"


def test_neighbors_out_empty(tiny_kg):
    x = tiny_kg.entity_vocab.id_of("x")
    r1 = tiny_kg.relation_vocab.id_of("r1")
    assert tiny_kg.neighbors_out(x, r1) == frozenset()


def test_index_consistency(world):
    total = 0
    for t in world.triples:
        assert t.tail in world.out_index[(t.head, t.rel)]
        assert t.head in world.in_index[(t.rel, t.tail)]
    total = sum(len(v) for v in world.out_index.values())
    assert total == len(world.triples)


def test_duplicate_triples_dropped():
    kg = graph_from_names(
        [("a", "r", "b"), ("a", "r", "b"), ("u", "likes", "b")],
        ["b"], ["u"], "likes",
    )
    assert len(kg.triples) == 2


def test_split_sizes(world):
    split = split_edges(world, 0.05, seed=1)
    n = len(world.triples)
    assert len(split.held_out) == round(0.05 * n)
    assert len(split.train.triples) == n - len(split.held_out)
    assert set(split.train.triples) | set(split.held_out) == set(world.triples)
    assert not set(split.train.triples) & set(split.held_out)


def test_split_deterministic(world):
    s1 = split_edges(world, 0.05, seed=9)
    s2 = split_edges(world, 0.05, seed=9)
    assert s1.held_out == s2.held_out
    assert split_edges(world, 0.05, seed=10).held_out != s1.held_out


def test_split_never_orphans_rare_relation():
    # one relation with exactly one triple: it must survive every split
    rows = [("u", "likes", f"i{j}") for j in range(40)]
    rows.append(("a", "rare", "i0"))
    rows += [("a", "r", f"i{j}") for j in range(40)]
    kg = graph_from_names(rows, [f"i{j}" for j in range(40)], ["u"], "likes")
    rare = kg.relation_vocab.id_of("rare")
    for seed in range(50):
        split = split_edges(kg, 0.2, seed=seed)
        assert any(t.rel == rare for t in split.train.triples)


def test_split_neighbors_exclude_held_edges(world):
    split = split_edges(world, 0.1, seed=4)
    for t in split.held_out:
        assert t.tail not in split.train.neighbors_out(t.head, t.rel)
    for t in split.train.triples:
        assert t.tail in split.train.neighbors_out(t.head, t.rel)


def test_split_coverage_property():
    kg = clustered_world(n_clusters=3, attrs_per_cluster=5, items_per_cluster=30,
                         n_users=25, likes_per_user=7, seed=3)
    assert 400 <= len(kg.triples) <= 600
    rng = random.Random(0)
    for draw in range(1000):
        fraction = rng.uniform(0.01, 0.3)
        seed = rng.randrange(10**6)
        split = split_edges(kg, fraction, seed)
        assert len(split.held_out) == round(fraction * len(kg.triples))
        ents, rels = set(), set()
        for t in split.train.triples:
            ents.add(t.head)
            ents.add(t.tail)
            rels.add(t.rel)
        assert len(ents) == kg.n_entities
        assert len(rels) == kg.n_relations


def test_split_infeasible():
    rows = [("u", "likes", "i0"), ("a", "r0", "i0"), ("b", "r1", "i0")]
    kg = graph_from_names(rows, ["i0"], ["u"], "likes")
    # every triple is the sole occurrence of some symbol
    with pytest.raises(SplitInfeasibleError):
        split_edges(kg, 0.5, seed=0)


def test_fraction_validation(world):
    with pytest.raises(ValueError):
        split_edges(world, 1.5, seed=0)
    with pytest.raises(ValueError):
        split_edges(world, 0.0, seed=0)


def test_split_roundtrip(tmp_path, world):
    split = split_edges(world, 0.05, seed=7)
    save_split(split, str(tmp_path))
    once = load_split(str(tmp_path))
    save_dir2 = tmp_path / "again"
    save_split(once, str(save_dir2))
    twice = load_split(str(save_dir2))
    # a save/load cycle is a fixed point: same bytes, ids, and indices
    for name in ("train.tsv", "heldout.tsv", "items.txt", "users.txt"):
        assert (tmp_path / name).read_bytes() == (save_dir2 / name).read_bytes()
    assert once.train.entity_vocab.names == twice.train.entity_vocab.names
    assert once.train.out_index == twice.train.out_index
    assert once.held_out == twice.held_out
    assert len(once.full.triples) == len(world.triples)
    assert len(once.held_out) == len(split.held_out)


def test_sorted_items_computed_once(tiny_kg):
    first = tiny_kg.sorted_items()
    assert tiny_kg.sorted_items() is first
    assert list(first) == sorted(tiny_kg.items)
