import ast
import gc
import json
import os
import random
import sys
from pathlib import Path

import pytest

import lqrec
from lqrec import kg as kgmod
from lqrec.artifacts import ArtifactMismatchError
from lqrec.cli import main
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
from lqrec.synth import clustered_world, random_graph

from conftest import in_edges
from source_checks import attribute_accesses


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
    for t in world.triples:
        assert t.tail in world.out_index[(t.head, t.rel)]
        assert (t.rel, t.head) in in_edges(world, t.tail)
    total = sum(len(v) for v in world.out_index.values())
    assert total == len(world.triples)
    targets = range(world.n_entities)
    assert sum(len(in_edges(world, t)) for t in targets) == len(world.triples)
    for tail in world.in_edge_targets:
        pairs = in_edges(world, tail)
        assert list(pairs) == sorted(set(pairs)), tail
    assert list(world.in_edge_targets) == sorted(world.in_edge_targets)
    assert world.in_edge_targets == tuple(t for t in targets if in_edges(world, t))
    for rel in range(world.n_relations):
        runs = list(world.in_runs(targets, rel))
        assert [t for t, _ in runs] == list(targets)
        for t, run in runs:
            assert run == tuple(h for r, h in in_edges(world, t) if r == rel), (t, rel)


def test_in_edge_index_leaves_no_items_for_the_collector(world):
    # the index's tuples of ints are untracked once built, so no later
    # collection scans its items (automatic collections are off meanwhile)
    g = kgmod.KnowledgeGraph(world.entity_vocab, world.relation_vocab, world.array,
                             world.items, world.users, world.like_rel)
    assert "_in_index" not in vars(g)
    gc.disable()
    try:
        list(g.in_runs([0], 0))
        index = g._in_index
    finally:
        gc.enable()
    assert [type(part) for part in index] == [tuple] * 3
    assert not any(map(gc.is_tracked, index))


def test_only_the_graph_reads_its_in_edge_index():
    # the layout of the in-edge index is kg's decision: other modules read
    # in-edges through ``KnowledgeGraph.in_edges`` and ``in_runs``
    assert [at for at in attribute_accesses("_in_index") if not at.startswith("kg.py:")] == []
    assert "in_adj" not in vars(kgmod.KnowledgeGraph) and attribute_accesses("in_adj") == []


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


@pytest.mark.parametrize("fname,key", [("items.txt", "n_items"), ("users.txt", "n_users")])
def test_load_split_checks_name_counts(tmp_path, world, fname, key):
    save_split(split_edges(world, 0.05, seed=7), str(tmp_path))
    with open(tmp_path / fname, "a", encoding="utf-8") as f:
        f.write("attr0_0\n")  # a known entity: the graph itself still builds
    with pytest.raises(ArtifactMismatchError, match=f"{key} is "):
        load_split(str(tmp_path))
    assert main(["answer", "--kg", str(tmp_path), "--mode", "symbolic"]) == 4


@pytest.mark.parametrize("key", ["n_items", "n_users", "n_entities", "n_relations",
                                 "n_triples"])
def test_load_split_checks_manifest_counts(tmp_path, world, key):
    manifest = save_split(split_edges(world, 0.05, seed=7), str(tmp_path))
    manifest[key] += 1
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ArtifactMismatchError, match=f"{key} is {manifest[key] - 1}, "
                                                    f"manifest says {manifest[key]}"):
        load_split(str(tmp_path))


def _calls_outside(allowed, is_target):
    """``file:line`` of every call ``is_target`` accepts in ``src/lqrec``,
    except inside the functions named in ``allowed`` (``file:function``)."""
    found = []

    def visit(node, where, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{path.name}:{node.name}"
        if isinstance(node, ast.Call) and is_target(node) and where not in allowed:
            found.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, where, path)

    for path in sorted(Path(lqrec.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path)
    return found


def _write_mode_open(call):
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))


def _module_call(module, names=None):
    """A test for calls ``module.<attr>(...)``, any attr or one of ``names``."""
    def is_target(call):
        return (isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name) and call.func.value.id == module
                and (names is None or call.func.attr in names))
    return is_target


ARTIFACT_NAMES = ("ArtifactMismatchError", "atomic_write", "write_json", "parse_json",
                  "check_manifest")


def test_artifact_io_has_one_writer_and_one_reader():
    # Files are written and renamed into place only by atomic_write (no
    # shutil copies, no other os.replace/os.rename), and JSON artifacts are
    # decoded only by parse_json, so every artifact is atomic and checked the
    # same way.
    writer = {"artifacts.py:atomic_write"}
    assert _calls_outside(writer, _write_mode_open) == []
    assert _calls_outside(writer, _module_call("os", ("replace", "rename"))) == []
    assert _calls_outside(set(), _module_call("shutil")) == []
    reader = {"artifacts.py:parse_json"}
    assert _calls_outside(reader, _module_call("json", ("load", "loads"))) == []
    # The helpers are defined in artifacts.py alone; kg neither defines nor
    # re-exports them.
    defined = [f"{path.name}:{node.name}"
               for path in sorted(Path(lqrec.__file__).parent.glob("*.py"))
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.lstrip("_") in ARTIFACT_NAMES]
    assert defined == [f"artifacts.py:{name}" for name in ARTIFACT_NAMES]
    assert [name for name in ARTIFACT_NAMES if hasattr(kgmod, name)] == []


def test_save_split_is_atomic(tmp_path, world, monkeypatch):
    save_split(split_edges(world, 0.05, seed=7), str(tmp_path))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    replaced = []

    def record(src, dst):
        replaced.append(os.path.basename(dst))
        real_replace(src, dst)

    real_replace = os.replace
    monkeypatch.setattr(os, "replace", record)
    save_split(split_edges(world, 0.05, seed=7), str(tmp_path))
    assert replaced[-1] == "manifest.json" and len(replaced) == 5

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_split(split_edges(world, 0.05, seed=8), str(tmp_path))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_name_separators_pinned():
    # every character str.isspace() accepts, in code point order, then the
    # parentheses; the loader also refuses the quotes, the REPL's '|' and a
    # byte-order mark, which the query tokenizer reads as part of a name
    spaces = "".join(chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace())
    assert kgmod.NAME_SEPARATORS == spaces + "()"
    assert len(spaces) == 29
    assert kgmod._FORBIDDEN_NAME_CHARS == set(kgmod.NAME_SEPARATORS + "\"'|\ufeff")


GOOD_TRIPLES = "a\tr1\tx\na\tr1\ty\nu\tlikes\tx\n"


def _raw_files(tmp_path, triples=GOOD_TRIPLES, items="x\ny\n", users="u\n"):
    """The raw input files of ``lqrec split``, by role."""
    raw = {}
    for role, fname, text in (("triples", "t.tsv", triples), ("items", "items.txt", items),
                              ("users", "users.txt", users)):
        (tmp_path / fname).write_text(text, encoding="utf-8")
        raw[role] = str(tmp_path / fname)
    return raw


def _split(raw, tmp_path):
    return main(["split", "--triples", raw["triples"], "--items", raw["items"],
                 "--users", raw["users"], "--like", "likes", "--fraction", "0.3",
                 "--seed", "1", "--out", str(tmp_path / "split")])


@pytest.mark.parametrize("role, text", [("triples", "a\tr1\tx\na\x0bb\tr1\tx\n"),
                                        ("triples", "a\tr1\tx\na\tr1\u3000\tx\n"),
                                        ("users", "u\nu|1\n")])
def test_raw_name_with_separator_names_the_line(tmp_path, role, text, capsys):
    # a name that a query or an answer line cannot carry is refused at load
    raw = _raw_files(tmp_path, **{role: text})
    assert _split(raw, tmp_path) == 2
    assert f"error: {raw[role]}:2: name " in capsys.readouterr().err
    assert not (tmp_path / "split").exists()


def test_byte_order_mark_in_a_name_is_refused(tmp_path, capsys):
    # a triple file saved with a UTF-8 BOM would name "\ufeffa" and "a" as
    # two entities; the loader and graph_from_names refuse it alike
    rows = [("\ufeffa", "tags", "x"), ("a", "tags", "y"), ("u", "likes", "x")]
    raw = _raw_files(tmp_path, "".join("\t".join(r) + "\n" for r in rows))
    assert _split(raw, tmp_path) == 2
    with pytest.raises(GraphFormatError) as built:
        graph_from_names(rows, ["x", "y"], ["u"], "likes")
    assert "'\\ufeffa' contains forbidden character(s)" in str(built.value)
    assert capsys.readouterr().err == f"error: {raw['triples']}:1: {built.value}\n"
    assert not (tmp_path / "split").exists()


@pytest.mark.parametrize("name", ["a|b", 'a"b'])
def test_forbidden_character_error_states_the_whole_rule(name):
    # '|' and the quotes are neither whitespace nor parentheses: the stated
    # rule must cover them too
    with pytest.raises(GraphFormatError) as built:
        graph_from_names([(name, "r", "x"), ("u", "likes", "x")], ["x"], ["u"], "likes")
    assert str(built.value) == (
        f"name {name!r} contains forbidden character(s) [{name[1]!r}]; "
        "names hold no whitespace, parenthesis, quote, '|' or U+FEFF")


@pytest.mark.parametrize("row", [("a\udc80", "r", "x"), ("a", "r\ud800", "x"),
                                 ("a", "r", "x\udfffy")])
def test_graph_from_names_refuses_a_lone_surrogate(row):
    # UTF-8 cannot encode a lone surrogate, so the graph's split could not be
    # saved: it is refused before anything is written
    rows = [("a", "r", "x"), ("u", "likes", "x"), row]
    with pytest.raises(GraphFormatError) as built:
        graph_from_names(rows, ["x"], ["u"], "likes")
    name = next(name for name in row if not name.isascii())
    assert str(built.value) == f"name {name!r} holds a lone surrogate, which UTF-8 cannot encode"


@pytest.mark.parametrize("row", [("a", "r1", "a b"), ("a", "r1", ""), ("x|y", "r1", "x"),
                                 ("a", "r 1", "x")])
def test_graph_from_names_refuses_what_the_loader_refuses(tmp_path, row):
    # a graph built in Python holds only names its saved split can load back;
    # the error is the loader's, without file:line
    rows = [("a", "r1", "x"), ("u", "likes", "x"), row]
    raw = _raw_files(tmp_path, "".join("\t".join(r) + "\n" for r in rows), "x\n")
    with pytest.raises(GraphFormatError) as loaded:
        load_graph(raw["triples"], raw["items"], raw["users"], "likes")
    with pytest.raises(GraphFormatError) as built:
        graph_from_names(rows, ["x"], ["u"], "likes")
    assert str(loaded.value) == f"{raw['triples']}:3: {built.value}"


@pytest.mark.parametrize("kg", [clustered_world(n_clusters=3, n_users=12, seed=5),
                                random_graph(seed=3)], ids=["clustered", "random"])
def test_generated_graph_split_loads_back(tmp_path, kg):
    save_split(split_edges(kg, 0.1, seed=1), str(tmp_path))
    loaded = load_split(str(tmp_path)).full

    def named(graph):
        ev, rv = graph.entity_vocab.name_of, graph.relation_vocab.name_of
        return {(ev(h), rv(r), ev(t)) for h, r, t in graph.triples}

    assert named(loaded) == named(kg)


def test_interaction_error_names_the_triple(tmp_path, capsys):
    raw = _raw_files(tmp_path, "a\tr1\tx\nu\tlikes\tx\na\tlikes\ty\n")
    assert _split(raw, tmp_path) == 2
    assert ("error: interaction triple ('a', 'likes', 'y') must link a user to an item"
            in capsys.readouterr().err)


@pytest.mark.parametrize("role", ["items", "users"])
def test_unknown_listed_name_names_the_file(tmp_path, role, capsys):
    raw = _raw_files(tmp_path)
    with open(raw[role], "a", encoding="utf-8") as f:
        f.write("nope\n")
    assert _split(raw, tmp_path) == 2
    assert f"error: {raw[role]}: unknown name: 'nope'" in capsys.readouterr().err


@pytest.mark.parametrize("fname", ["items.txt", "users.txt"])
def test_split_dir_unknown_listed_name_is_mismatch(tmp_path, world, fname, capsys):
    # a split file that does not fit the split's triples is an artifact mismatch
    save_split(split_edges(world, 0.05, seed=7), str(tmp_path))
    with open(tmp_path / fname, "a", encoding="utf-8") as f:
        f.write("zzz\n")
    with pytest.raises(ArtifactMismatchError, match="unknown name: 'zzz'"):
        load_split(str(tmp_path))
    assert main(["answer", "--kg", str(tmp_path), "--mode", "symbolic"]) == 4
    assert (f"artifact mismatch: {tmp_path / fname}: unknown name: 'zzz'"
            in capsys.readouterr().err)
