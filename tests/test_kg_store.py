"""The array-built graph store against the dict-built store it replaced.

``RefGraph``, ``ref_*`` and the line parsers below are the former
constructor, name->id assignment, edge split, split loader and parsers, kept
here only as the reference. The new store must give the same triples,
vocabularies, adjacency (including the order of the in-edges), sampling pools
and parse errors, and hold the vocabulary's own int objects in its indices.
"""

import hashlib
import json
import pathlib
import random
import re
import shutil
import sys

import numpy as np
import pytest

from conftest import TINY_ROWS, in_edges, traced
from lqrec import kg, synth
from lqrec.artifacts import ArtifactMismatchError
from lqrec.cli import main
from lqrec.kg import (GraphFormatError, SplitInfeasibleError, Triple, Vocab,
                      graph_from_names, load_split, save_split, split_edges)

# --- reference: the former dict-based store -------------------------------


class RefGraph:
    def __init__(self, entity_vocab, relation_vocab, triples, items, users, like_rel):
        self.entity_vocab = entity_vocab
        self.relation_vocab = relation_vocab
        self.triples = tuple(dict.fromkeys(Triple(*t) for t in triples))
        self.items = frozenset(items)
        self._sorted_items = tuple(sorted(self.items))
        self.users = frozenset(users)
        self.like_rel = like_rel
        n_ent, n_rel = len(entity_vocab), len(relation_vocab)
        for t in self.triples:
            if not (0 <= t.head < n_ent and 0 <= t.tail < n_ent and 0 <= t.rel < n_rel):
                raise GraphFormatError(f"triple {t} out of vocabulary range")
            if t.rel == like_rel:
                if t.head not in self.users or t.tail not in self.items:
                    raise GraphFormatError(
                        f"interaction triple {t} must link a user to an item")
        out_index = {}
        for t in self.triples:
            out_index.setdefault((t.head, t.rel), set()).add(t.tail)
        self.out_index = {k: frozenset(v) for k, v in out_index.items()}
        in_adj = {}
        for t in sorted(self.triples, key=lambda t: (t.tail, t.rel, t.head)):
            in_adj.setdefault(t.tail, []).append((t.rel, t.head))
        self.in_adj = {k: tuple(v) for k, v in in_adj.items()}
        self.n_entities = n_ent
        self.seed_items = tuple(i for i in self._sorted_items if i in self.in_adj)
        self.in_edge_targets = tuple(self.in_adj)

    def neighbors_out(self, e, r):
        return self.out_index.get((e, r), frozenset())

    def in_edges(self, t):
        return self.in_adj.get(t, ())


def ref_add(vocab, name):
    got = vocab.index.get(name)
    if got is not None:
        return got
    vocab.names.append(name)
    vocab.index[name] = len(vocab.names) - 1
    return vocab.index[name]


def ref_from_names(rows, item_names, user_names, like_rel_name):
    ev, rv = Vocab(), Vocab()
    triples = [Triple(ref_add(ev, h), ref_add(rv, r), ref_add(ev, t)) for h, r, t in rows]
    return RefGraph(ev, rv, triples, {ev.id_of(n) for n in item_names},
                    {ev.id_of(n) for n in user_names}, rv.id_of(like_rel_name))


def ref_split(g, fraction, seed):
    n = len(g.triples)
    k = int(round(fraction * n))
    order = list(range(n))
    random.Random(seed).shuffle(order)
    ent_count = [0] * g.n_entities
    rel_count = [0] * len(g.relation_vocab)
    for t in g.triples:
        for e in {t.head, t.tail}:
            ent_count[e] += 1
        rel_count[t.rel] += 1
    held_idx = set()
    for idx in order:
        if len(held_idx) == k:
            break
        t = g.triples[idx]
        if all(ent_count[e] >= 2 for e in {t.head, t.tail}) and rel_count[t.rel] >= 2:
            held_idx.add(idx)
            for e in {t.head, t.tail}:
                ent_count[e] -= 1
            rel_count[t.rel] -= 1
    if len(held_idx) < k:
        raise SplitInfeasibleError("infeasible")
    held = tuple(g.triples[i] for i in sorted(held_idx))
    kept = [t for i, t in enumerate(g.triples) if i not in held_idx]
    return RefGraph(g.entity_vocab, g.relation_vocab, kept, g.items, g.users,
                    g.like_rel), held


def ref_check_name(name, path, lineno):
    if not name:
        raise GraphFormatError(f"{path}:{lineno}: empty name field")
    bad = kg._FORBIDDEN_NAME_CHARS.intersection(name)
    if bad:
        raise GraphFormatError(
            f"{path}:{lineno}: name {name!r} contains forbidden character(s) "
            f"{sorted(bad)}; names hold no whitespace, parenthesis, quote, '|' or U+FEFF")
    return name


def ref_read_names(path):
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\r\n")
            if line:
                out.append(ref_check_name(line, path, lineno))
    return out


def ref_parse_triple_lines(path):
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected exactly two tab separators, "
                    f"got {len(parts) - 1}")
            rows.append(tuple(ref_check_name(p, path, lineno) for p in parts))
    return rows


def ref_parse_lines(path, data, n_fields):
    """The former line parser over ``data``, the bytes of ``path``:
    ``n_fields`` tab-separated names a line (blank lines skipped, lines split
    as in text mode), as one flat list; errors carry line numbers."""
    fields = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        where = f"{path}:{lineno}:"
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"{where} not UTF-8: {exc}") from None
        if not line:
            continue
        parts = line.split("\t") if n_fields > 1 else [line]
        if len(parts) != n_fields:
            raise GraphFormatError(f"{where} expected exactly two tab separators, "
                                   f"got {len(parts) - 1}")
        for name in parts:
            if fault := kg._name_fault(name):
                raise GraphFormatError(f"{where} {fault}")
        fields += parts
    return fields


def ref_load_split(split_dir):
    train_rows = ref_parse_triple_lines(f"{split_dir}/train.tsv")
    held_rows = ref_parse_triple_lines(f"{split_dir}/heldout.tsv")
    with open(f"{split_dir}/manifest.json") as f:
        like = json.load(f)["like_rel"]
    full = ref_from_names(train_rows + held_rows, ref_read_names(f"{split_dir}/items.txt"),
                          ref_read_names(f"{split_dir}/users.txt"), like)
    ev, rv = full.entity_vocab, full.relation_vocab

    def ids(rows):
        return [Triple(ev.id_of(h), rv.id_of(r), ev.id_of(t)) for h, r, t in rows]

    train = RefGraph(ev, rv, ids(train_rows), full.items, full.users, full.like_rel)
    return full, train, tuple(ids(held_rows))


# --- inputs -----------------------------------------------------------------


def captured_rows(monkeypatch, **world_kwargs):
    """The name rows ``clustered_world`` hands to ``graph_from_names``."""
    seen = {}

    def capture(rows, items, users, like):
        seen.update(rows=list(rows), items=list(items), users=list(users), like=like)
        return graph_from_names(seen["rows"], seen["items"], seen["users"], like)

    with monkeypatch.context() as m:
        m.setattr(synth, "graph_from_names", capture)
        synth.clustered_world(**world_kwargs)
    return seen


CRITERION5_WORLD = dict(n_clusters=5, attrs_per_cluster=8, items_per_cluster=50,
                        n_users=80, tags_per_item=4, likes_per_user=12,
                        cross_cluster_noise=0.05)
FIXTURE_WORLD = dict(n_clusters=3, attrs_per_cluster=5, items_per_cluster=15,
                     n_users=24, tags_per_item=3, likes_per_user=6, seed=101)
INPUTS = {
    **{f"clustered_{s}": dict(CRITERION5_WORLD, seed=s) for s in (1, 2, 3)},
    "world": FIXTURE_WORLD,
    "tiny_kg": None,
}


@pytest.fixture(params=sorted(INPUTS))
def named_input(request, monkeypatch):
    if INPUTS[request.param] is None:
        return dict(rows=list(TINY_ROWS), items=["x", "y", "z"], users=["u1", "u2"],
                    like="likes")
    return captured_rows(monkeypatch, **INPUTS[request.param])


def assert_same_graph(new, ref):
    assert new.triples == ref.triples
    assert new.entity_vocab.names == ref.entity_vocab.names
    assert new.relation_vocab.names == ref.relation_vocab.names
    assert (new.items, new.users, new.like_rel) == (ref.items, ref.users, ref.like_rel)
    assert new.out_index.keys() == ref.out_index.keys()
    for head, rel in ref.out_index:
        got, want = new.neighbors_out(head, rel), ref.neighbors_out(head, rel)
        # equal sets with the same table: same iteration order and size
        assert list(got) == list(want) and sys.getsizeof(got) == sys.getsizeof(want)
    # the in-edges of ascending entity ids, in turn, are the edges sorted by tail
    assert [(e, *edge) for e in range(ref.n_entities) for edge in in_edges(new, e)] == sorted(
        (t.tail, t.rel, t.head) for t in ref.triples)
    for e in range(ref.n_entities):
        assert in_edges(new, e) == ref.in_edges(e)
    assert new.seed_items == ref.seed_items
    assert new.in_edge_targets == ref.in_edge_targets
    # every id in the indices is the vocabulary's own int object
    ev, rv = new.entity_vocab, new.relation_vocab
    for (head, rel), tails in new.out_index.items():
        assert head is ev.index[ev.names[head]] and rel is rv.index[rv.names[rel]]
        assert all(t is ev.index[ev.names[t]] for t in tails)
    for tail in new.in_edge_targets:
        assert tail is ev.index[ev.names[tail]]
        assert all(r is rv.index[rv.names[r]] and h is ev.index[ev.names[h]]
                   for r, h in in_edges(new, tail))
        assert all(h is ev.index[ev.names[h]] for _, heads in
                   new.in_runs([tail], in_edges(new, tail)[0][0]) for h in heads)


# --- differential tests -----------------------------------------------------


def test_graph_matches_reference(named_input):
    rows = named_input["rows"]
    rows = rows + rows[: len(rows) // 3]  # duplicates keep first occurrences
    args = (named_input["items"], named_input["users"], named_input["like"])
    assert_same_graph(graph_from_names(rows, *args), ref_from_names(rows, *args))


def test_ids_past_the_small_int_cache_match_reference():
    # Ids above 256 are distinct int objects, so the vocabulary's own ones
    # can only come from mapping through it: 301 relations and entities.
    rows = [(f"e{j}", f"r{j}", f"e{j + 1}") for j in range(300)] + [("u", "likes", "e0")]
    args = (rows, ["e0"], ["u"], "likes")
    assert_same_graph(graph_from_names(*args), ref_from_names(*args))


# Graphs whose lowest and highest entity ids have no in-edges or have some.
# Entity 0 is the first name to appear; "spare" adds a highest id no triple
# names.
BOUNDARY_ROWS = {
    "ends-only-heads": [("a", "r", "b"), ("b", "s", "c"), ("u", "likes", "c"),
                        ("a", "s", "c"), ("w", "r", "b")],
    "ends-are-tails": [("c", "r", "a"), ("a", "s", "c"), ("u", "likes", "c"),
                       ("a", "r", "z"), ("z", "s", "a")],
}


@pytest.mark.parametrize("spare", [False, True])
@pytest.mark.parametrize("name", sorted(BOUNDARY_ROWS))
def test_in_edges_at_the_id_boundaries(name, spare):
    g = graph_from_names(BOUNDARY_ROWS[name], ["c"], ["u"], "likes")
    ev = Vocab(g.entity_vocab.names + ["spare"] * spare)
    args = (ev, g.relation_vocab, g.array.tolist(), g.items, g.users, g.like_rel)
    new, ref = kg.KnowledgeGraph(*args), RefGraph(*args)
    ends_empty = name == "ends-only-heads"
    assert ((not ref.in_edges(0), not ref.in_edges(len(ev) - 1))
            == (ends_empty, ends_empty or spare))
    for e in range(len(ev)):
        assert in_edges(new, e) == ref.in_edges(e), e
        for rel in range(len(g.relation_vocab)):
            want = tuple(h for r, h in ref.in_edges(e) if r == rel)
            assert list(new.in_runs([e], rel)) == [(e, want)], (e, rel)
    assert new.in_edge_targets == ref.in_edge_targets
    assert new.seed_items == ref.seed_items


@pytest.mark.parametrize("fraction,seed", [(0.05, 1), (0.2, 7)])
def test_split_edges_matches_reference(named_input, fraction, seed):
    args = (named_input["rows"], named_input["items"], named_input["users"],
            named_input["like"])
    new, ref = graph_from_names(*args), ref_from_names(*args)
    try:
        ref_train, ref_held = ref_split(ref, fraction, seed)
    except SplitInfeasibleError:
        with pytest.raises(SplitInfeasibleError):
            split_edges(new, fraction, seed)
        return
    split = split_edges(new, fraction, seed)
    assert split.held_out == ref_held
    assert split.full is new
    assert_same_graph(split.full, ref)
    assert_same_graph(split.train, ref_train)


def test_load_split_matches_reference(named_input, tmp_path):
    g = graph_from_names(named_input["rows"], named_input["items"],
                         named_input["users"], named_input["like"])
    save_split(split_edges(g, 0.05, seed=3), str(tmp_path))
    split = load_split(str(tmp_path))
    ref_full, ref_train, ref_held = ref_load_split(str(tmp_path))
    assert split.held_out == ref_held
    assert_same_graph(split.full, ref_full)
    assert_same_graph(split.train, ref_train)
    assert split.train.entity_vocab is split.full.entity_vocab


@pytest.mark.parametrize("drop", [0.0, 0.05, 0.5])
def test_subgraph_equals_the_graph_of_its_rows(named_input, drop):
    """The train graph's path against the constructor it bypasses: the same
    store, tail sets equal in iteration order and size, and the full graph's
    own set for every (head, rel) that keeps all its edges."""
    g = graph_from_names(named_input["rows"], named_input["items"],
                         named_input["users"], named_input["like"])
    keep = np.random.default_rng(len(g.array)).random(len(g.array)) >= drop
    sub = g._subgraph(keep)
    args = (g.entity_vocab, g.relation_vocab, g.array[keep], g.items, g.users, g.like_rel)
    want = kg.KnowledgeGraph(*args)
    assert np.array_equal(sub.array, want.array) and not sub.array.flags.writeable
    assert list(sub.out_index) == list(want.out_index)
    for key, tails in want.out_index.items():
        got = sub.out_index[key]
        assert list(got) == list(tails) and sys.getsizeof(got) == sys.getsizeof(tails)
        assert (got is g.out_index[key]) == (tails == g.out_index[key])
    assert_same_graph(sub, RefGraph(*args))
    if drop == 0.5:  # some (head, rel) lost every edge
        assert len(sub.out_index) < len(g.out_index)


# --- malformed input: the whole-text parse against the line parser ---------


@pytest.fixture(scope="module")
def saved_split(tmp_path_factory):
    """A split directory whose train.tsv is longer than one 8 KiB text-mode
    decode chunk, so decode-error positions are chunk-relative."""
    out = tmp_path_factory.mktemp("split")
    g = synth.clustered_world(**dict(CRITERION5_WORLD, seed=1))
    save_split(split_edges(g, 0.05, seed=1), str(out))
    assert (out / "train.tsv").stat().st_size > 3 * 8192
    return out


HASH_KEYS = {"train.tsv": "train_sha256", "heldout.tsv": "heldout_sha256"}


def edited_copy(saved_split, tmp_path, fname, lineno, new_line: bytes):
    """A copy of the split with line ``lineno`` of ``fname`` replaced and the
    manifest's hash of that file updated to match, so the file is parsed."""
    out = tmp_path / "edited"
    shutil.copytree(saved_split, out)
    lines = (out / fname).read_bytes().split(b"\n")
    lines[lineno - 1] = new_line
    (out / fname).write_bytes(b"\n".join(lines))
    if fname in HASH_KEYS:
        manifest = json.loads((out / "manifest.json").read_text())
        manifest[HASH_KEYS[fname]] = hashlib.sha256((out / fname).read_bytes()).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest))
    return out


MALFORMED = {
    "forbidden_char": ("train.tsv", 5, b"attr0_1\ttags\titem(0_3"),
    "quote_in_name": ("heldout.tsv", 2, b"user'1\tlikes\titem0_3"),
    "one_tab": ("train.tsv", 7, b"attr0_1\ttags"),
    "three_tabs": ("train.tsv", 900, b"attr0_1\ttags\titem0_3\tx"),
    "empty_field": ("train.tsv", 11, b"attr0_1\t\titem0_3"),
    "leading_tab": ("train.tsv", 12, b"\ttags\titem0_3"),
    "not_utf8": ("train.tsv", 1000, b"attr0_1\ttags\titem\xff0_3"),
    "space_in_item": ("items.txt", 4, b"item 0_3"),
    "tab_in_user": ("users.txt", 2, b"user\t1"),
    "not_utf8_users": ("users.txt", 3, b"us\xc3er1"),
    # whitespace beyond space/tab/CR/LF and the REPL's '|' end a name too
    "vertical_tab": ("train.tsv", 13, b"attr0_1\ttags\titem\x0b0_3"),
    "no_break_space": ("heldout.tsv", 3, "user1\tlikes\titem\u00a00_3".encode()),
    "line_separator": ("items.txt", 5, "item\u20280_3".encode()),
    "pipe_in_user": ("users.txt", 4, b"user|1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_matches_line_parser(case, saved_split, tmp_path, capsys):
    fname, lineno, line = MALFORMED[case]
    split_dir = edited_copy(saved_split, tmp_path, fname, lineno, line)
    path = str(split_dir / fname)
    n_fields = 1 if fname.endswith(".txt") else 3
    reference = ref_read_names if n_fields == 1 else ref_parse_triple_lines
    with pytest.raises((GraphFormatError, UnicodeDecodeError)) as want:
        reference(path)
    with pytest.raises(GraphFormatError) as got:
        load_split(str(split_dir))
    if isinstance(want.value, GraphFormatError):
        assert str(got.value) == str(want.value)
    else:  # the reference gave only the codec's message; now it names the line
        assert str(got.value).startswith(f"{path}:{lineno}: not UTF-8: 'utf-8' codec")
    with pytest.raises(GraphFormatError) as by_lines:
        ref_parse_lines(path, (split_dir / fname).read_bytes(), n_fields)
    assert str(got.value) == str(by_lines.value)
    # both commands report it as a validation error
    assert main(["answer", "--kg", str(split_dir), "--mode", "symbolic"]) == 2
    assert main(["train", "--data", str(split_dir), "--seed", "1",
                 "--out", str(tmp_path / "run")]) == 2
    assert str(got.value) in capsys.readouterr().err


@pytest.mark.parametrize("byte", [b"Q", b" ", b"\xff"], ids=["letter", "space", "not_utf8"])
@pytest.mark.parametrize("fname", ["train.tsv", "heldout.tsv"])
def test_changed_triple_byte_is_a_hash_mismatch(saved_split, tmp_path, fname, byte, capsys):
    # whatever the byte, the hash check runs before the file is parsed
    out = tmp_path / "changed"
    shutil.copytree(saved_split, out)
    blob = bytearray((out / fname).read_bytes())
    blob[100:101] = byte
    (out / fname).write_bytes(bytes(blob))
    assert main(["answer", "--kg", str(out), "--mode", "symbolic"]) == 4
    assert f"{HASH_KEYS[fname]} is " in capsys.readouterr().err


def test_raw_triples_not_utf8_name_the_line(tmp_path, capsys):
    raw = synth.write_world_files(synth.clustered_world(**dict(CRITERION5_WORLD, seed=1)),
                                  str(tmp_path / "raw"))
    triples = pathlib.Path(raw["triples"])
    lines = triples.read_bytes().split(b"\n")
    lines[2] = lines[2][:4] + b"\xff" + lines[2][4:]
    triples.write_bytes(b"\n".join(lines))
    assert main(["split", "--triples", raw["triples"], "--items", raw["items"],
                 "--users", raw["users"], "--like", "likes", "--fraction", "0.05",
                 "--seed", "1", "--out", str(tmp_path / "split")]) == 2
    assert (f"error: {raw['triples']}:3: not UTF-8: 'utf-8' codec can't decode byte 0xff "
            "in position 4") in capsys.readouterr().err


def test_fault_diagnosis_reads_no_file(saved_split, tmp_path, monkeypatch):
    fname, lineno, line = MALFORMED["forbidden_char"]
    split_dir = edited_copy(saved_split, tmp_path, fname, lineno, line)
    opened = []
    real_open = open

    def counting_open(path, *args, **kwargs):
        opened.append(str(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    with pytest.raises(GraphFormatError, match=f"{fname}:{lineno}: "):
        load_split(str(split_dir))
    assert opened.count(str(split_dir / fname)) == 1


def refuse_diagnosis(line, n_fields):
    raise AssertionError(f"fault diagnosis ran on {line!r}")


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_other_newlines_load_the_same_graph(saved_split, tmp_path, newline, monkeypatch):
    """Newlines translate as in text mode, on the whole-text path."""
    out = tmp_path / "crlf"
    shutil.copytree(saved_split, out)
    manifest = json.loads((out / "manifest.json").read_text())
    for fname in ("train.tsv", "heldout.tsv", "items.txt", "users.txt"):
        data = (out / fname).read_bytes().replace(b"\n", newline)
        (out / fname).write_bytes(data)
    for key, fname in (("train_sha256", "train.tsv"), ("heldout_sha256", "heldout.tsv")):
        manifest[key] = hashlib.sha256((out / fname).read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))
    want = load_split(str(saved_split))
    monkeypatch.setattr(kg, "_line_fault", refuse_diagnosis)
    got = load_split(str(out))
    assert got.held_out == want.held_out
    for new, old in ((got.full, want.full), (got.train, want.train)):
        assert new.triples == old.triples
        assert new.entity_vocab.names == old.entity_vocab.names
        assert (new.items, new.users) == (old.items, old.users)


def test_wellformed_files_skip_the_diagnoser(saved_split, monkeypatch):
    monkeypatch.setattr(kg, "_line_fault", refuse_diagnosis)
    assert len(load_split(str(saved_split)).full.items) == 250


@pytest.mark.parametrize("fname,lineno,source", [
    ("heldout.tsv", 1, ("train.tsv", 1)),
    ("heldout.tsv", 3, ("heldout.tsv", 2)),
    ("train.tsv", 9, ("train.tsv", 4)),
])
def test_load_split_refuses_a_repeated_triple(saved_split, tmp_path, fname, lineno, source,
                                               capsys):
    """A triple may appear once across a split's two files, so the train
    graph is always the first ``n_train`` rows of the full graph."""
    lines = {f: (saved_split / f).read_bytes().splitlines() for f in HASH_KEYS}
    written = lines["train.tsv"] + lines["heldout.tsv"]
    assert len(set(written)) == len(written)  # save_split writes none
    split_dir = edited_copy(saved_split, tmp_path, fname, lineno,
                            lines[source[0]][source[1] - 1])
    message = f"{split_dir / fname}: triple {lineno} "
    with pytest.raises(ArtifactMismatchError, match=re.escape(message)):
        load_split(str(split_dir))
    assert main(["answer", "--kg", str(split_dir), "--mode", "symbolic"]) == 4
    assert message in capsys.readouterr().err


# --- the whole-file grammar against the backtracking form it replaced -------

# The former pattern, kept as the reference: greedy repeats, which the engine
# backtracks through with one saved state per line. The possessive form must
# give the same verdict on every text.
REF_NAME = "[^" + re.escape("".join(sorted(kg._FORBIDDEN_NAME_CHARS))) + "]+"
REF_FILE_FORMS = {n: re.compile("(?:(?:{0})?\n)*(?:{0})?".format("\t".join([REF_NAME] * n)))
                  for n in (1, 3)}
NAME_CHARS = "ab_09.-\u00e9\u4e2d"


def random_lines(rng, n_fields):
    """1-6 well-formed lines of ``n_fields`` names, some of them blank."""
    return ["" if rng.random() < 0.2 else
            "\t".join("".join(rng.choices(NAME_CHARS, k=rng.randint(1, 4)))
                      for _ in range(n_fields))
            for _ in range(rng.randint(1, 6))]


def joined(rng, lines, end="\n"):
    """The lines as a file: no final line end, one, or trailing blank lines."""
    return end.join(lines) + end * rng.choice([0, 1, 3])


def defective(rng, n_fields, defect):
    """A well-formed text with one line made malformed by ``defect``: a
    field count, an empty field, or a forbidden character in a name."""
    lines = random_lines(rng, n_fields)
    i = rng.randrange(len(lines))
    fields = lines[i].split("\t") if lines[i] else ["x"] * n_fields
    j = rng.randrange(n_fields)
    if defect == "fewer_fields":
        fields = fields[:-1] if n_fields > 1 else []
    elif defect == "more_fields":
        fields = fields + ["x"]
    elif defect == "empty_field":
        fields[j] = ""
    else:  # one forbidden character at the start, inside or at the end of a name
        at = rng.randint(0, len(fields[j]))
        fields[j] = fields[j][:at] + defect + fields[j][at:]
    lines[i] = "\t".join(fields)
    if not lines[i]:  # a one-field line without its field is blank, not malformed
        lines[i] = "\t"
    return joined(rng, lines)


# Tab and newline are the separators themselves: the field-count defects
# cover them.
DEFECTS = ["fewer_fields", "more_fields", "empty_field",
           *sorted(kg._FORBIDDEN_NAME_CHARS - {"\t", "\n"})]


@pytest.mark.parametrize("n_fields", [1, 3])
def test_file_grammar_matches_backtracking_form(n_fields):
    new, ref = kg._FILE_FORMS[n_fields], REF_FILE_FORMS[n_fields]
    assert "\ufeff" in DEFECTS and "\xa0" in DEFECTS and "\r" in DEFECTS
    rng = random.Random(n_fields)
    for _ in range(300):
        lines = random_lines(rng, n_fields)
        for end in ("\n", "\r\n", "\r"):
            text = joined(rng, lines, end)
            # a CR is a forbidden character; translated, the text is well formed
            translated = text.replace("\r\n", "\n").replace("\r", "\n")
            assert bool(new.fullmatch(text)) == bool(ref.fullmatch(text)) == ("\r" not in text)
            assert new.fullmatch(translated) and ref.fullmatch(translated)
    for defect in DEFECTS:
        for _ in range(20):
            text = defective(rng, n_fields, defect)
            assert not new.fullmatch(text) and not ref.fullmatch(text), (defect, text)


def test_file_grammar_keeps_no_state_per_line():
    """The whole-file check of 100,000 lines allocates next to nothing (the
    backtracking form peaked at 53 MB on these triples, 35 MB on the names)."""
    texts = {3: "".join(f"e{i}\tr{i % 7}\te{i + 1}\n" for i in range(100_000)),
             1: "".join(f"e{i}\n" for i in range(100_000))}
    for n_fields, text in texts.items():
        match, peak, _ = traced(lambda: kg._FILE_FORMS[n_fields].fullmatch(text))
        assert match and peak < 100_000, n_fields


# --- the loader against the line parser it replaced -----------------------

# What a fuzzed file is made of besides names and line ends: separators, a
# name's forbidden characters, and bytes that are not UTF-8 (an invalid
# byte, a cut two-byte sequence, an encoded surrogate).
FUZZ_PIECES = [b"\t", b"\n", b"\r", b"\r\n", b"\xff", b"\xc3", b"\xed\xa0\x80",
               *(c.encode() for c in sorted(kg._FORBIDDEN_NAME_CHARS))]


def fuzzed_file(rng, n_fields):
    """A well-formed text's bytes with 0-3 pieces spliced in at random byte
    offsets (which can cut a character)."""
    data = joined(rng, random_lines(rng, n_fields), rng.choice(["\n", "\r", "\r\n"])).encode()
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        at = rng.randint(0, len(data))
        data = data[:at] + rng.choice(FUZZ_PIECES) + data[at:]
    return data


@pytest.mark.parametrize("n_fields", [1, 3])
def test_loader_matches_line_parser_on_fuzzed_files(n_fields):
    """The whole-text parse gives the line parser's names, or its message."""
    rng = random.Random(n_fields)
    verdicts = set()
    for _ in range(1000):
        data = fuzzed_file(rng, n_fields)
        try:
            want = ref_parse_lines("f.tsv", data, n_fields)
        except GraphFormatError as exc:
            with pytest.raises(GraphFormatError) as got:
                list(kg._parse_fields("f.tsv", data, n_fields))
            assert str(got.value) == str(exc), data
            verdicts.add(str(exc).split(": ", 1)[1].split(" ", 1)[0])
        else:
            assert [name for run in kg._parse_fields("f.tsv", data, n_fields)
                    for name in run] == want, data
            verdicts.add("loaded")
    # every kind of verdict is reached: loaded, not UTF-8, a forbidden
    # character, and for triples an empty name field and a wrong tab count
    # (in a name list, an empty name is a blank line)
    kinds = {"loaded", "not", "name"}
    assert verdicts == (kinds | {"empty", "expected"} if n_fields == 3 else kinds)


# --- the run-at-a-time indexer against the one-shot indexer it replaced ----


def ref_parse_fields(data):
    """The former parse of a well-formed triple file: all names in one list."""
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    assert kg._FILE_FORMS[3].fullmatch(text)
    return list(filter(None, text.replace("\n", "\t").split("\t")))


def ref_index_fields(fields):
    """The former indexer: both vocabularies from all names, then all ids."""
    ent_names, rel_names = fields.copy(), fields[1::3]
    del ent_names[1::3]
    ev, rv = Vocab(ent_names), Vocab(rel_names)
    ents, rels = (np.fromiter(map(v.index.__getitem__, names), np.int64, len(names))
                  for v, names in ((ev, ent_names), (rv, rel_names)))
    return ev, rv, np.column_stack((ents[0::2], rels, ents[1::2]))


def ref_write_triples(graph, rows):
    """The bytes the former ``write_triples`` wrote in one piece."""
    ev, rv = graph.entity_vocab.names, graph.relation_vocab.names
    h, r, t = np.asarray(rows, dtype=np.int64).reshape(-1, 3).T.tolist()
    return "".join(map("{}\t{}\t{}\n".format, map(ev.__getitem__, h),
                       map(rv.__getitem__, r), map(ev.__getitem__, t))).encode("utf-8")


RUN = kg._RUN_LINES


def run_lines(monkeypatch, n):
    """Split, index and write triple files in runs of ``n`` lines."""
    monkeypatch.setattr(kg, "_RUN_LINES", n)
    monkeypatch.setattr(kg, "_RUNS", re.compile(
        kg._RUNS.pattern.replace(f"{{1,{RUN}}}", f"{{1,{n}}}")))


def boundary_lines(n_lines, run, seed):
    """``n_lines`` triple lines over a growing vocabulary. The last line of
    each run brings a new entity and relation, and the lines just before and
    just after each run boundary are blank."""
    rng = random.Random(seed)
    lines = []
    for i in range(n_lines):
        if i % run == run - 1:
            lines.append(f"last{i}\tr_last{i}\te{rng.randrange(i + 1)}")
        elif i and i % run in (0, run - 2):
            lines.append("")
        else:
            lines.append(f"e{rng.randrange(i + 1)}\tr{rng.randrange(5)}\te{rng.randrange(i + 2)}")
    return lines


@pytest.mark.parametrize("n_lines", [0, 1, RUN - 1, RUN, RUN + 1, 2 * RUN + 1])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_indexer_matches_one_shot_reference(n_lines, end):
    rng = random.Random(n_lines)
    data = (end.join(boundary_lines(n_lines, RUN, n_lines))
            + end * rng.choice([0, 1, 2])).encode("utf-8")
    runs = list(kg._parse_fields("train.tsv", data, 3))
    assert all(len(run) <= 3 * RUN for run in runs)
    assert [name for run in runs for name in run] == ref_parse_fields(data)
    ev, rv, ids, ends = kg._index_fields(kg._parse_fields("train.tsv", data, 3))
    want_ev, want_rv, want_ids = ref_index_fields(ref_parse_fields(data))
    assert ev.names == want_ev.names and ev.index == want_ev.index
    assert rv.names == want_rv.names and rv.index == want_rv.index
    assert ids.dtype == np.int64 and ids.shape == want_ids.shape == (len(want_ids), 3)
    assert np.array_equal(ids, want_ids) and ends == [len(want_ids)]
    if n_lines >= RUN:
        assert f"last{RUN - 1}" in ev.index and f"r_last{RUN - 1}" in rv.index


@pytest.mark.parametrize("run", [7, 64])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_split_load_and_save_match_one_shot_reference(run, end, tmp_path, monkeypatch):
    """A split whose held-out rows bring new entities and relations, read
    and written in short runs, against the one-shot indexer and writer."""
    world = captured_rows(monkeypatch, **dict(CRITERION5_WORLD, seed=1))
    train = ["\t".join(row) for row in world["rows"]]
    train[run - 1] = f"first_at_run_end\tnew_rel\t{world['items'][0]}"
    train.insert(run, "")
    held = [f"held_head\theld_rel\t{world['items'][1]}",
            f"{world['users'][0]}\theld_rel\tfirst_at_run_end",
            f"{world['users'][1]}\t{world['like']}\t{world['items'][2]}"]
    assert not set(held) & set(train)
    split_dir = tmp_path / "split"
    split_dir.mkdir()
    files = {"train.tsv": train, "heldout.tsv": held,
             "items.txt": world["items"], "users.txt": world["users"]}
    for fname, lines in files.items():
        (split_dir / fname).write_bytes((end.join(lines) + end).encode("utf-8"))
    blobs = [(split_dir / f).read_bytes() for f in ("train.tsv", "heldout.tsv")]
    ev, rv, ids = ref_index_fields(ref_parse_fields(blobs[0] + blobs[1]))
    n_train = len(ref_parse_fields(blobs[0])) // 3
    items, users = (frozenset(map(ev.id_of, world[key])) for key in ("items", "users"))
    want = kg.KnowledgeGraph(ev, rv, ids, items, users, rv.id_of(world["like"]))
    manifest = {"like_rel": world["like"], "fraction": 0.05, "seed": 9,
                "n_triples": len(ids), "n_train": n_train, "n_held_out": len(held),
                "n_entities": len(ev), "n_relations": len(rv),
                "n_items": len(items), "n_users": len(users),
                "train_sha256": hashlib.sha256(blobs[0]).hexdigest(),
                "heldout_sha256": hashlib.sha256(blobs[1]).hexdigest()}
    (split_dir / "manifest.json").write_text(json.dumps(manifest))

    run_lines(monkeypatch, run)
    split = load_split(str(split_dir))
    for new, old in ((split.full.entity_vocab, ev), (split.full.relation_vocab, rv)):
        assert new.names == old.names and new.index == old.index
    assert (ev.names[-1], rv.names[-1]) == ("held_head", "held_rel")  # held-out only
    assert "first_at_run_end" in ev.index and "new_rel" in rv.index
    assert np.array_equal(split.full.array, want.array)
    assert np.array_equal(split.train.array, ids[:n_train])
    assert split.held_out == want.triples_of(ids[n_train:])
    keep = np.arange(len(ids)) < n_train
    for new, old in ((split.full, want), (split.train, want._subgraph(keep))):
        assert list(new.out_index) == list(old.out_index)
        assert all(list(new.out_index[key]) == list(tails)
                   for key, tails in old.out_index.items())
    ref_full, ref_train, ref_held = ref_load_split(str(split_dir))
    assert split.held_out == ref_held
    assert_same_graph(split.full, ref_full)
    assert_same_graph(split.train, ref_train)

    out = tmp_path / "saved"
    written = save_split(split, str(out))
    for fname, rows, key in (("train.tsv", split.train.array, "train_sha256"),
                             ("heldout.tsv", split.held_out, "heldout_sha256")):
        data = ref_write_triples(split.full, rows)
        assert (out / fname).read_bytes() == data
        assert written[key] == hashlib.sha256(data).hexdigest()
    assert json.loads((out / "manifest.json").read_text()) == written
    if end == "\n":  # a canonical file reads back as itself, blank line aside
        assert (out / "heldout.tsv").read_bytes() == blobs[1]
        assert (out / "train.tsv").read_bytes() == blobs[0].replace(b"\n\n", b"\n")


# --- artifact I/O in bounded memory -----------------------------------------


@pytest.fixture(scope="module")
def large_split(tmp_path_factory):
    """A saved split of 100,100 triple lines (1.2 MB of train.tsv) over 1,100
    entities, so that the graph it loads into is small beside its names."""
    n = 100_000
    rows = [(f"e{i % 1000}", f"r{i % 7}", f"e{i // 100}") for i in range(n)]
    rows += [(f"u{i}", "likes", f"e{i}") for i in range(100)]
    g = graph_from_names(rows, [f"e{i}" for i in range(100)], [f"u{i}" for i in range(100)],
                         "likes")
    split = split_edges(g, 0.05, seed=1)
    out = tmp_path_factory.mktemp("large_split")
    save_split(split, str(out))
    return out, split


def test_load_split_holds_one_run_of_names_at_a_time(large_split):
    """Loading allocates little beyond the graph it returns: 3.3 MB above it
    at the peak, 4.6 MB if the files' bytes outlive the parse, and 22.7 MB
    when every name of both files was alive at once."""
    split_dir, saved = large_split
    split, peak, retained = traced(lambda: load_split(str(split_dir)))
    assert len(split.full.array) == len(saved.full.array) == 100_100
    assert peak - retained < 4_000_000, (peak, retained)


@pytest.mark.parametrize("last,fault", [
    (b"e0\tr0\te(1", "name 'e(1' contains forbidden character(s) ['(']"),
    (b"e0\tr0\te\xff1", "not UTF-8: 'utf-8' codec can't decode byte 0xff in position 7"),
], ids=["forbidden_char", "not_utf8"])
def test_fault_on_the_last_line_is_named_in_bounded_memory(last, fault):
    """A fault on line 100,101 of a triple file is named holding little
    beyond the file's decoded text: 0.13 MB above it for a forbidden
    character, 1.28 MB for a byte that is not UTF-8 (the decoder widens its
    text to two bytes a character there). The line parser peaked at 24.9 MB."""
    data = "".join(f"e{i % 1000}\tr{i % 7}\te{i // 100}\n"
                   for i in range(100_100)).encode() + last + b"\n"

    def diagnose():
        with pytest.raises(GraphFormatError) as exc:
            next(kg._parse_fields("train.tsv", data, 3))
        return str(exc.value)

    message, peak, _ = traced(diagnose)
    assert message.startswith(f"train.tsv:100101: {fault}"), message
    text_size = sys.getsizeof(data.decode("utf-8", "surrogateescape"))
    assert peak - text_size < 2_000_000, (peak, text_size)


def test_save_split_writes_one_run_at_a_time(large_split, tmp_path):
    """0.75 MB at the peak, against 14.7 MB when each file was joined whole."""
    split_dir, split = large_split
    _, peak, _ = traced(lambda: save_split(split, str(tmp_path)))
    for fname in ("train.tsv", "heldout.tsv", "manifest.json"):
        assert (tmp_path / fname).read_bytes() == (split_dir / fname).read_bytes()
    assert peak < 2_000_000, peak
