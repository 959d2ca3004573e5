"""The array-built graph store against the dict-built store it replaced.

``RefGraph``, ``ref_*`` and the line parsers below are the former
constructor, name->id assignment, edge split, split loader and parsers, kept
here only as the reference. The new store must give the same triples,
vocabularies, adjacency (including the order of ``in_adj``), sampling pools
and parse errors, and hold the vocabulary's own int objects in its indices.
"""

import hashlib
import json
import pathlib
import random
import shutil
import sys

import pytest

from conftest import TINY_ROWS
from lqrec import kg, synth
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
            f"{sorted(bad)}; names must be whitespace- and paren-free")
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
    assert list(new.in_adj) == list(ref.in_adj)
    for e in range(ref.n_entities):
        assert new.in_edges(e) == ref.in_edges(e)
    assert new.seed_items == ref.seed_items
    assert new.in_edge_targets == ref.in_edge_targets
    # every id in the indices is the vocabulary's own int object
    ev, rv = new.entity_vocab, new.relation_vocab
    for (head, rel), tails in new.out_index.items():
        assert head is ev.index[ev.names[head]] and rel is rv.index[rv.names[rel]]
        assert all(t is ev.index[ev.names[t]] for t in tails)
    for tail, pairs in new.in_adj.items():
        assert tail is ev.index[ev.names[tail]]
        assert all(r is rv.index[rv.names[r]] and h is ev.index[ev.names[h]]
                   for r, h in pairs)


# --- differential tests -----------------------------------------------------


def test_graph_matches_reference(named_input):
    rows = named_input["rows"]
    rows = rows + rows[: len(rows) // 3]  # duplicates keep first occurrences
    args = (named_input["items"], named_input["users"], named_input["like"])
    assert_same_graph(graph_from_names(rows, *args), ref_from_names(rows, *args))


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
    reference = ref_read_names if fname.endswith(".txt") else ref_parse_triple_lines
    with pytest.raises((GraphFormatError, UnicodeDecodeError)) as want:
        reference(path)
    with pytest.raises(GraphFormatError) as got:
        load_split(str(split_dir))
    if isinstance(want.value, GraphFormatError):
        assert str(got.value) == str(want.value)
    else:  # the reference gave only the codec's message; now it names the line
        assert str(got.value).startswith(f"{path}:{lineno}: not UTF-8: 'utf-8' codec")
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


def test_line_parser_reads_no_file(saved_split, tmp_path, monkeypatch):
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


def refuse_line_parser(path, n_fields):
    raise AssertionError(f"line parser ran on {path}")


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
    monkeypatch.setattr(kg, "_parse_lines", refuse_line_parser)
    got = load_split(str(out))
    assert got.held_out == want.held_out
    for new, old in ((got.full, want.full), (got.train, want.train)):
        assert new.triples == old.triples
        assert new.entity_vocab.names == old.entity_vocab.names
        assert (new.items, new.users) == (old.items, old.users)


def test_wellformed_files_skip_the_line_parser(saved_split, monkeypatch):
    monkeypatch.setattr(kg, "_parse_lines", refuse_line_parser)
    assert len(load_split(str(saved_split)).full.items) == 250
