"""Knowledge graph storage: vocabularies, triples, traversal indices, edge splits.

A graph is one ``(n, 3)`` int64 array of ``(head, relation, tail)`` ids over
dense integer vocabularies, with a designated interaction relation linking
users to items; its traversal indices are built from that array with numpy
sorts: tail sets by ``(head, relation)`` and, on first use, the in-edges as
flat sequences by tail, read through ``in_edges`` and ``in_runs``. Graphs are
immutable and safe to share across threads.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, filterfalse
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import artifacts


class GraphFormatError(ValueError):
    """Raised for malformed input files (message carries the line number)."""


class UnknownNameError(KeyError):
    """Raised when an entity or relation name is not in the vocabulary."""

    def __str__(self):
        return self.args[0]


class SplitInfeasibleError(RuntimeError):
    """Raised when an edge hold-out cannot preserve vocabulary coverage."""


# What ends a name in query text: the 29 characters ``str.isspace()`` accepts
# (listed: a regex class of them beats ``\s``) and the parentheses.
NAME_SEPARATORS = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
                   "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000()")
# A graph name holds none of them, so it reads back as one query token, nor a
# quote, the ``|`` that ends the user name of an ``answer`` line, or a U+FEFF BOM.
_FORBIDDEN_NAME_CHARS = set(NAME_SEPARATORS + "\"'|\ufeff")

# Whole-file forms of a triple file and of a name list: lines of three
# tab-separated names or of one name, blank lines allowed. A name holds no
# lone surrogate either: UTF-8 cannot encode one, and the loaders decode a
# byte that is not UTF-8 to one, so such a line fails the form. The repeats are
# possessive: a name holds no tab or newline, so giving back a character or a
# line can never lead to a match, and without backtracking points the check
# keeps no state per line (a greedy ``*`` held one per line, 33 MB for the
# 78,090-line train file of 10,000 items).
_SURROGATES = "\ud800-\udfff"
_NAME = "[^" + re.escape("".join(sorted(_FORBIDDEN_NAME_CHARS))) + _SURROGATES + "]++"
_FILE_FORMS = {n: re.compile("(?:(?:{0})?\n)*+(?:{0})?".format("\t".join([_NAME] * n)))
               for n in (1, 3)}
# Triple files are parsed, indexed and written in runs of lines, never all names at once.
_RUN_LINES = 4096
_RUNS = re.compile("(?:[^\n]*+\n){1,%d}+|[^\n]++" % _RUN_LINES)


class Triple(NamedTuple):
    head: int
    rel: int
    tail: int


class Vocab:
    """Bidirectional name <-> dense id map; ids follow first-appearance order."""

    __slots__ = ("names", "index")

    def __init__(self, names: Iterable[str] = ()):
        self.names: list[str] = list(dict.fromkeys(names))
        self.index: dict[str, int] = dict(zip(self.names, range(len(self.names))))

    def id_of(self, name: str) -> int:
        try:
            return self.index[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise UnknownNameError(f"unknown name: {name!r}") from None

    def name_of(self, idx: int) -> str:
        return self.names[idx]

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def content_hash(self) -> str:
        return hashlib.sha256(b"".join(name.encode("utf-8") + b"\x00"
                                       for name in self.names)).hexdigest()


class KnowledgeGraph:
    """Immutable triple store: ``array`` holds the distinct ``(head, rel,
    tail)`` rows (first occurrences, in input order) as ``(n, 3)`` int64 and
    ``out_index`` maps ``(head, rel)`` to its tails. Built on first use: the
    ``Triple`` view ``triples``, and the in-edges sorted by ``(tail, rel,
    head)`` as per-entity offsets, relations and heads, which ``in_edges``
    and ``in_runs`` read. Every id in them is the vocabulary's own int
    object. Each ``like_rel`` triple runs from one of ``users`` to
    one of ``items``."""

    def __init__(self, entity_vocab: Vocab, relation_vocab: Vocab, triples,
                 items: frozenset[int], users: frozenset[int], like_rel: int):
        rows = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        if not len(rows):
            raise GraphFormatError("empty graph: no triples")
        self.entity_vocab, self.relation_vocab = entity_vocab, relation_vocab
        self.items, self.users = frozenset(items), frozenset(users)
        self._sorted_items = tuple(sorted(self.items))
        self.like_rel = like_rel

        n_ent, n_rel = len(entity_vocab), len(relation_vocab)
        h, r, t = rows.T
        in_range = (rows.min(axis=1) >= 0) & (h < n_ent) & (t < n_ent) & (r < n_rel)
        bad = ~in_range | ((r == like_rel) & ~(np.isin(h, list(self.users))
                                               & np.isin(t, list(self.items))))
        if bad.any():
            i = int(bad.argmax())
            tri = Triple(*rows[i].tolist())
            if not in_range[i]:
                raise GraphFormatError(f"triple {tri} out of vocabulary range")
            names = (entity_vocab.names[tri.head], relation_vocab.names[tri.rel],
                     entity_vocab.names[tri.tail])
            raise GraphFormatError(f"interaction triple {names} must link a user to an item")
        # Duplicate edges carry no information for traversal and would break
        # the disjointness of edge splits; keep first occurrences only.
        _, first = np.unique((h * n_rel + r) * n_ent + t, return_index=True)
        if len(first) < len(rows):
            rows = rows[np.sort(first)]
        rows.flags.writeable = False
        self.array = rows
        # Indices map numpy ids through object arrays of the vocabularies' own
        # id objects, so set lookups hit on identity before comparing ints.
        self._ents, self._rels = [
            np.array(list(map(v.index.__getitem__, v.names)), dtype=object)
            for v in (entity_vocab, relation_vocab)]
        self.out_index: dict[tuple[int, int], frozenset[int]] = self._tail_sets(rows)

    def _tail_sets(self, rows: np.ndarray) -> dict[tuple[int, int], frozenset[int]]:
        """``out_index`` entries of ``rows``, by ascending ``(head, rel)``."""
        if not len(rows):
            return {}
        # A stable sort fills each tail set in triple order. Freezing a set, not a
        # list, sizes the table to fit (a list's can be 2x sparser, slower to scan).
        ents, rels = self._ents, self._rels
        h, r, t = rows.T
        key = h * self.n_relations + r
        order = np.argsort(key, kind="stable")
        starts = [0, *(np.flatnonzero(np.diff(key[order])) + 1).tolist()]
        tails, first = ents[t[order]].tolist(), order[starts]
        runs = map(tails.__getitem__, map(slice, starts, starts[1:] + [len(tails)]))
        return dict(zip(zip(ents[h[first]].tolist(), rels[r[first]].tolist()),
                        map(frozenset, map(set, runs))))

    def _subgraph(self, keep: np.ndarray) -> KnowledgeGraph:
        """The graph of the rows under the boolean mask ``keep``, built from
        this graph's checked, distinct rows without checking them again. It
        shares the vocabularies, item and user sets and id objects, and the
        tail set of every ``(head, rel)`` that keeps all its edges: a set
        rebuilt from the same tails in the same order would equal it in
        iteration order and size. Only the others are rebuilt."""
        sub = object.__new__(KnowledgeGraph)
        sub.entity_vocab, sub.relation_vocab = self.entity_vocab, self.relation_vocab
        sub.items, sub.users, sub._sorted_items = self.items, self.users, self._sorted_items
        sub.like_rel, sub._ents, sub._rels = self.like_rel, self._ents, self._rels
        sub.array = self.array[keep]
        sub.array.flags.writeable = False
        n_rel = self.n_relations
        h, r, _ = self.array.T
        key = h * n_rel + r
        # The (head, rel) of each dropped row, tested with ``np.isin``, not made
        # unique: in numpy 2.4 a bare ``np.unique`` imports ``numpy.ma`` (1 MB).
        cut = key[~keep]
        sub.out_index = out = dict(self.out_index)
        out.update(sub._tail_sets(self.array[keep & np.isin(key, cut)]))  # keys keep their order
        for k in cut[np.isin(cut, key[keep], invert=True)].tolist():  # keys left with no edge
            out.pop((self._ents[k // n_rel], self._rels[k % n_rel]), None)
        return sub

    @property
    def n_entities(self) -> int:
        return len(self.entity_vocab)

    @property
    def n_relations(self) -> int:
        return len(self.relation_vocab)

    def neighbors_out(self, e: int, r: int) -> frozenset[int]:
        """Exact tail set of ``(e, r, *)`` edges; empty when there are none."""
        return self.out_index.get((e, r), frozenset())

    def in_edges(self, t: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(rels, heads)`` of ``t``'s in-edges, sorted by ``(rel, head)``."""
        off, rels, heads = self._in_index
        lo, hi = off[t], off[t + 1]
        return rels[lo:hi], heads[lo:hi]

    def in_runs(self, targets: Iterable[int], rel: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        """``(t, heads)`` for each ``t`` of ``targets`` in turn: the heads of
        its in-edges of relation ``rel``, ascending, found by bisection."""
        off, rels, heads = self._in_index
        for t in targets:
            lo, hi = off[t], off[t + 1]
            yield t, heads[bisect_left(rels, rel, lo, hi):bisect_left(rels, rel + 1, lo, hi)]

    def sorted_items(self) -> tuple[int, ...]:
        """Item ids in ascending order, sorted once at construction."""
        return self._sorted_items

    def triples_of(self, rows: np.ndarray) -> tuple[Triple, ...]:
        """``(n, 3)`` id rows of this graph's vocabularies as ``Triple``s."""
        h, r, t = np.asarray(rows).reshape(-1, 3).T
        return tuple(map(Triple, self._ents[h].tolist(), self._rels[r].tolist(),
                         self._ents[t].tolist()))

    @cached_property
    def triples(self) -> tuple[Triple, ...]:
        return self.triples_of(self.array)

    def index_in_edges(self) -> None:
        """Build the in-edge index now instead of on its first read."""
        self._in_index

    # Built on first use: backward sampling's index and its ascending pools of
    # seed items and targets. The oracle reads ``in_runs`` when a projection
    # checks its candidates' in-edges, so the ``answer`` REPL builds it through
    # ``index_in_edges`` before its first read, not on its first such line:
    # 6-9 ms for the 78,090-triple train graph at 10,000 items (2-vCPU x86-64
    # VM), including a young collection that untracks its tuples of ints.

    @cached_property
    def _in_index(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """``(off, rels, heads)``: the edges sorted by ``(tail, rel, head)``,
        with the in-edges of ``t`` at positions ``off[t]:off[t + 1]``."""
        h, r, t = self.array.T
        order = np.argsort((t * self.n_relations + r) * self.n_entities + h)
        off = np.searchsorted(t[order], np.arange(self.n_entities + 1))
        index = (tuple(off.tolist()), tuple(self._rels[r[order]].tolist()),
                 tuple(self._ents[h[order]].tolist()))
        gc.collect(0)
        return index

    @cached_property
    def seed_items(self) -> tuple[int, ...]:
        return tuple(filter(set(self.in_edge_targets).__contains__, self.sorted_items()))

    @cached_property
    def in_edge_targets(self) -> tuple[int, ...]:
        return tuple(self._ents[np.flatnonzero(np.diff(self._in_index[0]))].tolist())


def _name_fault(name: str) -> str | None:
    """Why ``name`` cannot be a graph name, or None if it can."""
    if not name:
        return "empty name field"
    if bad := sorted(_FORBIDDEN_NAME_CHARS.intersection(name)):
        return (f"name {name!r} contains forbidden character(s) {bad}; names hold no "
                "whitespace, parenthesis, quote, '|' or U+FEFF")
    if re.search(f"[{_SURROGATES}]", name):
        return f"name {name!r} holds a lone surrogate, which UTF-8 cannot encode"
    return None


def _line_fault(line: str, n_fields: int) -> str:
    """Why ``line``, a line of a decoded file that breaks its form, does not
    hold ``n_fields`` names: the first of its bytes that is not UTF-8, its
    tab count, or its first name that breaks the name rule."""
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"not UTF-8: {exc}"
    parts = line.split("\t") if n_fields > 1 else [line]
    if len(parts) != n_fields:
        return f"expected exactly two tab separators, got {len(parts) - 1}"
    return next(filter(None, map(_name_fault, parts)))


def _parse_fields(path: str, data: bytes, n_fields: int) -> Iterator[list[str]]:
    """The names in ``data``, the bytes of ``path``, ``n_fields`` a line, as
    one flat list per run of up to ``_RUN_LINES`` lines. The text (bytes
    that are not UTF-8 escaped, newlines translated as in text mode) is
    checked whole before the first run; a file that fails raises
    ``GraphFormatError`` naming its first line that breaks the form."""
    text = data.decode("utf-8", "surrogateescape").replace("\r\n", "\n").replace("\r", "\n")
    form = _FILE_FORMS[n_fields]
    if not form.fullmatch(text):
        # The possessive form gives back nothing, so its longest match from
        # the start ends inside the first line that breaks it.
        at = form.match(text).end()
        start, stop = text.rfind("\n", 0, at) + 1, text.find("\n", at)
        line = text[start:stop] if stop >= 0 else text[start:]
        lineno = text.count("\n", 0, start) + 1
        raise GraphFormatError(f"{path}:{lineno}: {_line_fault(line, n_fields)}")
    for run in _RUNS.finditer(text):
        yield list(filter(None, run[0].replace("\n", "\t").split("\t")))


def _read_fields(path: str, n_fields: int) -> Iterator[list[str]]:
    with open(path, "rb") as f:
        return _parse_fields(path, f.read(), n_fields)


def _index_fields(*sources: Iterable[list[str]]) -> tuple[Vocab, Vocab, np.ndarray, list[int]]:
    """Vocabularies, ``(n, 3)`` id array and each source's end row, for sources of
    runs (lists, emptied of relations in place) of flat head/rel/tail names. A run
    gets its ids before the next is read; ids follow first appearance, head first."""
    def ids(index: dict[str, int], names: list[str]) -> np.ndarray:
        index.update(zip(filterfalse(index.__contains__, dict.fromkeys(names)), count(len(index))))
        return np.fromiter(map(index.__getitem__, names), np.int64, len(names))
    ents, rels = {}, {}
    blocks, ends = [np.empty((0, 3), np.int64)], []
    for runs in sources:
        for fields in runs:
            rel_ids = ids(rels, fields[1::3])
            del fields[1::3]
            ent_ids = ids(ents, fields)
            blocks.append(np.column_stack((ent_ids[0::2], rel_ids, ent_ids[1::2])))
        ends.append(sum(map(len, blocks)))
    return Vocab(ents), Vocab(rels), np.concatenate(blocks), ends


def graph_from_names(triple_rows: Iterable[tuple[str, str, str]],
                     item_names: Iterable[str], user_names: Iterable[str],
                     like_rel_name: str) -> KnowledgeGraph:
    """Assemble a graph from name rows; ids follow first-appearance order.
    Names follow the file loaders' rule, so the graph's split can be saved
    and loaded back."""
    ev, rv, ids, _ = _index_fields([list(chain.from_iterable(triple_rows))])
    if not len(ids):
        raise GraphFormatError("empty graph: no triples")
    names = ev.names + rv.names
    if not (all(names) and re.fullmatch(_NAME, "".join(names))):
        raise GraphFormatError(next(filter(None, map(_name_fault, names))))
    return KnowledgeGraph(ev, rv, ids, frozenset(map(ev.id_of, item_names)),
                          frozenset(map(ev.id_of, user_names)), rv.id_of(like_rel_name))


def _listed_ids(path: str, ev: Vocab, error: type[Exception]) -> frozenset[int]:
    """Ids of the entity names in ``path``; one ``ev`` lacks raises ``error`` naming it."""
    try:
        return frozenset(map(ev.id_of, chain.from_iterable(_read_fields(path, 1))))
    except UnknownNameError as exc:
        raise error(f"{path}: {exc}") from None


def load_graph(triple_file: str, item_file: str, user_file: str,
               like_rel_name: str) -> KnowledgeGraph:
    """Load and index a graph from the three line-oriented vocabulary files."""
    ev, rv, ids, _ = _index_fields(_read_fields(triple_file, 3))
    if not len(ids):
        raise GraphFormatError("empty graph: no triples")
    return KnowledgeGraph(ev, rv, ids, _listed_ids(item_file, ev, GraphFormatError),
                          _listed_ids(user_file, ev, GraphFormatError), rv.id_of(like_rel_name))


@dataclass(frozen=True)
class KgSplit:
    """A graph together with a train subgraph and the held-out edges."""

    full: KnowledgeGraph
    train: KnowledgeGraph
    held_out: tuple[Triple, ...]
    fraction: float
    seed: int


def split_edges(kg: KnowledgeGraph, fraction: float, seed: int) -> KgSplit:
    """Hold out ``round(fraction * |triples|)`` edges uniformly at random.

    A tentatively held-out edge is swapped back (and replaced by the next
    removable edge in the shuffled order) whenever removing it would leave an
    entity or relation with no remaining train triple, so every vocabulary
    row keeps at least one training occurrence. Deterministic in ``seed``.
    The train graph is ``kg``'s array under a keep mask.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    n = len(kg.array)
    k = int(round(fraction * n))
    order = list(range(n))
    random.Random(seed).shuffle(order)

    # Coverage counts: how many triples mention each entity / relation.
    h, r, t = kg.array.T
    ent_count = np.bincount(np.concatenate((h, t[h != t])),
                            minlength=kg.n_entities).tolist()
    rel_count = np.bincount(r, minlength=kg.n_relations).tolist()
    heads, rels, tails = h.tolist(), r.tolist(), t.tolist()

    keep, held = np.ones(n, dtype=bool), 0
    for idx in order:
        if held == k:
            break
        ents = {heads[idx], tails[idx]}
        if all(ent_count[e] >= 2 for e in ents) and rel_count[rels[idx]] >= 2:
            keep[idx] = False
            held += 1
            for e in ents:
                ent_count[e] -= 1
            rel_count[rels[idx]] -= 1
    if held < k:
        raise SplitInfeasibleError(f"cannot hold out {k} of {n} triples without "
                                   "orphaning a vocabulary entry")

    return KgSplit(full=kg, train=kg._subgraph(keep),
                   held_out=kg.triples_of(kg.array[~keep]), fraction=fraction, seed=seed)


# --- on-disk layout: a split directory is fully self-describing -------------
#   train.tsv / heldout.tsv   tab-separated triples by name
#   items.txt / users.txt     one entity name per line
#   manifest.json             like relation, seed, fraction, counts, hashes

TRAIN_FILE = "train.tsv"
HELDOUT_FILE = "heldout.tsv"
ITEMS_FILE = "items.txt"
USERS_FILE = "users.txt"
MANIFEST_FILE = "manifest.json"


def write_triples(path: str, kg: KnowledgeGraph, triples) -> str:
    """One ``head<TAB>rel<TAB>tail`` line of names per triple (``Triple``s or
    ``(n, 3)`` id rows), in order; returns the sha256 of the bytes written."""
    ev, rv = kg.entity_vocab.names, kg.relation_vocab.names
    rows, sha = np.asarray(triples, dtype=np.int64).reshape(-1, 3), hashlib.sha256()
    with artifacts.atomic_write(path) as f:
        for at in range(0, len(rows), _RUN_LINES):
            h, r, t = rows[at:at + _RUN_LINES].T.tolist()
            data = "".join(map("{}\t{}\t{}\n".format, map(ev.__getitem__, h),
                               map(rv.__getitem__, r), map(ev.__getitem__, t))).encode("utf-8")
            f.write(data)
            sha.update(data)
    return sha.hexdigest()


def write_names(path: str, kg: KnowledgeGraph, ids: Iterable[int]) -> None:
    """One entity name per line, by ascending id."""
    with artifacts.atomic_write(path) as f:
        f.write("".join(kg.entity_vocab.name_of(e) + "\n" for e in sorted(ids))
                .encode("utf-8"))


def save_split(split: KgSplit, out_dir: str) -> dict:
    """Write a split directory, manifest last; returns the manifest dict."""
    os.makedirs(out_dir, exist_ok=True)
    kg = split.full
    train_sha = write_triples(os.path.join(out_dir, TRAIN_FILE), kg, split.train.array)
    held_sha = write_triples(os.path.join(out_dir, HELDOUT_FILE), kg, split.held_out)
    write_names(os.path.join(out_dir, ITEMS_FILE), kg, kg.items)
    write_names(os.path.join(out_dir, USERS_FILE), kg, kg.users)
    manifest = {
        "like_rel": kg.relation_vocab.name_of(kg.like_rel),
        "fraction": split.fraction, "seed": split.seed,
        "n_triples": len(kg.array), "n_train": len(split.train.array),
        "n_held_out": len(split.held_out),
        "n_entities": kg.n_entities, "n_relations": kg.n_relations,
        "n_items": len(kg.items), "n_users": len(kg.users),
        "train_sha256": train_sha, "heldout_sha256": held_sha,
    }
    artifacts.write_json(os.path.join(out_dir, MANIFEST_FILE), manifest)
    return manifest


def _read_manifest(path: str) -> dict:
    """The manifest's JSON object, with the fields ``load_split`` uses typed."""
    with open(path, "rb") as f:
        manifest = artifacts.parse_json(f.read(), path)
    if not isinstance(manifest, dict):
        raise artifacts.ArtifactMismatchError(f"{path}: not a JSON object")
    for key, ok, name in (
            ("like_rel", lambda v: type(v) is str, "a string"),
            ("fraction", lambda v: type(v) in (int, float) and 0 < v < 1, "a number in (0, 1)"),
            ("seed", lambda v: type(v) is int, "an integer")):
        value = manifest.get(key)
        if not ok(value):
            raise artifacts.ArtifactMismatchError(f"{path}: {key} must be {name}, is {value!r}")
    return manifest


def load_split(split_dir: str) -> KgSplit:
    """Reload a split directory written by :func:`save_split`.

    The manifest must be a JSON object whose ``like_rel`` names a relation,
    with a ``fraction`` in (0, 1) and an integer ``seed``, and the files must
    match its hashes and counts and list only entities of the triples, or
    ``ArtifactMismatchError`` is raised; a triple file's hash is checked
    before it is parsed. No triple may appear twice across the two files,
    as ``save_split`` never writes one. Ids follow first appearance over the
    train rows, then the held-out rows; the train graph is the first
    ``n_train`` rows of the full graph's id array.
    """
    manifest_path = os.path.join(split_dir, MANIFEST_FILE)
    manifest = _read_manifest(manifest_path)
    paths = [os.path.join(split_dir, f) for f in (TRAIN_FILE, HELDOUT_FILE)]
    blobs = []
    for path in paths:
        with open(path, "rb") as f:
            blobs.append(f.read())
    artifacts.check_manifest(manifest_path, manifest, {
        key: hashlib.sha256(data).hexdigest()
        for key, data in zip(("train_sha256", "heldout_sha256"), blobs)})
    ev, rv, ids, (n_train, n_triples) = _index_fields(*map(_parse_fields, paths, blobs, (3, 3)))
    del blobs  # before the graph's indices are built
    like = manifest["like_rel"]
    artifacts.check_manifest(manifest_path, manifest, {
        "n_train": n_train, "n_held_out": n_triples - n_train,
        "n_entities": len(ev), "n_relations": len(rv),
    }, [] if like in rv else [f"like_rel {like!r} is not a relation"])
    items, users = (_listed_ids(os.path.join(split_dir, f), ev, artifacts.ArtifactMismatchError)
                    for f in (ITEMS_FILE, USERS_FILE))
    full = KnowledgeGraph(ev, rv, ids, items, users, rv.id_of(like))
    if len(full.array) < len(ids):
        # The graph keeps first occurrences in order: the first row where it
        # departs from ``ids`` is the first repeat.
        kept = (full.array == ids[:len(full.array)]).all(axis=1)
        i = int(np.append(kept, False).argmin())
        fname, k = (TRAIN_FILE, i) if i < n_train else (HELDOUT_FILE, i - n_train)
        h, r, t = ids[i].tolist()
        raise artifacts.ArtifactMismatchError(
            f"{os.path.join(split_dir, fname)}: triple {k + 1} "
            f"{(ev.names[h], rv.names[r], ev.names[t])} repeats an earlier triple of the "
            "split; its two files hold distinct triples")
    artifacts.check_manifest(manifest_path, manifest, {
        "n_items": len(items), "n_users": len(users), "n_triples": len(full.array)})
    return KgSplit(full=full, train=full._subgraph(np.arange(len(ids)) < n_train),
                   held_out=full.triples_of(ids[n_train:]),
                   fraction=manifest["fraction"], seed=manifest["seed"])
