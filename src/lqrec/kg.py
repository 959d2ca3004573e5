"""Knowledge graph storage: vocabularies, triples, traversal indices, edge splits.

A graph is one ``(n, 3)`` int64 array of ``(head, relation, tail)`` ids over
dense integer vocabularies, with a designated interaction relation linking
users to items; its traversal indices are built from that array with numpy
sorts, some on first use. Graphs are immutable and safe to share across threads.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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
# quote or the ``|`` that ends the user name of an ``answer`` line.
_FORBIDDEN_NAME_CHARS = set(NAME_SEPARATORS + "\"'|")

# Whole-file forms of a triple file and of a name list: lines of three
# tab-separated names or of one name, blank lines allowed.
_NAME = "[^" + re.escape("".join(sorted(_FORBIDDEN_NAME_CHARS))) + "]+"
_FILE_FORMS = {n: re.compile("(?:(?:{0})?\n)*(?:{0})?".format("\t".join([_NAME] * n)))
               for n in (1, 3)}


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


def _own(ids: np.ndarray, own: list[int]) -> list[int]:
    """``ids`` as the int objects of ``own``, a vocabulary's ids by id."""
    return list(map(own.__getitem__, ids.tolist()))


def _runs(sorted_key: np.ndarray, values: list) -> tuple[list[int], Iterator[list]]:
    """Start offsets of the runs of equal ``sorted_key``, and each run's ``values``."""
    cut = (np.flatnonzero(sorted_key[1:] != sorted_key[:-1]) + 1).tolist()
    starts = [0] + cut
    return starts, map(values.__getitem__, map(slice, starts, cut + [len(values)]))


class KnowledgeGraph:
    """Immutable triple store: ``array`` holds the distinct ``(head, rel,
    tail)`` rows (first occurrences, in input order) as ``(n, 3)`` int64 and
    ``out_index`` maps ``(head, rel)`` to its tails; ``in_adj`` and the
    ``Triple`` view ``triples`` are built on first use. Every id in them is
    the vocabulary's own int object. Each ``like_rel`` triple runs from one
    of ``users`` to one of ``items``."""

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
        # Indices map numpy output through the vocabularies' own id objects,
        # so set lookups hit on identity before comparing ints.
        self._ents, self._rels = ents, rels = [
            list(map(v.index.__getitem__, v.names)) for v in (entity_vocab, relation_vocab)]

        # A stable sort fills each tail set in triple order. Freezing a set, not a
        # list, sizes the table to fit (a list's can be 2x sparser, slower to scan).
        h, r, t = rows.T
        key = h * n_rel + r
        order = np.argsort(key, kind="stable")
        starts, runs = _runs(key[order], _own(t[order], ents))
        first = order[starts]
        self.out_index: dict[tuple[int, int], frozenset[int]] = dict(zip(
            zip(_own(h[first], ents), _own(r[first], rels)), map(frozenset, map(set, runs))))

    @property
    def n_entities(self) -> int:
        return len(self.entity_vocab)

    @property
    def n_relations(self) -> int:
        return len(self.relation_vocab)

    def neighbors_out(self, e: int, r: int) -> frozenset[int]:
        """Exact tail set of ``(e, r, *)`` edges; empty when there are none."""
        return self.out_index.get((e, r), frozenset())

    def in_edges(self, t: int) -> tuple[tuple[int, int], ...]:
        """Distinct ``(rel, head)`` pairs with an edge into ``t``, sorted."""
        return self.in_adj.get(t, ())

    def sorted_items(self) -> tuple[int, ...]:
        """Item ids in ascending order, sorted once at construction."""
        return self._sorted_items

    def triples_of(self, rows: np.ndarray) -> tuple[Triple, ...]:
        """``(n, 3)`` id rows of this graph's vocabularies as ``Triple``s."""
        h, r, t = np.asarray(rows).reshape(-1, 3).T
        return tuple(map(Triple, _own(h, self._ents), _own(r, self._rels),
                         _own(t, self._ents)))

    @cached_property
    def triples(self) -> tuple[Triple, ...]:
        return self.triples_of(self.array)

    # Built on first use (graphs that only answer queries never pay): backward
    # sampling's index and its ascending pools of seed items and targets.

    @cached_property
    def in_adj(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """(rel, head) pairs pointing at each tail, sorted so backward query
        sampling is deterministic; the tails are keyed in ascending order."""
        h, r, t = self.array.T
        order = np.argsort((t * self.n_relations + r) * self.n_entities + h)
        pairs = list(zip(_own(r[order], self._rels), _own(h[order], self._ents)))
        starts, runs = _runs(t[order], pairs)
        return dict(zip(_own(t[order[starts]], self._ents), map(tuple, runs)))

    @cached_property
    def seed_items(self) -> tuple[int, ...]:
        return tuple(i for i in self.sorted_items() if i in self.in_adj)

    @cached_property
    def in_edge_targets(self) -> tuple[int, ...]:
        return tuple(self.in_adj)


def _parse_lines(path: str, data: bytes, n_fields: int) -> list[str]:
    """The line parser over ``data``, the bytes of ``path``: ``n_fields``
    tab-separated names a line (blank lines skipped, lines split as in text
    mode), as one flat list; errors carry line numbers."""
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
            if not name:
                raise GraphFormatError(f"{where} empty name field")
            if bad := sorted(_FORBIDDEN_NAME_CHARS.intersection(name)):
                raise GraphFormatError(f"{where} name {name!r} contains forbidden "
                                       f"character(s) {bad}; names must be "
                                       "whitespace- and paren-free")
        fields += parts
    return fields


def _parse_fields(path: str, data: bytes, n_fields: int) -> list[str]:
    """The names in ``data``, the bytes of ``path``, as one flat list,
    ``n_fields`` a line. The text (newlines translated as in text mode) is
    checked whole; a file that fails, or is not UTF-8, goes through the line
    parser."""
    try:
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        ok = _FILE_FORMS[n_fields].fullmatch(text)
    except UnicodeDecodeError:
        ok = None
    if not ok:
        return _parse_lines(path, data, n_fields)
    return list(filter(None, text.replace("\n", "\t").split("\t")))


def _read_fields(path: str, n_fields: int) -> list[str]:
    with open(path, "rb") as f:
        return _parse_fields(path, f.read(), n_fields)


def _index_fields(fields: list[str]) -> tuple[Vocab, Vocab, np.ndarray]:
    """Vocabularies and the ``(n, 3)`` id array of flat head/rel/tail names;
    entity ids follow first appearance over heads and tails row by row."""
    ent_names, rel_names = fields.copy(), fields[1::3]
    del ent_names[1::3]
    ev, rv = Vocab(ent_names), Vocab(rel_names)
    ents, rels = (np.fromiter(map(v.index.__getitem__, names), np.int64, len(names))
                  for v, names in ((ev, ent_names), (rv, rel_names)))
    return ev, rv, np.column_stack((ents[0::2], rels, ents[1::2]))


def graph_from_names(triple_rows: Iterable[tuple[str, str, str]],
                     item_names: Iterable[str], user_names: Iterable[str],
                     like_rel_name: str) -> KnowledgeGraph:
    """Assemble a graph from name rows; ids follow first-appearance order."""
    ev, rv, ids = _index_fields(list(chain.from_iterable(triple_rows)))
    if not len(ids):
        raise GraphFormatError("empty graph: no triples")
    return KnowledgeGraph(ev, rv, ids, frozenset(map(ev.id_of, item_names)),
                          frozenset(map(ev.id_of, user_names)), rv.id_of(like_rel_name))


def _listed_ids(path: str, ev: Vocab, error: type[Exception]) -> frozenset[int]:
    """Ids of the entity names in ``path``; one ``ev`` lacks raises ``error`` naming it."""
    try:
        return frozenset(map(ev.id_of, _read_fields(path, 1)))
    except UnknownNameError as exc:
        raise error(f"{path}: {exc}") from None


def load_graph(triple_file: str, item_file: str, user_file: str,
               like_rel_name: str) -> KnowledgeGraph:
    """Load and index a graph from the three line-oriented vocabulary files."""
    ev, rv, ids = _index_fields(_read_fields(triple_file, 3))
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

    train = KnowledgeGraph(kg.entity_vocab, kg.relation_vocab, kg.array[keep],
                           kg.items, kg.users, kg.like_rel)
    return KgSplit(full=kg, train=train, held_out=kg.triples_of(kg.array[~keep]),
                   fraction=fraction, seed=seed)


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
    h, r, t = np.asarray(triples, dtype=np.int64).reshape(-1, 3).T.tolist()
    data = "".join(map("{}\t{}\t{}\n".format, map(ev.__getitem__, h),
                       map(rv.__getitem__, r), map(ev.__getitem__, t))).encode("utf-8")
    with artifacts.atomic_write(path) as f:
        f.write(data)
    return hashlib.sha256(data).hexdigest()


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
    for key, kind, name in (("like_rel", str, "a string"),
                            ("fraction", (int, float), "a number"), ("seed", int, "an integer")):
        value = manifest.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise artifacts.ArtifactMismatchError(f"{path}: {key} must be {name}, is {value!r}")
    return manifest


def load_split(split_dir: str) -> KgSplit:
    """Reload a split directory written by :func:`save_split`.

    The manifest must be a JSON object whose ``like_rel`` names a relation,
    with a numeric ``fraction`` and an integer ``seed``, and the files must
    match its hashes and counts and list only entities of the triples, or
    ``ArtifactMismatchError`` is raised; a triple file's hash is checked
    before it is parsed. Ids follow first appearance over the train rows,
    then the held-out rows; the train graph is the first ``n_train`` rows of
    the full graph's id array.
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
    train_fields, held_fields = map(_parse_fields, paths, blobs, (3, 3))
    n_train = len(train_fields) // 3
    ev, rv, ids = _index_fields(train_fields + held_fields)
    like = manifest["like_rel"]
    artifacts.check_manifest(manifest_path, manifest, {
        "n_train": n_train, "n_held_out": len(held_fields) // 3,
        "n_entities": len(ev), "n_relations": len(rv),
    }, [] if like in rv else [f"like_rel {like!r} is not a relation"])
    items, users = (_listed_ids(os.path.join(split_dir, f), ev, artifacts.ArtifactMismatchError)
                    for f in (ITEMS_FILE, USERS_FILE))
    full = KnowledgeGraph(ev, rv, ids, items, users, rv.id_of(like))
    artifacts.check_manifest(manifest_path, manifest, {
        "n_items": len(items), "n_users": len(users), "n_triples": len(full.array)})
    train = KnowledgeGraph(ev, rv, ids[:n_train], full.items, full.users, full.like_rel)
    return KgSplit(full=full, train=train, held_out=full.triples_of(ids[n_train:]),
                   fraction=manifest["fraction"], seed=manifest["seed"])
