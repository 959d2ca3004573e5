"""Knowledge graph storage: vocabularies, triples, traversal indices, edge splits.

A graph is a list of ``(head, relation, tail)`` triples over dense integer
vocabularies, with a designated interaction relation linking users to items.
Instances are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence


class GraphFormatError(ValueError):
    """Raised for malformed input files (message carries the line number)."""


class UnknownNameError(KeyError):
    """Raised when an entity or relation name is not in the vocabulary."""

    def __str__(self):
        return self.args[0]


class SplitInfeasibleError(RuntimeError):
    """Raised when an edge hold-out cannot preserve vocabulary coverage."""


# Characters that would break the s-expression query syntax if they appeared
# inside an entity or relation name.
_FORBIDDEN_NAME_CHARS = set(" \t\r\n()\"'")


class Triple(NamedTuple):
    head: int
    rel: int
    tail: int


class Vocab:
    """Bidirectional name <-> dense id map; ids follow first-appearance order."""

    __slots__ = ("names", "index")

    def __init__(self):
        self.names: list[str] = []
        self.index: dict[str, int] = {}

    def add(self, name: str) -> int:
        got = self.index.get(name)
        if got is not None:
            return got
        new_id = len(self.names)
        self.names.append(name)
        self.index[name] = new_id
        return new_id

    def id_of(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownNameError(f"unknown name: {name!r}") from None

    def name_of(self, idx: int) -> str:
        return self.names[idx]

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for name in self.names:
            h.update(name.encode("utf-8"))
            h.update(b"\x00")
        return h.hexdigest()


class KnowledgeGraph:
    """Immutable triple store with out/in adjacency indices.

    ``items`` and ``users`` are subsets of the entity vocabulary; every triple
    whose relation is ``like_rel`` must run from a user to an item.
    """

    def __init__(
        self,
        entity_vocab: Vocab,
        relation_vocab: Vocab,
        triples: Sequence[Triple],
        items: frozenset[int],
        users: frozenset[int],
        like_rel: int,
    ):
        if not triples:
            raise GraphFormatError("empty graph: no triples")
        self.entity_vocab = entity_vocab
        self.relation_vocab = relation_vocab
        # Duplicate edges carry no information for traversal and would break
        # the disjointness of edge splits; keep first occurrences only.
        self.triples: tuple[Triple, ...] = tuple(
            dict.fromkeys(Triple(*t) for t in triples)
        )
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
                        f"interaction triple {t} must link a user to an item"
                    )

        out_index: dict[tuple[int, int], set[int]] = {}
        in_index: dict[tuple[int, int], set[int]] = {}
        in_adj: dict[int, list[tuple[int, int]]] = {}
        for t in self.triples:
            out_index.setdefault((t.head, t.rel), set()).add(t.tail)
            in_index.setdefault((t.rel, t.tail), set()).add(t.head)
        self.out_index = {k: frozenset(v) for k, v in out_index.items()}
        self.in_index = {k: frozenset(v) for k, v in in_index.items()}
        # (rel, head) pairs pointing at each tail, deduplicated and sorted so
        # backward query sampling is deterministic.
        for (rel, tail), heads in sorted(self.in_index.items()):
            lst = in_adj.setdefault(tail, [])
            for h in sorted(heads):
                lst.append((rel, h))
        self.in_adj = {k: tuple(v) for k, v in in_adj.items()}

    @property
    def n_entities(self) -> int:
        return len(self.entity_vocab)

    @property
    def n_relations(self) -> int:
        return len(self.relation_vocab)

    def neighbors_out(self, e: int, r: int) -> frozenset[int]:
        """Exact tail set of ``(e, r, *)`` edges; empty when there are none."""
        return self.out_index.get((e, r), frozenset())

    def neighbors_in(self, r: int, t: int) -> frozenset[int]:
        """Exact head set of ``(*, r, t)`` edges."""
        return self.in_index.get((r, t), frozenset())

    def in_edges(self, t: int) -> tuple[tuple[int, int], ...]:
        """Distinct ``(rel, head)`` pairs with an edge into ``t``, sorted."""
        return self.in_adj.get(t, ())

    def with_triples(self, triples: Sequence[Triple]) -> "KnowledgeGraph":
        """A graph over the same vocabularies but a different triple list."""
        return KnowledgeGraph(
            self.entity_vocab,
            self.relation_vocab,
            triples,
            self.items,
            self.users,
            self.like_rel,
        )

    def sorted_items(self) -> tuple[int, ...]:
        """Item ids in ascending order, sorted once at construction."""
        return self._sorted_items


def _check_name(name: str, path: str, lineno: int) -> str:
    if not name:
        raise GraphFormatError(f"{path}:{lineno}: empty name field")
    bad = _FORBIDDEN_NAME_CHARS.intersection(name)
    if bad:
        raise GraphFormatError(
            f"{path}:{lineno}: name {name!r} contains forbidden character(s) "
            f"{sorted(bad)}; names must be whitespace- and paren-free"
        )
    return name


def _read_names(path: str) -> list[str]:
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            out.append(_check_name(line, path, lineno))
    return out


def parse_triple_lines(path: str) -> list[tuple[str, str, str]]:
    """Read a tab-separated head/rel/tail file; errors carry line numbers."""
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
                    f"got {len(parts) - 1}"
                )
            h, r, t = (_check_name(p, path, lineno) for p in parts)
            rows.append((h, r, t))
    return rows


def graph_from_names(
    triple_rows: Iterable[tuple[str, str, str]],
    item_names: Iterable[str],
    user_names: Iterable[str],
    like_rel_name: str,
) -> KnowledgeGraph:
    """Assemble a graph from name rows; ids follow first-appearance order."""
    entity_vocab = Vocab()
    relation_vocab = Vocab()
    triples = []
    for h, r, t in triple_rows:
        triples.append(
            Triple(entity_vocab.add(h), relation_vocab.add(r), entity_vocab.add(t))
        )
    if not triples:
        raise GraphFormatError("empty graph: no triples")
    items = frozenset(entity_vocab.id_of(n) for n in item_names)
    users = frozenset(entity_vocab.id_of(n) for n in user_names)
    like_rel = relation_vocab.id_of(like_rel_name)
    return KnowledgeGraph(entity_vocab, relation_vocab, triples, items, users, like_rel)


def load_graph(
    triple_file: str, item_file: str, user_file: str, like_rel_name: str
) -> KnowledgeGraph:
    """Load and index a graph from the three line-oriented vocabulary files."""
    rows = parse_triple_lines(triple_file)
    return graph_from_names(
        rows, _read_names(item_file), _read_names(user_file), like_rel_name
    )


@dataclass(frozen=True)
class KgSplit:
    """A graph together with a train subgraph and the held-out edges."""

    full: KnowledgeGraph
    train: KnowledgeGraph
    held_out: tuple[Triple, ...]
    fraction: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "held_out", tuple(self.held_out))


def split_edges(kg: KnowledgeGraph, fraction: float, seed: int) -> KgSplit:
    """Hold out ``round(fraction * |triples|)`` edges uniformly at random.

    A tentatively held-out edge is swapped back (and replaced by the next
    removable edge in the shuffled order) whenever removing it would leave an
    entity or relation with no remaining train triple, so every vocabulary
    row keeps at least one training occurrence. Deterministic in ``seed``.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    n = len(kg.triples)
    k = int(round(fraction * n))
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)

    # Coverage counts: how many triples mention each entity / relation.
    ent_count = [0] * kg.n_entities
    rel_count = [0] * kg.n_relations
    for t in kg.triples:
        for e in {t.head, t.tail}:
            ent_count[e] += 1
        rel_count[t.rel] += 1

    held_idx: set[int] = set()
    for idx in order:
        if len(held_idx) == k:
            break
        t = kg.triples[idx]
        symbols_ok = all(ent_count[e] >= 2 for e in {t.head, t.tail})
        if symbols_ok and rel_count[t.rel] >= 2:
            held_idx.add(idx)
            for e in {t.head, t.tail}:
                ent_count[e] -= 1
            rel_count[t.rel] -= 1
    if len(held_idx) < k:
        raise SplitInfeasibleError(
            f"cannot hold out {k} of {n} triples without orphaning a "
            "vocabulary entry"
        )

    held = tuple(kg.triples[i] for i in sorted(held_idx))
    kept = [t for i, t in enumerate(kg.triples) if i not in held_idx]
    train = kg.with_triples(kept)
    return KgSplit(full=kg, train=train, held_out=held, fraction=fraction, seed=seed)


# --- on-disk layout -------------------------------------------------------
#
# A split directory is fully self-describing:
#   train.tsv / heldout.tsv   tab-separated triples by name
#   items.txt / users.txt     one entity name per line
#   manifest.json             like relation, seed, fraction, counts, hashes

TRAIN_FILE = "train.tsv"
HELDOUT_FILE = "heldout.tsv"
ITEMS_FILE = "items.txt"
USERS_FILE = "users.txt"
MANIFEST_FILE = "manifest.json"


def _triple_names(kg: KnowledgeGraph, t: Triple) -> tuple[str, str, str]:
    ev, rv = kg.entity_vocab, kg.relation_vocab
    return ev.name_of(t.head), rv.name_of(t.rel), ev.name_of(t.tail)


def _write_triples(path: str, kg: KnowledgeGraph, triples: Iterable[Triple]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for t in triples:
            f.write("\t".join(_triple_names(kg, t)) + "\n")


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def save_split(split: KgSplit, out_dir: str) -> dict:
    """Write a split directory; returns the manifest dict."""
    os.makedirs(out_dir, exist_ok=True)
    kg = split.full
    _write_triples(os.path.join(out_dir, TRAIN_FILE), kg, split.train.triples)
    _write_triples(os.path.join(out_dir, HELDOUT_FILE), kg, split.held_out)
    for fname, ids in ((ITEMS_FILE, kg.items), (USERS_FILE, kg.users)):
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as f:
            for e in sorted(ids):
                f.write(kg.entity_vocab.name_of(e) + "\n")
    manifest = {
        "like_rel": kg.relation_vocab.name_of(kg.like_rel),
        "fraction": split.fraction,
        "seed": split.seed,
        "n_triples": len(kg.triples),
        "n_train": len(split.train.triples),
        "n_held_out": len(split.held_out),
        "n_entities": kg.n_entities,
        "n_relations": kg.n_relations,
        "n_items": len(kg.items),
        "n_users": len(kg.users),
        "train_sha256": file_sha256(os.path.join(out_dir, TRAIN_FILE)),
        "heldout_sha256": file_sha256(os.path.join(out_dir, HELDOUT_FILE)),
    }
    with open(os.path.join(out_dir, MANIFEST_FILE), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


def load_split(split_dir: str) -> KgSplit:
    """Reload a split directory written by :func:`save_split`.

    Vocabulary ids are reassigned by first appearance over the train file then
    the held-out file; coverage guarantees the train file already mentions
    every name, so the assignment is stable for any consumer of the directory.
    """
    with open(os.path.join(split_dir, MANIFEST_FILE), "r", encoding="utf-8") as f:
        manifest = json.load(f)
    train_rows = parse_triple_lines(os.path.join(split_dir, TRAIN_FILE))
    held_rows = parse_triple_lines(os.path.join(split_dir, HELDOUT_FILE))
    items = _read_names(os.path.join(split_dir, ITEMS_FILE))
    users = _read_names(os.path.join(split_dir, USERS_FILE))
    full = graph_from_names(
        train_rows + held_rows, items, users, manifest["like_rel"]
    )
    ev, rv = full.entity_vocab, full.relation_vocab
    train_triples = [
        Triple(ev.id_of(h), rv.id_of(r), ev.id_of(t)) for h, r, t in train_rows
    ]
    held_triples = tuple(
        Triple(ev.id_of(h), rv.id_of(r), ev.id_of(t)) for h, r, t in held_rows
    )
    train = full.with_triples(train_triples)
    return KgSplit(
        full=full,
        train=train,
        held_out=held_triples,
        fraction=manifest["fraction"],
        seed=manifest["seed"],
    )
