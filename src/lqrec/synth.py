"""Synthetic graph generators for demos, fixtures, and benchmarks.

The clustered world is a five-layer topology: roots cover categories,
categories contain sections, sections group attributes, attributes tag
items; users like items. Cluster structure makes held-out edges
statistically inferable, which is what a learned model is supposed to
exploit. Layer depths guarantee enough distinct in-edges per node for every
query shape with mid-sized answer sets: items carry several attribute tags
(intersections), attributes have two parents (ip branches and projection
chains), and three-hop chains anchor at sections or categories rather than
only at the catalog-wide roots.
"""

from __future__ import annotations

import os
import random

from .kg import KnowledgeGraph, graph_from_names, write_names, write_triples

LIKE_REL = "likes"


def write_world_files(kg: KnowledgeGraph, out_dir: str) -> dict[str, str]:
    """Dump a graph to the raw ingestion files (triples/items/users).

    Returns the three paths keyed by role; triple order follows the graph's
    triple list so reloading reproduces the id assignment.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "triples": os.path.join(out_dir, "triples.tsv"),
        "items": os.path.join(out_dir, "items.txt"),
        "users": os.path.join(out_dir, "users.txt"),
    }
    write_triples(paths["triples"], kg, kg.triples)
    write_names(paths["items"], kg, kg.items)
    write_names(paths["users"], kg, kg.users)
    return paths


def clustered_world(
    n_clusters: int = 5,
    attrs_per_cluster: int = 8,
    items_per_cluster: int = 50,
    n_users: int = 80,
    tags_per_item: int = 3,
    likes_per_user: int = 10,
    cross_cluster_noise: float = 0.08,
    seed: int = 0,
) -> KnowledgeGraph:
    rng = random.Random(seed)
    roots = ["root0", "root1"]
    cats = [f"cat{c}" for c in range(n_clusters)]
    sections = [[f"sec{c}_0", f"sec{c}_1"] for c in range(n_clusters)]
    attrs = [
        [f"attr{c}_{j}" for j in range(attrs_per_cluster)] for c in range(n_clusters)
    ]
    items = [
        [f"item{c}_{j}" for j in range(items_per_cluster)] for c in range(n_clusters)
    ]
    users = [f"user{j}" for j in range(n_users)]
    tag_rels = ["tags", "marks"]

    rows: list[tuple[str, str, str]] = []
    for c, cat in enumerate(cats):
        rows.append((roots[c % len(roots)], "covers", cat))
        for sec in sections[c]:
            rows.append((cat, "contains", sec))
    for c in range(n_clusters):
        for j, a in enumerate(attrs[c]):
            rows.append((sections[c][j % 2], "groups", a))
            rows.append((roots[c % len(roots)], "scopes", a))
    for c in range(n_clusters):
        for it in items[c]:
            src_cluster = c
            if rng.random() < cross_cluster_noise:
                src_cluster = rng.randrange(n_clusters)
            chosen = rng.sample(attrs[src_cluster], min(tags_per_item, attrs_per_cluster))
            # Spread tags over both tag relations so items have distinct
            # (relation, head) in-pairs for 2i/3i sampling.
            for j, a in enumerate(chosen):
                rows.append((a, tag_rels[j % len(tag_rels)], it))
    flat_items = [it for group in items for it in group]
    for j, u in enumerate(users):
        home = j % n_clusters
        pool = list(items[home])
        liked = rng.sample(pool, min(likes_per_user, len(pool)))
        if rng.random() < cross_cluster_noise:
            liked[-1] = rng.choice(flat_items)
        for it in dict.fromkeys(liked):
            rows.append((u, LIKE_REL, it))

    return graph_from_names(rows, flat_items, users, LIKE_REL)


def random_graph(
    n_entities: int = 40,
    n_triples: int = 200,
    n_relations: int = 4,
    n_items: int = 12,
    n_users: int = 6,
    n_likes: int = 25,
    seed: int = 0,
) -> KnowledgeGraph:
    """Unstructured random graph; exercises traversal on arbitrary topology."""
    if n_triples < n_entities:
        raise ValueError("need at least one triple per entity")
    rng = random.Random(seed)
    ents = [f"e{j}" for j in range(n_entities)]
    items = ents[:n_items]
    users = [f"u{j}" for j in range(n_users)]
    rels = [f"r{j}" for j in range(n_relations)]
    rows = []
    # The first n_entities heads enumerate every entity so each name is
    # guaranteed to occur; the rest are fully random.
    for i in range(n_triples):
        head = ents[i] if i < n_entities else rng.choice(ents)
        rows.append((head, rng.choice(rels), rng.choice(ents)))
    for _ in range(n_likes):
        rows.append((rng.choice(users), LIKE_REL, rng.choice(items)))
    # Users only ever appear in interaction edges; give each one at least one.
    for u in users:
        rows.append((u, LIKE_REL, rng.choice(items)))
    return graph_from_names(rows, items, users, LIKE_REL)
