import gc
import tracemalloc

import pytest

from lqrec import model
from lqrec.kg import graph_from_names, split_edges
from lqrec.synth import clustered_world


TINY_ROWS = [
    ("a", "r1", "x"),
    ("a", "r1", "y"),
    ("b", "r2", "x"),
    ("b", "r2", "z"),
    ("c", "r1", "b"),
    ("c", "r2", "a"),
    ("u1", "likes", "x"),
    ("u1", "likes", "z"),
    ("u2", "likes", "y"),
]


def traced(fn):
    """``fn()``, and the bytes ``tracemalloc`` counted at its peak and on its
    return, each above what was allocated before the call."""
    was_tracing = tracemalloc.is_tracing()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return out, peak - base, current - base


def in_edges(kg, t):
    """Distinct ``(rel, head)`` pairs with an edge into ``t``, sorted."""
    return tuple(zip(*kg.in_edges(t)))


@pytest.fixture
def tiny_kg():
    return graph_from_names(
        TINY_ROWS, ["x", "y", "z"], ["u1", "u2"], "likes"
    )


@pytest.fixture(scope="session")
def world():
    return clustered_world(
        n_clusters=3,
        attrs_per_cluster=5,
        items_per_cluster=15,
        n_users=24,
        tags_per_item=3,
        likes_per_user=6,
        seed=101,
    )


@pytest.fixture(scope="session")
def world_split(world):
    return split_edges(world, 0.05, seed=202)


@pytest.fixture
def catalogs_built(monkeypatch):
    """Counts ``Catalog`` constructions while the test runs."""
    built = []
    init = model.Catalog.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(model.Catalog, "__init__", counting)
    return built
