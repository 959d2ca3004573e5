import math

import numpy as np
import pytest

from lqrec.dataset import BASIC_SHAPES, DatasetConfig, build_dataset
from lqrec.evaluation import evaluate, filtered_rank, rank_items
from lqrec.model import ModelParams
from lqrec.query import ALL_SHAPES


def brute_force_rank(scores, item_ids, target, filter_out):
    """Reference reranker: sort the unfiltered candidates, find the target."""
    pairs = [
        (-s, i)
        for s, i in zip(scores, item_ids)
        if i == target or i not in filter_out
    ]
    pairs.sort()
    for rank, (_, i) in enumerate(pairs, start=1):
        if i == target:
            return rank
    raise AssertionError("target missing")


@pytest.fixture(scope="module")
def bench(world_split):
    counts = {
        "train": {s: 6 for s in BASIC_SHAPES},
        "valid": {s: 2 for s in BASIC_SHAPES},
        "test": {s: 3 for s in ALL_SHAPES},
    }
    datasets, _ = build_dataset(world_split, DatasetConfig(counts=counts, seed=33))
    return world_split, datasets


def test_metric_unit_cases():
    # rank 5 with K=20: a hit; ndcg at rank 2 is 1/log2(3); beyond K: zero
    from lqrec.evaluation import _per_answer_metrics

    m = _per_answer_metrics(5, (10, 20))
    assert m["hit@20"] == 1.0 and m["hit@10"] == 1.0
    m2 = _per_answer_metrics(2, (2,))
    assert m2["ndcg@2"] == pytest.approx(1.0 / math.log2(3.0), abs=1e-12)
    m3 = _per_answer_metrics(25, (10, 20))
    assert m3["hit@20"] == 0.0 and m3["ndcg@20"] == 0.0
    assert _per_answer_metrics(1, (10,))["ndcg@10"] == pytest.approx(1.0, abs=1e-12)


def test_filtered_rank_matches_brute_force():
    rng = np.random.default_rng(3)
    for trial in range(200):
        n = int(rng.integers(2, 21))
        item_ids = np.sort(rng.choice(np.arange(100), size=n, replace=False))
        scores = np.round(rng.random(n), 2)  # coarse scores force ties
        target = int(rng.choice(item_ids))
        others = [int(i) for i in item_ids if i != target]
        rng.shuffle(others)
        filter_out = frozenset(others[: int(rng.integers(0, len(others) + 1))])
        got = filtered_rank(scores, item_ids, target, filter_out)
        want = brute_force_rank(scores, item_ids, target, filter_out)
        assert got == want


def test_rank_items_ties_ascending_id(world):
    params = ModelParams.init(world, d=8, k=2, gamma=2.0, seed=1)
    items = world.sorted_items()
    # identical embeddings for the first three items force score ties
    params.entity_emb.data[items[1]] = params.entity_emb.data[items[0]]
    params.entity_emb.data[items[2]] = params.entity_emb.data[items[0]]
    q = params.entity_emb.data[items[0]].copy()
    ranked, _ = rank_items(params, q, items)
    assert ranked[:3].tolist() == sorted(items[:3])


def test_rank_items_excludes(world):
    params = ModelParams.init(world, d=8, k=2, gamma=2.0, seed=1)
    items = world.sorted_items()
    q = params.entity_emb.data[items[5]].copy()
    ranked, _ = rank_items(params, q, items, exclude=frozenset({items[5]}))
    assert items[5] not in ranked
    assert len(ranked) == len(items) - 1


def test_top_item_is_l1_argmin(world):
    params = ModelParams.init(world, d=8, k=2, gamma=2.0, seed=2)
    rng = np.random.default_rng(4)
    ids = np.asarray(world.sorted_items())
    for _ in range(5):
        q = rng.standard_normal(8)
        top = rank_items(params, q, ids)[0][0]
        dists = np.abs(params.entity_emb.data[ids] - q).sum(axis=1)
        best = ids[np.lexsort((ids, dists))[0]]
        assert top == best


def test_evaluate_bounds_and_k_monotonicity(bench):
    split, datasets = bench
    params = ModelParams.init(split.train, d=8, k=2, gamma=2.0, seed=3)
    report = evaluate(datasets["test"], params, split.train, ks=(5, 10, 20))
    for shape, metrics in report.per_shape.items():
        for name, value in metrics.items():
            assert 0.0 <= value <= 1.0
        assert metrics["hit@5"] <= metrics["hit@10"] <= metrics["hit@20"]
        assert metrics["ndcg@5"] <= metrics["ndcg@10"] <= metrics["ndcg@20"]


def test_evaluate_score_transform_invariance(bench):
    # the margin is a monotone score transform: reports must be identical
    split, datasets = bench
    a = ModelParams.init(split.train, d=8, k=2, gamma=2.0, seed=5)
    b = ModelParams.init(split.train, d=8, k=2, gamma=7.0, seed=5)
    ra = evaluate(datasets["test"], a, split.train, ks=(10, 20))
    rb = evaluate(datasets["test"], b, split.train, ks=(10, 20))
    assert ra.per_shape == rb.per_shape
    assert ra.averages == rb.averages


def test_evaluate_requires_hard_answers(bench):
    split, datasets = bench
    params = ModelParams.init(split.train, d=8, k=2, gamma=2.0, seed=6)
    with pytest.raises(ValueError, match="hard"):
        evaluate(datasets["train"], params, split.train, target="hard")
    # the train-fit target works on the same records
    report = evaluate(datasets["train"], params, split.train, target="answers")
    assert report.per_shape


def test_average_is_unweighted_shape_mean(bench):
    split, datasets = bench
    params = ModelParams.init(split.train, d=8, k=2, gamma=2.0, seed=7)
    report = evaluate(datasets["test"], params, split.train, ks=(20,))
    manual = sum(m["hit@20"] for m in report.per_shape.values()) / len(
        report.per_shape
    )
    assert report.averages["hit@20"] == pytest.approx(manual, abs=1e-15)


def test_report_table_layout(bench):
    split, datasets = bench
    params = ModelParams.init(split.train, d=8, k=2, gamma=2.0, seed=8)
    report = evaluate(datasets["test"], params, split.train, ks=(10, 20))
    text = report.to_text()
    header = text.splitlines()[0]
    for col in ("1p", "2p", "3p", "2i", "3i", "ip", "pi", "2u", "up", "avg"):
        assert col in header.split()
    body = text.splitlines()[1:]
    assert [row.split()[0] for row in body] == [
        "hit@10", "hit@20", "ndcg@10", "ndcg@20"
    ]


def test_report_json_roundtrip(bench):
    import json

    split, datasets = bench
    params = ModelParams.init(split.train, d=8, k=2, gamma=2.0, seed=9)
    report = evaluate(datasets["test"], params, split.train, ks=(10,))
    blob = json.loads(json.dumps(report.to_json_dict()))
    assert blob["ks"] == [10]
    assert set(blob["per_shape"]) == {s.value for s in ALL_SHAPES}


def _lexsort_reference(params, q, ids, exclude=frozenset()):
    ids = np.asarray([i for i in sorted(ids) if i not in exclude])
    from lqrec.model import catalog_scores

    scores = catalog_scores(params, q, ids)
    order = np.lexsort((ids, -scores))
    return ids[order], scores[order]


def test_rank_items_top_n_matches_full_order(world):
    params = ModelParams.init(world, d=8, k=2, gamma=2.0, seed=3)
    items = world.sorted_items()
    rng = np.random.default_rng(11)
    for trial in range(20):
        q = rng.standard_normal(8)
        exclude = frozenset(int(i) for i in rng.choice(items, size=trial % 4))
        ref_ids, ref_scores = _lexsort_reference(params, q, items, exclude)
        for top_n in (1, 5, 10, len(ref_ids) - 1, len(ref_ids), len(ref_ids) + 3):
            ids, scores = rank_items(params, q, items, exclude, top_n=top_n)
            np.testing.assert_array_equal(ids, ref_ids[:top_n])
            np.testing.assert_array_equal(scores, ref_scores[:top_n])


def test_rank_items_top_n_tie_across_cut(world):
    params = ModelParams.init(world, d=8, k=2, gamma=2.0, seed=4)
    items = list(world.sorted_items())
    q = params.entity_emb.data[items[0]].copy()
    # a run of identical embeddings ranked 3rd..9th straddles a cut at 5;
    # the tied items are spread over the id range, so only the id tie-break
    # decides which of them make the top 5
    tied = items[7::5][:7]
    for rank, item in enumerate(items[:2]):
        params.entity_emb.data[item] = q + 0.01 * rank
    for item in tied:
        params.entity_emb.data[item] = q + 0.05
    for item in items:
        if item not in tied and item not in items[:2]:
            params.entity_emb.data[item] = q + 5.0
    ids, scores = rank_items(params, q, items, top_n=5)
    assert ids.tolist() == items[:2] + sorted(tied)[:3]
    assert scores[2] == scores[3] == scores[4]
    ref_ids, _ = _lexsort_reference(params, q, items)
    assert ids.tolist() == ref_ids[:5].tolist()
