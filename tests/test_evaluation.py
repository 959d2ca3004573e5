import dataclasses
import math

import numpy as np
import pytest

from lqrec import evaluation, model
from lqrec.autodiff import EAGER, sigmoid
from lqrec.dataset import BASIC_SHAPES, DatasetConfig, build_dataset
from lqrec.evaluation import _record_metrics, evaluate, filtered_rank, rank_items
from lqrec.kg import KnowledgeGraph, Vocab
from lqrec.model import Catalog, ModelParams, catalog_scores, embed_instance, score_items
from lqrec.oracle import TASK_JOINT
from lqrec.query import ALL_SHAPES, And, QueryShape
from lqrec.training import TrainConfig, train


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
    from lqrec.evaluation import _record_metrics

    m = _record_metrics([5], (10, 20))
    assert m["hit@20"] == 1.0 and m["hit@10"] == 1.0
    m2 = _record_metrics([2], (2,))
    assert m2["ndcg@2"] == pytest.approx(1.0 / math.log2(3.0), abs=1e-12)
    m3 = _record_metrics([25], (10, 20))
    assert m3["hit@20"] == 0.0 and m3["ndcg@20"] == 0.0
    assert _record_metrics([1], (10,))["ndcg@10"] == pytest.approx(1.0, abs=1e-12)
    # a record averages over its targets
    m4 = _record_metrics([1, 2, 30], (2,))
    assert m4["hit@2"] == pytest.approx(2 / 3, abs=1e-15)
    assert m4["ndcg@2"] == pytest.approx((1.0 + 1.0 / math.log2(3.0)) / 3, abs=1e-15)


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
        got = filtered_rank(scores, item_ids, np.array([target]),
                            np.array(sorted(filter_out | {target})))
        want = brute_force_rank(scores, item_ids, target, filter_out)
        assert got.tolist() == [want]


def test_filtered_rank_one_pass_matches_per_target():
    # every target of a record ranked in one call, each against the catalog
    # minus the record's known answers, as the per-target reference does
    rng = np.random.default_rng(12)
    for trial in range(100):
        n = int(rng.integers(2, 300))
        item_ids = np.sort(rng.choice(np.arange(1000), size=n, replace=False))
        scores = np.round(rng.random(n), int(rng.integers(1, 4)))  # ties
        known = rng.choice(item_ids, size=int(rng.integers(1, n + 1)), replace=False)
        targets = np.sort(rng.choice(known, size=int(rng.integers(1, len(known) + 1)),
                                     replace=False))
        got = filtered_rank(scores, item_ids, targets, known)
        want = [brute_force_rank(scores, item_ids, int(t), frozenset(known.tolist()))
                for t in targets]
        assert got.tolist() == want


def _random_record(rng, item_ids):
    """(targets, known) of one record. Known is a random part of the catalog,
    the targets alone (every other item a rival), the whole catalog (no
    rival left) or all of it but one item."""
    kind = int(rng.integers(4))
    if kind < 2:
        known = rng.choice(item_ids, size=int(rng.integers(1, len(item_ids) + 1)),
                           replace=False)
    else:
        known = rng.permutation(item_ids)[kind - 2:] if len(item_ids) > 1 else item_ids
    size = int(rng.integers(1, min(len(known), 100) + 1))
    targets = np.sort(rng.choice(known, size=size, replace=False))
    return targets, targets if kind == 1 else known


@pytest.mark.parametrize("seed", range(4))
def test_filtered_rank_block_equals_per_record_calls(seed):
    # one call over a (B, n_items) block ranks every record's targets as one
    # call per record does, and as the brute-force reference does
    rng = np.random.default_rng(100 + seed)
    for trial in range(25):
        n = int(rng.integers(1, 301))
        item_ids = np.sort(rng.choice(np.arange(3 * n), size=n, replace=False))
        scores = np.round(rng.random((int(rng.integers(1, 9)), n)), int(rng.integers(1, 3)))
        records = [_random_record(rng, item_ids) for _ in scores]
        # the block call takes sets (as evaluate passes them), the row calls arrays
        got = filtered_rank(scores, item_ids, [set(t.tolist()) for t, _ in records],
                            [set(k.tolist()) for _, k in records])
        want = [filtered_rank(row, item_ids, t, k).tolist()
                for row, (t, k) in zip(scores, records)]
        assert got.tolist() == [rank for ranks in want for rank in ranks]
        brute = [brute_force_rank(row, item_ids, int(x), frozenset(k.tolist()))
                 for row, (t, k) in zip(scores, records) for x in t]
        assert got.tolist() == brute


def test_filtered_rank_nothing_to_rank():
    ranks = filtered_rank(np.zeros((2, 3)), np.arange(3), [[], []], [[0], []])
    assert ranks.tolist() == []


def reference_evaluate(instances, params, kg, ks, target):
    """The per-record loop ``evaluate`` replaced: one query scored at a time,
    each target ranked by brute force, metrics added in record order."""
    ids = np.asarray(kg.sorted_items())
    catalog = Catalog(params, ids)
    joint = embed_instance(EAGER, params, [i.user for i in instances],
                           [i.requirement for i in instances], kg.like_rel,
                           (TASK_JOINT,))[TASK_JOINT]
    by_shape = {}
    for row, inst in enumerate(instances):
        scores = catalog_scores(catalog, joint[row])
        hard = inst.hard[TASK_JOINT] if inst.hard is not None else frozenset()
        known = inst.answers[TASK_JOINT] | hard
        targets = sorted(hard if target == "hard" else inst.answers[TASK_JOINT])
        ranks = [brute_force_rank(scores, ids, t, known) for t in targets]
        by_shape.setdefault(inst.shape.value, []).append(_record_metrics(ranks, ks))
    names = [f"hit@{k}" for k in ks] + [f"ndcg@{k}" for k in ks]
    per_shape = {shape: {name: sum(m[name] for m in rows) / len(rows) for name in names}
                 for shape, rows in by_shape.items()}
    averages = {name: sum(per_shape[s][name] for s in per_shape) / len(per_shape)
                for name in names}
    return {"ks": list(ks), "per_shape": per_shape, "avg": averages,
            "counts": {shape: len(rows) for shape, rows in by_shape.items()},
            "variant": params.variant}


@pytest.mark.parametrize("per_block", [None, 2])
@pytest.mark.parametrize("split_name,target", [("test", "hard"), ("train", "answers")])
def test_evaluate_equals_per_record_reference(bench, monkeypatch, per_block,
                                              split_name, target):
    # exact floats, at the default block size and at two records a block
    split, datasets = bench
    kg, records = split.train, datasets[split_name]
    params = ModelParams.init(kg, d=8, k=2, gamma=2.0, seed=13)
    config = TrainConfig(d=8, k=2, gamma=2.0, lr=0.05, epochs=2, batch_size=16,
                         n_neg=4, patience=None, seed=5)
    train(datasets["train"], params, kg, config)
    if per_block:
        monkeypatch.setattr(evaluation, "SCORE_BLOCK", per_block * len(kg.sorted_items()))
    ks = (1, 3, 10, 20)
    got = evaluate(records, params, kg, ks=ks, target=target).to_json_dict()
    assert got == reference_evaluate(records, params, kg, ks, target)


@pytest.mark.parametrize("per_block", [None, 1, 4])
def test_evaluate_calls_each_traced_boundary_once_per_block(bench, monkeypatch,
                                                             per_block):
    # the benchmark's tracer wraps these two names at this module's
    # attributes; each must run, once per scoring block
    split, datasets = bench
    kg, test = split.train, datasets["test"]
    n_items = len(kg.sorted_items())
    if per_block:
        monkeypatch.setattr(evaluation, "SCORE_BLOCK", per_block * n_items)
    block = max(1, evaluation.SCORE_BLOCK // n_items)
    calls = {}
    for name in ("filtered_rank", "catalog_scores"):
        def counting(*args, _name=name, _inner=getattr(evaluation, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(evaluation, name, counting)
    evaluate(test, ModelParams.init(kg, d=8, k=2, gamma=2.0, seed=14), kg)
    blocks = math.ceil(len(test) / block)
    assert calls == {"filtered_rank": blocks, "catalog_scores": blocks}


@pytest.mark.parametrize("kind", ["attribute", "unknown"])
@pytest.mark.parametrize("field", ["hard", "answers"])
def test_evaluate_rejects_non_catalog_answers(bench, monkeypatch, kind, field):
    # a target or known id that is not a catalog item names its record and id,
    # counted over all records: the bad record is not in the first block
    split, datasets = bench
    kg, test = split.train, list(datasets["test"])
    items = kg.sorted_items()
    monkeypatch.setattr(evaluation, "SCORE_BLOCK", 3 * len(items))
    bad = (min(set(range(len(kg.entity_vocab))) - set(items) - set(kg.users))
           if kind == "attribute" else len(kg.entity_vocab) + 7)
    row = len(test) - 2
    sets = dict(getattr(test[row], field))
    sets[TASK_JOINT] = sets[TASK_JOINT] | {bad}
    test[row] = dataclasses.replace(test[row], **{field: sets})
    params = ModelParams.init(kg, d=8, k=2, gamma=2.0, seed=15)
    with pytest.raises(ValueError, match=rf"record {row}: answer {bad} is not a catalog item"):
        evaluate(test, params, kg)


def test_rank_items_ties_ascending_id(world):
    params = ModelParams.init(world, d=8, k=2, gamma=2.0, seed=1)
    items = world.sorted_items()
    # identical embeddings for the first three items force score ties
    params.entity_emb.data[items[1]] = params.entity_emb.data[items[0]]
    params.entity_emb.data[items[2]] = params.entity_emb.data[items[0]]
    q = params.entity_emb.data[items[0]].copy()
    ranked, _ = rank_items(Catalog(params, items), q)
    assert ranked[:3].tolist() == sorted(items[:3])


def test_top_item_is_l1_argmin(world):
    params = ModelParams.init(world, d=8, k=2, gamma=2.0, seed=2)
    rng = np.random.default_rng(4)
    ids = np.asarray(world.sorted_items())
    catalog = Catalog(params, ids)
    for _ in range(5):
        q = rng.standard_normal(8)
        top = rank_items(catalog, q)[0][0]
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


def test_report_prints_a_column_per_reported_shape(bench):
    # a record of an untemplated query is scored under `other`; its column is
    # printed, so each row's avg is the mean of its printed cells
    split, datasets = bench
    inst = next(i for i in datasets["test"] if i.shape == QueryShape.TWO_I)
    x, y = inst.requirement.children
    other = dataclasses.replace(inst, requirement=And((x, And((x, y)))),
                                shape=QueryShape.UNCLASSIFIED)
    params = ModelParams.init(split.train, d=8, k=2, gamma=2.0, seed=8)
    report = evaluate(datasets["test"] + [other], params, split.train, ks=(10, 20))
    assert report.counts["other"] == 1
    header, *rows = report.to_text().splitlines()
    assert header.split()[1:] == [s.value for s in ALL_SHAPES] + ["other", "avg"]
    for row in rows:
        *cells, avg = (float(c) for c in row.split()[1:] if c != "-")
        assert avg == pytest.approx(sum(cells) / len(cells), abs=1e-4)


def test_report_json_roundtrip(bench):
    import json

    split, datasets = bench
    params = ModelParams.init(split.train, d=8, k=2, gamma=2.0, seed=9)
    report = evaluate(datasets["test"], params, split.train, ks=(10,))
    blob = json.loads(json.dumps(report.to_json_dict()))
    assert blob["ks"] == [10]
    assert set(blob["per_shape"]) == {s.value for s in ALL_SHAPES}


def _lexsort_reference(params, q, ids):
    ids = np.asarray(sorted(ids))
    scores = catalog_scores(Catalog(params, ids), q)
    order = np.lexsort((ids, -scores))
    return ids[order], scores[order]


def test_rank_items_top_n_matches_full_order(world):
    params = ModelParams.init(world, d=8, k=2, gamma=2.0, seed=3)
    items = world.sorted_items()
    rng = np.random.default_rng(11)
    catalog = Catalog(params, items)
    for _ in range(20):
        q = rng.standard_normal(8)
        ref_ids, ref_scores = _lexsort_reference(params, q, items)
        for top_n in (1, 5, 10, len(ref_ids) - 1, len(ref_ids), len(ref_ids) + 3):
            ids, scores = rank_items(catalog, q, top_n=top_n)
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
    ids, scores = rank_items(Catalog(params, items), q, top_n=5)
    assert ids.tolist() == items[:2] + sorted(tied)[:3]
    assert scores[2] == scores[3] == scores[4]
    ref_ids, _ = _lexsort_reference(params, q, items)
    assert ids.tolist() == ref_ids[:5].tolist()


def test_one_catalog_per_evaluate_call(bench, catalogs_built):
    # built once per call, including each validation pass of train
    split, datasets = bench
    params = ModelParams.init(split.train, d=8, k=2, gamma=2.0, seed=10)
    for calls in (1, 2):
        evaluate(datasets["test"], params, split.train, ks=(10,))
        assert len(catalogs_built) == calls
    catalogs_built.clear()
    config = TrainConfig(d=8, k=2, gamma=2.0, lr=0.01, epochs=3, batch_size=16,
                         n_neg=4, patience=None, seed=3)
    result = train(datasets["train"], params, split.train, config,
                   valid_instances=datasets["valid"])
    assert len(catalogs_built) == len(result.history) == 3


def test_evaluate_scores_updated_params(bench, monkeypatch):
    # nothing is cached across calls: after an in-place Adam update the next
    # evaluate scores every record with the new embeddings
    split, datasets = bench
    kg, test = split.train, datasets["test"]
    params = ModelParams.init(kg, d=8, k=2, gamma=2.0, seed=11)
    seen = []

    def recording(catalog, q_task):
        scores = catalog_scores(catalog, q_task)
        seen.extend(scores)  # one row per record of the block
        return scores

    monkeypatch.setattr(evaluation, "catalog_scores", recording)
    evaluate(test, params, kg)
    before, seen[:] = list(seen), []
    config = TrainConfig(d=8, k=2, gamma=2.0, lr=0.05, epochs=1, batch_size=16,
                         n_neg=4, patience=None, seed=4)
    train(datasets["train"], params, kg, config)
    evaluate(test, params, kg)
    ids = np.asarray(kg.sorted_items())
    joint = embed_instance(EAGER, params, [i.user for i in test],
                           [i.requirement for i in test], kg.like_rel, (TASK_JOINT,))[TASK_JOINT]
    for row, (old, new) in enumerate(zip(before, seen, strict=True)):
        fresh = sigmoid(score_items(EAGER, params, joint[row], ids))
        assert np.max(np.abs(new - fresh)) <= 1e-12
        assert np.max(np.abs(new - old)) > 1e-6


@pytest.mark.parametrize("per_block", [1, 2, 3])
def test_evaluate_report_independent_of_block_size(bench, monkeypatch, per_block):
    # the report does not depend on how many records share a scoring call,
    # nor on whether a block forms its differences in one go or streams rows
    split, datasets = bench
    kg, test = split.train, datasets["test"]
    params = ModelParams.init(kg, d=8, k=2, gamma=2.0, seed=12)
    want = evaluate(test, params, kg).to_json_dict()
    blocks = []

    def recording(catalog, q_task):
        blocks.append(len(q_task))
        return catalog_scores(catalog, q_task)

    monkeypatch.setattr(evaluation, "catalog_scores", recording)
    monkeypatch.setattr(evaluation, "SCORE_BLOCK", per_block * len(kg.sorted_items()))
    monkeypatch.setattr(model, "SCORE_SCRATCH", 0)
    assert evaluate(test, params, kg).to_json_dict() == want
    assert blocks == [len(test[s:s + per_block]) for s in range(0, len(test), per_block)]


def test_evaluate_nothing_on_an_empty_catalog():
    kg = KnowledgeGraph(Vocab(["a", "b"]), Vocab(["r", "likes"]), [(0, 0, 1)],
                        frozenset(), frozenset(), like_rel=1)
    params = ModelParams.init(kg, d=4, k=1, gamma=2.0, seed=0)
    report = evaluate([], params, kg)
    assert report.to_json_dict() == {"ks": [10, 20], "per_shape": {}, "avg": {},
                                     "counts": {}, "variant": "mtl"}
