import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import lqrec
from lqrec.autodiff import AdamState, Tape, adam_step, backward
from lqrec.dataset import DatasetConfig, build_dataset
from lqrec.model import VARIANTS, ModelParams, load_checkpoint, save_checkpoint
from lqrec.oracle import TASKS
from lqrec.query import BASIC_SHAPES
from lqrec.training import (
    DegenerateInstanceError,
    TrainConfig,
    TrainingDivergedError,
    compute_loss,
    effective_task_weights,
    pack_answers,
    sample_negatives,
    train,
)


@pytest.fixture(scope="module")
def toy(world_split):
    counts = {"train": {s: 10 for s in BASIC_SHAPES},
              "valid": {s: 2 for s in BASIC_SHAPES}}
    datasets, _ = build_dataset(world_split, DatasetConfig(counts=counts, seed=21))
    return world_split, datasets


def answer_rows(*answer_sets):
    """Stand-in instances with the given (joint, req, pref) answer sets."""
    return [SimpleNamespace(answers=dict(zip(TASKS, sets))) for sets in answer_sets]


def draw(instances, items, n_neg, seed=0, weights=(1.0, 1.0, 1.0), batch=None):
    pack = pack_answers(instances, items, weights, n_neg)
    batch = np.arange(len(instances)) if batch is None else batch
    return sample_negatives(pack, batch, n_neg, np.random.default_rng(seed))


def test_config_from_file_and_overrides(tmp_path):
    p = tmp_path / "train.cfg"
    p.write_text(
        "d=16\nk=2\ngamma=3.0\nlr=0.01\nepochs=5\nbatch_size=8\nn_neg=4\n"
        "task_weights=1,0.5,0.5\npatience=2\nvariant=shared-bottom\nseed=9\n"
    )
    cfg = TrainConfig.from_file(str(p))
    assert cfg.d == 16 and cfg.k == 2 and cfg.variant == "shared-bottom"
    assert cfg.task_weights == (1.0, 0.5, 0.5)
    over = TrainConfig.from_file(str(p), variant="mtl", seed=77)
    assert over.variant == "mtl" and over.seed == 77


def test_effective_weights():
    # a task that a variant does not train gets weight 0
    expected = {"mtl": (1, 2, 3), "shared-bottom": (1, 2, 3), "single-task": (1, 0, 0),
                "no-al": (1, 0, 3), "no-au": (1, 2, 0)}
    assert list(VARIANTS) == list(expected)
    for variant in VARIANTS:
        assert effective_task_weights(variant, (1, 2, 3)) == expected[variant], variant
    with pytest.raises(ValueError, match="unknown variant 'bogus'"):
        effective_task_weights("bogus", (1, 2, 3))


@pytest.mark.parametrize("variant, head, weights", [
    ("no-al", "mtl", (1.0, 0.0, 1.0)),
    ("no-au", "mtl", (1.0, 1.0, 0.0)),
    ("single-task", "single-task", (1.0, 0.0, 0.0)),
])
def test_variant_trains_only_its_tasks(toy, variant, head, weights):
    # a variant at weights 1,1,1 trains the bytes of its head's variant with
    # the weights of the tasks it leaves out set to 0
    split, datasets = toy
    kg = split.train

    def trained(variant, weights):
        params = ModelParams.init(kg, d=8, k=2, gamma=2.0, seed=3, variant=variant)
        train(datasets["train"], params, kg,
              TrainConfig(d=8, k=2, gamma=2.0, lr=5e-3, epochs=2, batch_size=10,
                          n_neg=3, task_weights=weights, variant=variant, seed=4))
        return params.params_hash()

    assert trained(variant, (1.0, 1.0, 1.0)) == trained(head, weights)


@pytest.mark.parametrize("params_keys, config_keys, message", [
    ({"variant": "single-task"}, {"task_weights": (0.0, 1.0, 1.0)},
     "variant 'mtl' in the config, 'single-task' in the params"),
    ({"d": 6}, {}, "d 8 in the config, 6 in the params"),
    ({"k": 3, "gamma": 1.5}, {},
     "k 2 in the config, 3 in the params; gamma 2.0 in the config, 1.5 in the params"),
], ids=["variant", "d", "k-gamma"])
def test_train_rejects_config_of_other_params(toy, tmp_path, params_keys, config_keys,
                                              message):
    split, datasets = toy
    kg = split.train
    params = ModelParams.init(kg, **{"d": 8, "k": 2, "gamma": 2.0, "seed": 3,
                                     **params_keys})
    cfg = TrainConfig(d=8, k=2, gamma=2.0, epochs=1, batch_size=10, n_neg=2, seed=4,
                      **config_keys)
    with pytest.raises(ValueError, match=re.escape(message)):
        train(datasets["train"], params, kg, cfg, out_dir=str(tmp_path / "run"))
    assert not (tmp_path / "run").exists()


def test_sample_negatives_forced():
    # a pool of two items, drawn with replacement at every n_neg: the
    # positive is the one answer and the negatives come from the pool only
    instances = answer_rows((frozenset({7}),) * 3)
    drawn = set()
    for seed in range(10):
        for n_neg in (1, 2, 5):
            for ids in draw(instances, [7, 8, 9], n_neg, seed).values():
                assert ids.shape == (1, 1 + n_neg) and ids[0, 0] == 7
                assert set(ids[0, 1:].tolist()) <= {8, 9}
                drawn |= set(ids[0, 1:].tolist())
    assert drawn == {8, 9}


def test_sample_negatives_stream_pinned():
    # the positives take the generator's first draw, one per row, and the
    # negatives its next, n_neg per row: row b's negatives are its pool
    # (as a list) at those draws
    items = list(range(2, 40, 3))
    instances = answer_rows(*(
        [frozenset(items[i:i + 1 + i % 4]), frozenset({2}), frozenset({5})]
        for i in range(6)))
    batch = np.array([4, 0, 5, 5, 2])
    samples = draw(instances, items, 7, seed=12, weights=(1.0, 0.0, 0.0), batch=batch)
    answers = [sorted(instances[i].answers["joint"]) for i in batch]
    pools = [[i for i in items if i not in a] for a in answers]
    gen = np.random.default_rng(12)
    positives = gen.integers(0, [len(a) for a in answers])
    draws = gen.integers(0, np.array([[len(p)] for p in pools]), size=(len(batch), 7))
    for row, (pos, *negs) in enumerate(samples["joint"].tolist()):
        assert pos == answers[row][positives[row]]
        assert negs == [pools[row][j] for j in draws[row]]


def test_sample_negatives_zero():
    # n_neg = 0 leaves the positive only, even where the pool is empty
    samples = draw(answer_rows(({1}, {1, 2}, {2})), [1, 2], 0)
    assert set(samples) == set(TASKS)
    for ids in samples.values():
        assert ids.shape == (1, 1)


def test_sample_negatives_disjoint_many_draws():
    items = list(range(40))
    answers = frozenset(range(0, 40, 3))
    instances = answer_rows((answers, frozenset(range(1, 40)), frozenset({1})))
    samples = draw(instances, items, 5, seed=1, weights=(1.0, 1.0, 0.0),
                   batch=np.zeros(2000, dtype=int))
    assert set(samples) == {"joint", "req"}
    for task, ids in samples.items():
        task_answers = instances[0].answers[task]
        assert len(ids) == 2000
        assert set(ids[:, 0].tolist()) <= task_answers
        assert not set(ids[:, 1:].ravel().tolist()) & task_answers
    # "req" leaves a pool of one
    assert set(samples["req"][:, 1:].ravel().tolist()) == {0}


def test_sample_negatives_degenerate():
    sets = [(frozenset({5}),) * 3, (frozenset({5}), frozenset({5, 6, 7}),
                                    frozenset({6}))]
    with pytest.raises(DegenerateInstanceError,
                       match="instance 1: the req answer set covers the entire catalog"):
        pack_answers(answer_rows(*sets), [5, 6, 7], (1.0, 1.0, 1.0), 2)
    # a weight of 0 leaves the task out; a trained task's empty answer set
    # has no positive and is refused
    samples = draw(answer_rows(*sets), [5, 6, 7], 2, weights=(1.0, 0.0, 1.0))
    assert list(samples) == ["joint", "pref"]
    sets[1] = (frozenset({5}), frozenset(), frozenset({6}))
    with pytest.raises(DegenerateInstanceError,
                       match="instance 1: the req answer set is empty"):
        pack_answers(answer_rows(*sets), [5, 6, 7], (1.0, 1.0, 1.0), 0)
    pack_answers(answer_rows(*sets), [5, 6, 7], (1.0, 0.0, 1.0), 0)


@pytest.mark.parametrize("n_items", [12, 40, 85, 86, 90, 300, 2000])
def test_sample_negatives_matches_materialized_pool(n_items):
    # every negative lies in the pool built as a list (the catalog minus the
    # answers), for n_neg below, at and above the pool size; every positive
    # is an answer
    items = list(range(3, 3 + 2 * n_items, 2))
    gen = np.random.default_rng(n_items)
    instances = answer_rows(*(
        [frozenset(gen.choice(items, size=gen.integers(1, n_items // 2),
                              replace=False).tolist())
         for _ in TASKS]
        for _ in range(10)))
    whole = n_items - n_items // 2  # the size of instance 0's joint pool
    instances[0].answers["joint"] = frozenset(items[:n_items // 2])
    pools = [[[i for i in items if i not in inst.answers[task]] for task in TASKS]
             for inst in instances]
    for n_neg in (0, 1, 16, whole, n_items + 5):
        batch = gen.permutation(10)
        samples = draw(instances, items, n_neg, seed=n_neg, batch=batch)
        for t, task in enumerate(TASKS):
            for row, (pos, *negs) in enumerate(samples[task].tolist()):
                pool = pools[batch[row]][t]
                assert pos in instances[batch[row]].answers[task]
                assert len(negs) == n_neg and set(negs) <= set(pool)


def test_negative_pool_view_elements():
    from lqrec.training import _pool_items

    items = [2, 3, 5, 7, 11, 13, 17]
    for answers in (frozenset({2}), frozenset({17, 3}),
                    frozenset({5, 7, 11}), frozenset(items[1:])):
        pack = pack_answers(answer_rows((answers, {2}, {3})), items,
                            (1.0, 1.0, 1.0), 1)
        expected = [i for i in items if i not in answers]
        assert pack.pool[0] == len(expected)
        picks = np.arange(len(expected))[None, :]
        assert _pool_items(pack, np.array([0]), picks).tolist() == [expected]


@pytest.mark.parametrize("outside", [0, 4, 18])
def test_pack_answers_rejects_answer_outside_catalog(outside):
    sets = [(frozenset({5}),) * 3,
            (frozenset({5, outside}), frozenset({7}), frozenset({3}))]
    with pytest.raises(ValueError, match=f"instance 1: joint answer {outside} is not"):
        pack_answers(answer_rows(*sets), [2, 3, 5, 7, 11, 13, 17], (1.0, 1.0, 1.0), 2)
    # an unweighted task's answers are not packed, so they are not checked
    sets[1] = (frozenset({5}), frozenset({7}), frozenset({outside}))
    pack_answers(answer_rows(*sets), [2, 3, 5, 7, 11, 13, 17], (1.0, 1.0, 0.0), 2)


def test_sample_negatives_uniform():
    # one row drawn 3,000 times: 5 of 22 pool items each time; the
    # chi-square statistic of the item counts stays under the 0.001
    # quantile of 21 degrees of freedom (46.8), and the positives' under
    # that of 7 (24.3)
    items = list(range(30))
    answers = frozenset(range(0, 24, 3))
    instances = answer_rows((answers, frozenset({1}), frozenset({1})))
    ids = draw(instances, items, 5, seed=8, weights=(1.0, 0.0, 0.0),
               batch=np.zeros(3000, dtype=int))["joint"]
    assert len(ids) == 3000
    counts = np.bincount(ids[:, 1:].ravel(), minlength=30)
    pool = [i for i in items if i not in answers]
    assert counts[list(answers)].sum() == 0
    expected = 3000 * 5 / len(pool)
    assert ((counts[pool] - expected) ** 2 / expected).sum() < 46.8
    pos_counts = np.bincount(ids[:, 0], minlength=30)[sorted(answers)]
    expected = 3000 / len(answers)
    assert ((pos_counts - expected) ** 2 / expected).sum() < 24.3


def test_degenerate_instance_fails_before_log(toy, tmp_path):
    split, datasets = toy
    kg = split.train
    bad = list(datasets["train"])
    bad[3] = dataclasses.replace(bad[3], answers={
        **bad[3].answers, "pref": frozenset(kg.sorted_items())})
    params = ModelParams.init(kg, d=4, k=1, gamma=1.0, seed=0)
    cfg = TrainConfig(d=4, k=1, gamma=1.0, epochs=1, n_neg=2, seed=1)
    with pytest.raises(DegenerateInstanceError, match="instance 3.*pref"):
        train(bad, params, kg, cfg, out_dir=str(tmp_path))
    assert not (tmp_path / "train_log.jsonl").exists()


def test_loss_closed_form_half_probabilities(toy):
    # all-zero parameters and a vanishing margin force every probability to
    # sigmoid(0) = 0.5, so each task term is exactly ln 2
    split, datasets = toy
    kg = split.train
    params = ModelParams.init(kg, d=8, k=2, gamma=1e-300, seed=0)
    for t in params.named().values():
        t.data[...] = 0.0
    weights = (1.0, 1.0, 1.0)
    batch = datasets["train"][:6]
    samples = draw(batch, kg.sorted_items(), 4, seed=5, weights=weights)
    tape = Tape()
    loss = compute_loss(tape, batch, samples, params, kg, weights)
    assert float(loss.data) == pytest.approx(3.0 * math.log(2.0), abs=1e-12)


# Tape nodes of one compute_loss batch that holds all five basic shapes, at
# criterion 5's k = 3, and the mtl, no-al and no-au steps' nodes per op.
# They bound the step's cost: a change that adds nodes fails here, and one
# that removes nodes lowers these bounds with it.
STEP_NODES = {"mtl": 57, "shared-bottom": 49, "single-task": 40, "no-al": 51,
              "no-au": 51}
MTL_STEP_OPS = Counter({
    "gather": 21, "add": 14, "intersect": 4, "affine": 4, "relu": 1,
    "logistic_loss": 3, "gather_margin": 3, "softmax_last_dim": 3, "weighted_sum": 3,
    "place_rows": 1})
# no-al and no-au train two tasks: one gate (affine, softmax_last_dim,
# weighted_sum), one task tail (gather_margin, logistic_loss) and one add
# fewer than mtl; the untrained task's gate does not run.
TWO_TASK_STEP_OPS = MTL_STEP_OPS - Counter({
    "affine": 1, "softmax_last_dim": 1, "weighted_sum": 1, "gather_margin": 1,
    "logistic_loss": 1, "add": 1})
STEP_OPS = {"mtl": MTL_STEP_OPS, "no-al": TWO_TASK_STEP_OPS, "no-au": TWO_TASK_STEP_OPS}


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_tape_nodes_bounded(toy, variant):
    split, datasets = toy
    kg = split.train
    instances = datasets["train"]
    params = ModelParams.init(kg, d=8, k=3, gamma=2.0, seed=3, variant=variant)
    weights = effective_task_weights(variant, (1.0, 1.0, 1.0))
    pack = pack_answers(instances, kg.sorted_items(), weights, 4)
    # the whole set and a batch of 8: the count depends on the shapes held,
    # not on the batch size
    for batch in (np.arange(len(instances)), np.arange(0, len(instances), 7)):
        rows = [instances[i] for i in batch]
        assert {inst.shape for inst in rows} == set(BASIC_SHAPES)
        tape = Tape()
        compute_loss(tape, rows, sample_negatives(pack, batch, 4, np.random.default_rng(0)),
                     params, kg, weights)
        assert len(tape.nodes) <= STEP_NODES[variant], len(tape.nodes)
        if variant in STEP_OPS:
            # each node's backward is defined in its Tape op method
            ops = Counter(fn.__qualname__.split(".")[1] for _, fn in tape.nodes)
            assert not ops - STEP_OPS[variant], ops - STEP_OPS[variant]


def test_step_embeds_only_the_sampled_tasks(toy):
    """mtl at weights 1,0,1 samples no requirement block, so its step runs
    no requirement gate (affine, softmax_last_dim, weighted_sum) and no
    requirement tail (gather_margin, logistic_loss) or its add: the nodes of
    no-al, which trains the same two tasks."""
    split, datasets = toy
    kg = split.train
    instances = datasets["train"]
    batch = np.arange(0, len(instances), 7)

    def step_ops(variant, weights):
        params = ModelParams.init(kg, d=8, k=3, gamma=2.0, seed=3, variant=variant)
        weights = effective_task_weights(variant, weights)
        pack = pack_answers(instances, kg.sorted_items(), weights, 4)
        tape = Tape()
        compute_loss(tape, [instances[i] for i in batch],
                     sample_negatives(pack, batch, 4, np.random.default_rng(0)),
                     params, kg, weights)
        return Counter(fn.__qualname__.split(".")[1] for _, fn in tape.nodes)

    all_tasks, two_tasks = step_ops("mtl", (1.0, 1.0, 1.0)), step_ops("mtl", (1.0, 0.0, 1.0))
    assert all_tasks - two_tasks == Counter({
        "affine": 1, "softmax_last_dim": 1, "weighted_sum": 1, "gather_margin": 1,
        "logistic_loss": 1, "add": 1})
    assert two_tasks == step_ops("no-al", (1.0, 1.0, 1.0))


def test_step_gradient_and_adam_stay_row_sparse(toy, monkeypatch):
    """After one five-shape batch the entity table's gradient has a row for
    each distinct id the step gathered and no other, and Adam then moves
    those rows only and gives them nonzero moments; every other row keeps
    its bytes and zero moments: neither the backward pass nor Adam runs
    over the whole table."""
    split, datasets = toy
    kg = split.train
    instances = datasets["train"]
    params = ModelParams.init(kg, d=8, k=3, gamma=2.0, seed=3)
    table = params.entity_emb
    read = []
    for op in ("gather", "gather_margin"):
        def spy(tape, source, ids, *rest, op=getattr(Tape, op)):
            if source is table:
                read.append(np.asarray(ids).ravel())
            return op(tape, source, ids, *rest)
        monkeypatch.setattr(Tape, op, spy)
    weights = effective_task_weights("mtl", (1.0, 1.0, 1.0))
    pack = pack_answers(instances, kg.sorted_items(), weights, 4)
    batch = np.arange(0, len(instances), 7)
    assert {instances[i].shape for i in batch} == set(BASIC_SHAPES)
    tape = Tape()
    loss = compute_loss(tape, [instances[i] for i in batch],
                        sample_negatives(pack, batch, 4, np.random.default_rng(0)),
                        params, kg, weights)
    backward(tape, loss)
    gathered = np.unique(np.concatenate(read))
    assert gathered.size < len(table.data)  # so a dense gradient would show
    np.testing.assert_array_equal(table.grad_ids, gathered)
    assert table.grad.shape == (gathered.size, table.shape[1])

    before = table.data.copy()
    state = AdamState(params.named(), lr=0.01)
    adam_step(params.named(), state)
    moved = (table.data != before).any(axis=1)
    np.testing.assert_array_equal(np.flatnonzero(moved), gathered)
    m, v = state.m["entity_emb"], state.v["entity_emb"]
    assert m[gathered].any(axis=1).all() and v[gathered].any(axis=1).all()
    assert table.data[~moved].tobytes() == before[~moved].tobytes()
    assert not m[~moved].any() and not v[~moved].any()


def test_loss_decreases_on_toy_set(toy):
    split, datasets = toy
    kg = split.train
    instances = datasets["train"]
    assert len(instances) == 50
    params = ModelParams.init(kg, d=8, k=2, gamma=2.0, seed=3)
    cfg = TrainConfig(d=8, k=2, gamma=2.0, lr=5e-3, epochs=40, batch_size=10,
                      n_neg=8, seed=4, patience=None)
    result = train(instances, params, kg, cfg)
    # 40 epochs x 5 batches = 200 optimization steps
    first = result.history[0]["loss"]
    last = result.history[-1]["loss"]
    assert last < 0.5 * first


def test_empty_batch_rejected(toy):
    split, _ = toy
    params = ModelParams.init(split.train, d=4, k=1, gamma=1.0, seed=0)
    with pytest.raises(ValueError, match="empty batch"):
        compute_loss(Tape(), [], {}, params, split.train, (1, 1, 1))


def test_train_deterministic(toy, tmp_path):
    split, datasets = toy
    kg = split.train

    def run(out):
        params = ModelParams.init(kg, d=8, k=2, gamma=2.0, seed=5)
        cfg = TrainConfig(d=8, k=2, gamma=2.0, lr=1e-3, epochs=3, batch_size=16,
                          n_neg=4, seed=5, patience=None)
        train(datasets["train"], params, kg, cfg,
              valid_instances=datasets["valid"], out_dir=str(out))
        return params.params_hash()

    assert run(tmp_path / "a") == run(tmp_path / "b")
    log_a = (tmp_path / "a" / "train_log.jsonl").read_bytes()
    log_b = (tmp_path / "b" / "train_log.jsonl").read_bytes()
    assert log_a == log_b
    ck_a = (tmp_path / "a" / "checkpoint_best.ckpt").read_bytes()
    ck_b = (tmp_path / "b" / "checkpoint_best.ckpt").read_bytes()
    assert ck_a == ck_b


def test_patience_zero_single_validation(toy):
    split, datasets = toy
    params = ModelParams.init(split.train, d=8, k=2, gamma=2.0, seed=6)
    cfg = TrainConfig(d=8, k=2, gamma=2.0, lr=1e-3, epochs=50, batch_size=16,
                      n_neg=2, seed=6, patience=0, eval_every=1)
    result = train(datasets["train"], params, split.train, cfg,
                   valid_instances=datasets["valid"])
    validations = [h for h in result.history if "val_hit@20" in h]
    assert len(validations) == 1
    assert result.epochs_run == 1


def test_mandatory_seed(toy):
    split, datasets = toy
    params = ModelParams.init(split.train, d=4, k=1, gamma=1.0, seed=0)
    cfg = TrainConfig(d=4, k=1, gamma=1.0, epochs=1, seed=None)
    with pytest.raises(ValueError, match="seed"):
        train(datasets["train"], params, split.train, cfg)


def test_nan_loss_aborts_with_dump(toy, tmp_path):
    split, datasets = toy
    params = ModelParams.init(split.train, d=8, k=2, gamma=2.0, seed=7)
    params.entity_emb.data[0, 0] = float("nan")
    cfg = TrainConfig(d=8, k=2, gamma=2.0, lr=1e-3, epochs=2, batch_size=8,
                      n_neg=2, seed=7, patience=None)
    with pytest.raises(TrainingDivergedError) as exc:
        train(datasets["train"], params, split.train, cfg, out_dir=str(tmp_path))
    assert exc.value.dump_path is not None
    dump = json.loads((tmp_path / "divergence.json").read_text())
    assert dump["epoch"] == 1


def failing_replace(src, dst):
    raise OSError("disk full")


def test_train_log_write_is_atomic(toy, tmp_path, monkeypatch):
    split, datasets = toy

    def run(seed):
        params = ModelParams.init(split.train, d=4, k=1, gamma=1.0, seed=seed)
        cfg = TrainConfig(d=4, k=1, gamma=1.0, epochs=2, batch_size=16, n_neg=2,
                          seed=seed, patience=None)
        train(datasets["train"], params, split.train, cfg, out_dir=str(tmp_path))

    run(1)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert before["train_log.jsonl"].count(b"\n") == 2
    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        run(2)
    # a rerun into the run directory leaves the previous log intact and no
    # temporary file behind
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_divergence_dump_write_is_atomic(toy, tmp_path, monkeypatch):
    split, datasets = toy

    def run(bad_value):
        params = ModelParams.init(split.train, d=4, k=1, gamma=1.0, seed=7)
        params.entity_emb.data[0, 0] = float("nan")
        params.relation_emb.data[0, 0] = bad_value
        cfg = TrainConfig(d=4, k=1, gamma=1.0, epochs=1, batch_size=8, n_neg=2,
                          seed=7, patience=None)
        train(datasets["train"], params, split.train, cfg, out_dir=str(tmp_path))

    with pytest.raises(TrainingDivergedError):
        run(5.0)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert before["divergence.json"].endswith(b"}\n")
    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        run(6.0)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_training_from_a_loaded_checkpoint_matches_in_memory_params(toy, tmp_path):
    """A loaded checkpoint's arrays are writable views of one buffer; Adam
    updates them in place exactly as it updates arrays of their own."""
    split, datasets = toy
    kg = split.train
    params = ModelParams.init(kg, d=8, k=2, gamma=2.0, seed=6)
    start = params.params_hash()
    save_checkpoint(params, str(tmp_path / "init.ckpt"))
    loaded = load_checkpoint(str(tmp_path / "init.ckpt"))
    assert all(t.data.flags.writeable for t in loaded.named().values())
    cfg = TrainConfig(d=8, k=2, gamma=2.0, lr=5e-3, epochs=2, batch_size=16,
                      n_neg=4, seed=6, patience=None)
    for p in (params, loaded):
        train(datasets["train"], p, kg, cfg)
    assert loaded.params_hash() == params.params_hash() != start


def test_best_checkpoint_retained(toy, tmp_path):
    split, datasets = toy
    kg = split.train
    params = ModelParams.init(kg, d=8, k=2, gamma=2.0, seed=8)
    cfg = TrainConfig(d=8, k=2, gamma=2.0, lr=5e-3, epochs=6, batch_size=16,
                      n_neg=4, seed=8, patience=None, eval_every=2)
    result = train(datasets["train"], params, kg, cfg,
                   valid_instances=datasets["valid"], out_dir=str(tmp_path))
    assert result.checkpoint_path is not None
    from lqrec.model import load_checkpoint

    best = load_checkpoint(result.checkpoint_path)
    # returned params are the restored best snapshot
    assert best.params_hash() == params.params_hash()
    assert result.best_metric is not None


def _on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


# Criterion-5 training on a 1,000-item world that no split file was parsed
# for: with glibc's thresholds left dynamic, nothing has raised them, and
# each step maps, unmaps or trims a few MB (about 390 minor faults a step).
FAULTS_PER_STEP = """
import resource
from lqrec import dataset, kg, model, synth, training
from lqrec.query import BASIC_SHAPES
world = synth.clustered_world(n_clusters=20, attrs_per_cluster=8, items_per_cluster=50,
                              n_users=320, tags_per_item=4, likes_per_user=12,
                              cross_cluster_noise=0.05, seed=1)
split = kg.split_edges(world, 0.05, seed=1)
data, _ = dataset.build_dataset(split, dataset.DatasetConfig(
    counts={"train": {s: 50 for s in BASIC_SHAPES}}, seed=1))
params = model.ModelParams.init(split.train, d=32, k=3, gamma=5.0, seed=1)
def faults(epochs, seed):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    training.train(data["train"], params, split.train, training.TrainConfig(
        d=32, k=3, gamma=5.0, lr=1e-2, batch_size=64, n_neg=16, patience=None,
        epochs=epochs, seed=seed))
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
faults(1, 1)  # the first epoch allocates what later steps reuse
print(faults(3, 2) / (3 * -(-len(data["train"]) // 64)))
"""


@pytest.mark.skipif(not _on_glibc(), reason="the thresholds are pinned on glibc only")
def test_training_step_takes_few_page_faults_in_a_fresh_process():
    src = os.path.dirname(os.path.dirname(lqrec.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 10


def test_malloc_thresholds_are_pinned_on_glibc_only(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(lqrec.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    for libc, pinned in (("glibc 2.36", [(-3, 32 << 20), (-1, 64 << 20)]),
                         ("musl 1.2", []), (None, [])):
        monkeypatch.setattr(os, "confstr", lambda name: libc)
        lqrec._pin_malloc_thresholds()
        assert calls == pinned, libc
        calls.clear()
    monkeypatch.delattr(os, "confstr")
    lqrec._pin_malloc_thresholds()
    assert calls == []
