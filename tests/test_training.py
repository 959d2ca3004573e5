import json
import math
import random

import numpy as np
import pytest

from lqrec.autodiff import Tape
from lqrec.dataset import DatasetConfig, TASK_JOINT, build_dataset
from lqrec.model import (
    ModelParams,
    embed_joint,
    embed_requirement,
    embed_user_preference,
    score_items,
)
from lqrec.query import BASIC_SHAPES
from lqrec.training import (
    DegenerateInstanceError,
    TrainConfig,
    TrainingDivergedError,
    compute_loss,
    effective_task_weights,
    sample_negatives,
    train,
    _instance_samples,
)


@pytest.fixture(scope="module")
def toy(world_split):
    counts = {"train": {s: 10 for s in BASIC_SHAPES},
              "valid": {s: 2 for s in BASIC_SHAPES}}
    datasets, _ = build_dataset(world_split, DatasetConfig(counts=counts, seed=21))
    return world_split, datasets


def make_batch(instances, kg, n_neg, weights, seed):
    rng = random.Random(seed)
    items = kg.sorted_items()
    return [(inst, _instance_samples(inst, items, n_neg, weights, rng))
            for inst in instances]


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
    assert effective_task_weights("mtl", (1, 1, 1)) == (1, 1, 1)
    assert effective_task_weights("single-task", (1, 1, 1)) == (1, 0, 0)
    assert effective_task_weights("no-al", (1, 1, 1)) == (1, 0, 1)
    assert effective_task_weights("no-au", (1, 1, 1)) == (1, 1, 0)


def test_sample_negatives_forced():
    rng = random.Random(0)
    negs = sample_negatives(frozenset({7}), [7, 8, 9], 2, rng)
    assert sorted(negs) == [8, 9]


def test_sample_negatives_zero():
    rng = random.Random(0)
    assert sample_negatives(frozenset({1}), [1, 2], 0, rng) == []


def test_sample_negatives_disjoint_many_draws():
    rng = random.Random(1)
    items = list(range(40))
    answers = frozenset(range(0, 40, 3))
    for _ in range(2000):
        for n in sample_negatives(answers, items, 5, rng):
            assert n not in answers


def test_sample_negatives_degenerate():
    rng = random.Random(2)
    with pytest.raises(DegenerateInstanceError):
        sample_negatives(frozenset({1, 2}), [1, 2], 3, rng)


def test_loss_closed_form_half_probabilities(toy):
    # all-zero parameters and a vanishing margin force every probability to
    # sigmoid(0) = 0.5, so each task term is exactly ln 2
    split, datasets = toy
    kg = split.train
    params = ModelParams.init(kg, d=8, k=2, gamma=1e-300, seed=0)
    for t in params.named().values():
        t.data[...] = 0.0
    weights = (1.0, 1.0, 1.0)
    batch = make_batch(datasets["train"][:6], kg, 4, weights, seed=5)
    tape = Tape()
    loss = compute_loss(tape, batch, params, kg, weights)
    assert float(loss.data) == pytest.approx(3.0 * math.log(2.0), abs=1e-12)


def test_loss_weight_vector_selects_tasks(toy):
    split, datasets = toy
    kg = split.train
    params = ModelParams.init(kg, d=8, k=2, gamma=2.0, seed=1)
    batch = make_batch(datasets["train"][:4], kg, 4, (1.0, 0.0, 0.0), seed=6)
    tape = Tape()
    loss_joint_only = compute_loss(tape, batch, params, kg, (1.0, 0.0, 0.0))
    # recompute the joint term by hand from the shared operators
    total = 0.0
    for inst, samples in batch:
        t = Tape()
        q_l = embed_requirement(t, params, [inst.requirement])
        q_u = embed_user_preference(t, params, [inst.user], kg.like_rel)
        q = embed_joint(t, params, q_l, q_u)
        from lqrec.model import mtl_transform

        q_star = mtl_transform(t, params, q, q_l, q_u)[TASK_JOINT]
        pos, negs = samples[TASK_JOINT]
        probs = score_items(t, params, q_star, [[pos] + negs]).data[0]
        labels = np.array([1.0] + [0.0] * len(negs))
        total += float(
            -(labels * np.log(probs) + (1 - labels) * np.log1p(-probs)).mean()
        )
    assert float(loss_joint_only.data) == pytest.approx(total / len(batch),
                                                        rel=1e-12)


def test_single_task_variant_equals_plain_base_loss(toy):
    # the single-task path must share the operator code: its loss equals a
    # manual base-model loss built from the same embed ops, no head
    split, datasets = toy
    kg = split.train
    params = ModelParams.init(kg, d=8, k=3, gamma=2.0, seed=2,
                              variant="single-task")
    weights = effective_task_weights("single-task", (1.0, 1.0, 1.0))
    batch = make_batch(datasets["train"][:5], kg, 3, weights, seed=7)
    tape = Tape()
    loss = compute_loss(tape, batch, params, kg, weights)
    total = 0.0
    for inst, samples in batch:
        t = Tape()
        q_l = embed_requirement(t, params, [inst.requirement])
        q_u = embed_user_preference(t, params, [inst.user], kg.like_rel)
        q = embed_joint(t, params, q_l, q_u)
        pos, negs = samples[TASK_JOINT]
        probs = score_items(t, params, q, [[pos] + negs]).data[0]
        labels = np.array([1.0] + [0.0] * len(negs))
        total += float(
            -(labels * np.log(probs) + (1 - labels) * np.log1p(-probs)).mean()
        )
    assert float(loss.data) == pytest.approx(total / len(batch), rel=1e-12)


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
        compute_loss(Tape(), [], params, split.train, (1, 1, 1))


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


def _materialized_negatives(task_answers, items, n_neg, rng):
    """Reference: the pool built as a list before drawing."""
    if n_neg == 0:
        return []
    pool = [i for i in items if i not in task_answers]
    if not pool:
        raise DegenerateInstanceError("answer set covers the entire catalog")
    if len(pool) >= n_neg:
        return rng.sample(pool, n_neg)
    return [pool[rng.randrange(len(pool))] for _ in range(n_neg)]


@pytest.mark.parametrize("n_items", [12, 40, 85, 86, 90, 300, 2000])
def test_sample_negatives_matches_materialized_pool(n_items):
    # random.sample copies populations up to a k-dependent set size (21 for
    # k <= 5, 85 for k = 16) and indexes larger ones; both sides are covered
    items = list(range(3, 3 + 2 * n_items, 2))
    gen = random.Random(n_items)
    for trial in range(30):
        answers = frozenset(gen.sample(items, gen.randrange(0, n_items // 2))
                            + [0, 1, 10**6])  # ids outside the catalog too
        pool_size = sum(1 for i in items if i not in answers)
        for n_neg in (0, 1, 16, pool_size + 5):
            a, b = random.Random(trial), random.Random(trial)
            assert (sample_negatives(answers, items, n_neg, a)
                    == _materialized_negatives(answers, items, n_neg, b))
            assert a.getstate() == b.getstate()


def test_negative_pool_view_elements():
    from lqrec.training import _NegativePool

    items = [2, 3, 5, 7, 11, 13, 17]
    for answers in (frozenset(), frozenset({2}), frozenset({17, 3}),
                    frozenset({4, 5, 7, 11}), frozenset(items)):
        view = _NegativePool(items, answers)
        expected = [i for i in items if i not in answers]
        assert len(view) == len(expected)
        assert [view[j] for j in range(len(view))] == expected
        assert list(view) == expected
        with pytest.raises(IndexError):
            view[len(view)]
