"""Differential tests: the skeleton-grouped batch against one-instance batches.

``compute_loss`` averages over its batch, so the loss and every gradient of a
mixed batch must equal the mean over single-instance batches; grouping by
skeleton only reorders floating-point sums. Inference embeddings must match
bit for bit, because row-wise products do not depend on the batch size.
"""

import dataclasses
import random

import numpy as np
import pytest

from lqrec.autodiff import Tape, backward
from lqrec.dataset import TASK_PREF, DatasetConfig, sample_instance
from lqrec.model import VARIANTS, ModelParams, embed_instance
from lqrec.query import ALL_SHAPES, And, Or, Project, QueryShape
from lqrec.training import _instance_samples, compute_loss

TOL = 1e-10


def _reversed_children(q):
    """The same query with every intersection/union child order reversed."""
    if isinstance(q, Project):
        return Project(q.rel, _reversed_children(q.child))
    if isinstance(q, (And, Or)):
        return type(q)(tuple(_reversed_children(c) for c in reversed(q.children)))
    return q


@pytest.fixture(scope="module")
def mixed_instances(world_split):
    """All nine shapes, both child orders of pi/ip/up (pi's two orders are
    two skeletons; ip/up's stay one skeleton with swapped id columns), and
    one instance whose preference answer set is empty."""
    rng = random.Random(31)
    cfg = DatasetConfig(counts={}, seed=0, max_retries=500)
    out = [sample_instance(world_split, shape, "train", rng, cfg)
           for shape in ALL_SHAPES for _ in range(2)]
    for inst in list(out):
        if inst.shape in (QueryShape.PI, QueryShape.IP, QueryShape.UP):
            out.append(dataclasses.replace(
                inst, requirement=_reversed_children(inst.requirement)))
    empty = out[0]
    out.append(dataclasses.replace(
        empty, answers={**empty.answers, TASK_PREF: frozenset()}))
    return out


def _loss_and_grads(batch, params, kg, weights):
    params.zero_grads()
    tape = Tape()
    loss = compute_loss(tape, batch, params, kg, weights)
    backward(tape, loss)
    grads = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
             for name, t in params.named().items()}
    return float(loss.data), grads


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (1.0, 0.0, 0.7)])
def test_batch_matches_mean_of_single_instances(world_split, mixed_instances,
                                                variant, weights):
    kg = world_split.train
    params = ModelParams.init(kg, d=8, k=3, gamma=2.0, seed=4, variant=variant)
    rng = random.Random(9)
    items = kg.sorted_items()
    # samples drawn for every task: a zero weight keeps its term at scale 0
    batch = [(inst, _instance_samples(inst, items, 5, (1.0, 1.0, 1.0), rng))
             for inst in mixed_instances]
    assert TASK_PREF not in batch[-1][1]
    loss, grads = _loss_and_grads(batch, params, kg, weights)
    singles = [_loss_and_grads([pair], params, kg, weights) for pair in batch]
    mean_loss = sum(s[0] for s in singles) / len(singles)
    assert abs(loss - mean_loss) <= TOL
    for name, g in grads.items():
        mean_grad = sum(s[1][name] for s in singles) / len(singles)
        np.testing.assert_allclose(g, mean_grad, rtol=0, atol=TOL, err_msg=name)


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_inference_embeddings_bitwise(world_split, mixed_instances,
                                              variant):
    kg = world_split.train
    params = ModelParams.init(kg, d=8, k=3, gamma=2.0, seed=5, variant=variant)
    users = [inst.user for inst in mixed_instances]
    reqs = [inst.requirement for inst in mixed_instances]
    tape = Tape(record=False)
    batched = embed_instance(tape, params, users, reqs, kg.like_rel)
    assert not tape.nodes
    for row, (user, req) in enumerate(zip(users, reqs)):
        alone = embed_instance(Tape(record=False), params, [user], [req],
                               kg.like_rel)
        assert set(alone) == set(batched)
        for task, emb in alone.items():
            assert emb.data[0].tobytes() == batched[task].data[row].tobytes()
