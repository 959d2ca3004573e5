"""Differential tests of the model's batched, fused forward pass and loss.

The skeleton-grouped batch is checked against one-instance batches: every
instance trains every task it is given samples for, and ``compute_loss``
averages over its batch, so the loss and every gradient of a mixed batch
must equal the mean over single-instance batches; grouping by skeleton only
reorders floating-point sums. Inference embeddings must match bit for bit,
because row-wise products do not depend on the batch size, and the eager
forward must match the taped one, because both run the same op functions.
A task's embedding must also keep its bytes whichever other tasks are asked
for, because each task's gate reads only its own inputs.

The whole model is checked against ``reference_model``, which embeds one
instance at a time from the smallest ops and scores it with the clipped BCE
of sigmoids. The ``intersect`` op must keep the bytes of the reference's
node-by-node intersection, each task's two-node tail (``gather_margin``, a
weighted ``logistic_loss``) the bytes of the four nodes it replaced, and
``logistic_loss`` must match the reference's BCE on random logits.
"""

import dataclasses
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

import reference_model
from lqrec import model
from lqrec.autodiff import (EAGER, AdamState, Tape, Tensor, _accumulate, _add_rows,
                            adam_step, backward, sigmoid)
from lqrec.dataset import DatasetConfig, sample_instance
from lqrec.model import VARIANTS, ModelParams, embed_instance
from lqrec.oracle import TASK_JOINT, TASKS
from lqrec.query import ALL_SHAPES, And, Or, Project, QueryShape
from lqrec.training import (compute_loss, effective_task_weights, pack_answers,
                            sample_negatives)
from reference_model import scale_shift, sigmoid_bce
from source_checks import imported_names, names_reached

TOL = 1e-10
# The tasks each variant's head can produce; single-task has no head.
PRODUCES = {variant: (TASK_JOINT,) if variant == "single-task" else TASKS
            for variant in VARIANTS}


def _reversed_children(q):
    """The same query with every intersection/union child order reversed."""
    if isinstance(q, Project):
        return Project(q.rel, _reversed_children(q.child))
    if isinstance(q, (And, Or)):
        return type(q)(tuple(_reversed_children(c) for c in reversed(q.children)))
    return q


@pytest.fixture(scope="module")
def mixed_instances(world_split):
    """All nine shapes and both child orders of pi/ip/up (pi's two orders are
    two skeletons; ip/up's stay one skeleton with swapped id columns)."""
    rng = random.Random(31)
    cfg = DatasetConfig(counts={}, seed=0, max_retries=500)
    out = [sample_instance(world_split, shape, "train", rng, cfg)
           for shape in ALL_SHAPES for _ in range(2)]
    for inst in list(out):
        if inst.shape in (QueryShape.PI, QueryShape.IP, QueryShape.UP):
            out.append(dataclasses.replace(
                inst, requirement=_reversed_children(inst.requirement)))
    return out


def _loss_and_grads(batch, samples, params, kg, weights, loss_fn=compute_loss):
    params.zero_grads()
    tape = Tape()
    loss = loss_fn(tape, batch, samples, params, kg, weights)
    backward(tape, loss)
    grads = {name: t.dense_grad() for name, t in params.named().items()}
    return float(loss.data), grads


def _row_of(samples, row):
    """One batch row's samples, as a one-instance batch sees them."""
    return {task: ids[row:row + 1] for task, ids in samples.items()}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (1.0, 0.0, 0.7)])
def test_batch_matches_mean_of_single_instances(world_split, mixed_instances,
                                                variant, weights):
    kg = world_split.train
    params = ModelParams.init(kg, d=8, k=3, gamma=2.0, seed=4, variant=variant)
    # as in training, samples are drawn for the tasks the variant trains
    # at a positive weight
    weights = effective_task_weights(variant, weights)
    pack = pack_answers(mixed_instances, kg.sorted_items(), weights, 5)
    samples = sample_negatives(pack, np.arange(len(mixed_instances)), 5,
                               np.random.default_rng(9))
    loss, grads = _loss_and_grads(mixed_instances, samples, params, kg, weights)
    singles = [_loss_and_grads([inst], _row_of(samples, row), params, kg, weights)
               for row, inst in enumerate(mixed_instances)]
    mean_loss = sum(s[0] for s in singles) / len(singles)
    assert abs(loss - mean_loss) <= TOL
    for name, g in grads.items():
        mean_grad = sum(s[1][name] for s in singles) / len(singles)
        np.testing.assert_allclose(g, mean_grad, rtol=0, atol=TOL, err_msg=name)


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_inference_embeddings_bitwise(world_split, mixed_instances,
                                              variant):
    """Inference embeds on EAGER: every computed task embedding of the batch
    equals, byte for byte, the taped forward of the same batch and each
    instance embedded alone."""
    kg = world_split.train
    params = ModelParams.init(kg, d=8, k=3, gamma=2.0, seed=5, variant=variant)
    users = [inst.user for inst in mixed_instances]
    reqs = [inst.requirement for inst in mixed_instances]
    tasks = PRODUCES[variant]
    batched = embed_instance(EAGER, params, users, reqs, kg.like_rel, tasks)
    taped = embed_instance(Tape(), params, users, reqs, kg.like_rel, tasks)
    assert tuple(batched) == tuple(taped) == tasks
    for task, emb in taped.items():
        assert emb.data.tobytes() == batched[task].tobytes(), task
    for row, (user, req) in enumerate(zip(users, reqs)):
        alone = embed_instance(EAGER, params, [user], [req], kg.like_rel, tasks)
        assert set(alone) == set(batched)
        for task, emb in alone.items():
            assert emb[0].tobytes() == batched[task][row].tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_task_subset_keeps_each_task_embedding(world_split, mixed_instances, variant):
    """A head computes only the tasks asked for, and each of them has the
    bytes it has when every task the variant produces is asked for: on the
    mixed batch and on each instance alone, for every subset."""
    kg = world_split.train
    params = ModelParams.init(kg, d=8, k=3, gamma=2.0, seed=6, variant=variant)
    users = [inst.user for inst in mixed_instances]
    reqs = [inst.requirement for inst in mixed_instances]
    produces = PRODUCES[variant]
    batches = [(users, reqs)] + [([u], [r]) for u, r in zip(users, reqs)]
    for batch_users, batch_reqs in batches:
        full = embed_instance(EAGER, params, batch_users, batch_reqs, kg.like_rel, produces)
        for n in range(len(produces) + 1):
            for tasks in itertools.combinations(produces, n):
                got = embed_instance(EAGER, params, batch_users, batch_reqs, kg.like_rel,
                                     tasks)
                assert tuple(got) == tasks
                for task, emb in got.items():
                    assert emb.tobytes() == full[task].tobytes(), (tasks, task)


@pytest.mark.parametrize("task", sorted(set(TASKS) - {TASK_JOINT}))
def test_task_the_variant_cannot_produce_raises(world_split, mixed_instances, task):
    kg = world_split.train
    params = ModelParams.init(kg, d=8, k=3, gamma=2.0, seed=6, variant="single-task")
    inst = mixed_instances[0]
    with pytest.raises(ValueError, match=f"'single-task'.*'{task}'"):
        embed_instance(EAGER, params, [inst.user], [inst.requirement], kg.like_rel,
                       (TASK_JOINT, task))


# --- the reference model -------------------------------------------------------


@pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (1.0, 0.0, 0.7), (1.0, 0.0, 0.0)])
@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("variant", VARIANTS)
def test_model_equals_reference_model(world_split, mixed_instances, variant, seed, weights):
    """Every EAGER task embedding of the batch agrees within 1e-12 with the
    reference's embedding of its instance alone, the loss within rel 1e-12
    and every parameter gradient within TOL."""
    kg = world_split.train
    params = ModelParams.init(kg, d=8, k=3, gamma=2.0, seed=seed, variant=variant)
    users = [inst.user for inst in mixed_instances]
    reqs = [inst.requirement for inst in mixed_instances]
    batched = embed_instance(EAGER, params, users, reqs, kg.like_rel, PRODUCES[variant])
    for row, (user, req) in enumerate(zip(users, reqs)):
        alone = reference_model.embed(EAGER, params, user, req, kg.like_rel)
        assert alone.keys() == batched.keys()
        for task, emb in batched.items():
            np.testing.assert_allclose(emb[row], alone[task], rtol=0, atol=1e-12,
                                       err_msg=task)
    weights = effective_task_weights(variant, weights)
    pack = pack_answers(mixed_instances, kg.sorted_items(), weights, 5)
    samples = sample_negatives(pack, np.arange(len(mixed_instances)), 5,
                               np.random.default_rng(70 + seed))
    loss, grads = _loss_and_grads(mixed_instances, samples, params, kg, weights)
    ref_loss, ref_grads = _loss_and_grads(mixed_instances, samples, params, kg, weights,
                                          reference_model.compute_loss)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
    assert np.abs(grads["entity_emb"]).max() > 1e-3
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        np.testing.assert_allclose(g, ref_grads[name], rtol=0, atol=TOL, err_msg=name)


def test_reference_model_reaches_no_fused_op_and_no_model_function():
    """A fused op checked against a reference that calls it checks nothing:
    the reference names none of them and imports nothing from
    ``lqrec.model``, so it reads only a ``ModelParams``'s arrays."""
    path = Path(reference_model.__file__)
    fused = {"intersect", "gather_margin", "logistic_loss", "place_rows"}
    assert names_reached(fused, path) == []
    allowed = ("numpy", "lqrec.autodiff.", "lqrec.oracle.", "lqrec.query.")
    assert [name for name in imported_names(path) if not name.startswith(allowed)] == []


def _three_steps(kg, instances, variant, seed, weights, sample_seed, loss_fn=compute_loss):
    """Bytes of every EAGER task embedding, the loss and every parameter
    gradient, and every parameter and Adam moment after three ``adam_step``s
    on one sample of the batch."""
    users = [inst.user for inst in instances]
    reqs = [inst.requirement for inst in instances]
    weights = effective_task_weights(variant, weights)
    pack = pack_answers(instances, kg.sorted_items(), weights, 5)
    samples = sample_negatives(pack, np.arange(len(instances)), 5,
                               np.random.default_rng(sample_seed))
    params = ModelParams.init(kg, d=8, k=3, gamma=2.0, seed=seed, variant=variant)
    out = {f"emb {task}": e.tobytes() for task, e in
           embed_instance(EAGER, params, users, reqs, kg.like_rel, PRODUCES[variant]).items()}
    state = AdamState(params.named(), lr=0.05)
    for step in range(3):
        loss, grads = _loss_and_grads(instances, samples, params, kg, weights, loss_fn)
        if step == 0:
            out["loss"] = np.float64(loss).tobytes()
            out |= {f"grad {n}": g.tobytes() for n, g in grads.items()}
            assert np.abs(grads["inter_w1"]).max() > 1e-5
        adam_step(params.named(), state)
    for name, t in params.named().items():
        out |= {f"param {name}": t.data.tobytes(), f"m {name}": state.m[name].tobytes(),
                f"v {name}": state.v[name].tobytes()}
    return out


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("seed", range(2))
def test_intersect_equals_node_by_node_intersection(world_split, mixed_instances, variant,
                                                    seed, monkeypatch):
    """Byte for byte (``_three_steps``), since the op's backward adds into
    its operands in the node-by-node order."""
    args = (world_split.train, mixed_instances, variant, seed, (1.0, 1.0, 1.0), 60 + seed)
    got = _three_steps(*args)
    monkeypatch.setattr(model, "embed_intersection", reference_model.intersection)
    want = _three_steps(*args)
    assert got.keys() == want.keys()
    assert [key for key in got if got[key] != want[key]] == []


def _gather_l1(tape, table, ids, q):
    """The L1 distance node that ``gather_margin`` replaced: its backward
    gathers and subtracts again, and adds the table's rows as ``gather``'s."""
    idx = np.asarray(ids, dtype=np.int64)
    tape.gathered.setdefault(table, []).append(idx)

    def backward_fn(g):
        s = g[..., None] * np.sign(table.data[idx] - q.data[..., None, :])
        _add_rows(table, idx, s)
        _accumulate(q, -s.sum(axis=-2))

    return tape._node(np.abs(table.data[idx] - q.data[..., None, :]).sum(axis=-1),
                      backward_fn)


def four_node_loss(tape, batch, samples, params, kg, task_weights):
    """``compute_loss`` with each task's tail in its four-node form:
    ``_gather_l1``, ``scale_shift(-1, gamma)``, an unweighted
    ``logistic_loss`` and ``scale_shift(weight, 0)``."""
    task_emb = embed_instance(tape, params, [inst.user for inst in batch],
                              [inst.requirement for inst in batch], kg.like_rel,
                              tuple(samples))
    total = None
    for task, ids in samples.items():
        dist = _gather_l1(tape, tape.param(params.entity_emb), ids, task_emb[task])
        loss = tape.logistic_loss(scale_shift(tape, dist, -1.0, params.gamma))
        term = scale_shift(tape, loss, task_weights[TASKS.index(task)], 0.0)
        total = term if total is None else tape.add(total, term)
    return total


@pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (1.0, 0.0, 0.7)])
@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("variant", VARIANTS)
def test_two_node_tail_equals_four_node_tail(world_split, mixed_instances, variant, seed,
                                             weights):
    """Byte for byte (``_three_steps``): the scoring op multiplies minus its
    gradient by the signs its forward kept, and the loss scales its gradient
    by the weight before dividing by n, the products and order of the four
    nodes."""
    args = (world_split.train, mixed_instances, variant, seed, weights, 80 + seed)
    got = _three_steps(*args)
    want = _three_steps(*args, loss_fn=four_node_loss)
    assert got.keys() == want.keys()
    assert [key for key in got if got[key] != want[key]] == []


@pytest.mark.parametrize("shape", [(1,), (17,), (1, 6), (8, 17), (64, 33)])
def test_logistic_loss_equals_sigmoid_bce_on_random_logits(shape):
    """On logits in [-20, 20] the gradients agree within TOL. The losses
    agree within the reference's own rounding: it takes the log of ``p =
    sigmoid(z)`` for a positive and of ``1 - p`` for a negative, from a
    rounded ``p``, so each element's log is off by up to a few ulps of 1
    over that probability (of order 1e-8 for a negative at z = 20). The op's
    loss equals ``np.logaddexp``'s softplus to 1e-14."""
    rng = np.random.default_rng(shape[-1])
    for _ in range(20):
        z = Tensor(rng.uniform(-20.0, 20.0, size=shape))
        got = []
        for loss_fn in (Tape.logistic_loss, sigmoid_bce):
            z.zero_grad()
            tape = Tape()
            loss = loss_fn(tape, z)
            backward(tape, loss)
            got.append((float(loss.data), z.grad))
        (loss, grad), (ref_loss, ref_grad) = got
        signed = np.concatenate([-z.data[..., :1], z.data[..., 1:]], axis=-1)
        assert loss == pytest.approx(np.logaddexp(0.0, signed).mean(), rel=1e-14, abs=0)
        ulps = 4 * np.finfo(float).eps / sigmoid(-signed)
        assert loss == pytest.approx(ref_loss, rel=1e-14, abs=ulps.sum() / z.data.size)
        np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=TOL)
