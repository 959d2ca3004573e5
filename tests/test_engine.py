"""Differential tests: the skeleton-grouped batch against one-instance batches
and against the id-column recursion it replaced, the one-gate intersection
against the two-logit form it replaced, the ``intersect`` op against the
node-by-node intersection it replaced, the logistic loss on logits against
the clipped BCE of their sigmoids that it replaced, and the one-tensor expert
bank against the per-expert bank it replaced.

Every instance trains every task it is given samples for, and ``compute_loss``
averages over its batch, so the loss and every gradient of a mixed batch must
equal the mean over single-instance batches; grouping by skeleton only
reorders floating-point sums. Inference embeddings must match bit for bit,
because row-wise products do not depend on the batch size, and the eager
forward must match the taped one, because both run the same op functions.
"""

import dataclasses
import random

import numpy as np
import pytest

from lqrec import model
from lqrec.autodiff import (EAGER, AdamState, Tape, Tensor, _accumulate, adam_step, backward,
                            sigmoid)
from lqrec.dataset import DatasetConfig, sample_instance
from lqrec.model import (VARIANTS, ModelParams, embed_instance, embed_intersection,
                         embed_projection, embed_union, score_items)
from lqrec.oracle import TASKS
from lqrec.query import ALL_SHAPES, Anchor, And, Or, Project, QueryShape
from lqrec.training import (compute_loss, effective_task_weights, pack_answers,
                            sample_negatives)
from reference_ops import join_last_dim, mul, sigmoid_node, sub

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
    """Inference embeds on EAGER: every task embedding of the batch equals,
    byte for byte, the taped forward of the same batch and each instance
    embedded alone."""
    kg = world_split.train
    params = ModelParams.init(kg, d=8, k=3, gamma=2.0, seed=5, variant=variant)
    users = [inst.user for inst in mixed_instances]
    reqs = [inst.requirement for inst in mixed_instances]
    batched = embed_instance(EAGER, params, users, reqs, kg.like_rel)
    taped = embed_instance(Tape(), params, users, reqs, kg.like_rel)
    assert set(taped) == set(batched)
    for task, emb in taped.items():
        assert emb.data.tobytes() == batched[task].tobytes(), task
    for row, (user, req) in enumerate(zip(users, reqs)):
        alone = embed_instance(EAGER, params, [user], [req], kg.like_rel)
        assert set(alone) == set(batched)
        for task, emb in alone.items():
            assert emb[0].tobytes() == batched[task][row].tobytes()


# --- the replaced path, kept as the reference --------------------------------
# Each query listed its ids in one walk, the group's ids became (B,) columns
# that the skeleton recursion consumed in that order, and the group outputs
# went back to batch order as a stack of rows plus a gather.


def _skeleton_ids(q, ids):
    """``q``'s skeleton; ``ids`` receives its anchor and relation ids, children
    before the projection that applies to them."""
    if isinstance(q, Anchor):
        ids.append(q.entity)
        return ("e",)
    if isinstance(q, Project):
        child = _skeleton_ids(q.child, ids)
        ids.append(q.rel)
        return ("p", child)
    kind = "and" if isinstance(q, And) else "or"
    return (kind, tuple(_skeleton_ids(c, ids) for c in q.children))


def _embed_columns(ex, params, skel, columns):
    kind = skel[0]
    if kind == "e":
        return ex.gather(ex.param(params.entity_emb), next(columns))
    if kind == "p":
        base = _embed_columns(ex, params, skel[1], columns)
        return embed_projection(ex, params, base, next(columns))
    children = [_embed_columns(ex, params, c, columns) for c in skel[1]]
    acc = children[0]
    for child in children[1:]:
        acc = (embed_intersection(ex, params, acc, child) if kind == "and"
               else embed_union(ex, acc, child))
    return acc


def _stack_rows(ex, parts):
    """The parts' rows in order; on a tape one node that hands each part its
    block of the gradient."""
    if ex is EAGER:
        return np.vstack(parts)

    def backward_fn(g):
        bounds = np.cumsum([t.shape[0] for t in parts])[:-1]
        for t, block in zip(parts, np.split(g, bounds)):
            _accumulate(t, block)

    return ex._node(np.vstack([t.data for t in parts]), backward_fn)


def reference_embed_requirement(ex, params, requirements):
    groups = {}
    for row, q in enumerate(requirements):
        ids = []
        rows, id_rows = groups.setdefault(_skeleton_ids(q, ids), ([], []))
        rows.append(row)
        id_rows.append(ids)
    parts, order = [], []
    for skel, (rows, id_rows) in groups.items():
        columns = iter(np.array(id_rows, dtype=np.int64).T)
        parts.append(_embed_columns(ex, params, skel, columns))
        order.extend(rows)
    if len(parts) == 1:
        return parts[0]
    return ex.gather(_stack_rows(ex, parts), np.argsort(order))


@pytest.mark.parametrize("variant", VARIANTS)
def test_group_walk_equals_replaced_path(world_split, mixed_instances, variant,
                                         monkeypatch):
    """Every task embedding on EAGER and on a tape, the loss and every
    parameter gradient equal the id-column path's byte for byte."""
    kg = world_split.train
    params = ModelParams.init(kg, d=8, k=3, gamma=2.0, seed=6, variant=variant)
    users = [inst.user for inst in mixed_instances]
    reqs = [inst.requirement for inst in mixed_instances]
    weights = effective_task_weights(variant, (1.0, 1.0, 1.0))
    pack = pack_answers(mixed_instances, kg.sorted_items(), weights, 5)
    samples = sample_negatives(pack, np.arange(len(mixed_instances)), 5,
                               np.random.default_rng(3))

    def run():
        tape = Tape()
        eager = embed_instance(EAGER, params, users, reqs, kg.like_rel)
        taped = embed_instance(tape, params, users, reqs, kg.like_rel)
        loss, grads = _loss_and_grads(mixed_instances, samples, params, kg, weights)
        return (len(tape.nodes), {t: e.tobytes() for t, e in eager.items()},
                {t: e.data.tobytes() for t, e in taped.items()},
                np.float64(loss).tobytes(), {n: g.tobytes() for n, g in grads.items()})

    got = run()
    monkeypatch.setattr(model, "embed_requirement", reference_embed_requirement)
    want = run()
    assert got[0] == want[0] - 1  # place_rows is one node, stack and gather two
    assert got[1:] == want[1:]


# --- the two-logit intersection, kept as the reference -------------------------
# inter_w2 mapped the hidden layer to 2d logits, one d-vector per operand, and
# each dimension's two weights were the sigmoids of the logits' differences.
# They depend only on the difference of the two halves, so the one-gate form
# with inter_w2' = inter_w2[:, :d] - inter_w2[:, d:] (bias row included)
# computes the same function.


def _halves(ex, x):
    """``x``'s last axis cut in two; on a tape one node per half."""
    half = x.shape[-1] // 2
    if ex is EAGER:
        return x[..., :half], x[..., half:]
    zeros = np.zeros(x.shape[:-1] + (half,))
    return (ex._node(x.data[..., :half],
                     lambda g: _accumulate(x, np.concatenate([g, zeros], axis=-1))),
            ex._node(x.data[..., half:],
                     lambda g: _accumulate(x, np.concatenate([zeros, g], axis=-1))))


def two_logit_intersection(inter_w2):
    """``embed_intersection`` as it was, reading the (d + 1, 2d) ``inter_w2``."""

    def embed(ex, params, q1, q2):
        x = join_last_dim(ex, [q1, q2])
        hidden = ex.relu(ex.affine(ex.param(params.inter_w1), x))
        l1, l2 = _halves(ex, ex.affine(ex.param(inter_w2), hidden))
        w1 = sigmoid_node(ex, sub(ex, l1, l2))
        w2 = sigmoid_node(ex, sub(ex, l2, l1))
        return ex.add(mul(ex, w1, q1), mul(ex, w2, q2))

    return embed


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("seed", range(2))
def test_gate_equals_two_logit_intersection(world_split, mixed_instances, variant,
                                            seed, monkeypatch):
    """With the old ``inter_w2`` mapped to its halves' difference, every task
    embedding, the loss and every shared parameter's gradient agree with the
    two-logit form within TOL; the gate's gradient is the old left half's
    and the negated right half's."""
    kg = world_split.train
    params = ModelParams.init(kg, d=8, k=3, gamma=2.0, seed=seed, variant=variant)
    d = params.d
    rng = np.random.default_rng(40 + seed)
    old_w2 = Tensor(rng.uniform(-1.0, 1.0, size=(d + 1, 2 * d)))
    params.inter_w2.data[...] = old_w2.data[:, :d] - old_w2.data[:, d:]
    users = [inst.user for inst in mixed_instances]
    reqs = [inst.requirement for inst in mixed_instances]
    weights = effective_task_weights(variant, (1.0, 1.0, 1.0))
    pack = pack_answers(mixed_instances, kg.sorted_items(), weights, 5)
    samples = sample_negatives(pack, np.arange(len(mixed_instances)), 5,
                               np.random.default_rng(seed))

    def run():
        old_w2.zero_grad()
        embedded = embed_instance(EAGER, params, users, reqs, kg.like_rel)
        loss, grads = _loss_and_grads(mixed_instances, samples, params, kg, weights)
        return embedded, loss, grads

    new_emb, new_loss, new_grads = run()
    monkeypatch.setattr(model, "embed_intersection", two_logit_intersection(old_w2))
    old_emb, old_loss, old_grads = run()
    assert set(new_emb) == set(old_emb)
    for task, emb in new_emb.items():
        np.testing.assert_allclose(emb, old_emb[task], rtol=0, atol=TOL, err_msg=task)
    assert abs(new_loss - old_loss) <= TOL
    for name, g in new_grads.items():
        if name != "inter_w2":
            np.testing.assert_allclose(g, old_grads[name], rtol=0, atol=TOL, err_msg=name)
    old_gate = old_w2.dense_grad()
    assert np.abs(new_grads["inter_w2"]).max() > 1e-3
    np.testing.assert_allclose(new_grads["inter_w2"], old_gate[:, :d], rtol=0, atol=TOL)
    np.testing.assert_allclose(new_grads["inter_w2"], -old_gate[:, d:], rtol=0, atol=TOL)


# --- the node-by-node intersection, kept as the reference ----------------------
# The intersection was eight nodes: the operands joined, affine, relu, affine,
# sigmoid, their difference, its product with the gate, and the sum with q2.


def node_by_node_intersection(ex, params, q1, q2):
    """``embed_intersection`` as it was, one node per step."""
    x = join_last_dim(ex, [q1, q2])
    hidden = ex.relu(ex.affine(ex.param(params.inter_w1), x))
    w = sigmoid_node(ex, ex.affine(ex.param(params.inter_w2), hidden))
    return ex.add(q2, mul(ex, w, sub(ex, q1, q2)))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("seed", range(2))
def test_intersect_equals_node_by_node_intersection(world_split, mixed_instances, variant,
                                                    seed, monkeypatch):
    """Byte for byte: every EAGER task embedding, the loss and every
    parameter gradient, and every parameter and Adam moment after three
    ``adam_step``s, since the op's backward adds into its operands in the
    node-by-node order."""
    kg = world_split.train
    users = [inst.user for inst in mixed_instances]
    reqs = [inst.requirement for inst in mixed_instances]
    weights = effective_task_weights(variant, (1.0, 1.0, 1.0))
    pack = pack_answers(mixed_instances, kg.sorted_items(), weights, 5)
    samples = sample_negatives(pack, np.arange(len(mixed_instances)), 5,
                               np.random.default_rng(60 + seed))

    def run():
        params = ModelParams.init(kg, d=8, k=3, gamma=2.0, seed=seed, variant=variant)
        out = {f"emb {task}": e.tobytes() for task, e in
               embed_instance(EAGER, params, users, reqs, kg.like_rel).items()}
        state = AdamState(params.named(), lr=0.05)
        for step in range(3):
            loss, grads = _loss_and_grads(mixed_instances, samples, params, kg, weights)
            if step == 0:
                out["loss"] = np.float64(loss).tobytes()
                out |= {f"grad {n}": g.tobytes() for n, g in grads.items()}
                assert np.abs(grads["inter_w1"]).max() > 1e-5
            adam_step(params.named(), state)
        for name, t in params.named().items():
            out |= {f"param {name}": t.data.tobytes(), f"m {name}": state.m[name].tobytes(),
                    f"v {name}": state.v[name].tobytes()}
        return out

    got = run()
    monkeypatch.setattr(model, "embed_intersection", node_by_node_intersection)
    want = run()
    assert got.keys() == want.keys()
    assert [key for key in got if got[key] != want[key]] == []


# --- the clipped BCE of sigmoids, kept as the reference ------------------------
# Each task's scores went through a sigmoid node, then one binary
# cross-entropy node against a labels array (1 in column 0, 0 elsewhere) with
# the probabilities clipped to [1e-12, 1 - 1e-12] as a log() guard.

_BCE_EPS = 1e-12


def clipped_bce(tape, probs, labels):
    """Binary cross-entropy averaged over all elements, as one tape node."""
    p = np.clip(probs.data, _BCE_EPS, 1.0 - _BCE_EPS)
    n = p.size
    loss = -(labels * np.log(p) + (1.0 - labels) * np.log1p(-p)).sum() / n

    def backward_fn(g):
        _accumulate(probs, g * (-(labels / p) + (1.0 - labels) / (1.0 - p)) / n)

    return tape._node(loss, backward_fn)


def sigmoid_bce(tape, scores):
    """The old loss of a (B, 1 + n_neg) block of logits, positives in column 0."""
    labels = np.zeros(scores.shape)
    labels[..., 0] = 1.0
    return clipped_bce(tape, sigmoid_node(tape, scores), labels)


def reference_compute_loss(tape, batch, samples, params, kg, task_weights):
    """``compute_loss`` as it was, with ``sigmoid_bce`` as each task's loss."""
    task_emb = embed_instance(tape, params, [inst.user for inst in batch],
                              [inst.requirement for inst in batch], kg.like_rel)
    total = None
    for task, ids in samples.items():
        bce = sigmoid_bce(tape, score_items(tape, params, task_emb[task], ids))
        term = tape.scale_shift(bce, task_weights[TASKS.index(task)], 0.0)
        total = term if total is None else tape.add(total, term)
    return total


@pytest.mark.parametrize("variant", VARIANTS)
def test_logistic_loss_equals_sigmoid_bce(world_split, mixed_instances, variant):
    """On the nine-shape batch the loss and every parameter's gradient agree
    with the clipped BCE of the logits' sigmoids within TOL."""
    kg = world_split.train
    params = ModelParams.init(kg, d=8, k=3, gamma=2.0, seed=7, variant=variant)
    weights = effective_task_weights(variant, (1.0, 0.6, 1.3))
    pack = pack_answers(mixed_instances, kg.sorted_items(), weights, 5)
    samples = sample_negatives(pack, np.arange(len(mixed_instances)), 5,
                               np.random.default_rng(11))
    loss, grads = _loss_and_grads(mixed_instances, samples, params, kg, weights)
    ref_loss, ref_grads = _loss_and_grads(mixed_instances, samples, params, kg, weights,
                                          reference_compute_loss)
    assert abs(loss - ref_loss) <= TOL
    assert np.abs(grads["entity_emb"]).max() > 1e-3
    for name, g in grads.items():
        np.testing.assert_allclose(g, ref_grads[name], rtol=0, atol=TOL, err_msg=name)


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


# --- the per-expert bank, kept as the reference --------------------------------
# The bank was k (d + 1, d) tensors, expert_0 .. expert_{k-1}: k affines, k
# relus and one k-way join of their outputs. Expert s is column block s of
# the one ``experts`` tensor that replaced them.


def per_expert_bank(experts):
    """``_expert_bank`` as it was, reading the k expert tensors ``experts``."""

    def bank(ex, params, q):
        return join_last_dim(ex, [ex.relu(ex.affine(ex.param(e), q)) for e in experts])

    return bank


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("seed", range(2))
def test_one_expert_tensor_equals_per_expert_bank(world_split, mixed_instances, variant,
                                                  seed, monkeypatch):
    """With expert s taken from column block s of ``experts``, every EAGER
    task embedding agrees with the per-expert bank within 1e-12, and the
    loss and every other parameter's gradient within TOL; the ``experts``
    gradient is the per-expert gradients side by side."""
    kg = world_split.train
    params = ModelParams.init(kg, d=8, k=3, gamma=2.0, seed=seed, variant=variant)
    d, k = params.d, params.k
    experts = [Tensor(params.experts.data[:, s * d:(s + 1) * d].copy()) for s in range(k)]
    users = [inst.user for inst in mixed_instances]
    reqs = [inst.requirement for inst in mixed_instances]
    weights = effective_task_weights(variant, (1.0, 1.0, 1.0))
    pack = pack_answers(mixed_instances, kg.sorted_items(), weights, 5)
    samples = sample_negatives(pack, np.arange(len(mixed_instances)), 5,
                               np.random.default_rng(50 + seed))

    def run():
        for e in experts:
            e.zero_grad()
        embedded = embed_instance(EAGER, params, users, reqs, kg.like_rel)
        loss, grads = _loss_and_grads(mixed_instances, samples, params, kg, weights)
        return embedded, loss, grads

    new_emb, new_loss, new_grads = run()
    monkeypatch.setattr(model, "_expert_bank", per_expert_bank(experts))
    old_emb, old_loss, old_grads = run()
    assert set(new_emb) == set(old_emb)
    for task, emb in new_emb.items():
        np.testing.assert_allclose(emb, old_emb[task], rtol=0, atol=1e-12, err_msg=task)
    assert abs(new_loss - old_loss) <= TOL
    for name, g in new_grads.items():
        if name != "experts":
            np.testing.assert_allclose(g, old_grads[name], rtol=0, atol=TOL, err_msg=name)
    old_bank = np.hstack([e.dense_grad() for e in experts])
    assert (np.abs(old_bank).max() > 1e-3) == (variant != "single-task")  # it has no head
    np.testing.assert_array_equal(new_grads["experts"], old_bank)
