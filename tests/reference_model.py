"""The model's forward pass and loss written once, node by node, one instance
at a time: the reference that every fused op and every batched path of
``lqrec.model`` and ``lqrec.training`` is checked against.

It runs each query as (d,) vectors through the smallest engine ops
(``gather``, ``add``, ``elementwise_max``, ``affine``, ``relu``,
``softmax_last_dim``, ``weighted_sum``, ``const``) plus the helper nodes
below, with no skeleton grouping and no fused op. It reads only the arrays
of a ``ModelParams``, never a function of ``lqrec.model`` (``test_engine.py``
checks its source for that).

A helper node is the plain array expression on ``EAGER`` and one
``Tape._node`` on a tape, whose backward adds each operand its gradient in
operand order (a first gradient as a copy, since it may be the output's own).
"""

import numpy as np

from lqrec.autodiff import EAGER, _accumulate, sigmoid
from lqrec.oracle import TASK_JOINT, TASK_PREF, TASK_REQ, TASKS
from lqrec.query import Anchor, And, Project


def _node(ex, forward, grads, *operands):
    """``forward`` of the operands; on a tape ``grads(g, *arrays)`` gives
    each operand's gradient."""
    if ex is EAGER:
        return forward(*operands)
    arrays = [t.data for t in operands]

    def backward_fn(g):
        for t, gt in zip(operands, grads(g, *arrays)):
            _accumulate(t, gt, shared=True)

    return ex._node(forward(*arrays), backward_fn)


def scale_shift(ex, x, scale, shift):
    """``scale * x + shift`` with python-float constants."""
    return _node(ex, lambda x: scale * x + shift, lambda g, x: (g * scale,), x)


def sub(ex, a, b):
    return _node(ex, np.subtract, lambda g, a, b: (g, -g), a, b)


def mul(ex, a, b):
    return _node(ex, np.multiply, lambda g, a, b: (g * b, g * a), a, b)


def sigmoid_node(ex, x):
    """``autodiff.sigmoid`` as an op."""
    return _node(ex, sigmoid, lambda g, x: (g * sigmoid(x) * (1.0 - sigmoid(x)),), x)


def join_last_dim(ex, parts):
    """The parts side by side along the last axis."""
    bounds = np.cumsum([t.shape[-1] for t in parts])[:-1]
    return _node(ex, lambda *p: np.concatenate(p, axis=-1),
                 lambda g, *p: np.split(g, bounds, axis=-1), *parts)


def column_block(ex, w, s, width):
    """Columns ``s * width`` to ``(s + 1) * width`` of the matrix ``w``."""
    cols = slice(s * width, (s + 1) * width)

    def grads(g, w):
        gw = np.zeros_like(w)
        gw[:, cols] = g
        return (gw,)

    return _node(ex, lambda w: w[:, cols], grads, w)


def l1(ex, rows, q):
    """The L1 distance from ``q`` (d,) to each of the (m, d) ``rows``."""

    def grads(g, rows, q):
        s = g[:, None] * np.sign(rows - q)
        return s, -s.sum(axis=0)

    return _node(ex, lambda rows, q: np.abs(rows - q).sum(axis=-1), grads, rows, q)


def sigmoid_bce(ex, scores):
    """Binary cross-entropy of the logits' sigmoids, averaged over all
    elements, against 1 in column 0 and 0 elsewhere; the probabilities are
    clipped to [1e-12, 1 - 1e-12] as a log() guard."""
    labels = np.zeros(scores.shape)
    labels[..., 0] = 1.0

    def bce(probs):
        p = np.clip(probs, 1e-12, 1.0 - 1e-12)
        return -(labels * np.log(p) + (1.0 - labels) * np.log1p(-p)).sum() / p.size

    def grads(g, probs):
        p = np.clip(probs, 1e-12, 1.0 - 1e-12)
        return (g * (-(labels / p) + (1.0 - labels) / (1.0 - p)) / p.size,)

    return _node(ex, bce, grads, sigmoid_node(ex, scores))


def intersection(ex, params, q1, q2):
    """The gate ``s = sigmoid(affine(w2, relu(affine(w1, [q1, q2]))))``
    mixes ``q2 + s * (q1 - q2)``, one node per step."""
    hidden = ex.relu(ex.affine(ex.param(params.inter_w1), join_last_dim(ex, [q1, q2])))
    s = sigmoid_node(ex, ex.affine(ex.param(params.inter_w2), hidden))
    return ex.add(q2, mul(ex, s, sub(ex, q1, q2)))


def project(ex, params, base, rel):
    return ex.add(base, ex.gather(ex.param(params.relation_emb), rel))


def embed_query(ex, params, q):
    """(d,) embedding of one query; n-ary nodes fold left over their children."""
    if isinstance(q, Anchor):
        return ex.gather(ex.param(params.entity_emb), q.entity)
    if isinstance(q, Project):
        return project(ex, params, embed_query(ex, params, q.child), q.rel)
    acc, *rest = [embed_query(ex, params, c) for c in q.children]
    for child in rest:
        acc = (intersection(ex, params, acc, child) if isinstance(q, And)
               else ex.elementwise_max(acc, child))
    return acc


def embed(ex, params, user, requirement, like_rel):
    """Each task's (d,) embedding of one (user, requirement) pair."""
    q_l = embed_query(ex, params, requirement)
    q_u = project(ex, params, ex.gather(ex.param(params.entity_emb), user), like_rel)
    q = intersection(ex, params, q_l, q_u)
    if params.variant == "single-task":
        return {TASK_JOINT: q}
    d, k = params.d, params.k
    experts = ex.param(params.experts)
    bank = join_last_dim(ex, [ex.relu(ex.affine(column_block(ex, experts, s, d), q))
                              for s in range(k)])
    if params.variant == "shared-bottom":
        return dict.fromkeys(TASKS, ex.weighted_sum(ex.const(np.full(k, 1.0 / k)), bank))
    own = {TASK_JOINT: q, TASK_REQ: q_l, TASK_PREF: q_u}
    return {task: ex.weighted_sum(ex.softmax_last_dim(
                ex.affine(ex.param(getattr(params, f"gate_{task}")), x)), bank)
            for task, x in own.items()}


def compute_loss(tape, batch, samples, params, kg, task_weights):
    """``training.compute_loss``: per instance and sampled task, the task's
    weight times the BCE of its 1 + n_neg logits ``gamma - L1``, summed,
    then averaged over the batch."""
    total = None
    for row, inst in enumerate(batch):
        task_emb = embed(tape, params, inst.user, inst.requirement, kg.like_rel)
        for task, ids in samples.items():
            items = tape.gather(tape.param(params.entity_emb), ids[row])
            logits = scale_shift(tape, l1(tape, items, task_emb[task]), -1.0, params.gamma)
            term = scale_shift(tape, sigmoid_bce(tape, logits),
                               task_weights[TASKS.index(task)], 0.0)
            total = term if total is None else tape.add(total, term)
    return scale_shift(tape, total, 1.0 / len(batch), 0.0)
