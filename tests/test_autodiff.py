import gc
import itertools
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from lqrec.autodiff import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    EAGER,
    AdamState,
    Eager,
    EmptyTapeError,
    OpShapeError,
    Tape,
    Tensor,
    _accumulate,
    adam_step,
    backward,
    sigmoid,
)
from reference_model import intersection, mul, scale_shift, sigmoid_node
from source_checks import attribute_accesses


def reduce_sum(tape, x):
    """Sum of all elements as one scalar tape node (test-only reduction)."""

    def backward_fn(g):
        _accumulate(x, np.full_like(x.data, float(g)))

    return tape._node(x.data.sum(), backward_fn)


def reduce_mean(tape, x):
    """Mean of all elements as one scalar tape node (test-only reduction)."""
    n = x.data.size

    def backward_fn(g):
        _accumulate(x, np.full_like(x.data, float(g) / n))

    return tape._node(x.data.sum() / n, backward_fn)


def fd_grad(fn, x, h=1e-6):
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn()
        flat[i] = orig - h
        down = fn()
        flat[i] = orig
        gf[i] = (up - down) / (2 * h)
    return g


def check_op(build, tensors, h=1e-6, tol=1e-7):
    """Gradient-check an op composition ``build(tape) -> scalar Tensor``."""
    tape = Tape()
    loss = build(tape)
    backward(tape, loss)
    for t in tensors:
        analytic = t.dense_grad()

        def run():
            return float(build(Tape()).data)

        numeric = fd_grad(run, t.data, h=h)
        np.testing.assert_allclose(analytic, numeric, atol=tol, rtol=1e-5)


def rng_tensor(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(scale * rng.standard_normal(shape))


def test_relu_subgradient():
    tape = Tape()
    x = Tensor(np.array([2.0, -1.0, 0.0]))
    y = reduce_sum(tape, tape.relu(x))
    backward(tape, y)
    np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0])


def test_logistic_loss_gradient_is_sigmoid_minus_label():
    # the logistic loss is the BCE of sigmoid(z) against y = 1 in column 0
    # and y = 0 elsewhere: d/dz of one element's term is sigmoid(z) - y
    for z0 in (0.7, -1.3, 2.5):
        tape = Tape()
        z = Tensor(np.full((2, 3), z0))
        backward(tape, tape.logistic_loss(z))
        p = 1.0 / (1.0 + np.exp(-z0))
        expected = np.array([[p - 1.0, p, p]] * 2) / z.data.size
        np.testing.assert_allclose(z.grad, expected, rtol=1e-12)


def test_elementwise_max_forward_and_routing():
    tape = Tape()
    a = Tensor(np.array([1.0, -2.0]))
    b = Tensor(np.array([0.0, 3.0]))
    m = tape.elementwise_max(a, b)
    np.testing.assert_array_equal(m.data, [1.0, 3.0])
    loss = reduce_sum(tape, m)
    backward(tape, loss)
    np.testing.assert_array_equal(a.grad, [1.0, 0.0])
    np.testing.assert_array_equal(b.grad, [0.0, 1.0])


def test_max_tie_routes_to_first():
    tape = Tape()
    a = Tensor(np.array([5.0]))
    b = Tensor(np.array([5.0]))
    loss = reduce_sum(tape, tape.elementwise_max(a, b))
    backward(tape, loss)
    assert a.grad[0] == 1.0 and b.grad[0] == 0.0


def test_sum_backward():
    tape = Tape()
    x = Tensor(np.ones(4))
    loss = reduce_sum(tape, x)
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.ones(4))


def test_shared_parameter_grads_add():
    tape = Tape()
    x = Tensor(np.array([1.5, -0.5]))
    branch1 = scale_shift(tape, x, 2.0, 0.0)
    branch2 = scale_shift(tape, x, 3.0, 0.0)
    loss = reduce_sum(tape, tape.add(branch1, branch2))
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, [5.0, 5.0])


def test_adopted_first_gradients_share_no_memory():
    """A first gradient is the array the consumer computed, not a sum into
    zeros, so no two tensors may be left holding one array: one tensor fed
    to both operands of ``add`` gets twice the output's gradient, which
    keeps its own, and each operand of ``add`` and of ``intersect`` (whose
    backward reads its output's gradient after handing it on) keeps its own
    array, equal to the node-by-node reference's."""
    x, y, w = rng_tensor((2, 4), 1), rng_tensor((2, 4), 2), rng_tensor((2, 4), 3)
    tape = Tape()
    twice = tape.add(x, x)
    backward(tape, reduce_sum(tape, mul(tape, twice, w)))
    assert x.grad.tobytes() == (w.data + w.data).tobytes()
    assert twice.grad.tobytes() == w.data.tobytes()
    assert not np.shares_memory(x.grad, twice.grad)

    w1, w2 = rng_tensor((9, 4), 4), rng_tensor((5, 4), 5)
    got = []
    for form in (Tape.intersect,
                 lambda tape, w1, w2, a, b: intersection(
                     tape, SimpleNamespace(inter_w1=w1, inter_w2=w2), a, b)):
        for t in (x, y, w, w1, w2):
            t.zero_grad()
        tape = Tape()
        total = tape.add(x, y)
        out = form(tape, w1, w2, total, y)
        backward(tape, reduce_sum(tape, mul(tape, out, w)))
        tensors = (x, y, total, out, w1, w2)
        for a, b in itertools.combinations(tensors, 2):
            assert not np.shares_memory(a.grad, b.grad)
        got.append([t.grad.tobytes() for t in (x, y, w1, w2)])
    assert got[0] == got[1]


@pytest.mark.parametrize("weight", [1.0, 0.7, 2.5])
def test_weighted_logistic_loss_equals_loss_then_scale(weight):
    """``logistic_loss(z, w)`` has the bytes of the unweighted loss node
    followed by a ``scale_shift(w, 0)`` node: the loss, and the gradient,
    since the backward scales its output's gradient by w before dividing by
    the element count."""
    rng = np.random.default_rng(3)
    for shape in [(5,), (4, 9)]:
        z = Tensor(rng.uniform(-20.0, 20.0, size=shape))
        got = []
        for fused in (True, False):
            z.zero_grad()
            tape = Tape()
            loss = (tape.logistic_loss(z, weight) if fused
                    else scale_shift(tape, tape.logistic_loss(z), weight, 0.0))
            backward(tape, loss)
            got.append((np.float64(loss.data).tobytes(), z.grad.tobytes()))
        assert got[0] == got[1]


def test_backward_on_empty_tape():
    with pytest.raises(EmptyTapeError):
        backward(Tape(), Tensor(np.array(0.0)))


def test_backward_refuses_swept_tape():
    """A second sweep of one tape would add every node's gradient again: it
    raises and leaves the first pass's gradients as they were."""
    tape = Tape()
    x, w = Tensor(np.array([0.3, -1.2, 2.0])), Tensor(np.array([1.5, 0.5, -0.7]))
    h = scale_shift(tape, x, 2.0, 0.1)
    m = mul(tape, h, w)
    p = sigmoid_node(tape, m)
    loss = tape.logistic_loss(p)
    backward(tape, loss)
    first = [t.grad.tobytes() for t in (x, w, h, m, p, loss)]
    with pytest.raises(EmptyTapeError, match="swept"):
        backward(tape, loss)
    assert [t.grad.tobytes() for t in (x, w, h, m, p, loss)] == first


def test_backward_requires_scalar():
    tape = Tape()
    x = Tensor(np.ones(3))
    y = tape.relu(x)
    with pytest.raises(OpShapeError):
        backward(tape, y)


def test_shape_errors_carry_op_name():
    tape = Tape()
    with pytest.raises(OpShapeError, match="add"):
        tape.add(Tensor(np.ones(2)), Tensor(np.ones(3)))
    with pytest.raises(OpShapeError, match="affine"):
        tape.affine(Tensor(np.ones((3, 2))), Tensor(np.ones(4)))
    with pytest.raises(OpShapeError, match="add"):
        EAGER.add(np.ones(2), np.ones(3))
    # unequal operands, and a gate as wide as the hidden layer, not the operands
    for w2, q2 in [(np.ones((3, 2)), np.ones(3)), (np.ones((3, 3)), np.ones(2))]:
        with pytest.raises(OpShapeError, match="intersect"):
            EAGER.intersect(np.ones((5, 2)), w2, np.ones(2), q2)


def test_gather_scatters_sparsely():
    tape = Tape()
    table = Tensor(np.arange(12.0).reshape(4, 3))
    row = tape.gather(table, [2])
    rows = tape.gather(table, [1, 1, 3])
    loss = reduce_sum(tape, tape.add(rows, tape.place_rows([row, row, row], [[2], [0], [1]])))
    backward(tape, loss)
    expected = np.zeros((4, 3))
    expected[2] = 3.0  # row placed three times
    expected[1] = 2.0  # repeated id accumulates
    expected[3] = 1.0
    np.testing.assert_array_equal(table.grad_ids, [1, 2, 3])  # only the gathered rows
    np.testing.assert_array_equal(table.dense_grad(), expected)


def test_gathered_table_also_read_densely_and_accumulated():
    """A table that gathers and a dense op both read gets a dense gradient,
    and a second backward without zeroing adds to a row-sparse gradient,
    whatever the first backward left and whichever rows the second gathers."""
    def gathers(ids):
        return lambda tape, table: reduce_sum(tape, tape.gather(table, ids))

    def dense(tape, table):
        return reduce_sum(tape, scale_shift(tape, table, 2.0, 0.0))

    def both(tape, table):
        return tape.add(gathers([1, 1, 3])(tape, table), dense(tape, table))

    expected = {gathers([1, 1, 3]): [0, 2, 0, 1], gathers([0, 3]): [1, 0, 0, 1],
                both: [2, 4, 2, 3]}
    for first in expected:
        for second in expected:
            table = Tensor(np.arange(8.0).reshape(4, 2))
            for build in (first, second):
                tape = Tape()
                backward(tape, build(tape, table))
            total = np.add(expected[first], expected[second])
            np.testing.assert_array_equal(table.dense_grad(), np.repeat(total, 2).reshape(4, 2))
    table.zero_grad()
    tape = Tape()
    backward(tape, gathers([1, 1, 3])(tape, table))
    np.testing.assert_array_equal(table.grad_ids, [1, 3])
    np.testing.assert_array_equal(table.grad, [[2.0, 2.0], [1.0, 1.0]])


def test_tape_freed_without_cycle_collector():
    """No backward closure refers back to its tape, so a tape and its
    activations go with its last reference, not at the next collection."""
    table, q = Tensor(np.ones((4, 2))), Tensor(np.ones((2, 2)))
    tape = Tape()
    loss = reduce_sum(tape, tape.add(tape.gather(table, [0, 3]),
                                     tape.gather_margin(table, [[0, 1], [2, 3]], q, 1.0)))
    backward(tape, loss)
    freed = weakref.ref(tape)
    gc.disable()
    try:
        del tape, loss
        assert freed() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("ex", [EAGER, Tape()], ids=["eager", "tape"])
@pytest.mark.parametrize("rows", [
    [[0, 1], [1]],  # overlapping rows
    [[0, 1], [3]],  # a missing row
    [[0], [1, 2]],  # parts whose lengths differ from their row lists
], ids=["overlap", "missing", "length"])
def test_place_rows_refuses_non_partition(ex, rows):
    parts = [np.ones((2, 3)), np.zeros((1, 3))]
    with pytest.raises(OpShapeError, match="place_rows"):
        ex.place_rows([ex.const(p) for p in parts], rows)


def test_softmax_properties():
    tape = Tape()
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(-30, 30, size=17))
    s = tape.softmax_last_dim(x)
    assert abs(s.data.sum() - 1.0) < 1e-12
    shifted = tape.softmax_last_dim(Tensor(x.data + 123.456))
    np.testing.assert_allclose(s.data, shifted.data, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_op_gradients_against_finite_differences(seed):
    w = rng_tensor((5, 3), seed)
    x = rng_tensor((4,), seed + 10)
    y = rng_tensor((4,), seed + 20)
    table = rng_tensor((6, 4), seed + 30)
    gate = rng_tensor((3,), seed + 40)
    stack = rng_tensor((12,), seed + 50)
    xm = rng_tensor((2, 4), seed + 60)
    ym = rng_tensor((2, 4), seed + 70)
    gm = rng_tensor((2, 3), seed + 80)
    sm = rng_tensor((2, 12), seed + 90)
    w1 = rng_tensor((9, 3), seed + 100)
    w2 = rng_tensor((4, 4), seed + 110)

    cases = {
        "affine_vec": lambda t: reduce_sum(t, t.affine(w, x)),
        "affine_mat": lambda t: reduce_sum(t, t.affine(w, t.gather(table, [0, 2, 5]))),
        "intersect": lambda t: reduce_sum(t, mul(t, t.intersect(w1, w2, x, y), y)),
        "softmax": lambda t: reduce_sum(t, mul(t, t.softmax_last_dim(x), y)),
        "weighted": lambda t: reduce_sum(t, t.weighted_sum(gate, stack)),
        "margin_vec": lambda t: reduce_sum(t, t.gather_margin(table, [1, 3], x, 0.5)),
        "logistic": lambda t: t.logistic_loss(scale_shift(t, x, 3.0, 0.5)),
        "logistic_weighted": lambda t: t.logistic_loss(scale_shift(t, x, 3.0, 0.5), 0.7),
        "mean": lambda t: reduce_mean(t, t.gather(table, [0, 4])),
        "max": lambda t: reduce_sum(t, t.elementwise_max(x, y)),
        "relu": lambda t: reduce_sum(t, t.relu(x)),
        # the same ops on a leading batch axis
        "affine_batch": lambda t: reduce_sum(t, mul(t, t.affine(w, xm), gm)),
        "intersect_batch": lambda t: reduce_sum(t, mul(t, t.intersect(w1, w2, xm, ym), xm)),
        "softmax_batch": lambda t: reduce_sum(t, mul(t, t.softmax_last_dim(xm), ym)),
        "weighted_batch": lambda t: reduce_sum(t, 
            mul(t, t.weighted_sum(t.softmax_last_dim(gm), sm), xm)
        ),
        "margin_batch": lambda t: reduce_sum(t, mul(
            t, t.gather_margin(table, [[1, 3, 3], [0, 5, 2]], xm, 2.0), gm)
        ),
        "logistic_batch": lambda t: t.logistic_loss(scale_shift(t, xm, 3.0, -0.5)),
        "logistic_batch_weighted": lambda t: t.logistic_loss(
            t.gather_margin(table, [[1, 3, 3], [0, 5, 2]], xm, 2.0), 1.3),
        "place_blocks": lambda t: reduce_sum(t, 
            mul(t, t.place_rows([ym, sigmoid_node(t, xm)], [[3, 0], [1, 2]]),
                t.gather(table, [0, 1, 2, 3]))
        ),
        "gather_rows": lambda t: reduce_sum(t, 
            mul(t, t.gather(sigmoid_node(t, xm), [1, 0, 1]), t.gather(table, [0, 1, 2]))
        ),
        # a tape output gathered at one of its rows
        "gather_one_row": lambda t: reduce_sum(t, 
            mul(t, t.gather(sigmoid_node(t, xm), [1, 1]), t.gather(table, [0, 4]))
        ),
    }
    targets = [w, x, y, table, gate, stack, xm, ym, gm, sm, w1, w2]
    for name, build in cases.items():
        for target in targets:
            target.zero_grad()
        check_op(build, targets)


def test_adam_zero_gradient_no_move():
    p = Tensor(np.array([1.0, 2.0]))
    params = {"p": p}
    state = AdamState(params, lr=0.1)
    before = p.data.copy()
    adam_step(params, state)  # grad is None -> skipped
    np.testing.assert_array_equal(p.data, before)


def test_adam_constant_gradient_step_size():
    p = Tensor(np.array([0.0]))
    params = {"p": p}
    state = AdamState(params, lr=0.05)
    prev = p.data.copy()
    for _ in range(400):
        p.grad = np.array([3.0])
        adam_step(params, state)
        step = prev - p.data
        prev = p.data.copy()
    # with constant gradients the update magnitude approaches lr
    np.testing.assert_allclose(abs(step[0]), 0.05, rtol=1e-6)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(7)
        p = Tensor(rng.standard_normal(8))
        params = {"p": p}
        state = AdamState(params, lr=0.01)
        for i in range(25):
            p.grad = np.sin(np.arange(8.0) + i)
            adam_step(params, state)
        return p.data.tobytes()

    assert run() == run()


def test_logistic_loss_finite_on_large_logits_not_on_nonfinite_ones():
    # logits of +-800 give a finite loss and finite gradients; a non-finite
    # logit gives a non-finite loss, with no warning (warnings are errors)
    tape = Tape()
    z = Tensor(np.array([[-800.0, 800.0], [800.0, -800.0]]))
    loss = tape.logistic_loss(z)
    assert float(loss.data) == 400.0
    backward(tape, loss)
    np.testing.assert_array_equal(z.grad, [[-0.25, 0.25], [0.0, 0.0]])
    for bad in ([0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0]):
        assert not np.isfinite(Tape().logistic_loss(Tensor(np.array(bad))).data), bad


def test_node_protocol():
    """On a tape every op returns one tensor and appends it as one
    (output, backward) node. ``Eager`` has the same ops but
    ``logistic_loss``, and each gives the tape's result bit for bit;
    ``param`` and ``const`` make leaf operands and record nothing."""
    x, y = rng_tensor((4,), 1), rng_tensor((4,), 2)
    xm, ym = rng_tensor((2, 4), 3), rng_tensor((2, 4), 10)
    table, w = rng_tensor((6, 4), 4), rng_tensor((5, 3), 5)
    gate, stack = rng_tensor((3,), 6), rng_tensor((12,), 7)
    w1, w2 = rng_tensor((9, 3), 8), rng_tensor((4, 4), 9)
    cases = {
        "gather": lambda t, v: t.gather(v(table), [0, 2]),
        "gather_margin": lambda t, v: t.gather_margin(v(table), [[1, 3], [0, 5]], v(xm), 2.5),
        "add": lambda t, v: t.add(v(x), v(y)),
        "elementwise_max": lambda t, v: t.elementwise_max(v(x), v(y)),
        "place_rows": lambda t, v: t.place_rows([v(xm), v(xm)], [[3, 0], [1, 2]]),
        "affine": lambda t, v: t.affine(v(w), v(xm)),
        "weighted_sum": lambda t, v: t.weighted_sum(v(gate), v(stack)),
        "relu": lambda t, v: t.relu(v(x)),
        "softmax_last_dim": lambda t, v: t.softmax_last_dim(v(xm)),
        "intersect": lambda t, v: t.intersect(v(w1), v(w2), v(xm), v(ym)),
        "logistic_loss": lambda t, v: t.logistic_loss(v(xm)),
    }
    leaves = {"param", "const"}
    public = {name for name in vars(Tape) if not name.startswith("_")}
    assert public == set(cases) | leaves
    assert {name for name in vars(Eager) if not name.startswith("_")} == (
        public - {"logistic_loss"})
    for name, op in cases.items():
        tape = Tape()
        out = op(tape, tape.param)
        assert len(tape.nodes) == 1 and tape.nodes[0][0] is out, name
        assert callable(tape.nodes[0][1]), name
        if name != "logistic_loss":
            assert op(EAGER, EAGER.param).tobytes() == out.data.tobytes(), name
    tape = Tape()
    assert tape.param(x) is x and isinstance(tape.const(x.data), Tensor)
    assert EAGER.param(x) is x.data and EAGER.const(x.data) is x.data
    assert tape.nodes == []


def test_every_op_is_used_outside_the_engine():
    """Each public op of ``Tape`` and ``Eager`` is accessed by name somewhere
    in the package outside ``autodiff.py``, so an op the model stops using
    fails here and leaves the op set."""
    ops = {name for cls in (Tape, Eager) for name in vars(cls) if not name.startswith("_")}
    unused = sorted(op for op in ops
                    if all(at.startswith("autodiff.py:") for at in attribute_accesses(op)))
    assert unused == []


def _reference_adam_step(params, m, v, t, lr):
    """Lazy Adam written with whole-array temporaries over each gradient's
    rows (all rows for a dense gradient), the expression order that the
    in-place ``adam_step`` must reproduce bit for bit; a parameter without a
    gradient is left as it is."""
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        if p.grad is None:
            continue
        rows = np.arange(len(p.data)) if p.grad_ids is None else p.grad_ids
        g = p.grad
        m_rows, v_rows, p_rows = m[name][rows], v[name][rows], p.data[rows]
        m_rows *= ADAM_BETA1
        m_rows += (1.0 - ADAM_BETA1) * g
        v_rows *= ADAM_BETA2
        v_rows += (1.0 - ADAM_BETA2) * g * g
        p_rows -= lr * (m_rows / bc1) / (np.sqrt(v_rows / bc2) + ADAM_EPS)
        m[name][rows], v[name][rows], p.data[rows] = m_rows, v_rows, p_rows


def test_adam_in_place_matches_reference():
    rng = np.random.default_rng(11)
    init = {"table": rng.standard_normal((40, 6)), "w": rng.standard_normal((3, 4)),
            "gappy": rng.standard_normal(5)}
    ours = {name: Tensor(a.copy()) for name, a in init.items()}
    ref = {name: Tensor(a.copy()) for name, a in init.items()}
    state = AdamState(ours, lr=0.02)
    m = {name: np.zeros_like(a) for name, a in init.items()}
    v = {name: np.zeros_like(a) for name, a in init.items()}
    for t in range(1, 21):
        rows = rng.choice(40, size=7, replace=False)
        table_grad = np.zeros((40, 6))  # sparse, as a gathered table's
        table_grad[rows] = rng.standard_normal((7, 6))
        # "gappy" has no gradient on even steps, and then stays put
        grads = {"table": table_grad, "w": rng.standard_normal((3, 4)),
                 "gappy": rng.standard_normal(5) if t % 2 else None}
        for params in (ours, ref):
            for name, p in params.items():
                p.grad = None if grads[name] is None else grads[name].copy()
        gappy = ours["gappy"].data.tobytes(), state.m["gappy"].tobytes()
        adam_step(ours, state)
        _reference_adam_step(ref, m, v, t, 0.02)
        if t % 2 == 0:
            assert (ours["gappy"].data.tobytes(), state.m["gappy"].tobytes()) == gappy, t
    for name in init:
        assert np.array_equal(ours[name].data, ref[name].data), name
        assert np.array_equal(state.m[name], m[name]), name
        assert np.array_equal(state.v[name], v[name]), name


def _signed_magnitudes(rng, shape):
    """Values of both signs from 1e-8 to 1e8, about a tenth each +0.0 and -0.0."""
    out = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
    out[rng.random(shape) < 0.1] = 0.0
    out[rng.random(shape) < 0.1] = -0.0
    return out


def test_deferred_row_reduction_matches_add_at_chain():
    """A table's row-sparse gradient has the bytes of the ``np.add.at`` calls
    into a zero table that each gather's backward used to make, in sweep
    order."""
    rng = np.random.default_rng(3)
    table = Tensor(rng.standard_normal((12, 5)))
    q = Tensor(rng.standard_normal((4, 5)))
    tape = Tape()
    # many repeats of 8 of the 12 ids, and a gather of no rows
    ids = [rng.integers(0, 8, size=n) for n in (200, 0, 37, 200)]
    outs = [tape.gather(table, i) for i in ids]
    l1_ids = rng.integers(0, 8, size=(4, 30))
    outs.append(tape.gather_margin(table, l1_ids, q, 1.0))
    grads = [_signed_magnitudes(rng, out.shape) for out in outs]

    def feed(g):
        for out, grad in zip(outs, grads):
            out.grad = grad

    backward(tape, tape._node(np.float64(0.0), feed))
    expected = np.zeros_like(table.data)
    np.add.at(expected, l1_ids,
              -grads[-1][..., None] * np.sign(table.data[l1_ids] - q.data[:, None, :]))
    for i, grad in reversed(list(zip(ids, grads))):
        np.add.at(expected, i, grad)
    np.testing.assert_array_equal(table.grad_ids, np.arange(8))
    assert table.grad.shape == (8, 5)
    assert table.dense_grad().tobytes() == expected.tobytes()


def _sweep(tape, outs, rng):
    """``backward`` through a last node that gives each of ``outs`` a
    ``_signed_magnitudes`` gradient; returns those gradients."""
    grads = [_signed_magnitudes(rng, out.shape) for out in outs]

    def feed(g):
        for out, grad in zip(outs, grads):
            out.grad = grad

    backward(tape, tape._node(np.float64(0.0), feed))
    return grads


_MANY = np.random.default_rng(2).integers(0, 6, size=(2, 60))  # ids 0-5, repeated


@pytest.mark.parametrize("tapes", [
    [[("gather", _MANY[0]), ("gather", [0, 3, 5, 5])],
     [("gather", [3, 0, 3, 5]), ("l1", [[3, 0], [3, 5]])]],
    [[("gather", _MANY[0]), ("gather", [0, 3, 5, 5])],
     [("gather", [6, 7, 7]), ("l1", [[6, 7], [7, 7]])]],
    [[("dense", None), ("gather", _MANY[0]), ("gather", _MANY[1])]],
    [[("gather", _MANY[0]), ("gather", _MANY[1]), ("dense", None)]],
    [[("dense", None), ("gather", _MANY[0]), ("l1", _MANY[1].reshape(2, 30)),
      ("dense", None)]],
], ids=["two-tapes-overlapping", "two-tapes-disjoint", "dense-read-first",
        "dense-read-last", "dense-reads-around"])
def test_mixed_table_gradient_matches_add_at_chain(tapes):
    """A table whose row-sparse gradient goes dense, because a second tape
    adds to it without zeroing or because a dense op also reads it, has the
    bytes of every contribution applied to a zero table in sweep order,
    tape after tape."""
    rng = np.random.default_rng(5)
    table = Tensor(rng.standard_normal((8, 4)))
    q = Tensor(rng.standard_normal((2, 4)))
    expected = np.zeros_like(table.data)
    for reads in tapes:
        tape = Tape()
        record = {"gather": lambda i: tape.gather(table, i),
                  "l1": lambda i: tape.gather_margin(table, i, q, 1.0),
                  "dense": lambda i: scale_shift(tape, table, 1.0, 0.0)}
        grads = _sweep(tape, [record[kind](ids) for kind, ids in reads], rng)
        for (kind, ids), g in reversed(list(zip(reads, grads))):
            if kind == "dense":
                expected += g
            elif kind == "l1":
                ids = np.asarray(ids)
                np.add.at(expected, ids,
                          -g[..., None] * np.sign(table.data[ids] - q.data[:, None, :]))
            else:
                np.add.at(expected, np.asarray(ids), g)
    assert table.grad_ids is None
    assert table.dense_grad().tobytes() == expected.tobytes()


def test_gathered_tape_output_matches_add_at_chain():
    """A tape output that only gathers read goes dense at its node with the
    bytes of its gathers' ``np.add.at`` chain, and passes them on."""
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((6, 3)))
    tape = Tape()
    h = scale_shift(tape, x, 1.0, 0.0)
    grads = _sweep(tape, [tape.gather(h, ids) for ids in _MANY], rng)
    expected = np.zeros_like(x.data)
    for ids, g in reversed(list(zip(_MANY, grads))):
        np.add.at(expected, ids, g)
    assert h.grad_ids is None and h.grad.tobytes() == expected.tobytes()
    assert x.dense_grad().tobytes() == expected.tobytes()


def test_table_gathered_without_gradient_matches_lazy_reference():
    """A table gathered on a tape whose gathers reach no loss ends the pass
    with an all-zero row-sparse gradient over the ids gathered; Adam then
    updates exactly those rows, as the lazy reference does, over steps with
    and without rows that do get a gradient."""
    rng = np.random.default_rng(23)
    init = {"table": rng.standard_normal((10, 3)), "x": rng.standard_normal(3)}
    init["table"][[0, 4]] = 0.0
    init["table"][[1, 5]] = -0.0
    ours = {name: Tensor(a.copy()) for name, a in init.items()}
    ref = {name: Tensor(a.copy()) for name, a in init.items()}
    state = AdamState(ours, lr=0.05)
    m = {name: np.zeros_like(a) for name, a in init.items()}
    v = {name: np.zeros_like(a) for name, a in init.items()}
    idle = [[0, 1, 2], [4, 5, 1], [0, 5, 3, 3], [2, 4]]
    for t, ids in enumerate(idle, start=1):
        for params in (ours, ref):
            for p in params.values():
                p.zero_grad()
            tape = Tape()
            tape.gather(params["table"], ids)
            loss = reduce_sum(tape, scale_shift(tape, params["x"], 1.5, 0.0))
            if t % 2:  # odd steps: rows 7-9 reach the loss
                live = reduce_sum(tape, tape.gather(params["table"], [7 + t % 3, 9]))
                loss = tape.add(loss, live)
            backward(tape, loss)
        table = ours["table"]
        if t % 2 == 0:
            np.testing.assert_array_equal(table.grad_ids, np.unique(ids))
            assert not table.grad.any()
        adam_step(ours, state)
        _reference_adam_step(ref, m, v, t, 0.05)
        for name in init:
            assert ours[name].data.tobytes() == ref[name].data.tobytes(), (t, name)
            assert state.m[name].tobytes() == m[name].tobytes(), (t, name)
            assert state.v[name].tobytes() == v[name].tobytes(), (t, name)


def test_lazy_adam_leaves_rows_without_gradient():
    """Over 60 steps, Adam moves a table's ``grad_ids`` rows as the lazy
    reference does, and every row outside them, as every parameter whose
    ``grad`` is None, keeps its value and moment bytes: rows updated once
    and then idle, all-zero and -0.0 gradient rows, parameters at +0.0 and
    -0.0, and steps without a table gradient."""
    rng = np.random.default_rng(17)
    init = {"table": rng.standard_normal((24, 3)), "small": rng.standard_normal((8, 3)),
            "w": rng.standard_normal((4, 2))}
    for name in ("table", "small"):
        init[name][[0, 5]] = 0.0
        init[name][[1, 6]] = -0.0
    ours = {name: Tensor(a.copy()) for name, a in init.items()}
    ref = {name: Tensor(a.copy()) for name, a in init.items()}
    state = AdamState(ours, lr=0.05)
    m = {name: np.zeros_like(a) for name, a in init.items()}
    v = {name: np.zeros_like(a) for name, a in init.items()}
    for t in range(1, 61):
        # "table" row 13 has a gradient on the first step only; rows 14-23
        # never, and keep their initial bytes and zero moments throughout
        draws = {"table": np.append(rng.choice(12, size=rng.integers(0, 6), replace=False),
                                    [13] if t == 1 else []).astype(np.int64),
                 "small": rng.choice(8, size=rng.integers(0, 3), replace=False)}
        w_grad = None if t % 5 == 0 else rng.standard_normal((4, 2))
        for params in (ours, ref):
            params["w"].grad = None if w_grad is None else w_grad.copy()
        for name, ids in draws.items():
            ids = np.sort(ids)
            rows = rng.standard_normal((ids.size, 3))
            rows[rng.random(ids.size) < 0.3] = 0.0
            rows[rng.random(ids.size) < 0.3] = -0.0
            for params in (ours, ref):
                params[name].zero_grad()
                if t % 7:  # every seventh step the tables have no gradient
                    params[name].grad, params[name].grad_ids = rows.copy(), ids
        before = {name: (p.data.copy(), state.m[name].copy(), state.v[name].copy())
                  for name, p in ours.items()}
        adam_step(ours, state)
        _reference_adam_step(ref, m, v, t, 0.05)
        for name, p in ours.items():
            assert p.data.tobytes() == ref[name].data.tobytes(), (t, name)
            assert state.m[name].tobytes() == m[name].tobytes(), (t, name)
            assert state.v[name].tobytes() == v[name].tobytes(), (t, name)
            idle = np.ones(len(p.data), dtype=bool)
            if p.grad is not None:
                idle[... if p.grad_ids is None else p.grad_ids] = False
            for now, then in zip((p.data, state.m[name], state.v[name]), before[name]):
                assert now[idle].tobytes() == then[idle].tobytes(), (t, name)
    assert ours["table"].data[14:].tobytes() == init["table"][14:].tobytes()
    assert not state.m["table"][14:].any() and not state.v["table"][14:].any()


def _masked_sigmoid(x):
    """The logistic function by boolean-mask gathers and scatters, the form
    ``sigmoid`` must reproduce bit for bit."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_masked_reference():
    rng = np.random.default_rng(5)
    edges = [0.0, -0.0, np.inf, -np.inf, 745.2, -745.2, 800.0, -800.0,
             5e-324, -5e-324, 2.2e-308, -2.2e-308]
    cases = [rng.standard_normal((rng.integers(1, 9), rng.integers(1, 300)))
             * rng.choice([1.0, 10.0, 400.0]) for _ in range(200)]
    cases += [rng.standard_normal(250) * 30, np.array(edges), np.empty((0, 4))]
    cases += [np.array(v) for v in edges]  # 0-d inputs
    for x in cases:
        with np.errstate(under="ignore"):
            got, want = sigmoid(x), _masked_sigmoid(x)
        assert type(got) is np.ndarray and got.shape == x.shape
        assert got.tobytes() == want.tobytes(), x
    for v in (-745.2, 800.0):  # the same underflow is raised, not hidden
        with np.errstate(all="raise"):
            for fn in (sigmoid, _masked_sigmoid):
                with pytest.raises(FloatingPointError):
                    fn(np.array([v]))
