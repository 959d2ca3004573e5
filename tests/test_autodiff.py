import numpy as np
import pytest

from lqrec.autodiff import (
    AdamState,
    EmptyTapeError,
    OpShapeError,
    Tape,
    Tensor,
    adam_step,
    backward,
)


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
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)

        def run():
            return float(build(Tape()).data)

        numeric = fd_grad(run, t.data, h=h)
        np.testing.assert_allclose(analytic, numeric, atol=tol, rtol=1e-5)


def rng_tensor(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(scale * rng.standard_normal(shape), requires_grad=True)


def test_relu_subgradient():
    tape = Tape()
    x = Tensor(np.array([2.0, -1.0, 0.0]), requires_grad=True)
    y = tape.reduce_sum(tape.relu(x))
    backward(tape, y)
    np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0])


def test_sigmoid_bce_composite_gradient():
    # d(BCE(sigmoid(z), y))/dz = p - y
    for z0, y0 in [(0.7, 1.0), (-1.3, 0.0), (2.5, 0.0)]:
        tape = Tape()
        z = Tensor(np.array([z0]), requires_grad=True)
        p = tape.sigmoid(z)
        loss = tape.bce_loss(p, Tensor(np.array([y0])))
        backward(tape, loss)
        expected = 1.0 / (1.0 + np.exp(-z0)) - y0
        np.testing.assert_allclose(z.grad, [expected], rtol=1e-12)


def test_elementwise_max_forward_and_routing():
    tape = Tape()
    a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    b = Tensor(np.array([0.0, 3.0]), requires_grad=True)
    m = tape.elementwise_max(a, b)
    np.testing.assert_array_equal(m.data, [1.0, 3.0])
    loss = tape.reduce_sum(m)
    backward(tape, loss)
    np.testing.assert_array_equal(a.grad, [1.0, 0.0])
    np.testing.assert_array_equal(b.grad, [0.0, 1.0])


def test_max_tie_routes_to_first():
    tape = Tape()
    a = Tensor(np.array([5.0]), requires_grad=True)
    b = Tensor(np.array([5.0]), requires_grad=True)
    loss = tape.reduce_sum(tape.elementwise_max(a, b))
    backward(tape, loss)
    assert a.grad[0] == 1.0 and b.grad[0] == 0.0


def test_sum_backward():
    tape = Tape()
    x = Tensor(np.ones(4), requires_grad=True)
    loss = tape.reduce_sum(x)
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.ones(4))


def test_shared_parameter_grads_add():
    tape = Tape()
    x = Tensor(np.array([1.5, -0.5]), requires_grad=True)
    branch1 = tape.scale_shift(x, 2.0, 0.0)
    branch2 = tape.scale_shift(x, 3.0, 0.0)
    loss = tape.reduce_sum(tape.add(branch1, branch2))
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, [5.0, 5.0])


def test_backward_on_empty_tape():
    with pytest.raises(EmptyTapeError):
        backward(Tape(), Tensor(np.array(0.0)))


def test_backward_requires_scalar():
    tape = Tape()
    x = Tensor(np.ones(3), requires_grad=True)
    y = tape.relu(x)
    with pytest.raises(OpShapeError):
        backward(tape, y)


def test_shape_errors_carry_op_name():
    tape = Tape()
    with pytest.raises(OpShapeError, match="add"):
        tape.add(Tensor(np.ones(2)), Tensor(np.ones(3)))
    with pytest.raises(OpShapeError, match="affine"):
        tape.affine(Tensor(np.ones((3, 2))), Tensor(np.ones(4)))


def test_gather_scatters_sparsely():
    tape = Tape()
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    row = tape.gather(table, 2)
    rows = tape.gather(table, [1, 1, 3])
    loss = tape.reduce_sum(tape.add(rows, tape.stack_rows([row, row, row])))
    backward(tape, loss)
    expected = np.zeros((4, 3))
    expected[2] = 3.0  # row used three times via the stack
    expected[1] = 2.0  # repeated id accumulates
    expected[3] = 1.0
    np.testing.assert_array_equal(table.grad, expected)


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

    cases = {
        "affine_vec": lambda t: t.reduce_sum(t.affine(w, x)),
        "affine_mat": lambda t: t.reduce_sum(t.affine(w, t.gather(table, [0, 2, 5]))),
        "concat": lambda t: t.reduce_sum(t.concat_last_dim(x, y)),
        "split": lambda t: t.reduce_sum(t.split_halves(x)[0]),
        "mul": lambda t: t.reduce_sum(t.elementwise_mul(x, y)),
        "sub": lambda t: t.reduce_sum(t.sub(x, y)),
        "softmax": lambda t: t.reduce_sum(
            t.elementwise_mul(t.softmax_last_dim(x), y)
        ),
        "weighted": lambda t: t.reduce_sum(t.weighted_sum(gate, stack)),
        "l1_vec": lambda t: t.reduce_sum(t.gather_l1(table, [1, 3], x)),
        "sigmoid": lambda t: t.reduce_mean(t.sigmoid(x)),
        "bce": lambda t: t.bce_loss(
            t.sigmoid(x), Tensor(np.array([1.0, 0.0, 0.0, 1.0]))
        ),
        "mean": lambda t: t.reduce_mean(t.gather(table, [0, 4])),
        "max": lambda t: t.reduce_sum(t.elementwise_max(x, y)),
        "relu": lambda t: t.reduce_sum(t.relu(x)),
        "scale_shift": lambda t: t.reduce_sum(t.scale_shift(x, -1.7, 0.3)),
        # the same ops on a leading batch axis
        "affine_batch": lambda t: t.reduce_sum(
            t.elementwise_mul(t.affine(w, xm), gm)
        ),
        "concat_batch": lambda t: t.reduce_sum(
            t.elementwise_mul(t.concat_last_dim(xm, ym), t.concat_last_dim(ym, xm))
        ),
        "split_batch": lambda t: t.reduce_sum(
            t.elementwise_mul(t.split_halves(xm)[1], t.split_halves(ym)[0])
        ),
        "softmax_batch": lambda t: t.reduce_sum(
            t.elementwise_mul(t.softmax_last_dim(xm), ym)
        ),
        "weighted_batch": lambda t: t.reduce_sum(
            t.elementwise_mul(t.weighted_sum(t.softmax_last_dim(gm), sm), xm)
        ),
        "l1_batch": lambda t: t.reduce_sum(
            t.gather_l1(table, [[1, 3, 3], [0, 5, 2]], xm)
        ),
        "bce_batch": lambda t: t.bce_loss(
            t.sigmoid(xm), Tensor(np.array([[1.0, 0.0, 0.0, 1.0],
                                            [0.0, 1.0, 0.0, 0.0]]))
        ),
        "stack_blocks": lambda t: t.reduce_sum(
            t.elementwise_mul(t.stack_rows([x, ym, y]), t.gather(table, [0, 1, 2, 3]))
        ),
        "gather_rows": lambda t: t.reduce_sum(
            t.elementwise_mul(t.gather(t.sigmoid(xm), [1, 0, 1]),
                              t.gather(table, [0, 1, 2]))
        ),
    }
    targets = [w, x, y, table, gate, stack, xm, ym, gm, sm]
    for name, build in cases.items():
        for target in targets:
            target.zero_grad()
        check_op(build, targets)


def test_adam_zero_gradient_no_move():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    params = {"p": p}
    state = AdamState(params, lr=0.1)
    before = p.data.copy()
    adam_step(params, state)  # grad is None -> treated as zero
    np.testing.assert_array_equal(p.data, before)


def test_adam_constant_gradient_step_size():
    p = Tensor(np.array([0.0]), requires_grad=True)
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
        p = Tensor(rng.standard_normal(8), requires_grad=True)
        params = {"p": p}
        state = AdamState(params, lr=0.01)
        for i in range(25):
            p.grad = np.sin(np.arange(8.0) + i)
            adam_step(params, state)
        return p.data.tobytes()

    assert run() == run()


def test_bce_guard_no_nan():
    tape = Tape()
    probs = tape.sigmoid(Tensor(np.array([-800.0, 800.0]), requires_grad=True))
    loss = tape.bce_loss(probs, Tensor(np.array([1.0, 0.0])))
    assert np.isfinite(loss.data)
