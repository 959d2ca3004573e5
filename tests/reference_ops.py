"""Ops the engine does not have, for the reference paths that tests compare
against: on ``EAGER`` the plain array expression, on a tape one node
(``Tape._node``) with the backward rule such an op would have."""

import numpy as np

from lqrec.autodiff import EAGER, _accumulate, sigmoid


def sub(ex, a, b):
    if ex is EAGER:
        return a - b

    def backward_fn(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return ex._node(a.data - b.data, backward_fn)


def mul(ex, a, b):
    if ex is EAGER:
        return a * b

    def backward_fn(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return ex._node(a.data * b.data, backward_fn)


def join_last_dim(ex, parts):
    """The parts side by side along the last axis; on a tape the node hands
    each part its block of the gradient."""
    if ex is EAGER:
        return np.concatenate(parts, axis=-1)

    def backward_fn(g):
        bounds = np.cumsum([t.shape[-1] for t in parts])[:-1]
        for t, block in zip(parts, np.split(g, bounds, axis=-1)):
            _accumulate(t, block)

    return ex._node(np.concatenate([t.data for t in parts], axis=-1), backward_fn)


def sigmoid_node(ex, x):
    """``autodiff.sigmoid`` as an op."""
    if ex is EAGER:
        return sigmoid(x)
    s = sigmoid(x.data)
    return ex._node(s, lambda g: _accumulate(x, g * s * (1.0 - s)))
