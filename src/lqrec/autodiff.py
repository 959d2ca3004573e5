"""Reverse-mode differentiation over a fixed operation vocabulary.

The model graph is fixed by a query's skeleton (the query with its anchor and
relation ids erased), so the model runs every query of one skeleton as one
group: each op takes the whole group's ``(B, ...)`` operands and records one
tape node for it, instead of one node per query. Ops act on the last axis and
take an optional leading batch axis, so a lone vector is simply the unbatched
case. A closed set of ops with hand-written backward rules keeps the engine
small and each rule individually checkable against finite differences. All
values are float64 and tensors are rank 0-2; scoring ``m`` items for each of
``B`` queries is therefore one op (``gather_margin``: gather, L1 distance and
margin) instead of a ``(B, m, d)`` tensor.

Row-wise products (``affine``, ``weighted_sum``) multiply one row at a time,
so a row's result does not depend on how many rows share its batch: a query
embeds to the same bits alone as inside a group.

Each op's forward math, shape check included, is written once, as a method
of ``Eager`` on plain float64 arrays; inference runs it on ``EAGER``, which
records nothing. The ``Tape`` op of the same name calls that method on its
operands' arrays and records the result with its backward rule, as one
``(output, backward)`` node through ``Tape._node``. The logistic function,
``sigmoid``, is a helper that ops and inference call, not an op.

Subgradient conventions are fixed: relu'(0) = 0, the L1 distance uses
sign with sign(0) = 0, and elementwise_max routes ties to its first operand.

A table read by gathers gets a row-sparse gradient with the bytes of the
dense path (``backward``), and ``adam_step`` is lazy: it moves only the
rows that have a gradient.

A tape is single-threaded. Several tapes may record forward passes
concurrently over shared parameters; backward passes (which write their
gradients) and ``adam_step`` must be serialized by the caller, and a tape's
backward must come before any ``adam_step`` after its forward: ``affine``'s
and ``intersect``'s backward read their weights' current ``.data``, so such
an update silently changes those gradients. ``gather`` and ``gather_margin``
read no parameter in backward.
"""

from __future__ import annotations

import numpy as np

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class OpShapeError(ValueError):
    """Operand shapes violate an op contract."""

    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {[tuple(s) for s in shapes]}")


class EmptyTapeError(RuntimeError):
    pass


class Tensor:
    """A float64 array with a gradient slot, filled by the backward pass.

    ``grad`` is dense when ``grad_ids`` is None; otherwise it holds one row
    per id of the ascending ``grad_ids``, every other row's gradient being
    0.0, and ``slot`` maps an id to its row.
    """

    __slots__ = ("data", "grad", "grad_ids", "slot")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise OpShapeError("tensor", arr.shape)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.grad_ids: np.ndarray | None = None
        self.slot: np.ndarray | None = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = self.grad_ids = self.slot = None

    def dense_grad(self) -> np.ndarray:
        """The gradient as a new array of the tensor's shape (0.0: none)."""
        out = np.zeros_like(self.data)
        if self.grad is not None:
            out[... if self.grad_ids is None else self.grad_ids] = self.grad
        return out

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


# An op operand or result: a Tensor on a Tape, a plain array on EAGER.
Value = Tensor | np.ndarray


def _accumulate(t: Tensor, g: np.ndarray, shared: bool = False) -> None:
    """``t.grad += g``; a first gradient is ``g`` itself, or a copy of it when
    ``shared`` (read elsewhere too, as an output's gradient an operand gets)."""
    if t.grad is None:
        t.grad = g.copy() if shared else g
        return
    if t.grad_ids is not None:
        t.grad, t.grad_ids = t.dense_grad(), None
    t.grad += g


def _same_shape(op: str, a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise OpShapeError(op, a.shape, b.shape)


def _add_rows(table: Tensor, idx: np.ndarray, rows: np.ndarray) -> None:
    """Add gradient ``rows`` into ``table``'s rows ``idx``, each element one
    row at a time from 0.0 in backward order: the bytes of ``np.add.at``
    calls into a zero table."""
    d = table.shape[1]
    at = idx.reshape(-1) if table.grad_ids is None else table.slot[idx.reshape(-1)]
    np.add.at(table.grad.reshape(-1), (at[:, None] * d + np.arange(d)).reshape(-1),
              rows.reshape(-1))


def _rowwise_matmul(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x @ m`` computed as one vector-matrix product per row of ``x``.

    ``m`` is one (n, d) matrix or one per row, (B, n, d). A full matrix
    product would block rows together and round a row differently depending
    on the batch size.
    """
    return (x[..., None, :] @ m)[..., 0, :]


def _affine_backward(w: Tensor, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Add ``affine``'s weight gradient for input ``x`` and output gradient
    ``g`` into ``w``; return the input gradient."""
    x2 = x.reshape(-1, x.shape[-1])
    g2 = g.reshape(-1, g.shape[-1])
    gw = np.empty_like(w.data)
    gw[:-1] = x2.T @ g2
    gw[-1] = g2.sum(axis=0)
    _accumulate(w, gw)
    return g @ w.data[:-1].T


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow for large negative inputs."""
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e
    return out


class Eager:
    """Every op of ``Tape`` but ``logistic_loss``, under the same name, on
    plain float64 arrays. ``param`` and ``const`` make a model parameter or
    a constant an operand: a plain array here, a ``Tensor`` on a tape.
    ``sigmoid`` is a module helper, not an op of either."""

    def param(self, t: Tensor) -> np.ndarray:
        return t.data

    def const(self, data: np.ndarray) -> np.ndarray:
        return data

    # -- table access ------------------------------------------------------

    def gather(self, table: np.ndarray, ids) -> np.ndarray:
        """Row lookup: scalar id -> (d,), id sequence -> (m, d)."""
        idx = np.asarray(ids, dtype=np.int64)
        if table.ndim != 2 or idx.ndim > 1:
            raise OpShapeError("gather", table.shape, idx.shape)
        return table[idx]

    def gather_margin(self, table: np.ndarray, ids, q: np.ndarray, gamma: float) -> np.ndarray:
        """The margin ``gamma`` minus the L1 distance from ``q`` to gathered
        table rows, in one op: ``q`` (d,) with ids (m,) gives (m,); ``q`` (B,
        d) with ids (B, m) gives (B, m), row b against ``table[ids[b, j]]``."""
        return self._gather_margin(table, ids, q, gamma)[0]

    def _gather_margin(self, table, ids, q, gamma):
        """``gather_margin``, then the signs of ``table[ids] - q`` for its backward,
        as int8: float64 signs held to the backward page-faulted on every step."""
        idx = np.asarray(ids, dtype=np.int64)
        if (table.ndim != 2 or q.ndim not in (1, 2) or idx.ndim != q.ndim
                or idx.shape[:-1] != q.shape[:-1] or q.shape[-1] != table.shape[1]):
            raise OpShapeError("gather_margin", table.shape, idx.shape, q.shape)
        diff = np.take(table, idx, axis=0)
        diff -= q[..., None, :]
        sign = (diff > 0).view(np.int8) - (diff < 0).view(np.int8)
        return gamma - np.abs(diff, out=diff).sum(axis=-1), sign

    # -- elementwise arithmetic ---------------------------------------------

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        _same_shape("add", a, b)
        return a + b

    def elementwise_max(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        _same_shape("elementwise_max", a, b)
        return np.where(a >= b, a, b)

    # -- shape plumbing ------------------------------------------------------

    def place_rows(self, parts: list[np.ndarray], rows) -> np.ndarray:
        """One (n, d) matrix whose rows ``rows[i]`` are the (n_i, d) part
        ``parts[i]``; the row lists must partition ``range(n)``."""
        idx = [np.asarray(r, dtype=np.int64) for r in rows]
        n = sum(r.size for r in idx)
        if (not parts or len(parts) != len(idx) or len({p.shape[1:] for p in parts}) != 1
                or any(p.ndim != 2 or r.shape != p.shape[:1] for p, r in zip(parts, idx))
                or not np.array_equal(np.sort(np.concatenate(idx)), np.arange(n))):
            raise OpShapeError("place_rows", *[p.shape for p in parts], *[r.shape for r in idx])
        out = np.empty((n,) + parts[0].shape[1:])
        for p, r in zip(parts, idx):
            out[r] = p
        return out

    # -- linear algebra -------------------------------------------------------

    def affine(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``x @ w[:-1] + w[-1]``; the weight's last row is the bias.

        ``x`` may be a vector (d_in,) or a matrix (m, d_in).
        """
        if w.ndim != 2 or x.ndim == 0 or x.shape[-1] != w.shape[0] - 1:
            raise OpShapeError("affine", w.shape, x.shape)
        return _rowwise_matmul(x, w[:-1]) + w[-1]

    def weighted_sum(self, weights: np.ndarray, stack: np.ndarray) -> np.ndarray:
        """Mix k equal blocks of the stack's last axis by the k weights.

        weights (k,) with stack (k * d,) gives (d,); weights (B, k) with
        stack (B, k * d) gives (B, d), mixing each row by its own weights.
        """
        k = weights.shape[-1] if weights.ndim else 0
        if k == 0 or stack.shape[:-1] != weights.shape[:-1] or stack.shape[-1] % k != 0:
            raise OpShapeError("weighted_sum", weights.shape, stack.shape)
        return _rowwise_matmul(weights, stack.reshape(weights.shape + (-1,)))

    # -- nonlinearities --------------------------------------------------------

    def relu(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, x, 0.0)

    def softmax_last_dim(self, x: np.ndarray) -> np.ndarray:
        ex = np.exp(x - x.max(axis=-1, keepdims=True))
        return ex / ex.sum(axis=-1, keepdims=True)

    def intersect(self, w1: np.ndarray, w2: np.ndarray, q1: np.ndarray,
                  q2: np.ndarray) -> np.ndarray:
        """``q2 + s * (q1 - q2)`` for equal-shape operands, with the gate
        ``s = sigmoid(affine(w2, relu(affine(w1, x))))`` on ``x = [q1, q2]``."""
        return self._intersect(w1, w2, q1, q2)[0]

    def _intersect(self, w1, w2, q1, q2):
        """``intersect``, then the ``x``, ``h``, ``s`` and ``q1 - q2`` its backward reads."""
        if q1.ndim == 0 or q1.shape != q2.shape or w2.shape[-1:] != q1.shape[-1:]:
            raise OpShapeError("intersect", w1.shape, w2.shape, q1.shape, q2.shape)
        x = np.concatenate((q1, q2), axis=-1)
        h = self.relu(self.affine(w1, x))
        s = sigmoid(self.affine(w2, h))
        diff = q1 - q2
        return q2 + s * diff, x, h, s, diff


EAGER = Eager()


class Tape:
    """Append-only record of ops; reversed append order is a valid reverse
    topological order, so backward visits each node exactly once."""

    def __init__(self):
        # (output, backward closure over saved activations)
        self.nodes: list[tuple[Tensor, object]] = []
        # the ids each tensor's gathers read, for backward; gather closures
        # hold only their operands and ids, so no cycle keeps a tape alive
        self.gathered: dict[Tensor, list[np.ndarray]] = {}
        self.swept = False  # set by backward: a second sweep would add every gradient again

    def _node(self, data, backward_fn) -> Tensor:
        """Wrap an op's result and record it with its backward."""
        out = Tensor(data)
        self.nodes.append((out, backward_fn))
        return out

    def param(self, t: Tensor) -> Tensor:
        return t

    def const(self, data: np.ndarray) -> Tensor:
        return Tensor(data)

    def gather(self, table: Tensor, ids) -> Tensor:
        """``Eager.gather``; the backward pass adds the output's gradient to
        the gathered rows' (``_add_rows``)."""
        idx = np.asarray(ids, dtype=np.int64)
        self.gathered.setdefault(table, []).append(idx)
        return self._node(EAGER.gather(table.data, idx), lambda g: _add_rows(table, idx, g))

    def gather_margin(self, table: Tensor, ids, q: Tensor, gamma: float) -> Tensor:
        """``Eager.gather_margin``. The forward keeps the differences' signs
        for the backward, which scales them by minus the output's gradient
        and adds those rows as ``gather`` does."""
        idx = np.asarray(ids, dtype=np.int64)
        out, sign = EAGER._gather_margin(table.data, idx, q.data, gamma)
        self.gathered.setdefault(table, []).append(idx)

        def backward(g):
            s = -g[..., None] * sign
            _add_rows(table, idx, s)
            _accumulate(q, -s.sum(axis=-2))

        return self._node(out, backward)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        def backward(g):
            _accumulate(a, g, shared=True)
            _accumulate(b, g, shared=True)

        return self._node(EAGER.add(a.data, b.data), backward)

    def elementwise_max(self, a: Tensor, b: Tensor) -> Tensor:
        """Per-element max; ties route the gradient to the first operand."""

        def backward(g):
            take_a = a.data >= b.data
            _accumulate(a, g * take_a)
            _accumulate(b, g * ~take_a)

        return self._node(EAGER.elementwise_max(a.data, b.data), backward)

    def place_rows(self, parts: list[Tensor], rows) -> Tensor:
        """``Eager.place_rows``; part i's gradient is rows ``rows[i]`` of the output's."""
        idx = [np.asarray(r, dtype=np.int64) for r in rows]

        def backward(g):
            for t, r in zip(parts, idx):
                _accumulate(t, g[r])

        return self._node(EAGER.place_rows([t.data for t in parts], idx), backward)

    def affine(self, w: Tensor, x: Tensor) -> Tensor:
        return self._node(EAGER.affine(w.data, x.data),
                          lambda g: _accumulate(x, _affine_backward(w, x.data, g)))

    def weighted_sum(self, weights: Tensor, stack: Tensor) -> Tensor:
        def backward(g):
            blocks = stack.data.reshape(weights.shape + (-1,))
            _accumulate(weights, (blocks @ g[..., None])[..., 0])
            _accumulate(stack, (weights.data[..., None] * g[..., None, :])
                        .reshape(stack.shape))

        return self._node(EAGER.weighted_sum(weights.data, stack.data), backward)

    def relu(self, x: Tensor) -> Tensor:
        return self._node(EAGER.relu(x.data),
                          lambda g: _accumulate(x, g * (x.data > 0)))

    def softmax_last_dim(self, x: Tensor) -> Tensor:
        s = EAGER.softmax_last_dim(x.data)

        def backward(g):
            inner = (g * s).sum(axis=-1, keepdims=True)
            _accumulate(x, s * (g - inner))

        return self._node(s, backward)

    def intersect(self, w1: Tensor, w2: Tensor, q1: Tensor, q2: Tensor) -> Tensor:
        """``Eager.intersect``. Its backward adds into ``q1`` and ``q2`` in the
        order, and with the products, of one node per step of the forward, so
        every gradient has that form's bytes."""
        out, x, h, s, diff = EAGER._intersect(w1.data, w2.data, q1.data, q2.data)
        d = q1.shape[-1]

        def backward(g):
            _accumulate(q2, g, shared=True)
            gs = g * s
            _accumulate(q1, gs)
            _accumulate(q2, -gs)
            gh = _affine_backward(w2, h, (g * diff) * s * (1.0 - s))
            gx = _affine_backward(w1, x, gh * (h > 0))
            _accumulate(q1, gx[..., :d])
            _accumulate(q2, gx[..., d:])

        return self._node(out, backward)

    def logistic_loss(self, scores: Tensor, weight: float = 1.0) -> Tensor:
        """``weight`` times the logistic loss on logits, averaged over all
        elements: column 0 of each row is the positive, ``softplus(-z)``, and
        every other column a negative, ``softplus(z)``. Written as ``max(t,
        0) + log1p(exp(-|t|))``, it neither overflows nor warns, and a
        non-finite logit gives a non-finite loss."""
        if scores.data.ndim == 0 or scores.data.size == 0:
            raise OpShapeError("logistic_loss", scores.shape)
        t = scores.data.copy()
        t[..., 0] = -t[..., 0]
        n = t.size
        loss = weight * ((np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))).sum() / n)

        def backward(g):
            grad = sigmoid(t) * ((g * weight) / n)
            grad[..., 0] = -grad[..., 0]
            _accumulate(scores, grad)

        return self._node(loss, backward)


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into ``.grad`` for every reachable tensor.

    Gradients add across shared subgraphs; parameters used in several branches
    end up with the sum of the branch gradients. Caller is responsible for
    zeroing parameter gradients between optimization steps.

    Before the sweep, a tensor the tape gathered gets a zero row-sparse
    gradient over the ids gathered if it has none, or goes dense if it holds
    an earlier tape's rows; a dense read or its own node makes it dense too.
    A swept tape raises ``EmptyTapeError``.
    """
    if not tape.nodes:
        raise EmptyTapeError("backward called before any forward op")
    if tape.swept:
        raise EmptyTapeError("backward already swept this tape")
    if loss.data.shape != ():
        raise OpShapeError("backward", loss.data.shape)
    tape.swept = True
    for table, ids in tape.gathered.items():
        if table.grad is None:
            seen = np.zeros(len(table.data), dtype=bool)
            seen[np.concatenate([i.reshape(-1) for i in ids])] = True
            table.grad_ids, table.slot = np.flatnonzero(seen), np.cumsum(seen) - 1
            table.grad = np.zeros((table.grad_ids.size, table.shape[1]))
        elif table.grad_ids is not None:  # an earlier tape's rows
            table.grad, table.grad_ids = table.dense_grad(), None
    loss.grad = np.ones_like(loss.data)
    for out, backward_fn in reversed(tape.nodes):
        if out.grad is not None:
            if out.grad_ids is not None:
                out.grad, out.grad_ids = out.dense_grad(), None
            backward_fn(out.grad)


class AdamState:
    """Bias-corrected Adam moments: a dense zero-initialised ``m`` and ``v``
    for each parameter."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.lr = lr
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}


def adam_step(params: dict[str, Tensor], state: AdamState) -> None:
    """One lazy bias-corrected adaptive-moment update (TF Addons ``LazyAdam``,
    PyTorch ``SparseAdam``): only the rows with a gradient move.

    Over those rows, ``m = b1 m + (1 - b1) g``, ``v = b2 v + ((1 - b2) g) g``
    and ``p -= lr (m / bc1) / (sqrt(v / bc2) + eps)``, with ``bc1`` and
    ``bc2`` from the count of steps taken, as in those two. A dense gradient
    covers the whole parameter, a row-sparse one its ``grad_ids``. A
    parameter without a gradient, and a row outside ``grad_ids``, keeps its
    value and moments.
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        if p.grad is None:
            continue
        at = ... if p.grad_ids is None else p.grad_ids
        m = ADAM_BETA1 * state.m[name][at] + (1.0 - ADAM_BETA1) * p.grad
        v = ADAM_BETA2 * state.v[name][at] + ((1.0 - ADAM_BETA2) * p.grad) * p.grad
        state.m[name][at], state.v[name][at] = m, v
        p.data[at] -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
