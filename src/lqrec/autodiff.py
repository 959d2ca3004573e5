"""Reverse-mode differentiation over a fixed operation vocabulary.

The model graph is fixed by a query's skeleton (the query with its anchor and
relation ids erased), so the model runs every query of one skeleton as one
group: each op takes the whole group's ``(B, ...)`` operands and records one
tape node for it, instead of one node per query. Ops act on the last axis and
take an optional leading batch axis, so a lone vector is simply the unbatched
case. A closed set of ops with hand-written backward rules keeps the engine
small and each rule individually checkable against finite differences. All
values are float64 and tensors are rank 0-2; scoring ``m`` items for each of
``B`` queries is therefore one fused gather + L1 op (``gather_l1``) instead of
a ``(B, m, d)`` tensor.

Row-wise products (``affine``, ``weighted_sum``) multiply one row at a time,
so a row's result does not depend on how many rows share its batch: a query
embeds to the same bits alone as inside a group.

A tape built with ``record=False`` keeps no nodes and builds no backward
closures; inference runs the same forward code through it.

Subgradient conventions are fixed: relu'(0) = 0, the L1 distance uses
sign with sign(0) = 0, and elementwise_max routes ties to its first operand.

A tape is single-threaded. Several tapes may run concurrently over shared
read-only parameters; applying gradients must be serialized by the caller.
"""

from __future__ import annotations

import numpy as np

_BCE_EPS = 1e-12


class OpShapeError(ValueError):
    """Operand shapes violate an op contract."""

    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {[tuple(s) for s in shapes]}")


class EmptyTapeError(RuntimeError):
    pass


class Tensor:
    """A float64 array with an optional gradient slot.

    ``requires_grad`` marks trainable leaves; intermediates produced by tape
    ops receive gradients automatically during the backward pass.
    """

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise OpShapeError("tensor", arr.shape)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _scatter_add(table: Tensor, idx: np.ndarray, rows: np.ndarray) -> None:
    """``table.grad[idx] += rows``; repeated ids add up."""
    if table.grad is None:
        table.grad = np.zeros_like(table.data)
    np.add.at(table.grad, idx, rows)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow for large negative inputs."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _rowwise_matmul(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x @ m`` computed as one vector-matrix product per row of ``x``.

    ``m`` is one (n, d) matrix or one per row, (B, n, d). A full matrix
    product would block rows together and round a row differently depending
    on the batch size.
    """
    return (x[..., None, :] @ m)[..., 0, :]


class Tape:
    """Append-only record of ops; reversed append order is a valid reverse
    topological order, so backward visits each node exactly once."""

    def __init__(self, record: bool = True):
        self.record = record
        # (outputs, backward closure over saved activations)
        self.nodes: list[tuple[tuple[Tensor, ...], object]] = []

    def _record(self, outputs: tuple[Tensor, ...], backward_fn) -> None:
        self.nodes.append((outputs, backward_fn))

    # -- table access ------------------------------------------------------

    def gather(self, table: Tensor, ids) -> Tensor:
        """Row lookup: scalar id -> (d,), id sequence -> (m, d).

        The backward pass scatter-adds only into the touched rows.
        """
        idx = np.asarray(ids, dtype=np.int64)
        if table.data.ndim != 2 or idx.ndim > 1:
            raise OpShapeError("gather", table.shape, idx.shape)
        out = Tensor(table.data[idx])
        if self.record:
            def backward(g):
                _scatter_add(table, idx, g)

            self._record((out,), backward)
        return out

    def gather_l1(self, table: Tensor, ids, q: Tensor) -> Tensor:
        """L1 distance from ``q`` to gathered table rows, in one op.

        ``q`` (d,) with ids (m,) gives (m,); ``q`` (B, d) with ids (B, m)
        gives (B, m), where row b measures ``table[ids[b, j]]`` against
        ``q[b]``. Only touched table rows receive gradient.
        """
        idx = np.asarray(ids, dtype=np.int64)
        if (
            table.data.ndim != 2
            or q.data.ndim not in (1, 2)
            or idx.ndim != q.data.ndim
            or idx.shape[:-1] != q.shape[:-1]
            or q.shape[-1] != table.shape[1]
        ):
            raise OpShapeError("gather_l1", table.shape, idx.shape, q.shape)
        diff = table.data[idx] - q.data[..., None, :]
        out = Tensor(np.abs(diff).sum(axis=-1))
        if self.record:
            def backward(g):
                s = g[..., None] * np.sign(diff)
                _scatter_add(table, idx, s)
                _accumulate(q, -s.sum(axis=-2))

            self._record((out,), backward)
        return out

    # -- elementwise arithmetic ---------------------------------------------

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise OpShapeError("add", a.shape, b.shape)
        out = Tensor(a.data + b.data)
        if self.record:
            def backward(g):
                _accumulate(a, g)
                _accumulate(b, g)

            self._record((out,), backward)
        return out

    def sub(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise OpShapeError("sub", a.shape, b.shape)
        out = Tensor(a.data - b.data)
        if self.record:
            def backward(g):
                _accumulate(a, g)
                _accumulate(b, -g)

            self._record((out,), backward)
        return out

    def elementwise_mul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise OpShapeError("elementwise_mul", a.shape, b.shape)
        out = Tensor(a.data * b.data)
        if self.record:
            def backward(g):
                _accumulate(a, g * b.data)
                _accumulate(b, g * a.data)

            self._record((out,), backward)
        return out

    def elementwise_max(self, a: Tensor, b: Tensor) -> Tensor:
        """Per-element max; ties route the gradient to the first operand."""
        if a.shape != b.shape:
            raise OpShapeError("elementwise_max", a.shape, b.shape)
        take_a = a.data >= b.data
        out = Tensor(np.where(take_a, a.data, b.data))
        if self.record:
            def backward(g):
                _accumulate(a, g * take_a)
                _accumulate(b, g * ~take_a)

            self._record((out,), backward)
        return out

    def scale_shift(self, x: Tensor, scale: float, shift: float) -> Tensor:
        """``scale * x + shift`` with python-float constants."""
        out = Tensor(scale * x.data + shift)
        if self.record:
            def backward(g):
                _accumulate(x, g * scale)

            self._record((out,), backward)
        return out

    # -- shape plumbing ------------------------------------------------------

    def concat_last_dim(self, *tensors: Tensor) -> Tensor:
        """Join operands along the last axis; leading shapes must agree."""
        lead = tensors[0].shape[:-1] if tensors else None
        if not tensors or any(
            t.data.ndim == 0 or t.shape[:-1] != lead for t in tensors
        ):
            raise OpShapeError("concat_last_dim", *[t.shape for t in tensors])
        out = Tensor(np.concatenate([t.data for t in tensors], axis=-1))
        if self.record:
            bounds = np.cumsum([t.shape[-1] for t in tensors])[:-1]

            def backward(g):
                for t, part in zip(tensors, np.split(g, bounds, axis=-1)):
                    _accumulate(t, part)

            self._record((out,), backward)
        return out

    def split_halves(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Split the last axis into two equal halves."""
        if x.data.ndim == 0 or x.shape[-1] % 2 != 0:
            raise OpShapeError("split_halves", x.shape)
        half = x.shape[-1] // 2
        lo = Tensor(x.data[..., :half].copy())
        hi = Tensor(x.data[..., half:].copy())
        if self.record:
            def backward(g_lo, g_hi):
                zeros = np.zeros(lo.shape)
                _accumulate(x, np.concatenate(
                    [g_lo if g_lo is not None else zeros,
                     g_hi if g_hi is not None else zeros],
                    axis=-1,
                ))

            self._record((lo, hi), backward)
        return lo, hi

    def stack_rows(self, tensors: list[Tensor]) -> Tensor:
        """Rows of the operands in order as one (n, d) matrix; a vector is one
        row, a matrix a block of rows."""
        if (
            not tensors
            or any(t.data.ndim not in (1, 2) for t in tensors)
            or len({t.shape[-1] for t in tensors}) != 1
        ):
            raise OpShapeError("stack_rows", *[t.shape for t in tensors])
        rows, start = [], 0
        for t in tensors:
            if t.data.ndim == 1:
                rows.append(start)
                start += 1
            else:
                rows.append(slice(start, start + t.shape[0]))
                start += t.shape[0]
        out = Tensor(np.vstack([t.data for t in tensors]))
        if self.record:
            def backward(g):
                for t, r in zip(tensors, rows):
                    _accumulate(t, g[r])

            self._record((out,), backward)
        return out

    # -- linear algebra -------------------------------------------------------

    def affine(self, w: Tensor, x: Tensor) -> Tensor:
        """``x @ w[:-1] + w[-1]``; the weight's last row is the bias.

        ``x`` may be a vector (d_in,) or a matrix (m, d_in).
        """
        if w.data.ndim != 2 or x.data.ndim == 0 or x.shape[-1] != w.shape[0] - 1:
            raise OpShapeError("affine", w.shape, x.shape)
        weights, bias = w.data[:-1], w.data[-1]
        out = Tensor(_rowwise_matmul(x.data, weights) + bias)
        if self.record:
            def backward(g):
                x2 = x.data.reshape(-1, x.shape[-1])
                g2 = g.reshape(-1, g.shape[-1])
                gw = np.empty_like(w.data)
                gw[:-1] = x2.T @ g2
                gw[-1] = g2.sum(axis=0)
                _accumulate(w, gw)
                _accumulate(x, g @ weights.T)

            self._record((out,), backward)
        return out

    def weighted_sum(self, weights: Tensor, stack: Tensor) -> Tensor:
        """Mix k equal blocks of the stack's last axis by the k weights.

        weights (k,) with stack (k * d,) gives (d,); weights (B, k) with
        stack (B, k * d) gives (B, d), mixing each row by its own weights.
        """
        k = weights.shape[-1] if weights.data.ndim else 0
        if (
            k == 0
            or stack.shape[:-1] != weights.shape[:-1]
            or stack.shape[-1] % k != 0
        ):
            raise OpShapeError("weighted_sum", weights.shape, stack.shape)
        blocks = stack.data.reshape(weights.shape + (-1,))
        out = Tensor(_rowwise_matmul(weights.data, blocks))
        if self.record:
            def backward(g):
                _accumulate(weights, (blocks @ g[..., None])[..., 0])
                _accumulate(stack, (weights.data[..., None] * g[..., None, :])
                            .reshape(stack.shape))

            self._record((out,), backward)
        return out

    # -- nonlinearities --------------------------------------------------------

    def relu(self, x: Tensor) -> Tensor:
        mask = x.data > 0
        out = Tensor(np.where(mask, x.data, 0.0))
        if self.record:
            def backward(g):
                _accumulate(x, g * mask)

            self._record((out,), backward)
        return out

    def sigmoid(self, x: Tensor) -> Tensor:
        s = stable_sigmoid(x.data)
        out = Tensor(s)
        if self.record:
            def backward(g):
                _accumulate(x, g * s * (1.0 - s))

            self._record((out,), backward)
        return out

    def softmax_last_dim(self, x: Tensor) -> Tensor:
        shifted = x.data - x.data.max(axis=-1, keepdims=True)
        ex = np.exp(shifted)
        s = ex / ex.sum(axis=-1, keepdims=True)
        out = Tensor(s)
        if self.record:
            def backward(g):
                inner = (g * s).sum(axis=-1, keepdims=True)
                _accumulate(x, s * (g - inner))

            self._record((out,), backward)
        return out

    # -- losses and reductions -----------------------------------------------

    def bce_loss(self, probs: Tensor, labels: Tensor) -> Tensor:
        """Binary cross-entropy, averaged over all elements.

        Probabilities are clipped to [eps, 1-eps] purely as a log() guard;
        sigmoid outputs only reach the clip under extreme saturation.
        """
        if probs.shape != labels.shape or probs.data.ndim == 0:
            raise OpShapeError("bce_loss", probs.shape, labels.shape)
        p = np.clip(probs.data, _BCE_EPS, 1.0 - _BCE_EPS)
        y = labels.data
        n = p.size
        out = Tensor(-(y * np.log(p) + (1.0 - y) * np.log1p(-p)).sum() / n)
        if self.record:
            def backward(g):
                _accumulate(probs, g * (-(y / p) + (1.0 - y) / (1.0 - p)) / n)

            self._record((out,), backward)
        return out

    def reduce_sum(self, x: Tensor) -> Tensor:
        out = Tensor(x.data.sum())
        if self.record:
            def backward(g):
                _accumulate(x, np.full_like(x.data, float(g)))

            self._record((out,), backward)
        return out

    def reduce_mean(self, x: Tensor) -> Tensor:
        n = x.data.size
        out = Tensor(x.data.sum() / n)
        if self.record:
            def backward(g):
                _accumulate(x, np.full_like(x.data, float(g) / n))

            self._record((out,), backward)
        return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into ``.grad`` for every reachable tensor.

    Gradients add across shared subgraphs; parameters used in several branches
    end up with the sum of the branch gradients. Caller is responsible for
    zeroing parameter gradients between optimization steps.
    """
    if not tape.nodes:
        raise EmptyTapeError("backward called before any forward op")
    if loss.data.shape != ():
        raise OpShapeError("backward", loss.data.shape)
    loss.grad = np.ones_like(loss.data)
    for outputs, backward_fn in reversed(tape.nodes):
        grads = [o.grad for o in outputs]
        if all(g is None for g in grads):
            continue
        backward_fn(*grads)


class AdamState:
    """Per-parameter moment buffers for bias-corrected Adam."""

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}


def adam_step(params: dict[str, Tensor], state: AdamState) -> None:
    """One bias-corrected adaptive-moment update; missing grads count as zero."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
