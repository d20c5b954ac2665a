"""Minimal dense tensors with reverse-mode gradients.

Covers exactly the operations the recurrent generation model needs: matmul,
elementwise arithmetic with broadcasting, sigmoid/tanh, concat/stack,
(log-)softmax, embedding lookup, dropout and reductions.  float32 by
default; float64 is used for gradient checking.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward", "_wants")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward = None
        self._wants = requires_grad  # participates in some gradient path

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


def as_tensor(x, like: Optional[Tensor] = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else None
    return Tensor(np.asarray(x), dtype=dtype)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if any(p._wants for p in parents):
        out._parents = tuple(parents)
        out._backward = backward
        out._wants = True
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from None


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b, like=a)
    _check_broadcast(a, b, "add")
    out_data = a.data + b.data

    def backward():
        g = out.grad
        if a._wants:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b._wants:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    out = _make(out_data, (a, b), backward)
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b, like=a)
    _check_broadcast(a, b, "mul")
    out_data = a.data * b.data

    def backward():
        g = out.grad
        if a._wants:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        if b._wants:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    out = _make(out_data, (a, b), backward)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    out_data = a.data * c

    def backward():
        if a._wants:
            a.accumulate_grad(out.grad * c)

    out = _make(out_data, (a,), backward)
    return out


def one_minus(a: Tensor) -> Tensor:
    out_data = 1.0 - a.data

    def backward():
        if a._wants:
            a.accumulate_grad(-out.grad)

    out = _make(out_data, (a,), backward)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out_data = a.data @ b.data

    def backward():
        g = out.grad
        if a._wants:
            a.accumulate_grad(g @ b.data.T)
        if b._wants:
            b.accumulate_grad(a.data.T @ g)

    out = _make(out_data, (a, b), backward)
    return out


def sigmoid(a: Tensor) -> Tensor:
    # Stable two-branch evaluation; avoids overflow in exp for large |x|.
    x = a.data
    e = np.exp(-np.abs(x))
    out_data = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out_data = out_data.astype(x.dtype, copy=False)

    def backward():
        if a._wants:
            a.accumulate_grad(out.grad * out.data * (1.0 - out.data))

    out = _make(out_data, (a,), backward)
    return out


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward():
        if a._wants:
            a.accumulate_grad(out.grad * (1.0 - out.data * out.data))

    out = _make(out_data, (a,), backward)
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def backward():
        g = out.grad
        offset = 0
        for t, size in zip(tensors, sizes):
            if t._wants:
                index = [slice(None)] * g.ndim
                index[axis] = slice(offset, offset + size)
                t.accumulate_grad(g[tuple(index)])
            offset += size

    out = _make(out_data, tensors, backward)
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward():
        g = out.grad
        for i, t in enumerate(tensors):
            if t._wants:
                t.accumulate_grad(np.take(g, i, axis=axis))

    out = _make(out_data, tensors, backward)
    return out


def reshape(a: Tensor, shape: tuple) -> Tensor:
    out_data = a.data.reshape(shape)

    def backward():
        if a._wants:
            a.accumulate_grad(out.grad.reshape(a.shape))

    out = _make(out_data, (a,), backward)
    return out


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward():
        g = out.grad
        if a._wants:
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a.accumulate_grad(np.broadcast_to(g, a.shape).copy())

    out = _make(out_data, (a,), backward)
    return out


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward():
        g = out.grad
        if a._wants:
            y = out.data
            dot = (g * y).sum(axis=axis, keepdims=True)
            a.accumulate_grad(y * (g - dot))

    out = _make(out_data, (a,), backward)
    return out


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - logsumexp

    def backward():
        g = out.grad
        if a._wants:
            soft = np.exp(out.data)
            a.accumulate_grad(g - soft * g.sum(axis=axis, keepdims=True))

    out = _make(out_data, (a,), backward)
    return out


def embedding_lookup(weight: Tensor, ids) -> Tensor:
    """Column lookup in a (dim, vocab) embedding matrix; returns (n, dim)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError(f"embedding_lookup: ids must be 1-D, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= weight.shape[1]):
        raise ValueError(f"embedding_lookup: id out of range for vocabulary of size {weight.shape[1]}")
    out_data = weight.data[:, ids].T.copy()

    def backward():
        if weight._wants:
            gw_t = np.zeros((weight.shape[1], weight.shape[0]), dtype=weight.dtype)
            np.add.at(gw_t, ids, out.grad)
            weight.accumulate_grad(gw_t.T)

    out = _make(out_data, (weight,), backward)
    return out


def pick(a: Tensor, indices) -> Tensor:
    """Select a[i, indices[i]] for every row; returns (n,)."""
    indices = np.asarray(indices, dtype=np.int64)
    rows = np.arange(a.shape[0])
    out_data = a.data[rows, indices].copy()

    def backward():
        if a._wants:
            ga = np.zeros_like(a.data)
            np.add.at(ga, (rows, indices), out.grad)
            a.accumulate_grad(ga)

    out = _make(out_data, (a,), backward)
    return out


def dropout(a: Tensor, rate: float, rng: np.random.Generator, train: bool = True) -> Tensor:
    """Zero entries with probability ``rate`` and rescale survivors.

    Identity when ``train`` is False or ``rate`` is 0.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return a
    mask = (rng.random(a.shape) >= rate).astype(a.dtype) / (1.0 - rate)
    return mul(a, Tensor(mask))


def backward(loss: Tensor) -> None:
    """Reverse-accumulate gradients of a recorded scalar into its inputs."""
    if loss.size != 1:
        raise ValueError(f"backward() requires a scalar loss, got shape {loss.shape}")
    if loss._backward is None and not loss._parents:
        raise RuntimeError("backward() called on a tensor with no recorded forward computation")
    order: list[Tensor] = []
    visited: set[int] = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent._wants and id(parent) not in visited:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward()
