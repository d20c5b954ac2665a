"""Minimal dense tensors with reverse-mode gradients.

Covers exactly the operations the recurrent generation model needs: matmul,
tanh, column concat, a row gather (``take_rows``), embedding lookup,
dropout, one GRU run over a whole sequence (``gru_scan``), one masked
dot-attention context for any number of query rows per source
(``attention``, whose weights ``attention_probs`` gives as a plain array) and
the negative log-likelihood loss (``nll``).  float32 by default; float64 is used
for gradient checking.

Every op takes and returns 2-D tensors (``nll`` returns a scalar).  A
sequence is held as batch-major rows: row j·T + t is row j's step t, so
``gru_scan``'s states feed ``take_rows``, ``concat``, ``matmul`` and
``attention`` as they are.

Each op records its inputs as the output's parents and one ``grad_fn`` that
maps the output's gradient array to one gradient per parent, in parent order.
A ``grad_fn`` closes over arrays only, never over a ``Tensor``, so a recorded
graph holds no reference cycles and is freed as soon as its output is
dropped.  It reads the op's inputs and the arrays the op made in forward,
never the op's output.  ``backward`` passes each parent its gradient and
then clears the output's gradient, parents and ``grad_fn``: it frees the
graph as it walks it, so a graph is differentiated once, and only leaves
(tensors with no parents, parameters and constants alike) keep ``.grad``.  A
leaf's first gradient is kept without a copy when it is a fresh array of the
leaf's dtype, and copied when it is a view or of another dtype.

Ops never write their inputs, with one exception: ``nll`` consumes interior
logits.  Its backward writes the (n, V) softmax gradient over the logits
array when that array belongs to an op's output (it has parents and owns its
memory); the gradient then reaches the op that made them, and is freed with
them, without a second (n, V) array.  So the logits may feed nothing but the
loss.  A leaf's array or a view is never written.

Each parent's gradient is an array shaped like it, or, for
``embedding_lookup``, a ``ColumnGrad``: the few columns of the (dim, vocab)
weight that the lookup touched and their summed gradients, so backward never
builds a dense (dim, vocab) array per lookup.  Only ``Tensor.accumulate_grad``
reads a ``ColumnGrad``; ``.grad`` is always a dense array.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32


class Tensor:
    __slots__ = ("data", "grad", "_parents", "grad_fn")

    def __init__(self, data, parents: tuple = (), grad_fn=None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self._parents = parents  # None once backward has passed this node's gradient on
        self.grad_fn = grad_fn  # output gradient -> one share per parent

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(()))

    def accumulate_grad(self, g: np.ndarray | ColumnGrad) -> None:
        if isinstance(g, ColumnGrad):
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad[:, g.cols] += g.sums.T
        elif self.grad is not None:
            self.grad += g
        elif isinstance(g, np.ndarray) and g.base is None and g.dtype == self.data.dtype:
            # A fresh array that owns its memory: ``backward`` hands each array
            # object to one parent only, so it can be kept as it is.
            self.grad = g
        else:
            # A view (``concat`` hands each parent a view of its gradient) or
            # another dtype: ``+=`` needs an owned array of the parent's dtype.
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class ColumnGrad:
    """Gradient of a (dim, vocab) weight that is zero outside ``cols``.

    ``cols`` holds distinct column indices and ``sums[k]`` is the gradient of
    column ``cols[k]``, shape (len(cols), dim).
    """

    __slots__ = ("cols", "sums")

    def __init__(self, cols: np.ndarray, sums: np.ndarray):
        self.cols = cols
        self.sums = sums

    @property
    def nbytes(self) -> int:
        return self.cols.nbytes + self.sums.nbytes


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    x, y = a.data, b.data
    return Tensor(x @ y, (a, b), lambda g: (g @ y.T, x.T @ g))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Stable two-branch evaluation; avoids overflow in exp for large |x|.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype, copy=False)


def tanh(a: Tensor) -> Tensor:
    x = a.data
    return Tensor(np.tanh(x), (a,), lambda g: (g * (1.0 - np.tanh(x) ** 2),))


def gru_scan(xw: Tensor, h0: Tensor, u_zr: Tensor, u_c: Tensor) -> Tensor:
    """A GRU run over T steps in row convention; returns the (b·T, H) states, batch-major.

    ``xw`` (b·T, 3H) is the input times ``[W_z|W_r|W_c]``, batch-major like
    the states (row j·T + t is row j's step t), ``h0`` (b, H) the state before
    step 0, and ``u_zr`` = ``[U_z|U_r]`` (H, 2H) and ``u_c`` (H, H) the
    recurrent weights:

        [z|r] = sigmoid(xw_t[:, :2H] + h @ u_zr)
        c     = tanh(xw_t[:, 2H:] + (r * h) @ u_c)
        h'    = (1 - z) * c + z * h

    Backward is one written-out pass back through time, then one GEMM per
    recurrent weight.
    """
    w_zr, w_c = u_zr.data, u_c.data
    b, n = h0.shape
    xw_shape = xw.shape
    x = xw.data.reshape(b, -1, 3 * n)
    hs, gates, cands = [h0.data], [], []  # per step: the state before it, [z|r] and c
    for t in range(x.shape[1]):
        h = hs[-1]
        zr = _sigmoid(x[:, t, : 2 * n] + h @ w_zr)
        z, r = zr[:, :n], zr[:, n:]
        c = np.tanh(x[:, t, 2 * n :] + (r * h) @ w_c)
        hs.append((1.0 - z) * c + z * h)
        gates.append(zr)
        cands.append(c)

    def grad_fn(g: np.ndarray) -> tuple:
        g = g.reshape(b, -1, n)
        grad = np.empty(xw_shape, dtype=x.dtype)  # at the pre-activations: the gates', then the candidate's
        dx = grad.reshape(x.shape)  # the same array by step
        dh = 0.0  # the gradient that step t + 1 passes back to its previous state
        for t in reversed(range(x.shape[1])):
            gt, hp, zr, c = g[:, t] + dh, hs[t], gates[t], cands[t]
            z, r = zr[:, :n], zr[:, n:]
            dc = gt * (1.0 - z) * (1.0 - c * c)
            drh = dc @ w_c.T
            dzr = np.concatenate([gt * (hp - c), drh * hp], axis=1) * zr * (1.0 - zr)
            dx[:, t] = np.concatenate([dzr, dc], axis=1)
            dh = gt * z + drh * r + dzr @ w_zr.T
        prev = np.stack(hs[:-1], axis=1)
        rh = np.stack(gates, axis=1)[:, :, n:] * prev
        return (
            grad,
            dh,
            prev.reshape(-1, n).T @ dx[:, :, : 2 * n].reshape(-1, 2 * n),
            rh.reshape(-1, n).T @ dx[:, :, 2 * n :].reshape(-1, n),
        )

    return Tensor(np.stack(hs[1:], axis=1).reshape(-1, n), (xw, h0, u_zr, u_c), grad_fn)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """The columns of tensors with the same rows, side by side."""
    out = np.concatenate([t.data for t in tensors], axis=1)
    ends = np.cumsum([t.shape[1] for t in tensors[:-1]]).tolist()
    return Tensor(out, tuple(tensors), lambda g: np.split(g, ends, axis=1))


def take_rows(a: Tensor, rows: np.ndarray) -> Tensor:
    """The rows ``a.data[rows]`` of a 2-D tensor; ``rows`` must be distinct.

    Backward scatters the gradient into those rows of a zero array, so rows
    that were not taken get exact zeros.
    """
    shape, dtype = a.shape, a.dtype

    def grad_fn(g):
        grad = np.zeros(shape, dtype=dtype)
        grad[rows] = g
        return (grad,)

    return Tensor(a.data[rows], (a,), grad_fn)


_MASK_SCORE = 1e30  # subtracted from attention scores at padded positions


def attention_probs(states: np.ndarray, query: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(n, L) softmax of ``states · query`` over the positions where ``mask`` is 1.

    ``states`` (b·L, H) holds the rows of b sources, batch-major, and ``mask``
    (b, L) their real positions; row j·T + t of ``query`` (n = b·T, H) reads
    source j.  Beam search's k queries are T = k.
    """
    if not mask.any(axis=1).all():
        raise ValueError("attention: all source positions are masked in a source row")
    states = states.reshape(*mask.shape, -1)
    b, length, n = states.shape
    products = (s * q[:, None, :] for s, q in zip(states, query.reshape(b, -1, n)))  # one source's (T, L, H) at a time
    scores = np.stack([p.sum(2) for p in products]) + ((mask - 1.0) * _MASK_SCORE)[:, None]
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    return (e / e.sum(axis=2, keepdims=True)).reshape(-1, length)


def attention(states: Tensor, query: Tensor, mask: np.ndarray) -> Tensor:
    """(n, H) context: each query row's ``attention_probs``-weighted sum of its source's ``states``.

    The backward pass is written out as in ``gru_scan``, in batched products;
    with weights ``a``, the scores' gradient is ``a * (da - sum(da * a))``, ``da = states · g``.
    """
    states_shape, q = states.shape, query.data
    s = states.data.reshape(*mask.shape, -1)  # (b, L, H)
    b, length, n = s.shape
    a = attention_probs(s, q, mask).reshape(b, -1, length)  # (b, T, L)

    def grad_fn(g: np.ndarray) -> tuple:
        g = g.reshape(b, -1, n)
        da = np.matmul(g, s.swapaxes(1, 2))
        ds = a * (da - (da * a).sum(axis=2, keepdims=True))
        grad = np.empty(states_shape, dtype=s.dtype)  # in the states' own shape, and not a view
        np.add(
            np.matmul(a.swapaxes(1, 2), g), np.matmul(ds.swapaxes(1, 2), q.reshape(b, -1, n)), out=grad.reshape(s.shape)
        )
        return grad, np.matmul(ds, s).reshape(q.shape)

    context = np.stack([(sj * aj[:, :, None]).sum(1) for sj, aj in zip(s, a)]).reshape(-1, n)  # source by source
    return Tensor(context, (states, query), grad_fn)


NLL_BLOCK = 16  # rows per block of the loss's elementwise passes: 1.3 MB of float32 at V = 20k


def nll(logits: Tensor, gold: np.ndarray) -> Tensor:
    """Scalar ``-sum_i log_softmax(logits)[i, gold[i]]`` of (n, V) logits.

    The row log-softmax is ``(x - max) - log(sum(exp(x - max)))``, but the
    forward pass keeps only each row's shift and log-normaliser: the full
    (n, V) log-probabilities are built in backward, in the array that is
    returned.  Both passes run over ``NLL_BLOCK`` rows at a time, which stay
    in cache, and the forward pass builds no (n, V) temporary.  Each row's
    sums and every elementwise step are those of the whole-array passes, so
    the blocks give the same bits.

    The loss consumes interior logits: when ``logits`` has parents and its
    array owns its memory, backward writes the gradient over that array
    instead of a new one.  So such logits may feed no other op.  The op that
    made them may be any op, since no op's backward reads its own output.  A
    leaf's array (the caller's) and a view (its base may be another node's
    data) are never written.
    """
    x = logits.data
    overwrite = bool(logits._parents) and x.base is None
    n = x.shape[0]
    rows = np.arange(n)
    shift = x.max(axis=1, keepdims=True)
    log_z = np.empty_like(shift)
    e = np.empty((min(n, NLL_BLOCK), x.shape[1]), dtype=x.dtype)
    for start in range(0, n, NLL_BLOCK):
        block = slice(start, start + NLL_BLOCK)
        eb = np.subtract(x[block], shift[block], out=e[: min(NLL_BLOCK, n - start)])
        np.exp(eb, out=eb)
        eb.sum(axis=1, keepdims=True, out=log_z[block])
    np.log(log_z, out=log_z)

    def grad_fn(g):
        grad = x if overwrite else np.empty_like(x)
        for start in range(0, n, NLL_BLOCK):
            block = slice(start, start + NLL_BLOCK)
            gb = np.subtract(x[block], shift[block], out=grad[block])
            gb -= log_z[block]
            np.exp(gb, out=gb)
            gb *= g
        grad[rows, gold] -= g
        return (grad,)

    picked = (x[rows, gold] - shift[:, 0]) - log_z[:, 0]
    return Tensor(-picked.sum(), (logits,), grad_fn)


def embedding_lookup(weight: Tensor, ids) -> Tensor:
    """Column lookup in a (dim, vocab) embedding matrix; returns (n, dim)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError(f"embedding_lookup: ids must be 1-D, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= weight.shape[1]):
        raise ValueError(f"embedding_lookup: id out of range for vocabulary of size {weight.shape[1]}")
    dtype = weight.dtype

    def grad_fn(g):
        # Each column's rows are summed in lookup order, as a dense np.add.at would.
        cols, inverse = np.unique(ids, return_inverse=True)
        sums = np.zeros((cols.size, g.shape[1]), dtype=dtype)
        np.add.at(sums, inverse, g)
        return (ColumnGrad(cols, sums),)

    return Tensor(weight.data[:, ids].T.copy(), (weight,), grad_fn)


def dropout(a: Tensor, rate: float, uniforms: Optional[np.ndarray]) -> Tensor:
    """Zero the entries whose draw in ``uniforms`` is below ``rate`` and rescale survivors.

    ``uniforms`` holds one draw from [0, 1) per entry of ``a``; None (no
    dropout on this pass) returns ``a`` itself.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if uniforms is None:
        return a
    mask = (uniforms >= rate).astype(a.dtype) / (1.0 - rate)
    return Tensor(a.data * mask, (a,), lambda g: (g * mask,))


def backward(loss: Tensor) -> None:
    """Reverse-accumulate gradients of a recorded scalar into its leaves.

    Interior gradients are dropped once passed on; only leaves keep ``.grad``.
    Once a node's gradient is passed on, its parents and ``grad_fn`` are
    cleared, so the arrays its ``grad_fn`` closed over are freed during the
    walk.  A graph can therefore be differentiated once: ``backward`` through
    a node it has already walked raises ``RuntimeError``.  An array object
    that one ``grad_fn`` hands to several parents reaches all but the first
    as a view, which ``accumulate_grad`` copies.  A ``grad_fn`` that returns
    more or fewer gradients than its op has parents raises ``ValueError``.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward() requires a scalar loss, got shape {loss.shape}")
    if loss._parents == ():
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
        if node._parents is None:
            raise RuntimeError("backward() through a graph that was already differentiated")
        visited.add(id(node))
        stack.append((node, True))
        stack.extend((parent, False) for parent in node._parents if id(parent) not in visited)
    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if node._parents:
            shares = node.grad_fn(node.grad)
            handed: set[int] = set()
            for parent, share in zip(node._parents, shares, strict=True):
                if id(share) in handed:
                    share = share[...]
                else:
                    handed.add(id(share))
                parent.accumulate_grad(share)
            node.grad, node._parents, node.grad_fn = None, None, None
