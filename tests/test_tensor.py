"""Autodiff tests: every operation's gradient against central finite differences."""

import ast
import gc
import shutil
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcrg import tensor as T
from fcrg.tensor import Tensor, backward

RNG = np.random.default_rng(42)


def fd_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def leaf(shape):
    return Tensor(RNG.standard_normal(shape))  # float64


def check_op(build, *leaves, tol=1e-7):
    """build(*leaves) -> output tensor; compares grads of sum(out) to FD."""

    def loss():
        return reduce_sum(build(*leaves))

    backward(loss())
    for x in leaves:
        numeric = fd_grad(lambda: loss().item(), x.data)
        assert np.allclose(x.grad, numeric, atol=tol), f"analytic\n{x.grad}\nvs numeric\n{numeric}"
        x.grad = None


# The two element-wise ops the composed GRU cell was built from.  They left
# fcrg.tensor with that cell (a fused GRU step, now T.gru_scan, replaced it)
# and are kept here, as they were, for the composed cell that is now
# gru_scan's oracle.


def sigmoid(a: Tensor) -> Tensor:
    # Stable two-branch evaluation; avoids overflow in exp for large |x|.
    x = a.data
    e = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype, copy=False)
    return Tensor(y, (a,), lambda g: (g * y * (1.0 - y),))


def one_minus(a: Tensor) -> Tensor:
    return Tensor(1.0 - a.data, (a,), lambda g: (np.negative(g),))


# Two generic ops the composed attention chain was built from.  They left
# fcrg.tensor when T.attention replaced that chain and are kept here, as they
# were, for the tests' losses and for the chain that is now attention's oracle
# (which also uses reshape, below).


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = a.shape

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape),)

    return Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,), grad_fn)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    return Tensor(y, (a,), lambda g: (y * (g - (g * y).sum(axis=axis, keepdims=True)),))


# The two broadcasting element-wise ops.  They left fcrg.tensor when the
# encoder stopped freezing its padded rows and dropout got its own edge, and
# are kept here, as they were, for the tests' losses and the composed oracles,
# with the gradient reduction they share.


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


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _operands(a, b, op: str) -> tuple[Tensor, Tensor]:
    """``a`` as a tensor, and ``b`` as one of ``a``'s dtype when it is not a tensor yet."""
    a = as_tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(np.asarray(b, dtype=a.dtype))
    _check_broadcast(a, b, op)
    return a, b


def add(a, b) -> Tensor:
    a, b = _operands(a, b, "add")
    a_shape, b_shape = a.shape, b.shape
    return Tensor(a.data + b.data, (a, b), lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)))


def mul(a, b) -> Tensor:
    a, b = _operands(a, b, "mul")
    x, y = a.data, b.data
    return Tensor(x * y, (a, b), lambda g: (_unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)))


# The op that stacked per-step tensors.  It left fcrg.tensor when the encoder
# and the decoder began to run all their steps as one T.gru_scan, and is kept
# here, as it was, for the per-step oracles.


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    count = len(tensors)
    return Tensor(out_data, tuple(tensors), lambda g: tuple(np.take(g, i, axis=axis) for i in range(count)))


# The layout adapter that turned gru_scan's (b, T, H) states into rows.  It
# left fcrg.tensor when every op began to take and return 2-D rows, and is
# kept here, as it was, for the composed attention oracles and for views.


def reshape(a: Tensor, shape: tuple) -> Tensor:
    old_shape = a.shape
    return Tensor(a.data.reshape(shape), (a,), lambda g: (g.reshape(old_shape),))


def row_probs(x: np.ndarray) -> np.ndarray:
    """``T.attention_probs`` of scores ``x`` (k, L) with no position masked: the row softmax."""
    return T.attention_probs(x[:, :, None], np.ones((x.shape[0], 1), dtype=x.dtype), np.ones_like(x))


def test_add_broadcast_grad():
    check_op(add, leaf((3, 4)), leaf((1, 4)))


def test_mul_broadcast_grad():
    check_op(mul, leaf((3, 4)), leaf((3, 1)))


def test_one_minus_grad():
    check_op(one_minus, leaf((3, 2)))


def test_matmul_grad():
    check_op(T.matmul, leaf((3, 4)), leaf((4, 2)))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(3, 4\).*\(3, 2\)"):
        T.matmul(leaf((3, 4)), leaf((3, 2)))


def test_sigmoid_grad():
    check_op(sigmoid, leaf((5,)))


def test_sigmoid_stable_at_extremes():
    out = sigmoid(Tensor(np.array([-1000.0, 0.0, 1000.0])))
    assert np.allclose(out.data, [0.0, 0.5, 1.0])
    assert np.isfinite(out.data).all()


def test_tanh_grad():
    check_op(T.tanh, leaf((5,)))


@pytest.mark.parametrize("steps", [1, 3])
def test_gru_scan_grad(steps):
    # Weighted so that no output unit's gradient is the plain sum.
    w = Tensor(RNG.standard_normal((3 * steps, 4)))
    check_op(lambda xw, h, u_zr, u_c: mul(T.gru_scan(xw, h, u_zr, u_c), w),
             leaf((3 * steps, 12)), leaf((3, 4)), leaf((4, 8)), leaf((4, 4)))


def test_gru_scan_grad_with_a_constant_state():
    # The encoder's all-zero state is a constant leaf: it gets its gradient as the weights do.
    h = Tensor(np.zeros((2, 3)))
    states = T.gru_scan(leaf((8, 9)), h, leaf((3, 6)), leaf((3, 3)))
    assert states.shape == (8, 3) and states._parents[1] is h
    check_op(T.gru_scan, leaf((8, 9)), h, leaf((3, 6)), leaf((3, 3)))


def test_concat_grad():
    check_op(lambda a, b: T.concat([a, b]), leaf((2, 3)), leaf((2, 2)))


def test_stack_grad():
    check_op(lambda a, b: stack([a, b], axis=1), leaf((2, 3)), leaf((2, 3)))


def test_reshape_grad():
    check_op(lambda a: reshape(a, (6,)), leaf((2, 3)))
    w = Tensor(RNG.standard_normal((6, 2)))
    check_op(lambda a: mul(reshape(a, (6, 2)), w), leaf((2, 3, 2)))


def test_reduce_sum_axis_grad():
    check_op(lambda a: reduce_sum(a, axis=0), leaf((3, 4)))
    check_op(lambda a: reduce_sum(a, axis=1, keepdims=True), leaf((3, 4)))


def test_softmax_grad():
    # weight rows so the loss is not constant under the softmax's shift invariance
    w = Tensor(RNG.standard_normal((3, 5)))
    check_op(lambda a: mul(softmax(a, axis=1), w), leaf((3, 5)))


def test_softmax_rows_sum_to_one():
    probs = row_probs(RNG.standard_normal((4, 7)))
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert (probs > 0).all()


# Ragged rows: the last has a single real position.
ATTENTION_MASK = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])


def test_attention_grad():
    # Per-row states; one source's states (1, L, H) shared by every query, as
    # in beam search; then two query steps per source, as in teacher forcing.
    w = Tensor(RNG.standard_normal((3, 5)))
    for states, mask in ((leaf((3, 4, 5)), ATTENTION_MASK), (leaf((1, 4, 5)), ATTENTION_MASK[1:2])):
        check_op(lambda s, q: mul(T.attention(s, q, mask), w), states, leaf((3, 5)))
    w = Tensor(RNG.standard_normal((6, 5)))
    check_op(lambda s, q: mul(T.attention(s, q, ATTENTION_MASK), w), leaf((3, 4, 5)), leaf((6, 5)))


def test_attention_probs_masks_padding_and_rejects_an_all_masked_source():
    probs = T.attention_probs(RNG.standard_normal((3, 4, 5)), RNG.standard_normal((3, 5)), ATTENTION_MASK)
    assert np.array_equal(probs == 0.0, ATTENTION_MASK == 0.0)
    assert probs[2, 0] == 1.0
    with pytest.raises(ValueError, match="all source positions are masked"):
        T.attention_probs(np.ones((1, 2, 3)), np.ones((1, 3)), np.zeros((1, 2)))


def test_attention_probs_rejects_one_all_masked_row_of_a_batch():
    # The other rows have real positions; the empty row must not get uniform weights.
    mask = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="all source positions are masked in a source row"):
        T.attention_probs(np.ones((2, 2, 3)), np.ones((2, 3)), mask)


def test_take_rows_grad_is_exactly_zero_on_rows_not_taken():
    rows = np.array([4, 0, 2])  # out of order; rows 1, 3 and 5 are not taken
    check_op(lambda a: T.tanh(T.take_rows(a, rows)), leaf((6, 3)))
    x = leaf((6, 3))
    taken = T.take_rows(x, rows)
    assert np.array_equal(taken.data, x.data[rows])
    backward(reduce_sum(T.tanh(taken)))
    assert np.array_equal(x.grad[[1, 3, 5]], np.zeros((3, 3)))
    assert np.array_equal(x.grad[rows], 1.0 - np.tanh(x.data[rows]) ** 2)


# The masked loss.  It left fcrg.tensor as T.nll when the model's one call
# began to pass only the rows it scores, each with weight 1, and is kept here,
# as it was, for the per-step oracles and the five-op chain test.


def masked_nll(logits: Tensor, gold: np.ndarray, mask: np.ndarray) -> Tensor:
    """Scalar ``-sum_i mask[i] * log_softmax(logits)[i, gold[i]]`` of (n, V) logits.

    The row log-softmax is ``(x - max) - log(sum(exp(x - max)))``, but the
    forward pass keeps only each row's shift and log-normaliser: the full
    (n, V) log-probabilities are built in backward, in the array that is
    returned.
    """
    x = logits.data
    rows = np.arange(x.shape[0])
    shift = x.max(axis=1, keepdims=True)
    e = x - shift
    log_z = np.log(np.exp(e, out=e).sum(axis=1, keepdims=True))

    def grad_fn(g):
        c = g * mask
        grad = x - shift
        grad -= log_z
        np.exp(grad, out=grad)
        grad *= c[:, None]
        grad[rows, gold] -= c
        return (grad,)

    picked = (x[rows, gold] - shift[:, 0]) - log_z[:, 0]
    return Tensor(-(picked * mask).sum(), (logits,), grad_fn)


def test_masked_nll_grad():
    # Row 2 is masked out, and gold id 1 repeats across rows.
    gold = np.array([1, 4, 1, 1])
    mask = np.array([1.0, 1.0, 0.0, 1.0])
    check_op(lambda a: masked_nll(a, gold, mask), leaf((4, 5)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_nll_is_bit_equal_to_the_masked_loss_with_every_row_kept(dtype):
    rng = np.random.default_rng(12)
    logits = (rng.standard_normal((9, 13)) * 4).astype(dtype)
    gold = rng.integers(0, 4, size=9)  # gold ids repeat
    results = []
    for loss_fn in (lambda x: T.nll(x, gold), lambda x: masked_nll(x, gold, np.ones(9, dtype=dtype))):
        x = Tensor(logits.copy())
        loss = loss_fn(x)
        backward(loss)
        results.append((np.asarray(loss.data), x.grad))
    (loss, grad), (expected_loss, expected_grad) = results
    assert loss.dtype == dtype
    assert_bit_equal(loss, expected_loss)
    assert_bit_equal(grad, expected_grad)


# T.nll as it was before its elementwise passes ran in row blocks: one pass
# over the whole (n, V) logits each.  It is the blocked loss's oracle.
def whole_array_nll(logits: Tensor, gold: np.ndarray) -> Tensor:
    x = logits.data
    rows = np.arange(x.shape[0])
    shift = x.max(axis=1, keepdims=True)
    e = x - shift
    log_z = np.log(np.exp(e, out=e).sum(axis=1, keepdims=True))

    def grad_fn(g):
        grad = x - shift
        grad -= log_z
        np.exp(grad, out=grad)
        grad *= g
        grad[rows, gold] -= g
        return (grad,)

    picked = (x[rows, gold] - shift[:, 0]) - log_z[:, 0]
    return Tensor(-picked.sum(), (logits,), grad_fn)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 15, 16, 17, 481])  # around and over NLL_BLOCK = 16 rows
def test_blocked_nll_is_bit_equal_to_the_whole_array_loss(n, dtype):
    assert T.NLL_BLOCK == 16
    rng = np.random.default_rng(n)
    logits = (rng.standard_normal((n, 300)) * 4).astype(dtype)  # rows longer than numpy's 128-element pairwise leaf
    gold = rng.integers(0, 40, size=n)  # gold ids repeat
    upstream = np.asarray(-1.7, dtype=dtype)
    results = []
    for loss_fn in (T.nll, whole_array_nll):
        loss = loss_fn(Tensor(logits), gold)
        (grad,) = loss.grad_fn(upstream)
        results.append((np.asarray(loss.data), grad))
    (loss, grad), (expected_loss, expected_grad) = results
    assert loss.dtype == dtype
    assert_bit_equal(loss, expected_loss)
    assert_bit_equal(grad, expected_grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 17, 481])
def test_nll_writes_its_gradient_over_interior_logits(n, dtype):
    rng = np.random.default_rng(n)
    a = Tensor((rng.standard_normal((n, 8)) * 2).astype(dtype))
    b = Tensor(rng.standard_normal((8, 300)).astype(dtype))
    gold = rng.integers(0, 40, size=n)
    upstream = np.asarray(-1.7, dtype=dtype)
    logits = T.matmul(a, b)
    oracle = whole_array_nll(Tensor(logits.data.copy()), gold)
    loss = T.nll(logits, gold)
    (grad,) = loss.grad_fn(upstream)
    (expected,) = oracle.grad_fn(upstream)
    assert np.shares_memory(grad, logits.data)
    assert_bit_equal(grad, expected)


def test_nll_over_a_tanh_output_has_its_true_gradient():
    # nll writes its gradient over the tanh output; tanh's backward must not read it.
    gold = np.array([1, 4, 1, 0])
    check_op(lambda a, w: T.nll(T.tanh(T.matmul(a, w)), gold), leaf((4, 3)), leaf((3, 5)))


def test_nll_leaves_a_leaf_and_a_views_base_unwritten():
    rng = np.random.default_rng(4)
    gold = rng.integers(0, 300, size=20)
    logits = Tensor(rng.standard_normal((20, 300)))
    before = logits.data.copy()
    backward(T.nll(logits, gold))
    assert_bit_equal(logits.data, before)

    wide = T.matmul(Tensor(rng.standard_normal((10, 8))), Tensor(rng.standard_normal((8, 600))))
    before = wide.data.copy()
    backward(T.nll(reshape(wide, (20, 300)), gold))
    assert_bit_equal(wide.data, before)


# The loss chain masked_nll replaced, written out in numpy: per step
# log_softmax -> pick -> mul(mask) -> reduce_sum, the steps stacked and summed,
# then scaled by -1.  Each interior gradient starts at zero and has its share
# added, as Tensor.accumulate_grad does.
def five_op_chain(logits, golds, masks):
    """Loss and each step's logits gradient of the five-op chain."""
    rows = np.arange(logits[0].shape[0])
    log_probs = []
    pieces = []
    for x, gold, mask in zip(logits, golds, masks):
        shifted = x - x.max(axis=1, keepdims=True)
        y = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs.append(y)
        pieces.append((y[rows, gold].copy() * mask).sum())
    total = np.stack(pieces, axis=0).sum()
    loss = total * -1.0
    g_piece = np.zeros_like(total) + np.ones_like(loss) * -1.0  # through scale, reduce_sum and stack
    grads = []
    for y, gold, mask in zip(log_probs, golds, masks):
        g_picked = np.zeros_like(mask) + g_piece * mask
        g_log_probs = np.zeros_like(y)
        np.add.at(g_log_probs, (rows, gold), g_picked)
        g_log_probs = np.zeros_like(y) + g_log_probs
        grads.append(np.zeros_like(y) + (g_log_probs - np.exp(y) * g_log_probs.sum(axis=1, keepdims=True)))
    return loss, grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_masked_nll_bit_equal_to_five_op_chain(dtype):
    rng = np.random.default_rng(11)
    steps, batch, vocab = 6, 5, 13
    logits = [(rng.standard_normal((batch, vocab)) * 4).astype(dtype) for _ in range(steps)]
    golds = [rng.integers(0, 4, size=batch) for _ in range(steps)]  # gold ids repeat
    masks = [(rng.random(batch) < 0.7).astype(dtype) for _ in range(steps)]
    masks[0][:] = 1.0
    masks[-1][:] = 0.0
    leaves = [Tensor(x.copy()) for x in logits]
    loss = reduce_sum(stack([masked_nll(x, g, m) for x, g, m in zip(leaves, golds, masks)], axis=0))
    backward(loss)
    expected_loss, expected_grads = five_op_chain(logits, golds, masks)
    assert_bit_equal(np.asarray(loss.data), np.asarray(expected_loss))
    for leaf_, expected in zip(leaves, expected_grads):
        assert_bit_equal(leaf_.grad, expected)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
def test_softmax_invariant_to_shift(xs):
    x = np.array([xs])
    assert np.allclose(row_probs(x), row_probs(x + 17.0), atol=1e-6)


def test_embedding_lookup_forward_and_grad():
    w = leaf((4, 9))  # (dim, vocab)
    ids = np.array([2, 0, 2])
    out = T.embedding_lookup(w, ids)
    assert out.shape == (3, 4)
    assert np.allclose(out.data[0], w.data[:, 2])
    # repeated id accumulates both rows' gradients
    weight_rows = Tensor(RNG.standard_normal((3, 4)))
    check_op(lambda w_: mul(T.embedding_lookup(w_, ids), weight_rows), w)


# The dense formula the column gradient replaced: one (vocab, dim) array per
# lookup, filled with np.add.at and added to the weight's gradient.  Graphs
# built with it are the oracle for bit-equality.
def dense_embedding_lookup(weight, ids):
    ids = np.asarray(ids, dtype=np.int64)
    dim, vocab = weight.shape

    def grad_fn(g):
        gw_t = np.zeros((vocab, dim), dtype=weight.dtype)
        np.add.at(gw_t, ids, g)
        return (gw_t.T,)

    return Tensor(weight.data[:, ids].T.copy(), (weight,), grad_fn)


def column_and_dense_grads(build, weight_data, **kwargs):
    """``build(w, lookup)`` -> scalar loss; the weight's .grad under each lookup."""
    grads = []
    for lookup in (T.embedding_lookup, dense_embedding_lookup):
        w = Tensor(weight_data.copy())
        backward(build(w, lookup, **kwargs))
        grads.append(w.grad)
    return grads


def assert_bit_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def weighted_sum(out, seed):
    coeff = np.random.default_rng(seed).standard_normal(out.shape).astype(out.dtype)
    return reduce_sum(mul(out, Tensor(coeff)))


EMB = np.random.default_rng(7).standard_normal((6, 40)).astype(np.float32)  # (dim, vocab)


def test_embedding_grad_is_column_sums():
    w = Tensor(EMB.copy())
    (grad,) = T.embedding_lookup(w, np.array([3, 1, 3])).grad_fn(np.ones((3, 6), dtype=np.float32))
    assert isinstance(grad, T.ColumnGrad)
    assert grad.cols.tolist() == [1, 3]
    assert np.array_equal(grad.sums, np.array([[1.0] * 6, [2.0] * 6], dtype=np.float32))
    assert grad.nbytes == grad.cols.nbytes + grad.sums.nbytes


def test_embedding_grad_repeated_ids_bit_equal_to_dense():
    ids = np.random.default_rng(1).integers(0, 9, size=64)  # every id repeats
    column, dense = column_and_dense_grads(lambda w, lookup: weighted_sum(lookup(w, ids), 2), EMB)
    assert_bit_equal(column, dense)


def test_embedding_grad_several_lookups_of_one_weight_bit_equal_to_dense():
    # Like the encoder and decoder sharing one embedding: many lookups, overlapping ids.
    rng = np.random.default_rng(3)
    batches = [rng.integers(0, 12, size=int(n)) for n in rng.integers(1, 20, size=8)]

    def build(w, lookup):
        state = Tensor(np.zeros(6, dtype=np.float32))
        for step, ids in enumerate(batches):
            state = T.tanh(add(weighted_sum(lookup(w, ids), step), state))
        return reduce_sum(state)

    column, dense = column_and_dense_grads(build, EMB)
    assert_bit_equal(column, dense)


def test_embedding_grad_first_and_later_accumulation_bit_equal_to_dense():
    ids = np.array([5, 0, 5, 39, 5, 2])
    first = np.random.default_rng(4).standard_normal(EMB.shape).astype(np.float32)

    def build(w, lookup, dense_first):
        loss = weighted_sum(lookup(w, ids), 5)
        if dense_first:  # a dense gradient reaches the weight before the lookup's
            loss = add(weighted_sum(w, 6), loss)
        return loss

    for dense_first in (False, True):
        column, dense = column_and_dense_grads(build, EMB, dense_first=dense_first)
        assert_bit_equal(column, dense)

    # A second backward adds onto the gradient the first one left.
    grads = []
    for lookup in (T.embedding_lookup, dense_embedding_lookup):
        w = Tensor(EMB.copy())
        w.grad = first.copy()
        backward(weighted_sum(lookup(w, ids), 7))
        backward(weighted_sum(lookup(w, ids[::-1]), 8))
        grads.append(w.grad)
    assert_bit_equal(*grads)


def test_embedding_grad_empty_ids_bit_equal_to_dense():
    ids = np.array([], dtype=np.int64)
    column, dense = column_and_dense_grads(
        lambda w, lookup: add(reduce_sum(lookup(w, ids)), weighted_sum(lookup(w, [4, 4]), 9)), EMB
    )
    assert_bit_equal(column, dense)


def test_embedding_grad_through_non_leaf_weight():
    ids = np.array([2, 0, 2, 8])
    rows = Tensor(RNG.standard_normal((4, 4)))
    check_op(lambda w_: mul(T.embedding_lookup(mul(w_, 2.0), ids), rows), leaf((4, 9)))
    column, dense = column_and_dense_grads(lambda w, lookup: weighted_sum(lookup(mul(w, 2.0), ids), 10), EMB)
    assert_bit_equal(column, dense)


def test_embedding_lookup_rejects_out_of_range():
    w = leaf((4, 9))
    with pytest.raises(ValueError, match="out of range"):
        T.embedding_lookup(w, np.array([9]))


def test_dropout_eval_is_identity():
    # Evaluation draws no uniforms.
    a = leaf((10, 10))
    out = T.dropout(a, 0.5, None)
    assert out is a


def test_dropout_train_preserves_expectation():
    rng = np.random.default_rng(0)
    a = Tensor(np.ones((200, 200)))
    out = T.dropout(a, 0.2, rng.random(a.shape))
    kept = out.data[out.data != 0]
    assert np.allclose(kept, 1.0 / 0.8)
    assert abs(out.data.mean() - 1.0) < 0.02


def test_dropout_deterministic_under_seed():
    # The same draws give the same mask; an entry is dropped exactly when its draw is below the rate.
    a = Tensor(np.ones((8, 8)))
    m1 = T.dropout(a, 0.5, np.random.default_rng(3).random(a.shape)).data
    m2 = T.dropout(a, 0.5, np.random.default_rng(3).random(a.shape)).data
    assert np.array_equal(m1, m2)
    assert np.array_equal(m1 == 0.0, np.random.default_rng(3).random(a.shape) < 0.5)


def test_backward_requires_scalar():
    with pytest.raises(ValueError, match="scalar"):
        backward(add(leaf((3,)), leaf((3,))))


def test_backward_requires_recorded_graph():
    with pytest.raises(RuntimeError):
        backward(Tensor(np.array(1.0)))


def test_backward_rejects_a_grad_fn_with_one_gradient_too_few():
    # Without the check, b would silently get no gradient.
    a, b = leaf((3,)), leaf((3,))
    short = Tensor(a.data + b.data, (a, b), lambda g: (g,))
    with pytest.raises(ValueError, match="shorter"):
        backward(reduce_sum(short))
    assert b.grad is None


def test_grad_accumulates_over_reuse():
    # x used twice: d/dx sum(x + x) = 2
    x = leaf((3,))
    backward(reduce_sum(add(x, x)))
    assert np.allclose(x.grad, 2.0)


def test_parents_of_add_keep_separate_gradients():
    # add hands one gradient array to both parents; adding more to one parent's
    # gradient later must leave the other's as it was.
    a, b = leaf((2, 3)), leaf((2, 3))
    w = Tensor(RNG.standard_normal((2, 3)))
    backward(reduce_sum(mul(add(a, b), w)))
    backward(reduce_sum(mul(a, w)))
    assert np.array_equal(a.grad, 2.0 * w.data)
    assert np.array_equal(b.grad, w.data)


def test_deep_chain_no_recursion_limit():
    x = leaf((2,))
    y = x
    for _ in range(5000):
        y = add(y, x)
    backward(reduce_sum(y))
    assert np.allclose(x.grad, 5001.0)


def test_backward_keeps_grad_on_leaves_only():
    x, w = leaf((2, 3)), leaf((3,))
    constant = Tensor(np.ones(3, dtype=np.float64))
    hidden = T.tanh(mul(add(x, constant), w))
    loss = reduce_sum(hidden)
    backward(loss)
    assert x.grad is not None and w.grad is not None
    assert hidden.grad is None and loss.grad is None
    # A constant is a leaf too: it keeps the gradient add broadcast it to.
    assert np.array_equal(constant.grad, x.grad.sum(axis=0))


def test_backward_frees_the_graph_while_the_loss_is_held():
    x, w = leaf((4, 3)), leaf((3, 2))
    product = T.matmul(x, w)
    hidden = T.tanh(product)
    interior = [weakref.ref(product.data), weakref.ref(hidden.data)]
    loss = reduce_sum(hidden)
    del product, hidden
    assert all(ref() is not None for ref in interior)  # the recorded graph holds them
    backward(loss)
    assert all(ref() is None for ref in interior)
    assert np.array_equal(w.grad, x.data.T @ (1.0 - np.tanh(x.data @ w.data) ** 2))
    with pytest.raises(RuntimeError, match="already differentiated"):
        backward(loss)


def test_backward_rejects_a_second_loss_through_a_walked_graph():
    # The walk freed hidden's parents: the second loss would silently miss x's gradient.
    x = leaf((2, 3))
    hidden = T.tanh(x)
    backward(reduce_sum(hidden))
    with pytest.raises(RuntimeError, match="already differentiated"):
        backward(reduce_sum(mul(hidden, hidden)))


def test_a_fresh_first_gradient_is_kept_without_a_copy():
    x = leaf((2, 3))
    handed = []

    def grad_fn(g):
        handed.append(g * 2.0)
        return (handed[-1],)

    backward(reduce_sum(Tensor(2.0 * x.data, (x,), grad_fn)))
    assert x.grad is handed[0]
    g = np.ones((2, 3))
    y = leaf((2, 3))
    y.accumulate_grad(g)
    assert y.grad is g


@pytest.mark.parametrize("share", [
    np.ones((2, 6))[:, :3],  # a view: it does not own its memory
    np.ones((2, 3), dtype=np.float32),  # another dtype than the float64 leaf's
])
def test_a_view_or_another_dtype_is_copied_into_the_first_gradient(share):
    x = leaf((2, 3))
    x.accumulate_grad(share)
    assert x.grad.dtype == np.float64 and x.grad.base is None
    assert not np.shares_memory(x.grad, share)
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_concat_views_and_a_twice_handed_share_do_not_alias():
    a, b, c, d = leaf((2, 3)), leaf((2, 2)), leaf((2, 3)), leaf((2, 3))
    w = Tensor(RNG.standard_normal((2, 5)))
    backward(reduce_sum(mul(T.concat([a, b]), w)))  # concat hands each parent a view
    assert a.grad.base is None and b.grad.base is None
    assert not np.shares_memory(a.grad, b.grad)
    assert np.array_equal(np.concatenate([a.grad, b.grad], axis=1), w.data)
    backward(reduce_sum(mul(add(c, d), Tensor(w.data[:, :3]))))  # add hands one array to both parents
    assert not np.shares_memory(c.grad, d.grad)
    c.grad += 1.0
    assert np.array_equal(d.grad, w.data[:, :3])


def test_recorded_graph_leaves_no_cyclic_garbage():
    x = leaf((3,))
    gc.collect()
    gc.disable()
    try:
        loss = reduce_sum(T.tanh(mul(x, x)))
        backward(loss)
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_composite_expression_grad():
    # sigma(a @ b) * tanh(a) style mix through several ops
    a, b = leaf((3, 3)), leaf((3, 3))

    def build(a_, b_):
        h = sigmoid(T.matmul(a_, b_))
        return mul(h, T.tanh(a_))

    check_op(build, a, b)


def test_default_dtype_is_float32():
    assert Tensor([1, 2, 3]).dtype == np.float32
    assert Tensor(np.array([1.0], dtype=np.float64)).dtype == np.float64


def _tensor_calls(tree: ast.AST, in_tensor_module: bool, skip_def: str = "") -> set[str]:
    """Names of fcrg.tensor functions called in ``tree``, outside the def of ``skip_def``.

    A call counts when it goes through the module (``T.op(...)``,
    ``tensor.op(...)``), through a name imported from it (``from .tensor
    import op``) or, inside tensor.py, by its bare name.  Method calls that
    only share an op's name, such as ``visited.add(...)``, do not count.
    """
    modules: set[str] = set()
    imported: dict[str, str] = {}  # local name -> name in fcrg.tensor
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module in ("tensor", "fcrg.tensor"):
                    imported[alias.asname or alias.name] = alias.name
                elif node.module in (None, "fcrg") and alias.name == "tensor":
                    modules.add(alias.asname or alias.name)
    names: set[str] = set()

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef) and child.name == skip_def:
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in modules:
                    names.add(func.attr)
                elif isinstance(func, ast.Name) and (in_tensor_module or func.id in imported):
                    names.add(imported.get(func.id, func.id))
            visit(child)

    visit(tree)
    return names


def public_functions(tree: ast.Module) -> list[str]:
    """Names of the module's top-level functions that do not start with an underscore."""
    return [node.name for node in tree.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def uncalled_tensor_ops(package: Path) -> list[str]:
    """Public functions of ``package``/tensor.py that no module of ``package`` calls."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    return [
        name for name in public_functions(trees["tensor.py"])
        if not any(
            name in _tensor_calls(tree, file == "tensor.py", name if file == "tensor.py" else "")
            for file, tree in trees.items()
        )
    ]


def test_every_public_tensor_op_has_a_caller_in_src():
    unused = uncalled_tensor_ops(Path(T.__file__).parent)
    assert not unused, f"public ops of fcrg.tensor with no caller in src/fcrg: {unused}"


def test_caller_guard_flags_an_op_whose_name_only_methods_call(tmp_path):
    # ``backward`` calls ``visited.add`` and ``ParamStore`` has ``params.add``:
    # neither is a call of a tensor op named ``add``.
    package = tmp_path / "fcrg"
    shutil.copytree(Path(T.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    with (package / "tensor.py").open("a", encoding="utf-8") as f:
        f.write("\n\ndef add(a, b):\n    return Tensor(a.data + b.data)\n")
    assert uncalled_tensor_ops(package) == ["add"]
    (package / "caller.py").write_text("from . import tensor as T\n\nT.add(1, 2)\n", encoding="utf-8")
    assert uncalled_tensor_ops(package) == []


# The tape's contract, for every public op of fcrg.tensor: 2-D tensors in, a
# 2-D tensor out (the loss is a scalar), and a backward that reads the op's
# inputs and its own forward arrays, never its output.  ``backward`` walks the
# graph and ``attention_probs`` returns a plain array: neither records an op.
CONTRACT_EXEMPT = {"backward", "attention_probs"}


def op_samples(rng) -> dict:
    """Sample arguments of each op, its tensors 2-D; a new op must add its own."""
    def t(*shape):
        return Tensor(rng.standard_normal(shape))

    return {
        "matmul": (t(3, 4), t(4, 2)),
        "tanh": (t(3, 4),),
        "gru_scan": (t(6, 12), t(2, 4), t(4, 8), t(4, 4)),  # 2 rows of 3 steps, H = 4
        "concat": ([t(3, 2), t(3, 4)],),
        "take_rows": (t(5, 3), np.array([4, 0, 2])),
        "attention": (t(12, 5), t(6, 5), ATTENTION_MASK),  # 3 sources of 4 positions, 2 queries each
        "nll": (t(4, 6), np.array([1, 5, 1, 0])),
        "embedding_lookup": (t(4, 9), np.array([2, 0, 2])),
        "dropout": (t(3, 4), 0.5, rng.random((3, 4))),
    }


def shares_as_arrays(shares) -> list[np.ndarray]:
    return [a for share in shares for a in ((share.cols, share.sums) if isinstance(share, T.ColumnGrad) else (share,))]


CONTRACT_OPS = [
    name for name in public_functions(ast.parse(Path(T.__file__).read_text(encoding="utf-8")))
    if name not in CONTRACT_EXEMPT
]


@pytest.mark.parametrize("name", CONTRACT_OPS)
def test_op_maps_2d_rows_to_2d_rows_and_differentiates_from_its_inputs_alone(name):
    assert name in op_samples(np.random.default_rng(0)), f"fcrg.tensor.{name} has no sample input in op_samples"
    runs = []
    for poison in (False, True):
        out = getattr(T, name)(*op_samples(np.random.default_rng(5))[name])
        assert all(parent.data.ndim == 2 for parent in out._parents)
        assert out.data.ndim == (0 if name == "nll" else 2), out.shape
        if poison:
            out.data[...] = np.nan  # a backward that reads its output gives other gradients
        upstream = np.asarray(np.random.default_rng(6).standard_normal(out.shape))
        runs.append(shares_as_arrays(out.grad_fn(upstream)))
    clean, poisoned = runs
    for expected, got in zip(clean, poisoned, strict=True):
        assert np.isfinite(expected).all()
        assert_bit_equal(got, expected)
