"""Model tests: GRU cell, encoder masking, attention, loss oracle, training."""

import gc
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcrg import tensor as T
from fcrg.corpus import BOS, EOS, PAD, Batch, EncodedPair, make_batch
from fcrg import model as model_module
from fcrg.model import (
    FCRGModel,
    ModelConfig,
    encode_single,
    param_layout,
    train_model,
    validation_nll,
)
from fcrg.params import ParamStore, TrainConfig
from fcrg.tensor import ColumnGrad, Tensor, backward
from test_tensor import (
    add, assert_bit_equal, masked_nll, mul, one_minus, reduce_sum, reshape, sigmoid as sigmoid_op, softmax, stack,
)


def tiny_config(**overrides):
    base = dict(
        vocab_size=12, embed_dim=4, hidden_size=5, output_size=6,
        max_source_len=6, max_target_len=7, attention="dot",
        dropout=0.0, seed=3, dtype="float64",
    )
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------- scalar oracle

# The oracle below re-derives the whole forward pass with plain per-element
# numpy so any vectorization mistake in the model shows up as a mismatch.


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def oracle_gru_step(p, side, x, h):
    z = sigmoid(x @ p[f"{side}_update_x"] + h @ p[f"{side}_update_h"])
    r = sigmoid(x @ p[f"{side}_reset_x"] + h @ p[f"{side}_reset_h"])
    cand = np.tanh(x @ p[f"{side}_candidate_x"] + (r * h) @ p[f"{side}_candidate_h"])
    return (1 - z) * cand + z * h


def oracle_nll(model, source_rows, target_rows):
    """Per-sequence forward pass, one example at a time, summed NLL."""
    p = {name: t.data.copy() for name, t in model.params.items()}
    emb = p["embedding"]
    H = model.config.hidden_size
    total = 0.0
    for src, tgt in zip(source_rows, target_rows):
        states = []
        h = np.zeros(H)
        for token in src:
            h = oracle_gru_step(p, "enc", emb[:, token], h)
            states.append(h.copy())
        X = np.array(states)  # (L, H)
        h_dec = states[-1].copy()
        for j in range(len(tgt) - 1):
            h_dec = oracle_gru_step(p, "dec", emb[:, tgt[j]], h_dec)
            query = h_dec @ p["attn_bilinear"] if "attn_bilinear" in p else h_dec
            scores = X @ query
            attn = np.exp(scores - scores.max())
            attn /= attn.sum()
            context = attn @ X
            features = np.concatenate([context, h_dec])
            logits = np.tanh(features @ p["out_hidden"]) @ p["out_vocab"]
            log_probs = logits - logits.max()
            log_probs = log_probs - np.log(np.exp(log_probs).sum())
            total -= log_probs[tgt[j + 1]]
    return total


# ---------------------------------------------------------------- composed oracles

# The GRU cell, the attention context and the per-step output head as fcrg
# computed them before T.gru_scan, T.attention and the batched head: every
# piece a separate tensor op, so the tape's generic gradients check the
# hand-written and batched ones.


def gru_cell(x, h_prev, w_update, u_update, w_reset, u_reset, w_candidate, u_candidate) -> Tensor:
    """One GRU step in row convention: inputs (b, D), hidden (b, H)."""
    z = sigmoid_op(add(T.matmul(x, w_update), T.matmul(h_prev, u_update)))
    r = sigmoid_op(add(T.matmul(x, w_reset), T.matmul(h_prev, u_reset)))
    candidate = T.tanh(add(T.matmul(x, w_candidate), T.matmul(mul(r, h_prev), u_candidate)))
    return add(mul(one_minus(z), candidate), mul(z, h_prev))


def composed_attention(states, query, mask) -> Tensor:
    """The (k, H) context as eight tape ops: scores, mask, softmax and the weighted sum of states."""
    k, length = query.shape[0], states.shape[1]
    scores = reduce_sum(mul(states, reshape(query, (k, 1, query.shape[1]))), axis=2)  # (k, L)
    scores = add(scores, Tensor((mask - 1.0) * 1e30))
    attn = softmax(scores, axis=1)
    return reduce_sum(mul(states, reshape(attn, (k, length, 1))), axis=1)


def per_step_head_nll(model, batch, train):
    """sequence_nll with the output head and the loss applied at every decoder step."""
    target = batch.target
    encoded = model.encode(batch.source, batch.source_lengths, train=train)
    gru = model.gru_weights("dec")
    h = encoded.final
    pieces = []
    for j in range(target.shape[1] - 1):
        gold = target[:, j + 1]
        step_mask = (gold != PAD).astype(model.params["out_vocab"].dtype)
        if not step_mask.any():
            break
        out = model.decode_step(target[:, j], h, encoded, gru, train=train)
        h = out.hidden
        logits = T.matmul(T.tanh(T.matmul(out.features, model.params["out_hidden"])), model.params["out_vocab"])
        pieces.append(masked_nll(logits, gold, step_mask))
    return reduce_sum(stack(pieces, axis=0))


def assert_close_to_scale(actual, expected, rel):
    """Every entry within ``rel`` times the largest magnitude of ``expected`` (at least 1)."""
    assert actual.shape == expected.shape
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    assert np.abs(actual - expected).max(initial=0.0) <= rel * scale


@settings(max_examples=200, deadline=None)
@given(
    b=st.integers(1, 5), steps=st.integers(1, 6), d=st.integers(1, 8), n=st.integers(1, 8),
    scale=st.sampled_from([1.0, 30.0, 1e3]), constant_h0=st.booleans(), seed=st.integers(0, 2**32 - 1),
)
def test_gru_scan_matches_the_composed_cell_over_time(b, steps, d, n, scale, constant_h0, seed):
    # scale 30 and 1e3 saturate the gates (sigmoid and tanh at 0 or +-1).
    # constant_h0: the state before the first step is all zeros, as in the encoder; it gets its gradient too.
    rng = np.random.default_rng(seed)
    x, w = rng.standard_normal((b * steps, d)), rng.standard_normal((d, 3 * n))
    xw = (x @ w) * scale  # batch-major: row j * steps + t is row j's step t
    h0 = np.zeros((b, n)) if constant_h0 else rng.standard_normal((b, n)) * scale
    u_zr, u_c = rng.standard_normal((n, 2 * n)), rng.standard_normal((n, n))
    coeff = Tensor(rng.standard_normal((b, steps, n)))

    fused = [Tensor(a.copy()) for a in (xw, h0, u_zr, u_c)]
    out = reshape(T.gru_scan(*fused), (b, steps, n))  # the op's rows by step
    backward(reduce_sum(mul(out, coeff)))

    # The composed cell, looped over the steps, reads the three pre-activations
    # out of each step's rows of xw through 0/1 selector weights.
    pick = np.eye(3 * n)
    by_step = xw.reshape(b, steps, 3 * n)
    c_xws = [Tensor(by_step[:, t].copy()) for t in range(steps)]
    c_h0 = Tensor(h0.copy())
    c_uz, c_ur, c_uc = (Tensor(a.copy()) for a in (u_zr[:, :n], u_zr[:, n:], u_c))
    h, states = c_h0, []
    for c_xw in c_xws:
        h = gru_cell(c_xw, h, Tensor(pick[:, :n]), c_uz, Tensor(pick[:, n : 2 * n]), c_ur, Tensor(pick[:, 2 * n :]), c_uc)
        states.append(h)
    expected = stack(states, axis=1)
    backward(reduce_sum(mul(expected, coeff)))

    assert_close_to_scale(out.data, expected.data, 1e-12)
    assert_close_to_scale(fused[0].grad, np.stack([c.grad for c in c_xws], axis=1).reshape(xw.shape), 1e-12)
    assert_close_to_scale(fused[1].grad, c_h0.grad, 1e-12)
    assert_close_to_scale(fused[2].grad, np.concatenate([c_uz.grad, c_ur.grad], axis=1), 1e-12)
    assert_close_to_scale(fused[3].grad, c_uc.grad, 1e-12)


def attention_over_steps(states, queries, mask) -> Tensor:
    """``T.attention`` of every step's (k, H) queries at once, as k·T batch-major rows."""
    k, n = queries[0].shape
    return T.attention(states, reshape(stack(queries, axis=1), (k * len(queries), n)), mask)


def composed_attention_per_step(states, queries, mask) -> Tensor:
    """The composed chain applied to each step's queries, its contexts in the same rows."""
    k, n = queries[0].shape
    return reshape(stack([composed_attention(states, q, mask) for q in queries], axis=1), (k * len(queries), n))


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 5), steps=st.integers(1, 4), length=st.integers(1, 6), n=st.integers(1, 6),
    shared=st.booleans(), bilinear=st.booleans(), single=st.booleans(),
    dtype=st.sampled_from([np.float32, np.float64]), scale=st.sampled_from([1.0, 10.0]),
    seed=st.integers(0, 2**32 - 1),
)
# Float32 draws whose query gradients miss tighter bounds.  In the first the op and the
# float32 chain differ by 1.04e-4 on a gradient below 1 in size; in the second the op is
# 8.6e-5 off the float64 chain, the float32 chain 2.5e-5, and the largest gradient is 3.
@example(k=3, steps=3, length=5, n=6, shared=False, bilinear=True, single=False, dtype=np.float32, scale=10.0, seed=6)
@example(k=3, steps=1, length=5, n=5, shared=False, bilinear=False, single=False, dtype=np.float32, scale=10.0, seed=2476)
def test_attention_matches_the_composed_chain(k, steps, length, n, shared, bilinear, single, dtype, scale, seed):
    # shared: one source's states (1, L, H) against k queries, as in beam search.
    # steps: T query blocks of k rows each, row j·T + t, as in teacher forcing.
    # single: the first row has one real position.  scale 10 makes the weights peaked.
    rng = np.random.default_rng(seed)
    b = 1 if shared else k
    lengths = rng.integers(1, length + 1, size=b)
    if single:
        lengths[0] = 1
    mask = (np.arange(length)[None, :] < lengths[:, None]).astype(dtype)
    arrays = [rng.standard_normal((b, length, n)) * scale] + [rng.standard_normal((k, n)) for _ in range(steps)]
    if bilinear:
        arrays.append(rng.standard_normal((n, n)))
    arrays = [a.astype(dtype) for a in arrays]
    coeff = rng.standard_normal((k * steps, n)).astype(dtype)

    def run(context, run_dtype):
        leaves = [Tensor(a.astype(run_dtype)) for a in arrays]
        queries = leaves[1 : 1 + steps]
        if bilinear:
            queries = [T.matmul(q, leaves[-1]) for q in queries]
        out = context(leaves[0], queries, mask.astype(run_dtype))
        backward(reduce_sum(mul(out, Tensor(coeff.astype(run_dtype)))))
        return out.data, [leaf.grad for leaf in leaves]

    (out, grads), (expected, chain_grads) = run(attention_over_steps, dtype), run(composed_attention_per_step, dtype)
    assert_bit_equal(out, expected)
    if dtype == np.float64:
        for grad, chain_grad in zip(grads, chain_grads):
            assert_close_to_scale(grad, chain_grad, 1e-12)
        return
    # Each gradient entry sums products of a gradient-sized and a state-sized factor,
    # so with peaked weights float32 rounding alone can move it by more than 1e-5 of
    # the largest gradient.  Both float32 gradients are measured against the chain in
    # float64: the op may be off by 1e-5 of the largest gradient times the largest
    # state (each at least 1), or by twice the float32 chain's own error on that leaf.
    _, exact_grads = run(composed_attention_per_step, np.float64)
    largest_grad = max(1.0, max(float(np.abs(exact).max()) for exact in exact_grads))
    largest_state = max(1.0, float(np.abs(arrays[0]).max()))
    for grad, chain_grad, exact in zip(grads, chain_grads, exact_grads):
        chain_error = float(np.abs(chain_grad - exact).max())
        assert float(np.abs(grad - exact).max()) <= max(1e-5 * largest_grad * largest_state, 2.0 * chain_error)


def ragged_batch():
    pairs = [
        EncodedPair([4, 5, 6, 7, 8], [BOS, 9, 10, 11, 5, 6, EOS]),
        EncodedPair([8, 9], [BOS, 4, EOS]),
        EncodedPair([10, 11, 4], [BOS, 7, 7, 8, EOS]),
    ]
    return make_batch(pairs)


@pytest.mark.parametrize("attention", ["dot", "bilinear"])
@pytest.mark.parametrize("train", [True, False])
def test_batched_head_matches_the_per_step_head(attention, train):
    batch = ragged_batch()
    results = []
    for nll in (lambda m: m.sequence_nll(batch, train=train)[0], lambda m: per_step_head_nll(m, batch, train)):
        model = FCRGModel(tiny_config(attention=attention, dropout=0.2))
        loss = nll(model)
        backward(loss)
        results.append((loss.item(), {name: t.grad for name, t in model.params.items()}))
    (loss, grads), (expected_loss, expected_grads) = results
    assert loss == pytest.approx(expected_loss, rel=1e-12)
    assert grads.keys() == expected_grads.keys()
    for name, grad in grads.items():
        assert_close_to_scale(grad, expected_grads[name], 1e-12)


def recorded_tensors(loss) -> list[Tensor]:
    """The distinct tensors recorded under ``loss``, leaves and ``loss`` included."""
    seen, todo = {id(loss): loss}, [loss]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                todo.append(parent)
    return list(seen.values())


def graph_size(loss) -> int:
    """Number of distinct tensors recorded under ``loss``, leaves included."""
    return len(recorded_tensors(loss))


@pytest.mark.parametrize("attention", ["dot", "bilinear"])
@pytest.mark.parametrize("train", [True, False])
def test_sequence_nll_records_2d_rows_only_but_the_scalar_loss(attention, train):
    model = FCRGModel(tiny_config(attention=attention, dropout=0.2))
    loss, _ = model.sequence_nll(ragged_batch(), train=train)
    shapes = [t.shape for t in recorded_tensors(loss) if t is not loss]
    assert loss.shape == () and len(shapes) > 20
    assert [shape for shape in shapes if len(shape) != 2] == []


@pytest.mark.parametrize("train", [True, False])
def test_sequence_nll_tape_size_does_not_grow_with_the_lengths(train):
    # Each recurrence is one op, so longer sources and targets record no more nodes.
    short = make_batch([EncodedPair([4], [BOS, EOS])])
    long = make_batch([EncodedPair([4, 5, 6, 7, 8, 9], [BOS, 9, 10, 11, 5, 6, EOS]), EncodedPair([8, 9], [BOS, 4, EOS])])
    model = FCRGModel(tiny_config(attention="bilinear", dropout=0.2))
    sizes = [graph_size(model.sequence_nll(batch, train=train)[0]) for batch in (short, long)]
    assert sizes[0] == sizes[1]


def test_sequence_nll_runs_the_head_and_the_loss_once_per_batch(monkeypatch):
    model = FCRGModel(tiny_config(attention="bilinear"))
    head = {id(model.params["out_hidden"]): "out_hidden", id(model.params["out_vocab"]): "out_vocab"}
    calls = []
    matmul, nll = T.matmul, T.nll
    monkeypatch.setattr(T, "matmul", lambda a, b: calls.append(head.get(id(b), "other")) or matmul(a, b))
    monkeypatch.setattr(T, "nll", lambda *args: calls.append("nll") or nll(*args))
    model.sequence_nll(ragged_batch(), train=True)
    assert calls.count("out_hidden") == calls.count("out_vocab") == calls.count("nll") == 1


@pytest.mark.parametrize("train", [True, False])
def test_the_head_and_the_loss_see_only_the_real_rows(monkeypatch, train):
    model = FCRGModel(tiny_config(attention="bilinear", dropout=0.2))
    batch = ragged_batch()
    head = {id(model.params["out_hidden"]): "out_hidden", id(model.params["out_vocab"]): "out_vocab"}
    rows = []
    matmul, nll = T.matmul, T.nll

    def counted_matmul(a, b):
        if id(b) in head:
            rows.append((head[id(b)], a.shape[0]))
        return matmul(a, b)

    def counted_nll(logits, *args):
        rows.append(("nll", logits.shape[0]))
        return nll(logits, *args)

    monkeypatch.setattr(T, "matmul", counted_matmul)
    monkeypatch.setattr(T, "nll", counted_nll)
    _, token_count = model.sequence_nll(batch, train=train)
    assert token_count < batch.target[:, 1:].size  # the batch is ragged: some (row, step) pairs are padding
    assert rows == [("out_hidden", token_count), ("out_vocab", token_count), ("nll", token_count)]


def accumulate_grad_before_copy(self, g):
    """Tensor.accumulate_grad as it was: every first dense gradient is zeros plus ``g``."""
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    if isinstance(g, ColumnGrad):
        self.grad[:, g.cols] += g.sums.T
    else:
        self.grad += g


@pytest.mark.parametrize("attention", ["dot", "bilinear"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_first_gradient_copy_is_bit_equal_to_zeros_plus_gradient(monkeypatch, attention, dtype):
    batch = ragged_batch()
    grads = []
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(Tensor, "accumulate_grad", accumulate_grad_before_copy)
        model = FCRGModel(tiny_config(attention=attention, dtype=dtype, dropout=0.2))
        loss, _ = model.sequence_nll(batch, train=True)
        backward(loss)
        grads.append({name: (t.grad.dtype, t.grad.tobytes()) for name, t in model.params.items()})
    assert grads[0] == grads[1]


@pytest.mark.parametrize("attention", ["dot", "bilinear"])
def test_sequence_nll_matches_scalar_oracle(attention):
    model = FCRGModel(tiny_config(attention=attention))
    sources = [[4, 5, 6, 7], [8, 9, 10]]
    targets = [[BOS, 5, 6, EOS], [BOS, 7, EOS]]
    batch = make_batch([EncodedPair(s, t) for s, t in zip(sources, targets)])
    loss, tokens = model.sequence_nll(batch)
    assert tokens == 3 + 2
    assert loss.item() == pytest.approx(oracle_nll(model, sources, targets), rel=1e-10)


def test_gru_cell_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    D, H = 3, 4
    names = [f"enc_{g}_{xh}" for g in ("update", "reset", "candidate") for xh in ("x", "h")]
    p = {n: rng.standard_normal((D if n.endswith("x") else H, H)) for n in names}
    x = rng.standard_normal((2, D))
    h = rng.standard_normal((2, H))
    out = gru_cell(
        Tensor(x), Tensor(h),
        Tensor(p["enc_update_x"]), Tensor(p["enc_update_h"]),
        Tensor(p["enc_reset_x"]), Tensor(p["enc_reset_h"]),
        Tensor(p["enc_candidate_x"]), Tensor(p["enc_candidate_h"]),
    )
    for row in range(2):
        expected = oracle_gru_step(p, "enc", x[row], h[row])
        assert np.allclose(out.data[row], expected, atol=1e-12)


def test_gru_gates_interpolate():
    # with update gate saturated toward 1 the state barely moves
    rng = np.random.default_rng(1)
    D, H = 3, 4
    big = np.full((D, H), 50.0)
    zero = np.zeros((H, H))
    x = rng.standard_normal((1, D)) + 2.0  # keep x @ big strongly positive
    x = np.abs(x)
    h = rng.standard_normal((1, H))
    out = gru_cell(
        Tensor(x), Tensor(h),
        Tensor(big), Tensor(zero),
        Tensor(np.zeros((D, H))), Tensor(zero),
        Tensor(rng.standard_normal((D, H))), Tensor(rng.standard_normal((H, H))),
    )
    assert np.allclose(out.data, h, atol=1e-8)


# ---------------------------------------------------------------- initialization


def test_init_shapes():
    model = FCRGModel(tiny_config(attention="bilinear"))
    cfg = model.config
    p = model.params
    assert p["embedding"].shape == (cfg.embed_dim, cfg.vocab_size)
    assert p["enc_update_x"].shape == (cfg.embed_dim, cfg.hidden_size)
    assert p["attn_bilinear"].shape == (cfg.hidden_size, cfg.hidden_size)
    assert p["out_hidden"].shape == (2 * cfg.hidden_size, cfg.output_size)
    assert p["out_vocab"].shape == (cfg.output_size, cfg.vocab_size)


def test_init_embedding_standard_normal():
    model = FCRGModel(tiny_config(vocab_size=500, embed_dim=50))
    emb = model.params["embedding"].data
    assert abs(emb.mean()) < 0.05
    assert abs(emb.std() - 1.0) < 0.05


@pytest.mark.parametrize(
    "attention, digest",
    [
        ("dot", "eb64e0bdea766579c9a476396aa871ae747eb0f0e1bcb8e43a986a990e44bc13"),
        ("bilinear", "ba457831a0155aaedae83233019acbf663fb179c90f3388038df279f0756ff08"),
    ],
)
def test_init_draws_are_pinned(attention, digest):
    """Names, order and values of a fresh model's parameters never drift."""
    h = hashlib.sha256()
    for name, t in FCRGModel(tiny_config(attention=attention)).params.items():
        h.update(name.encode())
        h.update(t.data.tobytes())
    assert h.hexdigest() == digest


def _entries(model):
    return [(name, t.data) for name, t in model.params.items()]


# (config overrides at load, edit of the saved (name, value) list, expected message)
LAYOUT_FAULTS = {
    "vocab-size": ({"vocab_size": 13}, lambda e: e, r"\('embedding', \(4, 13\), 'float64'\)"),
    "missing": ({}, lambda e: e[:-1], r"expected \[\('out_vocab', \(6, 12\)"),
    "extra": ({}, lambda e: e + [("layers", np.zeros(2))], r"found \[\('layers', \(2,\)"),
    "dtype": ({}, lambda e: [(n, v.astype(np.float32)) for n, v in e], r"'float32'"),
    "attention": ({"attention": "bilinear"}, lambda e: e, r"expected \[\('attn_bilinear'"),
}


@pytest.mark.parametrize("fault", sorted(LAYOUT_FAULTS))
def test_params_must_match_the_config_layout(fault):
    overrides, edit, match = LAYOUT_FAULTS[fault]
    store = ParamStore()
    for name, value in edit(_entries(FCRGModel(tiny_config()))):
        store.add(name, value)
    with pytest.raises(ValueError, match=match):
        FCRGModel(tiny_config(**overrides), params=store)


def test_params_matching_the_config_layout_are_used():
    model = FCRGModel(tiny_config(attention="bilinear"))
    store = ParamStore()
    for name, value in _entries(model):
        store.add(name, value)
    loaded = FCRGModel(tiny_config(attention="bilinear"), params=store)
    assert loaded.params is store


def test_init_other_weights_bounded():
    model = FCRGModel(tiny_config())
    bound = 1.0 / np.sqrt(model.config.hidden_size)
    for name, t in model.params.items():
        if name != "embedding":
            assert np.abs(t.data).max() <= bound


def whole_array_init(config):
    """The oracle: each parameter drawn whole in float64, then cast."""
    rng = np.random.default_rng(config.seed)
    bound = 1.0 / np.sqrt(config.hidden_size)
    values = {}
    for name, shape in param_layout(config):
        value = rng.standard_normal(shape) if name == "embedding" else rng.uniform(-bound, bound, size=shape)
        values[name] = value.astype(config.dtype)
    return values


@pytest.mark.parametrize("block", [1, 7, 40, model_module.INIT_BLOCK])
@pytest.mark.parametrize("attention", ["dot", "bilinear"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_streamed_init_matches_whole_array_draws(monkeypatch, block, attention, dtype):
    # Blocks of one row, of several rows with a short last block, and of whole parameters.
    monkeypatch.setattr(model_module, "INIT_BLOCK", block)
    config = ModelConfig(vocab_size=23, embed_dim=9, hidden_size=7, output_size=5, attention=attention, dtype=dtype)
    model = FCRGModel(config)
    oracle = whole_array_init(config)
    assert model.params.names() == list(oracle)
    for name, t in model.params.items():
        assert t.dtype == oracle[name].dtype and t.data.tobytes() == oracle[name].tobytes(), name


def test_init_peak_memory_is_the_parameters_and_one_draw_block():
    # Streamed draws add one float64 block of rows to the parameters P
    # (1.06 P here); whole-array draws add a float64 copy of the largest
    # parameter (1.99 P).
    FCRGModel(tiny_config())  # numpy's first draws and casts allocate once per process
    config = ModelConfig(vocab_size=8000, embed_dim=64, hidden_size=16, output_size=64, seed=4)
    param_bytes = sum(math.prod(shape) * 4 for _, shape in param_layout(config))
    tracemalloc.start()
    try:
        model = FCRGModel(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(t.data.nbytes for _, t in model.params.items()) == param_bytes
    assert peak <= 1.1 * param_bytes, peak / param_bytes


def test_init_deterministic_under_seed():
    a = FCRGModel(tiny_config(seed=9))
    b = FCRGModel(tiny_config(seed=9))
    for name, t in a.params.items():
        assert np.array_equal(t.data, b.params[name].data)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(attention="additive")
    with pytest.raises(ValueError):
        tiny_config(dropout=1.0)
    with pytest.raises(ValueError):
        tiny_config(vocab_size=0)
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        tiny_config(seed=-1)


# ---------------------------------------------------------------- encoder and attention


def by_position(encoded) -> np.ndarray:
    """The encoder's (b·L, H) state rows viewed as (b, L, H)."""
    return encoded.states.data.reshape(*encoded.mask.shape, -1)


def test_encoder_padding_invariance():
    model = FCRGModel(tiny_config())
    short = model.encode(np.array([[4, 5, 6]]), np.array([3]))
    padded = model.encode(np.array([[4, 5, 6, PAD, PAD]]), np.array([3]))
    assert np.allclose(short.final.data, padded.final.data, atol=0)
    assert np.allclose(by_position(short), by_position(padded)[:, :3], atol=0)
    assert padded.mask[0].tolist() == [1, 1, 1, 0, 0]


@settings(max_examples=100, deadline=None)
@given(
    dtype=st.sampled_from(["float32", "float64"]), train=st.booleans(), seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 6), data=st.data(),
)
def test_encoder_final_is_the_last_real_state_and_takes_only_its_gradient(dtype, train, seed, length, data):
    # Ragged lengths from 1 to L; the gradient that reaches the stacked states
    # from ``final`` alone must be exactly ``coeff`` at each last real position.
    lengths = np.array(data.draw(st.lists(st.integers(1, length), min_size=1, max_size=5)))
    model =FCRGModel(tiny_config(dtype=dtype, dropout=0.2, seed=seed % 1000))
    rng = np.random.default_rng(seed)
    positions = np.arange(length)[None, :]
    source = np.where(positions < lengths[:, None], rng.integers(4, 12, size=(lengths.size, length)), PAD)
    encoded = model.encode(source, lengths, train=train)
    rows, last = np.arange(lengths.size), lengths - 1
    assert np.array_equal(encoded.final.data, by_position(encoded)[rows, last])

    coeff = rng.standard_normal(encoded.final.shape).astype(dtype)
    arrived = []
    accumulate = Tensor.accumulate_grad

    def record(self, g):
        if self is encoded.states:
            arrived.append(np.array(g))
        accumulate(self, g)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Tensor, "accumulate_grad", record)
        backward(reduce_sum(mul(encoded.final, Tensor(coeff))))
    expected = np.zeros(encoded.states.shape, dtype=dtype)
    expected.reshape(*encoded.mask.shape, -1)[rows, last] = coeff
    assert len(arrived) == 1
    assert np.array_equal(arrived[0], expected)


def test_encoder_rejects_a_length_beyond_the_source():
    # Row 1 claims 3 tokens in 2 positions: it has no last real state to return.
    model = FCRGModel(tiny_config())
    with pytest.raises(ValueError, match=r"must be in \[1, 2\], got \[2, 3\]"):
        model.encode(np.array([[4, 5], [6, 7]]), np.array([2, 3]))


def test_encoder_batch_rows_independent():
    model = FCRGModel(tiny_config())
    both = model.encode(np.array([[4, 5, 6], [7, 8, PAD]]), np.array([3, 2]))
    solo = model.encode(np.array([[7, 8]]), np.array([2]))
    assert np.allclose(both.final.data[1], solo.final.data[0], atol=1e-12)


def test_attention_is_distribution_and_masks_padding():
    model = FCRGModel(tiny_config())
    encoded = model.encode(np.array([[4, 5, 6, PAD]]), np.array([3]))
    h = Tensor(np.random.default_rng(0).standard_normal((1, model.config.hidden_size)))
    attn = model.attention_weights(encoded, h)
    assert attn.data[0, 3] == 0.0
    assert attn.data[0].sum() == pytest.approx(1.0)
    assert (attn.data >= 0).all()


def test_attention_dot_matches_hand_softmax():
    model = FCRGModel(tiny_config())
    encoded = model.encode(np.array([[4, 5, 6]]), np.array([3]))
    h = Tensor(np.random.default_rng(1).standard_normal((1, model.config.hidden_size)))
    attn = model.attention_weights(encoded, h).data[0]
    scores = by_position(encoded)[0] @ h.data[0]
    expected = np.exp(scores - scores.max())
    expected /= expected.sum()
    assert np.allclose(attn, expected, atol=1e-12)


def test_bilinear_identity_reduces_to_dot():
    dot_model = FCRGModel(tiny_config(attention="dot"))
    bi_model = FCRGModel(tiny_config(attention="bilinear"))
    for name, t in dot_model.params.items():
        bi_model.params[name].data = t.data.copy()
    bi_model.params["attn_bilinear"].data = np.eye(bi_model.config.hidden_size)

    batch = make_batch([EncodedPair([4, 5, 6], [BOS, 7, 8, EOS])])
    a, _ = dot_model.sequence_nll(batch)
    b, _ = bi_model.sequence_nll(batch)
    assert a.item() == pytest.approx(b.item(), abs=1e-12)


def test_loss_invariant_to_batch_padding():
    model = FCRGModel(tiny_config())
    p1 = EncodedPair([4, 5, 6, 7], [BOS, 8, 9, 10, EOS])
    p2 = EncodedPair([8, 9], [BOS, 4, EOS])
    joint, n_joint = model.sequence_nll(make_batch([p1, p2]))
    solo1, n1 = model.sequence_nll(make_batch([p1]))
    solo2, n2 = model.sequence_nll(make_batch([p2]))
    assert n_joint == n1 + n2
    assert joint.item() == pytest.approx(solo1.item() + solo2.item(), rel=1e-12)


def test_token_count_is_the_number_of_scored_rows():
    # Gold tokens after an all-PAD gold column are never scored, so they are not counted.
    model = FCRGModel(tiny_config())
    source, lengths = np.array([[4, 5]]), np.array([2])
    holed, n_holed = model.sequence_nll(Batch(source, np.array([[BOS, 5, PAD, 6, EOS]]), lengths))
    short, n_short = model.sequence_nll(Batch(source, np.array([[BOS, 5]]), lengths))
    assert n_holed == n_short == 1
    assert holed.item() == short.item()


def test_training_step_graph_is_freed_without_the_cycle_collector():
    model = FCRGModel(tiny_config(dropout=0.3))
    batch = make_batch([EncodedPair([4, 5, 6, 7], [BOS, 8, 9, EOS]), EncodedPair([8, 9], [BOS, 4, EOS])])
    gc.collect()
    gc.disable()
    try:
        loss, _ = model.sequence_nll(batch, train=True)
        backward(loss)
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert all(t.grad is not None for _, t in model.params.items())


def test_dropout_changes_train_loss_but_not_eval():
    model = FCRGModel(tiny_config(dropout=0.3))
    batch = make_batch([EncodedPair([4, 5, 6], [BOS, 7, 8, EOS])])
    eval1, _ = model.sequence_nll(batch, train=False)
    eval2, _ = model.sequence_nll(batch, train=False)
    assert eval1.item() == eval2.item()
    train1, _ = model.sequence_nll(batch, train=True)
    train2, _ = model.sequence_nll(batch, train=True)
    assert train1.item() != train2.item()  # different dropout masks


# ---------------------------------------------------------------- training loop


def toy_dataset(n=8):
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(n):
        src = rng.integers(4, 12, size=3).tolist()
        pairs.append(EncodedPair(src, [BOS] + src + [EOS]))
    return pairs


def test_training_reduces_loss():
    pairs = toy_dataset()
    model = FCRGModel(tiny_config(dtype="float32", hidden_size=8))
    config = TrainConfig(max_epochs=30, patience=30, batch_size=4, learning_rate=0.01)
    before = validation_nll(model, pairs)
    history = []
    result = train_model(model, pairs, pairs, config, log=history.append)
    assert result.best_validation_nll < before
    assert history[0].train_nll_per_token > history[-1].train_nll_per_token


def test_training_restores_best_parameters():
    pairs = toy_dataset()
    model = FCRGModel(tiny_config(dtype="float32", hidden_size=8))
    config = TrainConfig(max_epochs=15, patience=2, batch_size=4, learning_rate=0.05)
    result = train_model(model, pairs, pairs, config)
    assert validation_nll(model, pairs) == pytest.approx(result.best_validation_nll, rel=1e-5)


def test_training_early_stops():
    pairs = toy_dataset()
    model = FCRGModel(tiny_config(dtype="float32", hidden_size=8))
    # huge learning rate: validation soon stops improving
    config = TrainConfig(max_epochs=50, patience=2, batch_size=8, learning_rate=2.0)
    history = []
    train_model(model, pairs, pairs, config, log=history.append)
    assert len(history) < 50


def _count_state_calls(monkeypatch) -> list:
    calls = []
    state = ParamStore.state

    def counted(self):
        calls.append(1)
        return state(self)

    monkeypatch.setattr(ParamStore, "state", counted)
    return calls


def test_one_epoch_training_copies_no_parameters(monkeypatch):
    calls = _count_state_calls(monkeypatch)
    model = FCRGModel(tiny_config(dtype="float32", hidden_size=8))
    result = train_model(model, toy_dataset(), toy_dataset(), TrainConfig(max_epochs=1, batch_size=4))
    assert result.best_epoch == 1 and calls == []


def test_early_stopped_training_ends_on_the_best_epoch_parameters(monkeypatch):
    calls = _count_state_calls(monkeypatch)
    pairs = toy_dataset()
    model = FCRGModel(tiny_config(dtype="float32", hidden_size=8))
    seen = {}

    def record(r):
        seen[r.epoch] = {name: t.data.copy() for name, t in model.params.items()}

    # The huge learning rate stops validation from improving soon after the first epochs.
    config = TrainConfig(max_epochs=50, patience=2, batch_size=4, learning_rate=2.0)
    result = train_model(model, pairs, pairs, config, log=record)
    last = max(seen)
    assert result.best_epoch < last
    for name, t in model.params.items():
        assert t.data.tobytes() == seen[result.best_epoch][name].tobytes(), name
        assert t.data.tobytes() != seen[last][name].tobytes(), name
    assert 1 <= len(calls) <= result.best_epoch  # one copy per improving epoch that a later epoch moved


def test_training_peak_memory_is_one_tape_over_the_parameters():
    # Two float32 steps with V = 2000 and 16-wide layers, so the (n, V) logits
    # dominate the tape.  Step 2's backward must hold no more than the
    # parameters, their gradients and Adam's two moments (4 P), the logits,
    # whose array the loss's gradient is written over (1 L), and the rest of
    # one narrow tape (well under L / 4); it reads 4 P + 1.16 L.  A tape kept
    # from the previous step or an extra (n, V) array, such as a softmax
    # gradient beside the logits (4 P + 2.15 L), breaks it.
    vocab = 2000
    rng = np.random.default_rng(5)

    def split(count):
        return [
            EncodedPair(rng.integers(4, vocab, size=rng.integers(3, 12)).tolist(),
                        [BOS] + rng.integers(4, vocab, size=10).tolist() + [EOS])
            for _ in range(count)
        ]

    train, val = split(64), split(32)
    model = FCRGModel(ModelConfig(vocab_size=vocab, embed_dim=16, hidden_size=16, output_size=16, dropout=0.2, seed=1))
    param_bytes = sum(t.data.nbytes for _, t in model.params.items())
    logit_bytes = 32 * 11 * vocab * 4  # every batch scores 32 rows x 11 steps
    tracemalloc.start()
    try:
        train_model(model, train, val, TrainConfig(max_epochs=1, batch_size=32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * param_bytes + 1.25 * logit_bytes, (peak - 4 * param_bytes) / logit_bytes


def test_training_deterministic():
    pairs = toy_dataset()
    histories = []
    for _ in range(2):
        model = FCRGModel(tiny_config(dtype="float64", hidden_size=8))
        config = TrainConfig(max_epochs=3, patience=3, batch_size=4)
        histories.append([])
        train_model(model, pairs, pairs, config, shuffle_seed=1, log=histories[-1].append)
    a, b = histories
    assert [r.validation_nll_per_token for r in a] == [r.validation_nll_per_token for r in b]


def test_encode_single_matches_batched():
    model = FCRGModel(tiny_config())
    single = encode_single(model, [4, 5, 6])
    batched = model.encode(np.array([[4, 5, 6]]), np.array([3]))
    assert np.allclose(single.final.data, batched.final.data, atol=0)
