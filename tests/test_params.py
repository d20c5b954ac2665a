"""Parameter store, clipping, Adam and checkpoint tests."""

import json
import tracemalloc

from fcrg import corpus, params

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcrg.params import (
    ADAM_BLOCK,
    CHECKPOINT_MAGIC,
    ParamStore,
    TrainConfig,
    finite_diff_check,
    finite_diff_report,
    load_checkpoint,
    save_checkpoint,
)
from fcrg import tensor as T
from test_tensor import mul, reduce_sum


def store_with(grads: dict[str, np.ndarray]) -> ParamStore:
    store = ParamStore()
    for name, g in grads.items():
        t = store.add(name, np.zeros_like(g))
        t.grad = g.copy()
    return store


# ---------------------------------------------------------------- clipping


def test_clip_factor_when_over():
    # global norm 0.5 with clip 0.25 -> factor 0.5
    store = store_with({"w": np.array([0.3, 0.4])})
    assert store.clip_gradients(0.25) == pytest.approx(0.5)
    assert store.grad_norm() == pytest.approx(0.25)


def test_clip_noop_when_under():
    store = store_with({"w": np.array([0.06, 0.08])})  # norm 0.1
    assert store.clip_gradients(0.25) == 1.0
    assert store.grad_norm() == pytest.approx(0.1)


def test_clip_norm_is_global_across_params():
    store = store_with({"a": np.array([3.0]), "b": np.array([4.0])})
    factor = store.clip_gradients(0.25)
    assert factor == pytest.approx(0.05)
    assert store.grad_norm() <= 0.25 + 1e-6


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_clip_rejects_non_finite_norm(bad):
    store = store_with({"a": np.array([0.3, 0.4]), "b": np.array([bad])})
    with pytest.raises(ValueError, match=f"gradient norm is {bad}"):
        store.clip_gradients(0.25)
    assert np.array_equal(store["a"].grad, [0.3, 0.4])


def test_clip_bound_holds_randomized():
    rng = np.random.default_rng(0)
    for _ in range(20):
        store = store_with({f"p{i}": rng.standard_normal(rng.integers(1, 6)) for i in range(3)})
        store.clip_gradients(0.25)
        assert store.grad_norm() <= 0.25 + 1e-6


@pytest.mark.parametrize("shape", [(7,), (513, 3), (300, 300), (300, 20000)])
def test_grad_norm_bit_equal_to_two_temporary_formula(shape):
    rng = np.random.default_rng(sum(shape))
    for scale in (1e-4, 1.0, 1e3):
        g = (rng.standard_normal(shape) * scale).astype(np.float32)
        expected = float(np.sqrt(float((g.astype(np.float64) ** 2).sum())))
        assert store_with({"g": g}).grad_norm() == expected


@pytest.mark.parametrize("size", [ADAM_BLOCK, ADAM_BLOCK + 1, 2 * ADAM_BLOCK + 8, 12_345_679])
def test_blocked_grad_norm_is_bit_equal_at_the_leaf_boundaries(size):
    # One leaf, the first split, a split whose halves are leaves, and a deep odd split.
    g = np.random.default_rng(size).standard_normal(size, dtype=np.float32) * 3
    store = ParamStore()
    store.add("g", np.zeros(1, dtype=np.float32)).grad = g
    store.add("h", np.zeros(1, dtype=np.float32)).grad = g[:ADAM_BLOCK // 3]
    expected = float(np.square(g, dtype=np.float64).sum()) + float(np.square(g[:ADAM_BLOCK // 3], dtype=np.float64).sum())
    assert store.grad_norm() == float(np.sqrt(expected))


# ---------------------------------------------------------------- adam


def adam_oracle(theta, grads, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """Reference Adam trajectory computed directly from the update formulas."""
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    out = []
    for t, g in enumerate(grads, 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.append(theta.copy())
    return out


def test_adam_matches_reference_over_three_steps():
    rng = np.random.default_rng(1)
    theta0 = rng.standard_normal(5)
    grads = [rng.standard_normal(5) for _ in range(3)]
    expected = adam_oracle(theta0.copy(), grads)

    store = ParamStore()
    w = store.add("w", theta0.copy())
    config = TrainConfig()
    for t, g in enumerate(grads, 1):
        w.grad = g.copy()
        store.adam_step(config, t)
        assert np.allclose(w.data, expected[t - 1], atol=1e-12)


def test_adam_zeroes_grads_after_step():
    store = store_with({"w": np.array([1.0])})
    store.adam_step(TrainConfig(), 1)
    assert store["w"].grad is None


def test_adam_in_place_is_bit_equal_to_out_of_place_formulas():
    """The in-place update keeps the operation order of the plain formulas."""
    rng = np.random.default_rng(4)
    config = TrainConfig()
    b1, b2 = config.beta1, config.beta2
    theta = {name: rng.standard_normal(shape).astype(np.float32) for name, shape in (("a", (3, 4)), ("b", (5,)))}
    store = ParamStore()
    for name, value in theta.items():
        store.add(name, value.copy())
    m = {name: np.zeros_like(value) for name, value in theta.items()}
    v = {name: np.zeros_like(value) for name, value in theta.items()}
    for t in range(1, 6):
        grads = {name: rng.standard_normal(value.shape).astype(np.float32) for name, value in theta.items()}
        if t in (2, 4):
            grads["b"] = None  # no gradient reached "b" on this step
        for name, g in grads.items():
            store[name].grad = None if g is None else g.copy()
        store.adam_step(config, t)
        for name, g in grads.items():
            if g is None:
                g = np.zeros_like(theta[name])
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * g * g
            m_hat = m[name] / (1.0 - b1**t)
            v_hat = v[name] / (1.0 - b2**t)
            theta[name] = theta[name] - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
            assert store[name].dtype == np.float32
            assert np.array_equal(store[name].data, theta[name]), (name, t)


def test_adam_is_bit_equal_to_out_of_place_formulas_on_a_large_parameter():
    """Enough elements that a reordered product or quotient changes some bits."""
    rng = np.random.default_rng(5)
    config = TrainConfig()
    b1, b2, lr, eps = config.beta1, config.beta2, config.learning_rate, config.epsilon
    theta = rng.standard_normal((200, 300)).astype(np.float32)
    store = ParamStore()
    store.add("w", theta.copy())
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    for t in range(1, 4):
        g = (rng.standard_normal(theta.shape) * 10.0 ** rng.uniform(-6, 0, theta.shape)).astype(np.float32)
        store["w"].grad = g.copy()
        store.adam_step(config, t)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        theta = theta - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
        assert store["w"].data.tobytes() == theta.tobytes(), t


def test_blocked_adam_is_bit_equal_to_out_of_place_formulas():
    """Whole blocks, a ragged last block, a missing gradient, two dtypes in one store and a
    Fortran-ordered parameter all give the bits of the whole-array formulas."""
    rng = np.random.default_rng(6)
    config = TrainConfig()
    b1, b2, lr, eps = config.beta1, config.beta2, config.learning_rate, config.epsilon
    theta = {
        "a": rng.standard_normal(2 * ADAM_BLOCK + 7).astype(np.float32),
        "b": rng.standard_normal((5, ADAM_BLOCK // 4 + 3)),  # float64, two blocks
        "c": np.asfortranarray(rng.standard_normal((3, 4)).astype(np.float32)),  # its gradients are C-ordered
    }
    missing = {"a": (2, 4), "b": (3,), "c": (1,)}  # the steps on which no gradient reaches each
    store = ParamStore()
    for name, value in theta.items():
        store.add(name, value.copy(order="K"))  # "K" keeps "c" Fortran-ordered
    m = {name: np.zeros_like(value) for name, value in theta.items()}
    v = {name: np.zeros_like(value) for name, value in theta.items()}
    for t in range(1, 6):
        grads = {}
        for name, value in theta.items():
            scale = 10.0 ** rng.uniform(-6, 0, value.shape)
            g = (rng.standard_normal(value.shape) * scale).astype(value.dtype)
            grads[name] = None if t in missing[name] else g
            store[name].grad = None if t in missing[name] else g.copy()
        store.adam_step(config, t)
        for name, g in grads.items():
            if g is None:
                g = np.zeros_like(theta[name])
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * g * g
            theta[name] = theta[name] - lr * (m[name] / (1.0 - b1**t)) / (np.sqrt(v[name] / (1.0 - b2**t)) + eps)
            assert store[name].dtype == theta[name].dtype
            assert store[name].data.tobytes() == np.ascontiguousarray(theta[name]).tobytes(), (name, t)


def test_adam_state_is_made_by_the_first_step(tmp_path):
    store = ParamStore()
    store.add("w", np.ones(4, dtype=np.float32))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, {})
    loaded, _ = load_checkpoint(path)
    assert loaded._moments == {}
    loaded["w"].grad = np.ones(4, dtype=np.float32)
    loaded.adam_step(TrainConfig(), 1)
    assert list(loaded._moments) == ["w"]


def test_adam_rejects_bad_step_index():
    with pytest.raises(ValueError):
        ParamStore().adam_step(TrainConfig(), 0)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)


# ---------------------------------------------------------------- store basics


def test_duplicate_name_rejected():
    store = ParamStore()
    store.add("w", np.zeros(2))
    with pytest.raises(ValueError, match="duplicate"):
        store.add("w", np.zeros(2))


def test_unknown_partition_rejected():
    with pytest.raises(ValueError, match="partition"):
        ParamStore().add("w", np.zeros(2), partition="nowhere")


def test_state_roundtrip():
    store = ParamStore()
    w = store.add("w", np.arange(4.0))
    snapshot = store.state()
    w.data += 10.0
    store.load_state(snapshot)
    assert np.allclose(w.data, np.arange(4.0))


def test_load_state_keeps_the_given_array_and_still_checks_its_shape():
    store = ParamStore()
    w = store.add("w", np.zeros((2, 3), dtype=np.float32))
    value = np.ones((2, 3), dtype=np.float32)
    store.load_state({"w": value})
    assert w.data is value
    other_dtype = np.full((2, 3), 2.0)
    store.load_state({"w": other_dtype})
    assert w.data.dtype == np.float32 and not np.shares_memory(w.data, other_dtype)
    with pytest.raises(ValueError, match=r"state shape mismatch for 'w': \(2, 3\) vs \(3, 2\)"):
        store.load_state({"w": np.ones((3, 2), dtype=np.float32)})
    assert np.array_equal(w.data, np.full((2, 3), 2.0, dtype=np.float32))


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip(tmp_path):
    store = ParamStore()
    rng = np.random.default_rng(2)
    store.add("embedding", rng.standard_normal((3, 7)).astype(np.float32), partition="shared")
    store.add("enc_w", rng.standard_normal((3, 4)).astype(np.float32), partition="encoder")
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, {"vocab_size": 7}, seed=5, epoch=2)

    loaded, meta = load_checkpoint(path)
    assert meta["seed"] == 5 and meta["epoch"] == 2
    assert meta["config"] == {"vocab_size": 7}
    assert loaded.names() == store.names()
    assert loaded.partition("enc_w") == "encoder"
    for name in store.names():
        assert np.array_equal(loaded[name].data, store[name].data)


def test_checkpoint_bytes_deterministic(tmp_path):
    store = ParamStore()
    store.add("w", np.arange(6.0, dtype=np.float32).reshape(2, 3))
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, store, {}, seed=0, epoch=0)
    save_checkpoint(b, store, {}, seed=0, epoch=0)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_bytes_layout(tmp_path):
    store = ParamStore()
    store.add("w", np.arange(6.0, dtype=np.float32).reshape(2, 3), partition="encoder")
    store.add("b", np.array([0.5, -1.0], dtype=np.float32), partition="decoder")
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, {"b": 1, "a": [2]}, seed=4, epoch=3)
    header = (
        "fcrg-checkpoint 1\ndtype float32\nseed 4\nepoch 3\n"
        'config {"a": [2], "b": 1}\nparam w encoder 2,3\nparam b decoder 2\npayload\n'
    )
    payload = np.arange(6.0, dtype="<f4").tobytes() + np.array([0.5, -1.0], dtype="<f4").tobytes()
    assert path.read_bytes() == header.encode("utf-8") + payload


def tobytes_checkpoint(store: ParamStore, config: dict, seed: int, epoch: int) -> bytes:
    """The oracle: the header, then a little-endian ``tobytes`` copy of each parameter."""
    dtype = store[store.names()[0]].dtype
    lines = [CHECKPOINT_MAGIC, f"dtype {dtype.name}", f"seed {seed}", f"epoch {epoch}",
             "config " + json.dumps(config, sort_keys=True)]
    lines += [f"param {n} {store.partition(n)} {','.join(str(d) for d in store[n].shape)}" for n in store.names()]
    payload = b"".join(
        np.ascontiguousarray(store[n].data, dtype=f"<{dtype.kind}{dtype.itemsize}").tobytes() for n in store.names()
    )
    return ("\n".join(lines + ["payload"]) + "\n").encode("utf-8") + payload


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_checkpoint_bytes_match_the_tobytes_writer(tmp_path, dtype):
    rng = np.random.default_rng(8)
    store = ParamStore()
    store.add("w", rng.standard_normal((5, 7)).astype(dtype), partition="encoder")
    store.add("transposed", rng.standard_normal((4, 3)).astype(dtype).T, partition="decoder")
    store.add("bias", dtype(0.5))
    store.add("empty", np.zeros((0, 4), dtype=dtype))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, {"vocab_size": 7}, seed=2, epoch=5)
    assert path.read_bytes() == tobytes_checkpoint(store, {"vocab_size": 7}, seed=2, epoch=5)


def test_checkpoint_write_copies_no_parameter(tmp_path):
    store = ParamStore()
    store.add("w", np.ones((1000, 1000), dtype=np.float32))
    store.add("b", np.ones(1000, dtype=np.float32))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, {})  # the first write allocates once per process
    tracemalloc.start()
    try:
        save_checkpoint(path, store, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.05 * store["w"].data.nbytes, peak / store["w"].data.nbytes


def test_checkpoint_header_lines_are_bounded_on_write_and_read(tmp_path, monkeypatch):
    monkeypatch.setattr(params, "HEADER_LINE_LIMIT", 64)
    store = ParamStore()
    store.add("w", np.ones(2, dtype=np.float32))
    path = tmp_path / "model.ckpt"
    fits = {"k": "x" * (63 - len('config {"k": ""}'))}  # a 63-byte line and its newline
    save_checkpoint(path, store, fits)
    assert load_checkpoint(path)[1]["config"] == fits
    with pytest.raises(ValueError, match=r"^save_checkpoint: a header line exceeds 63 bytes$"):
        save_checkpoint(path, store, {"k": fits["k"] + "x"})
    path.write_bytes(path.read_bytes().replace(b'"k": "', b'"k": "x'))
    with pytest.raises(ValueError, match="payload"):
        load_checkpoint(path)


def test_checkpoint_rejects_parameters_of_two_dtypes(tmp_path):
    # The header holds one dtype: b would be cast to float32 and reload as 0.33333334.
    store = ParamStore()
    store.add("a", np.ones(2, dtype=np.float32))
    store.add("b", np.array([1 / 3]))
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match=r"^save_checkpoint: parameters must share one dtype, got float32 and float64$"):
        save_checkpoint(path, store, {})
    assert not path.exists()


def test_checkpoint_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    store = ParamStore()
    store.add("w", np.ones((4, 5), dtype=np.float32))
    store.add("b", np.ones(3, dtype=np.float32))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, {}, seed=1, epoch=1)
    previous = path.read_bytes()

    real_open = open

    class DiskFull:
        """Writes the header and the first parameter, then fails."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes > 2:
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(corpus, "open", lambda *a, **k: DiskFull(real_open(*a, **k)), raising=False)
    store["w"].data += 1.0
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, store, {}, seed=2, epoch=2)
    assert path.read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    monkeypatch.undo()
    save_checkpoint(path, store, {}, seed=2, epoch=2)
    loaded, meta = load_checkpoint(path)
    assert meta["epoch"] == 2 and np.array_equal(loaded["w"].data, store["w"].data)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError, match="payload"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "head", [b"", CHECKPOINT_MAGIC.encode() + b"\n"], ids=["no-format-line", "format-line-then-garbage"]
)
def test_checkpoint_reader_reads_a_bounded_prefix_of_garbage(tmp_path, head):
    path = tmp_path / "junk"
    path.write_bytes(head + b"x" * (24 << 20))  # 24 MB with no newline
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="payload") as info:
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value).startswith(f"{path}: ")
    assert peak <= 1 << 20, peak


def test_checkpoint_reader_stops_at_the_first_bad_header_line(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(CHECKPOINT_MAGIC.encode() + b"\n" * (4 << 20))  # 4M empty lines
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="unknown header line ''"):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, peak


def test_checkpoint_rejects_another_format_line(tmp_path):
    path = _saved_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes().replace(b"fcrg-checkpoint 1", b"fcrg-checkpoint 2"))
    with pytest.raises(ValueError, match=rf"^{path}: unsupported checkpoint format 'fcrg-checkpoint 2'$"):
        load_checkpoint(path)


def _three_parameter_checkpoint(tmp_path):
    store = ParamStore()
    rng = np.random.default_rng(4)
    store.add("first", rng.standard_normal((3, 5)).astype(np.float32), partition="encoder")
    store.add("embedding", rng.standard_normal((2, 6)).astype(np.float32))
    store.add("last", rng.standard_normal(4).astype(np.float32), partition="decoder")
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, {"vocab_size": 6}, seed=1, epoch=2)
    return store, path


def test_checkpoint_reads_only_the_named_parameters(tmp_path):
    store, path = _three_parameter_checkpoint(tmp_path)
    loaded, meta = load_checkpoint(path, names=("embedding",))
    assert loaded.names() == ["embedding"] and loaded.partition("embedding") == "shared"
    assert loaded["embedding"].data.tobytes() == store["embedding"].data.tobytes()
    assert meta["layout"] == {"first": ("encoder", (3, 5)), "embedding": ("shared", (2, 6)), "last": ("decoder", (4,))}
    assert load_checkpoint(path)[1] == meta
    assert load_checkpoint(path, names=())[0].names() == []


@pytest.mark.parametrize("edit", [lambda raw: raw[:-1], lambda raw: raw + b"\0"], ids=["truncated", "trailing"])
def test_checkpoint_reading_named_parameters_still_checks_the_payload_length(tmp_path, edit):
    _, path = _three_parameter_checkpoint(tmp_path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=r"truncated payload for parameter 'last'|1 trailing payload bytes"):
        load_checkpoint(path, names=("embedding",))


def test_checkpoint_detects_truncation(tmp_path):
    store = ParamStore()
    store.add("w", np.ones(8, dtype=np.float32))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, {})
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_load_copies_each_parameter_once(tmp_path):
    store = ParamStore()
    store.add("w", np.ones((1000, 1000), dtype=np.float32))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, {})
    del store
    payload = 1000 * 1000 * 4
    tracemalloc.start()
    try:
        loaded, _ = load_checkpoint(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded["w"].data, np.ones((1000, 1000), dtype=np.float32))
    assert loaded["w"].data.flags.writeable and loaded["w"].data.flags.owndata
    assert held <= 1.1 * payload, held / payload
    assert peak <= 2.5 * payload, peak / payload


def _saved_checkpoint(tmp_path):
    store = ParamStore()
    store.add("w", np.ones(8, dtype=np.float32))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, {}, seed=3, epoch=1)
    return path


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda raw: raw + b"\x00\x00\x00\x00", r"4 trailing payload bytes"),
        (lambda raw: raw.replace(b"dtype float32\n", b""), r"missing header line\(s\) dtype"),
        (lambda raw: raw.replace(b"dtype float32", b"dtype int8"), r"bad header line 'dtype int8'"),
        (lambda raw: raw.replace(b"seed 3", b"seed three"), r"bad header line 'seed three'"),
        (lambda raw: raw.replace(b"epoch 1", b"epoch 1.5"), r"bad header line 'epoch 1.5'"),
        (lambda raw: raw.replace(b"param w shared 8", b"param w 8"), r"bad header line 'param w 8'"),
        (lambda raw: raw.replace(b"param w shared 8", b"param w shared 2,x"), r"bad header line 'param w shared 2,x'"),
        (lambda raw: raw.replace(b"param w shared 8", b"param w shared -2,-4"), r"bad header line 'param w shared -2,-4'"),
        (lambda raw: raw.replace(b"param w shared 8", b"param w nowhere 8"), r"bad header line 'param w nowhere 8'"),
        (lambda raw: raw.replace(b"param w shared 8", b"param w shared 4\nparam w shared 4"), r"duplicate parameter"),
        (lambda raw: raw.replace(b"config {}", b"config {"), r"bad header line 'config \{'"),
        (lambda raw: raw.replace(b"config {}", b"config 5"), r"bad header line 'config 5'"),
        (lambda raw: raw.replace(b"seed 3", b"seed \xff"), r"not UTF-8"),
    ],
    ids=[
        "trailing-bytes", "no-dtype", "bad-dtype", "bad-seed", "bad-epoch", "short-param", "bad-shape",
        "negative-shape", "bad-partition", "duplicate-param", "bad-config", "config-not-object", "not-utf8",
    ],
)
def test_checkpoint_reader_names_path_and_fault(tmp_path, edit, match):
    path = _saved_checkpoint(tmp_path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=match) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ")


def _fuzz_checkpoint(tmp_path):
    store = ParamStore()
    store.add("w", np.arange(6, dtype=np.float32).reshape(2, 3), partition="encoder")
    store.add("bias", np.float32(0.5), partition="decoder")
    store.add("empty", np.zeros((0, 4), dtype=np.float32))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, {"vocab_size": 7, "attention": "dot"}, seed=3, epoch=1)
    return path, path.read_bytes()


def _load_or_name_the_path(path, data):
    """Load ``data`` as a checkpoint: it loads, or raises a ValueError that starts with the path."""
    path.write_bytes(data)
    try:
        load_checkpoint(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)
        return False
    return True


def test_checkpoint_reader_fuzz_truncation_and_extra_bytes(tmp_path):
    path, raw = _fuzz_checkpoint(tmp_path)
    assert _load_or_name_the_path(path, raw)
    for cut in range(len(raw)):
        assert not _load_or_name_the_path(path, raw[:cut]), cut
    for extra in (b"\x00", b"\n", b"payload\n", raw):
        assert not _load_or_name_the_path(path, raw + extra), extra


def test_checkpoint_reader_fuzz_payload_line(tmp_path):
    path, raw = _fuzz_checkpoint(tmp_path)
    assert not _load_or_name_the_path(path, raw.replace(b"\npayload\n", b"\n", 1))
    assert not _load_or_name_the_path(path, raw.replace(b"\npayload\n", b"\npayload\npayload\n", 1))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checkpoint_reader_fuzz_header_byte_flips(tmp_path_factory, data):
    path, raw = _fuzz_checkpoint(tmp_path_factory.mktemp("ckpt"))
    header = raw.index(b"\npayload\n") + len(b"\npayload\n")
    edited = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, header - 1))
        edited[at] ^= data.draw(st.integers(1, 255))
    _load_or_name_the_path(path, bytes(edited))


def test_checkpoint_roundtrip_scalar_parameter(tmp_path):
    store = ParamStore()
    store.add("bias", np.float32(0.5))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, {})
    loaded, _ = load_checkpoint(path)
    assert loaded["bias"].shape == () and loaded["bias"].item() == 0.5


# ---------------------------------------------------------------- finite differences


def test_finite_diff_check_accepts_correct_gradient():
    store = ParamStore()
    w = store.add("w", np.array([0.3, -0.2, 0.5]))

    def loss():
        return reduce_sum(mul(T.tanh(w), T.tanh(w)))

    report = finite_diff_check(loss, store, samples_per_param=3)
    assert report["w"] < 1e-6


def test_finite_diff_check_flags_wrong_gradient():
    store = ParamStore()
    w = store.add("w", np.array([0.3, -0.2, 0.5]))

    def broken_loss():
        # forward value of sum(w^2) but a gradient recorded as if it were sum(w)
        out = reduce_sum(w)
        out.data = (w.data**2).sum()
        return out

    report = finite_diff_check(broken_loss, store, samples_per_param=3)
    assert report["w"] > 0.1


def test_finite_diff_report_counts_the_coordinates_above_the_floor():
    store = ParamStore()
    w = store.add("w", np.array([0.3, -0.2, 0.5]))

    def broken_loss():
        out = reduce_sum(w)  # a gradient of ones against the true 2w
        out.data = (w.data**2).sum()
        return out

    # The differences are |1 - 2w|: 0.4, 1.4 and 0 (at w = 0.5, under the floor).
    report = finite_diff_report(broken_loss, store, samples_per_param=3)["w"]
    assert (report.sampled, report.above_floor) == (3, 2)
    assert report.max_abs_error == pytest.approx(1.4, rel=1e-6)
    assert report.max_rel_error == pytest.approx(1.4, rel=1e-6)  # 1.4 / max(|1|, |-0.4|)
    exact = finite_diff_report(lambda: reduce_sum(mul(w, w)), store, samples_per_param=3)["w"]
    assert (exact.above_floor, exact.max_rel_error) == (0, 0.0) and exact.max_abs_error < 1e-8


def test_finite_diff_check_requires_float64():
    store = ParamStore()
    w = store.add("w", np.zeros(2, dtype=np.float32))
    with pytest.raises(ValueError, match="float64"):
        finite_diff_check(lambda: reduce_sum(w), store)
