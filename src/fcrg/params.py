"""Named parameter storage, Adam updates, gradient clipping, checkpoints.

Parameters are tagged with the network partition they belong to (encoder,
decoder or shared) so checkpoints can group them.  Adam's moment buffers
are training-only state: the first ``adam_step`` makes them.

``adam_step`` walks each parameter, its gradient and its two moments in
blocks of ``ADAM_BLOCK`` elements, so the dozen passes of the update run
over a block that stays in cache instead of over the whole 20k-wide
embedding.  The update is elementwise, so the blocked result is bit-equal
to the whole-array one.  ``grad_norm`` sums float64 squares over leaves of
at most ``ADAM_BLOCK`` elements, split as numpy's pairwise summation splits
a whole array, so it gives the whole-array sum's bits without a float64
copy of each gradient.  ``clip_gradients`` is still not folded into Adam:
the clip must have scaled ``.grad`` before ``adam_step`` reads it, because
callers read ``grad_norm`` after clipping.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Collection, Iterator, Optional

import numpy as np

from .corpus import atomic_write
from .tensor import Tensor, backward

PARTITIONS = ("encoder", "decoder", "shared")
ADAM_BLOCK = 1 << 15  # elements per block of the Adam update: 128 KB of float32 per array


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 32
    clip_norm: float = 0.25
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    max_epochs: int = 20
    patience: int = 3

    def __post_init__(self):
        for name in ("learning_rate", "batch_size", "clip_norm", "beta1", "beta2", "epsilon", "max_epochs"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("learning_rate", "epsilon"):  # clip_norm=inf turns clipping off
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):  # Adam's bias correction divides by 1 - beta**step
            if not getattr(self, name) < 1:
                raise ValueError(f"{name} must be below 1, got {getattr(self, name)}")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


class ParamStore:
    """Ordered map from name to parameter tensor, each tagged with its partition."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self._partitions: dict[str, str] = {}
        self._moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def add(self, name: str, value: np.ndarray, partition: str = "shared") -> Tensor:
        """Add a parameter that keeps ``value`` itself, not a copy, so nothing else may hold it."""
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        if partition not in PARTITIONS:
            raise ValueError(f"unknown partition {partition!r}")
        t = Tensor(value)
        self._tensors[name] = t
        self._partitions[name] = partition
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def names(self) -> list[str]:
        return list(self._tensors)

    def partition(self, name: str) -> str:
        return self._partitions[name]

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._tensors.items())

    def zero_grads(self) -> None:
        for t in self._tensors.values():
            t.grad = None

    def grad_norm(self) -> float:
        total = 0.0
        for t in self._tensors.values():
            if t.grad is not None:
                total += float(_square_sum(t.grad.reshape(-1)))
        return float(np.sqrt(total))

    def clip_gradients(self, clip_norm: float) -> float:
        """Global-norm clipping; returns the scaling factor applied. A non-finite norm is an error."""
        norm = self.grad_norm()
        if not np.isfinite(norm):
            raise ValueError(f"gradient norm is {norm}; refusing to clip and step")
        if norm <= clip_norm or norm == 0.0:
            return 1.0
        factor = clip_norm / norm
        for t in self._tensors.values():
            if t.grad is not None:
                t.grad *= factor
        return factor

    def adam_step(self, config: TrainConfig, step_index: int) -> None:
        """Bias-corrected Adam update with in-place moments; gradients are zeroed afterwards.

        Each parameter is updated one ``ADAM_BLOCK`` slice of its flattened
        data at a time, with two block-sized scratch arrays per dtype and a
        shared zero block standing in for a missing gradient.  Every step
        of the update is an elementwise ufunc, so the blocks give the same
        bits as whole arrays in the same operation order.
        """
        if step_index < 1:
            raise ValueError("step_index must be >= 1")
        b1, b2, lr, eps = config.beta1, config.beta2, config.learning_rate, config.epsilon
        correction1 = 1.0 - b1**step_index
        correction2 = 1.0 - b2**step_index
        scratch: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}
        for name, t in self._tensors.items():
            t.data = np.ascontiguousarray(t.data)  # the flat view below must write through
            if name not in self._moments:
                self._moments[name] = (np.zeros_like(t.data), np.zeros_like(t.data))
            if t.dtype not in scratch:  # the step and denominator blocks, and the zero block
                scratch[t.dtype] = (np.empty((2, ADAM_BLOCK), t.dtype), np.zeros(ADAM_BLOCK, t.dtype))
            (step_block, denom_block), zeros = scratch[t.dtype]
            p = t.data.reshape(-1)
            m, v = (moment.reshape(-1) for moment in self._moments[name])
            g = None if t.grad is None else np.ravel(t.grad)
            for start in range(0, p.size, ADAM_BLOCK):
                stop = min(start + ADAM_BLOCK, p.size)
                pb, mb, vb = p[start:stop], m[start:stop], v[start:stop]
                gb = zeros[: stop - start] if g is None else g[start:stop]
                step, denom = step_block[: stop - start], denom_block[: stop - start]
                # The operation order of m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
                # data -= lr * (m/c1) / (sqrt(v/c2) + eps).
                mb *= b1
                mb += np.multiply(1.0 - b1, gb, out=step)
                vb *= b2
                np.multiply(1.0 - b2, gb, out=step)
                step *= gb
                vb += step
                np.divide(mb, correction1, out=step)
                np.multiply(lr, step, out=step)
                np.divide(vb, correction2, out=denom)
                np.sqrt(denom, out=denom)
                denom += eps
                step /= denom
                pb -= step
        self.zero_grads()

    def state(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._tensors.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Set parameters from ``state``; like ``add``, each keeps its array itself when the dtype matches."""
        for name, value in state.items():
            t = self._tensors[name]
            if t.shape != value.shape:
                raise ValueError(f"state shape mismatch for {name!r}: {t.shape} vs {value.shape}")
            t.data = value.astype(t.dtype, copy=False)


def _square_sum(flat: np.ndarray) -> np.float64:
    """``np.square(flat, dtype=float64).sum()`` of a 1-D array, in the same bits.

    numpy sums a contiguous array pairwise: it halves the length, rounds the
    first half down to a multiple of 8 and adds the two halves' sums.  The
    split is replayed here down to leaves of at most ``ADAM_BLOCK`` elements,
    so the float64 squares exist one leaf at a time.
    """
    if flat.size <= ADAM_BLOCK:
        return np.square(flat, dtype=np.float64).sum()
    half = flat.size // 2
    half -= half % 8
    return _square_sum(flat[:half]) + _square_sum(flat[half:])


CHECKPOINT_MAGIC = "fcrg-checkpoint 1"
HEADER_LINE_LIMIT = 1 << 16  # bytes a checkpoint header line may take, newline included


def save_checkpoint(path, store: ParamStore, config: dict, *, seed: int = 0, epoch: int = 0) -> None:
    """Text header (version, config, parameter table) + raw little-endian payload.

    The header names one dtype for every parameter, so a store whose
    parameters differ in dtype raises ``ValueError`` and nothing is written;
    so does a header line as long as ``HEADER_LINE_LIMIT``, which the reader
    would refuse.  Each parameter is written from its own buffer when it is
    already contiguous and little-endian, as the store's arrays are.
    """
    names = store.names()
    dtypes = sorted({store[name].dtype.name for name in names}) or ["float32"]
    if len(dtypes) > 1:
        raise ValueError(f"save_checkpoint: parameters must share one dtype, got {' and '.join(dtypes)}")
    dtype = np.dtype(dtypes[0])
    header_lines = [
        CHECKPOINT_MAGIC,
        f"dtype {dtype.name}",
        f"seed {seed}",
        f"epoch {epoch}",
        "config " + json.dumps(config, sort_keys=True),
    ]
    for name in names:
        shape = ",".join(str(d) for d in store[name].shape)
        header_lines.append(f"param {name} {store.partition(name)} {shape}")
    header_lines.append("payload")
    header = ("\n".join(header_lines) + "\n").encode("utf-8")
    if max(len(line) for line in header.split(b"\n")) >= HEADER_LINE_LIMIT:
        raise ValueError(f"save_checkpoint: a header line exceeds {HEADER_LINE_LIMIT - 1} bytes")
    with atomic_write(path) as fh:
        fh.write(header)
        for name in names:
            fh.write(np.ascontiguousarray(store[name].data, dtype=dtype.newbyteorder("<")).reshape(-1).data)


def load_checkpoint(path, names: Optional[Collection[str]] = None) -> tuple[ParamStore, dict]:
    """Returns (parameter store, metadata with config/seed/epoch/dtype/layout).

    ``layout`` maps every parameter the header lists to its (partition,
    shape).  The header is read and parsed one bounded line at a time up to
    its ``payload`` line, the format's line first, so a file that is not a
    checkpoint is never read whole.  Once the header is valid and the
    payload's length matches the parameter table, each parameter is read
    straight into its own array, which the store keeps: every payload byte
    is copied once.  Given ``names``, only those parameters are read and the
    store holds only them; the file is sought past the others.
    """
    with open(path, "rb") as fh:
        meta = _parse_header(path, _header_lines(path, fh))
        params = meta["layout"]
        dtype = np.dtype(meta["dtype"])
        stored = dtype.newbyteorder("<")
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        offset = 0
        for name, (_, shape) in params.items():
            offset += math.prod(shape) * dtype.itemsize
            if offset > payload:
                raise ValueError(f"{path}: truncated payload for parameter {name!r}")
        if offset != payload:
            raise ValueError(f"{path}: {payload - offset} trailing payload bytes after the last parameter")
        store = ParamStore()
        for name, (partition, shape) in params.items():
            if names is not None and name not in names:
                fh.seek(math.prod(shape) * dtype.itemsize, os.SEEK_CUR)
                continue
            value = np.empty(shape, dtype=stored)
            if fh.readinto(value.reshape(-1).view(np.uint8)) != value.nbytes:
                raise ValueError(f"{path}: truncated payload for parameter {name!r}")
            store.add(name, value.astype(dtype, copy=False), partition)
    return store, meta


def _header_lines(path, fh) -> Iterator[str]:
    """The header's lines, each read with a bounded ``readline``, up to ``payload``."""
    while (line := fh.readline(HEADER_LINE_LIMIT)) != b"payload\n":
        if not line.endswith(b"\n"):  # the end of the file, or a line longer than any header line
            raise ValueError(f"{path}: not a checkpoint file (missing payload marker)")
        try:
            yield line[:-1].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: checkpoint header is not UTF-8: {exc}") from None


def _parse_header(path, lines: Iterator[str]) -> dict:
    """The metadata in a checkpoint's header lines; ``layout`` is the parameter table."""
    first = next(lines, "payload")  # a first line of "payload" ends the lines
    if first != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: unsupported checkpoint format {first!r}")
    params: dict[str, tuple[str, tuple[int, ...]]] = {}
    meta: dict = {"layout": params}
    for line in lines:
        key, _, rest = line.partition(" ")
        if key not in ("config", "dtype", "seed", "epoch", "param"):
            raise ValueError(f"{path}: unknown header line {line!r}")
        try:
            if key == "config":
                meta["config"] = json.loads(rest)
                if not isinstance(meta["config"], dict):
                    raise ValueError("config must be a JSON object")
            elif key == "dtype":
                if rest not in ("float32", "float64"):
                    raise ValueError("dtype must be float32 or float64")
                meta["dtype"] = rest
            elif key in ("seed", "epoch"):
                meta[key] = int(rest)
            else:
                name, partition, shape_text = rest.split(" ")
                if name in params:
                    raise ValueError(f"duplicate parameter name {name!r}")
                if partition not in PARTITIONS:
                    raise ValueError(f"unknown partition {partition!r}")
                shape = tuple(int(d) for d in shape_text.split(",")) if shape_text else ()
                if any(d < 0 for d in shape):
                    raise ValueError("negative dimension")
                params[name] = (partition, shape)
        except ValueError as exc:
            raise ValueError(f"{path}: bad header line {line!r}: {exc}") from None
    missing = [key for key in ("dtype", "seed", "epoch", "config") if key not in meta]
    if missing:
        raise ValueError(f"{path}: missing header line(s) {', '.join(missing)}")
    return meta


@dataclass(frozen=True)
class GradDiff:
    """One parameter's analytic gradient against central differences, over its sampled coordinates."""

    max_rel_error: float  # over the coordinates above the floor; 0.0 when there are none
    max_abs_error: float  # over every sampled coordinate
    above_floor: int  # sampled coordinates whose absolute difference exceeds the floor
    sampled: int


def finite_diff_report(
    loss_fn: Callable[[], Tensor],
    store: ParamStore,
    *,
    step: float = 1e-5,
    samples_per_param: int = 50,
    seed: int = 0,
    abs_floor: float = 1e-8,
) -> dict[str, GradDiff]:
    """Compare analytic gradients with central finite differences.

    ``loss_fn`` must recompute the forward pass from the current parameter
    values (dropout disabled).  Requires float64 parameters.  Samples up to
    ``samples_per_param`` coordinates of each parameter; a coordinate whose
    absolute difference is at most ``abs_floor`` counts as exact in the
    relative error, but still counts in the absolute one.
    """
    rng = np.random.default_rng(seed)
    for name, tensor in store.items():
        if tensor.dtype != np.float64:
            raise ValueError(f"the finite-difference check requires float64 parameters ({name} is {tensor.dtype})")

    store.zero_grads()
    loss = loss_fn()
    if not np.isfinite(loss.item()):
        raise ValueError("loss is non-finite")
    backward(loss)
    analytic = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data)) for name, t in store.items()}

    report: dict[str, GradDiff] = {}
    for name, tensor in store.items():
        flat = tensor.data.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        n = flat.size
        coords = np.arange(n) if n <= samples_per_param else rng.choice(n, size=samples_per_param, replace=False)
        worst_rel, worst_abs, above = 0.0, 0.0, 0
        for c in coords:
            original = flat[c]
            flat[c] = original + step
            f_plus = loss_fn().item()
            flat[c] = original - step
            f_minus = loss_fn().item()
            flat[c] = original
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise ValueError(f"non-finite loss while perturbing {name}[{c}]")
            numeric = (f_plus - f_minus) / (2.0 * step)
            diff = abs(grad_flat[c] - numeric)
            worst_abs = max(worst_abs, diff)
            if diff > abs_floor:
                above += 1
                worst_rel = max(worst_rel, diff / max(abs(grad_flat[c]), abs(numeric)))
        report[name] = GradDiff(float(worst_rel), float(worst_abs), above, len(coords))
    store.zero_grads()
    return report


def finite_diff_check(loss_fn: Callable[[], Tensor], store: ParamStore, **options) -> dict[str, float]:
    """The max relative error per parameter of ``finite_diff_report``, which takes the same ``options``."""
    return {name: diff.max_rel_error for name, diff in finite_diff_report(loss_fn, store, **options).items()}
