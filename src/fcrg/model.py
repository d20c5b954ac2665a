"""GRU encoder-decoder with shared embedding and dot/bilinear attention.

The network embeds source and target tokens through one shared embedding
matrix, encodes the source with a unidirectional GRU, and decodes with a
second GRU whose hidden state starts from the final encoder state.  At each
decode step an attention distribution over the (unpadded) encoder states
produces a context vector, and a two-layer head predicts the next token.
Training minimizes negative log-likelihood under teacher forcing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .corpus import MAX_SOURCE_LEN, MAX_TARGET_LEN, PAD, Batch, EncodedPair, batches
from .params import ParamStore, TrainConfig
from .tensor import Tensor, backward

ATTENTION_KINDS = ("dot", "bilinear")
INIT_BLOCK = 1 << 15  # float64 elements per block of initial draws (at least one row): 256 KB


@dataclass
class ModelConfig:
    vocab_size: int
    embed_dim: int = 300
    hidden_size: int = 300
    output_size: int = 256
    max_source_len: int = MAX_SOURCE_LEN
    max_target_len: int = MAX_TARGET_LEN
    attention: str = "dot"
    dropout: float = 0.2
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        for name in ("vocab_size", "embed_dim", "hidden_size", "output_size", "max_source_len", "max_target_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.attention not in ATTENTION_KINDS:
            raise ValueError(f"attention must be one of {ATTENTION_KINDS}, got {self.attention!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be float32 or float64")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class EncoderOutput:
    """Stacked encoder hidden states with a validity mask per position."""

    states: Tensor  # (b·L, H) rows, batch-major
    mask: np.ndarray  # (b, L) float, 1 at real tokens
    final: Tensor  # (b, H), hidden state at each row's last real token
    lengths: np.ndarray


@dataclass
class DecodeStepOutput:
    """Rows per (row, step), batch-major: row j·T + t is row j's step t.

    ``features`` and ``logits`` hold only the rows ``decode_step`` was asked
    for, in that order; ``hidden`` always holds all b·T.
    """

    features: Tensor  # (n, 2H) [context; h] after dropout: the output head's input
    hidden: Tensor  # (b·T, H) the state after each step
    logits: Tensor  # (n, V) pre-softmax scores


@dataclass
class GRUWeights:
    """One side's gate weights, concatenated at use for ``T.gru_scan``."""

    w_x: Tensor  # (D, 3H) [W_z|W_r|W_c]
    u_zr: Tensor  # (H, 2H) [U_z|U_r]
    u_c: Tensor  # (H, H)

    def scan(self, x: Tensor, h0: Tensor) -> Tensor:
        """The (b·T, H) states from h0 (b, H) over inputs x (b·T, D): one input GEMM, then ``T.gru_scan``."""
        return T.gru_scan(T.matmul(x, self.w_x), h0, self.u_zr, self.u_c)


_GATES = ("update", "reset", "candidate")


def param_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter, in initialisation order."""
    d, h = config.embed_dim, config.hidden_size
    layout = [("embedding", (d, config.vocab_size))]
    for side in ("enc", "dec"):
        for gate in _GATES:
            layout += [(f"{side}_{gate}_x", (d, h)), (f"{side}_{gate}_h", (h, h))]
    if config.attention == "bilinear":
        layout.append(("attn_bilinear", (h, h)))
    layout.append(("out_hidden", (2 * h, config.output_size)))
    layout.append(("out_vocab", (config.output_size, config.vocab_size)))
    return layout


def check_layout(config: ModelConfig, found: set[tuple[str, tuple[int, ...], str]]) -> None:
    """Raise ``ValueError`` unless ``found``, (name, shape, dtype) per parameter, is ``config``'s layout."""
    expected = {(name, shape, config.dtype) for name, shape in param_layout(config)}
    if found != expected:
        raise ValueError(
            "parameters do not match the config: "
            f"expected {sorted(expected - found)}, found {sorted(found - expected)}"
        )


class FCRGModel:
    """Fact-checking response generator network."""

    def __init__(self, config: ModelConfig, params: Optional[ParamStore] = None):
        self.config = config
        self._np_dtype = np.float32 if config.dtype == "float32" else np.float64
        self._dropout_rng = np.random.default_rng(config.seed + 1)
        if params is not None:
            check_layout(config, {(name, t.shape, t.dtype.name) for name, t in params.items()})
            self.params = params
        else:
            self.params = ParamStore()
            self._init_params()

    # -- construction -------------------------------------------------

    def _init_params(self) -> None:
        """Embedding ~ N(0, 1), every other weight ~ U(-1/sqrt(H), 1/sqrt(H)), drawn in float64.

        Each parameter is drawn in blocks of whole rows, about ``INIT_BLOCK``
        elements each, cast into its final array.  The generator yields the
        same stream whatever the block size, so the values and its state equal
        those of one whole-array draw per parameter, without the float64
        temporary.
        """
        rng = np.random.default_rng(self.config.seed)
        bound = 1.0 / np.sqrt(self.config.hidden_size)
        for name, (rows, cols) in param_layout(self.config):
            value = np.empty((rows, cols), dtype=self._np_dtype)
            step = max(1, INIT_BLOCK // cols)
            for start in range(0, rows, step):
                block = (min(step, rows - start), cols)
                value[start : start + step] = (
                    rng.standard_normal(block) if name == "embedding" else rng.uniform(-bound, bound, size=block)
                )
            self.params.add(name, value)

    # -- forward pieces ------------------------------------------------

    def _dropout_draws(self, b: int, steps: int, widths: Sequence[int], train: bool) -> list[Optional[np.ndarray]]:
        """Dropout uniforms, batch-major (b·steps, w), for inputs of each width w; Nones without dropout.

        One block is drawn in the order of per-step draws: at each step, every input's (b, w).
        """
        if not train or self.config.dropout == 0.0:
            return [None] * len(widths)
        block = self._dropout_rng.random((steps, b * sum(widths)))
        parts = np.split(block, b * np.cumsum(widths)[:-1], axis=1)
        return [u.reshape(steps, b, -1).swapaxes(0, 1).reshape(b * steps, -1) for u in parts]

    def embed(self, ids: np.ndarray, uniforms: Optional[np.ndarray]) -> Tensor:
        """(n, D) embeddings of n ids, dropped out by ``uniforms`` unless they are None."""
        return T.dropout(T.embedding_lookup(self.params["embedding"], ids), self.config.dropout, uniforms)

    def gru_weights(self, side: str) -> GRUWeights:
        """The ``side`` ("enc" or "dec") GRU's per-gate parameters, concatenated for ``T.gru_scan``."""
        p = self.params
        return GRUWeights(
            w_x=T.concat([p[f"{side}_{gate}_x"] for gate in _GATES]),
            u_zr=T.concat([p[f"{side}_update_h"], p[f"{side}_reset_h"]]),
            u_c=p[f"{side}_candidate_h"],
        )

    def encode(self, source: np.ndarray, lengths: np.ndarray, train: bool = False) -> EncoderOutput:
        """Run the encoder GRU over every position; ``mask`` marks the real tokens.

        Past a row's length the GRU runs on over padding, and those states are
        masked out of attention; ``final`` gathers the state at each row's last
        real token, so only that state gets ``final``'s gradient.
        """
        source = np.atleast_2d(np.asarray(source, dtype=np.int64))
        lengths = np.asarray(lengths, dtype=np.int64)
        b, max_len = source.shape
        if max_len == 0 or lengths.min() < 1 or lengths.max() > max_len:
            raise ValueError(f"encode: source lengths must be in [1, {max_len}], got {lengths.tolist()}")
        (uniforms,) = self._dropout_draws(b, max_len, [self.config.embed_dim], train)
        h0 = Tensor(np.zeros((b, self.config.hidden_size), dtype=self._np_dtype))
        states = self.gru_weights("enc").scan(self.embed(source.reshape(-1), uniforms), h0)
        mask = (np.arange(max_len)[None, :] < lengths[:, None]).astype(self._np_dtype)
        last = np.arange(b) * max_len + lengths - 1  # each row's last real (row, step) in batch-major order
        return EncoderOutput(states=states, mask=mask, final=T.take_rows(states, last), lengths=lengths)

    def attention_query(self, hidden: Tensor) -> Tensor:
        """The attention query: ``hidden``, or ``hidden @ attn_bilinear``."""
        if self.config.attention == "bilinear":
            return T.matmul(hidden, self.params["attn_bilinear"])
        return hidden

    def attention_weights(self, encoded: EncoderOutput, hidden: Tensor) -> Tensor:
        """Alignment distribution over unmasked source positions (no gradient)."""
        return Tensor(T.attention_probs(encoded.states.data, self.attention_query(hidden).data, encoded.mask))

    def decode_step(
        self,
        prev_ids,
        h_prev: Tensor,
        encoded: EncoderOutput,
        gru: GRUWeights,
        train: bool = False,
        rows: Optional[np.ndarray] = None,
    ) -> DecodeStepOutput:
        """Decoder steps from the state ``h_prev`` (b, H) over previous tokens (b,) for one step or (b, T).

        ``gru`` is ``gru_weights("dec")``.  The recurrence reads only the given
        tokens, so T steps are one ``T.gru_scan``; attention then runs once
        over all b·T rows.  The output head runs on the distinct batch-major
        ``rows`` only (all b·T when None), gathered after the feature dropout
        so the dropout draws do not depend on them.
        """
        ids = np.asarray(prev_ids, dtype=np.int64).reshape(len(prev_ids), -1)
        (b, steps), n = ids.shape, self.config.hidden_size
        u_x, u_features = self._dropout_draws(b, steps, [self.config.embed_dim, 2 * n], train)
        h = gru.scan(self.embed(ids.reshape(-1), u_x), h_prev)
        context = T.attention(encoded.states, self.attention_query(h), encoded.mask)
        features = T.dropout(T.concat([context, h]), self.config.dropout, u_features)
        if rows is not None:
            features = T.take_rows(features, rows)
        return DecodeStepOutput(features=features, hidden=h, logits=self.output_head(features))

    def output_head(self, features: Tensor) -> Tensor:
        """Logits (n, V) of (n, 2H) ``[context; h]`` rows: ``tanh(features @ out_hidden) @ out_vocab``."""
        return T.matmul(T.tanh(T.matmul(features, self.params["out_hidden"])), self.params["out_vocab"])

    # -- training objective ---------------------------------------------

    def sequence_nll(self, batch: Batch, train: bool = False) -> tuple[Tensor, int]:
        """Teacher-forced negative log-likelihood, summed over the batch.

        <s> is input-only; every gold token after it (including </s>) is a
        prediction target, up to the first all-PAD gold column.  Returns
        (scalar loss, number of scored tokens).

        Teacher forcing never feeds the output head back into the recurrence,
        so one ``decode_step`` call runs the T steps before the first all-PAD
        gold column.  The output head and the loss then run once, over
        ``rows``, the (row, step) pairs whose gold token is real: padded pairs
        never reach the vocabulary-wide GEMM, and ``rows`` alone is counted.
        """
        target = batch.target
        steps = int(np.logical_and.accumulate((target[:, 1:] != PAD).any(axis=0)).sum())
        gold = target[:, 1 : steps + 1].reshape(-1)  # batch-major, like the decoder's rows
        rows = np.flatnonzero(gold != PAD)
        if rows.size == 0:
            raise ValueError("sequence_nll: batch contains no target tokens")
        encoded = self.encode(batch.source, batch.source_lengths, train=train)
        gru = self.gru_weights("dec")
        out = self.decode_step(target[:, :steps], encoded.final, encoded, gru, train=train, rows=rows)
        return T.nll(out.logits, gold[rows]), int(rows.size)


@dataclass
class EpochRecord:
    epoch: int
    train_nll_per_token: float
    validation_nll_per_token: float


@dataclass
class TrainResult:
    best_epoch: int
    best_validation_nll: float


def validation_nll(model: FCRGModel, pairs: Sequence[EncodedPair], batch_size: int = TrainConfig.batch_size) -> float:
    """Per-token NLL over a split with dropout disabled."""
    total, tokens = 0.0, 0
    for batch in batches(pairs, batch_size):
        loss, n = model.sequence_nll(batch, train=False)
        total += loss.item()
        tokens += n
        del loss  # its tape must not live through the next batch's forward pass
    return total / tokens


def train_model(
    model: FCRGModel,
    train_pairs: Sequence[EncodedPair],
    val_pairs: Sequence[EncodedPair],
    config: TrainConfig,
    *,
    log=None,
) -> TrainResult:
    """Adam training with gradient clipping and patience-based early stopping.

    Stops once validation per-token NLL fails to improve for ``patience``
    consecutive epochs; the best-validation parameters are restored before
    returning.  ``log`` (if given) is called with each epoch's ``EpochRecord``.
    The best parameters are copied only when an epoch is about to move them,
    and restored only when the best epoch is not the last one run.
    """
    if not train_pairs or not val_pairs:
        raise ValueError("train and validation splits must be non-empty")
    store = model.params
    best = float("inf")
    best_epoch = 0
    best_state: Optional[dict] = None
    stale = 0
    step = 0
    for epoch in range(1, config.max_epochs + 1):
        if best_epoch and best_epoch == epoch - 1:  # this epoch's steps move the best parameters
            best_state = store.state()
        epoch_loss, epoch_tokens = 0.0, 0
        for batch in batches(train_pairs, config.batch_size, shuffle_seed=config.shuffle_seed + epoch):
            store.zero_grads()
            loss, n = model.sequence_nll(batch, train=True)
            value = loss.item()
            if not np.isfinite(value):
                raise ValueError(f"training diverged at epoch {epoch}: loss={value}")
            backward(loss)
            store.clip_gradients(config.clip_norm)
            step += 1
            store.adam_step(config, step)
            epoch_loss += value
            epoch_tokens += n
        val = validation_nll(model, val_pairs, config.batch_size)
        if log is not None:
            log(EpochRecord(epoch, epoch_loss / epoch_tokens, val))
        if val < best - 1e-12:
            best = val
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    if best_epoch not in (0, epoch):
        store.load_state(best_state)
    return TrainResult(best_epoch=best_epoch, best_validation_nll=best)


def encode_single(model: FCRGModel, source_ids: Sequence[int]) -> EncoderOutput:
    """Encoder output for one source sequence (batch of one)."""
    arr = np.asarray(source_ids, dtype=np.int64)[None, :]
    return model.encode(arr, np.array([len(source_ids)], dtype=np.int64))
