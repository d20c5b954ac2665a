"""In-memory span tracer that wraps fcrg's public functions from outside.

``Tracer.install()`` replaces each traced name *where it is looked up*:
``from .x import y`` binds ``y`` in the importing module, so the importing
module's copy is patched as well as the defining one (``fcrg.cli.beam_search``,
``fcrg.model.backward``, ``fcrg.metrics.porter_stem``, ...).  Methods are
patched on their class.  ``uninstall()`` restores every original.

Each call records a span (name, start, end, parent, run id).  Calls, total
time and self time (duration minus the time covered by child spans) are
aggregated per name; hot leaf functions called thousands of times per
command (``HOT``) are aggregated without keeping their individual spans.
Count hooks read arguments and results to record work (FLOPs, bytes, rows).
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager

HOT = frozenset({
    "tensor.accumulate_grad", "tensor.matmul", "tensor.embedding_lookup",
    "metrics.porter_stem", "corpus.normalize", "corpus.tokenize", "analysis.category_score",
})


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def active(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if stack:
            stack[-1][3] += duration
        if name not in HOT:
            self.spans.append((span_id, name, start, end, stack[-1][0] if stack else -1, self.run_id))

    def _wrap(self, fn, name: str, count):
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one operation."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(raw.__func__, name, count))
        else:
            replacement = self._wrap(raw, name, count)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner, attr, name, count in _targets():
            self.patch(owner, attr, name, count)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def write(self, path) -> None:
        """Write kept spans as TSV: id, name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\trun\n")
            for span_id, name, start, end, parent, run in self.spans:
                fh.write(f"{span_id}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{run}\n")


# ---------------------------------------------------------------- count hooks


def _count_matmul(tr, result, a, b):
    m, k = a.shape
    tr.counts["tensor.matmul_flops"] += 2 * m * k * b.shape[1]


def _count_lookup(tr, result, weight, ids):
    # Under grad: inside a training forward pass, whose backward turns every
    # lookup into one dense (V x D) gradient.
    if tr.active("model.sequence_nll") and not tr.active("model.validation_nll"):
        tr.counts["tensor.embedding_grad_dense_bytes"] += weight.data.nbytes


def _count_accumulate(tr, result, tensor, g):
    tr.counts["tensor.accumulate_grad_bytes"] += g.nbytes


def _count_decode_step(tr, result, model, prev_ids, *args, **kwargs):
    rows = len(prev_ids)
    tr.counts["model.decode_step_rows"] += rows
    if tr.active("decoding.beam_search"):
        tr.counts["decoding.candidates_scored"] += rows * result.logits.shape[1]


def _count_beam(tr, result, *args, **kwargs):
    tr.counts["decoding.responses"] += len(result)
    tr.counts["decoding.forced"] += sum(1 for r in result if r.forced)


def _count_clip(tr, result, store, clip_norm):
    tr.counts["params.clipped_steps"] += result < 1.0


def _count_checkpoint(tr, result, path, *args, **kwargs):
    tr.counts["params.checkpoint_bytes"] += os.path.getsize(path)


def _count_evaluate(tr, result, *args, **kwargs):
    tr.counts["metrics.skipped_pairs"] += sum(result.skipped.values())
    tr.counts["metrics.negative_extrema"] += result.negative_extrema


def _count_lda(tr, result, *args, **kwargs):
    tr.counts["analysis.lda_site_updates"] += result.iterations * sum(len(d) for d in result.doc_tokens)


def _targets():
    """(owner, attribute, span name, count hook) for every traced lookup site."""
    from fcrg import analysis, cli, corpus, decoding, metrics, model, tensor
    from fcrg.corpus import Vocabulary
    from fcrg.model import FCRGModel
    from fcrg.params import ParamStore
    from fcrg.tensor import Tensor

    targets = [
        # cli: each subcommand, looked up by build_parser() on every main() call
        (cli, "cmd_train", "cli.train", None),
        (cli, "cmd_generate", "cli.generate", None),
        (cli, "cmd_evaluate", "cli.evaluate", None),
        (cli, "cmd_analyze", "cli.analyze", None),
        # corpus
        (cli, "read_dataset", "corpus.read_dataset", None),
        (corpus, "make_batch", "corpus.make_batch", None),
        (Vocabulary, "load", "corpus.vocab_load", None),
        # tensor
        (model, "backward", "tensor.backward", None),
        (tensor, "matmul", "tensor.matmul", _count_matmul),
        (tensor, "embedding_lookup", "tensor.embedding_lookup", _count_lookup),
        (Tensor, "accumulate_grad", "tensor.accumulate_grad", _count_accumulate),
        # model
        (cli, "train_model", "model.train_model", None),
        (model, "validation_nll", "model.validation_nll", None),
        (FCRGModel, "encode", "model.encode", None),
        (FCRGModel, "decode_step", "model.decode_step", _count_decode_step),
        (FCRGModel, "sequence_nll", "model.sequence_nll", None),
        # params
        (ParamStore, "clip_gradients", "params.clip_gradients", _count_clip),
        (ParamStore, "adam_step", "params.adam_step", None),
        (cli, "save_checkpoint", "params.save_checkpoint", _count_checkpoint),
        (cli, "load_checkpoint", "params.load_checkpoint", _count_checkpoint),
        # decoding
        (cli, "beam_search", "decoding.beam_search", _count_beam),
        (decoding, "encode_single", "decoding.encode_single", None),
        # metrics (stemmer included)
        (metrics, "evaluate", "metrics.evaluate", _count_evaluate),
        (metrics, "embedding_table_from_model", "metrics.embedding_table", None),
        (metrics, "bleu_n", "metrics.bleu_n", None),
        (metrics, "rouge_l", "metrics.rouge_l", None),
        (metrics, "meteor_lite", "metrics.meteor_lite", None),
        (metrics, "porter_stem", "metrics.porter_stem", None),
        (metrics, "greedy_matching", "metrics.greedy_matching", None),
        (metrics, "vector_extrema", "metrics.vector_extrema", None),
        # analysis
        (analysis, "group_stats", "analysis.group_stats", None),
        (analysis, "category_score", "analysis.category_score", None),
        (analysis, "lda_fit", "analysis.lda_fit", _count_lda),
        (analysis, "lda_top_words", "analysis.lda_top_words", None),
        (analysis, "length_share_test", "analysis.length_share_test", None),
    ]
    # normalize/tokenize are bound in every module that imported them.
    for module in (cli, corpus, analysis):
        targets.append((module, "normalize", "corpus.normalize", None))
        targets.append((module, "tokenize", "corpus.tokenize", None))
    return targets


def per_op(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as means over ``ops`` traced operations."""
    t, st, n, c = tracer.total, tracer.self_time, tracer.calls, tracer.counts

    def s(name):
        return (t[name] / ops, "s")

    def self_s(name):
        return (st[name] / ops, "s")

    def calls(name):
        return (n[name] / ops, "count")

    def count(name, unit="count"):
        return (c[name] / ops, unit)

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    train_steps_s = t["model.train_model"] - t["model.validation_nll"]
    lda_updates = c["analysis.lda_site_updates"]
    m = {
        "tensor.backward_s": s("tensor.backward"),
        "tensor.backward_self_s": self_s("tensor.backward"),
        "tensor.accumulate_grad_calls": calls("tensor.accumulate_grad"),
        "tensor.accumulate_grad_s": s("tensor.accumulate_grad"),
        "tensor.accumulate_grad_bytes": count("tensor.accumulate_grad_bytes", "bytes"),
        "tensor.accumulate_grad_share": ratio(t["tensor.accumulate_grad"], train_steps_s),
        "tensor.embedding_lookup_calls": calls("tensor.embedding_lookup"),
        "tensor.embedding_grad_dense_bytes": count("tensor.embedding_grad_dense_bytes", "bytes"),
        "tensor.matmul_calls": calls("tensor.matmul"),
        "tensor.matmul_flops": count("tensor.matmul_flops", "flop"),
        "tensor.matmul_s": s("tensor.matmul"),
        "model.train_steps_s": (train_steps_s / ops, "s"),
        "model.encode_calls": calls("model.encode"),
        "model.encode_s": s("model.encode"),
        "model.decode_step_calls": calls("model.decode_step"),
        "model.decode_step_rows": count("model.decode_step_rows"),
        "model.decode_step_s": s("model.decode_step"),
        "model.sequence_nll_s": s("model.sequence_nll"),
        "model.sequence_nll_self_s": self_s("model.sequence_nll"),
        "model.validation_nll_s": s("model.validation_nll"),
        "params.clip_gradients_s": s("params.clip_gradients"),
        "params.clipped_step_ratio": ratio(c["params.clipped_steps"], n["params.clip_gradients"]),
        "params.adam_step_s": s("params.adam_step"),
        "params.save_checkpoint_s": s("params.save_checkpoint"),
        "params.load_checkpoint_s": s("params.load_checkpoint"),
        "params.checkpoint_bytes": count("params.checkpoint_bytes", "bytes"),
        "decoding.beam_search_calls": calls("decoding.beam_search"),
        "decoding.beam_search_s": s("decoding.beam_search"),
        "decoding.selection_s": self_s("decoding.beam_search"),
        "decoding.selection_share": ratio(st["decoding.beam_search"], t["decoding.beam_search"]),
        "decoding.candidates_scored": count("decoding.candidates_scored"),
        "decoding.responses": count("decoding.responses"),
        "decoding.forced_ratio": ratio(c["decoding.forced"], c["decoding.responses"]),
        "metrics.evaluate_s": s("metrics.evaluate"),
        "metrics.bleu_n_calls": calls("metrics.bleu_n"),
        "metrics.bleu_n_s": s("metrics.bleu_n"),
        "metrics.rouge_l_s": s("metrics.rouge_l"),
        "metrics.meteor_lite_calls": calls("metrics.meteor_lite"),
        "metrics.meteor_lite_s": s("metrics.meteor_lite"),
        "metrics.porter_stem_calls": calls("metrics.porter_stem"),
        "metrics.porter_stem_s": s("metrics.porter_stem"),
        "metrics.greedy_matching_s": s("metrics.greedy_matching"),
        "metrics.vector_extrema_s": s("metrics.vector_extrema"),
        "metrics.embedding_table_s": s("metrics.embedding_table"),
        "metrics.skipped_pairs": count("metrics.skipped_pairs"),
        "metrics.negative_extrema": count("metrics.negative_extrema"),
        "analysis.group_stats_s": s("analysis.group_stats"),
        "analysis.category_score_calls": calls("analysis.category_score"),
        "analysis.lda_fit_s": s("analysis.lda_fit"),
        "analysis.lda_site_updates": count("analysis.lda_site_updates"),
        "analysis.lda_us_per_site_update": ((t["analysis.lda_fit"] / lda_updates * 1e6) if lda_updates else 0.0, "us"),
        "analysis.lda_top_words_s": s("analysis.lda_top_words"),
        "analysis.length_share_test_s": s("analysis.length_share_test"),
        "corpus.read_dataset_s": s("corpus.read_dataset"),
        "corpus.normalize_calls": calls("corpus.normalize"),
        "corpus.normalize_s": s("corpus.normalize"),
        "corpus.tokenize_calls": calls("corpus.tokenize"),
        "corpus.tokenize_s": s("corpus.tokenize"),
        "corpus.make_batch_s": s("corpus.make_batch"),
        "corpus.vocab_load_s": s("corpus.vocab_load"),
    }
    for command in ("train", "generate", "evaluate", "analyze"):
        m[f"cli.{command}_self_s"] = self_s(f"cli.{command}")
    return m
