"""Command-line pipeline: preprocess, train, generate, evaluate, analyze,
gradcheck.

Every subcommand reads flat ``key=value`` settings (``--config`` file plus
``--set`` overrides), writes its outputs under ``--run-dir``, and drops the
fully resolved configuration beside them.  All randomness flows from seeds in
the configuration, so reruns with identical inputs are byte-identical for a
fixed numpy/BLAS build and BLAS thread count (the thread count can change the
low bits of a GEMM).
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import analysis, metrics
from .corpus import (
    RESERVED_TOKENS,
    RawPair,
    SplitSpec,
    Vocabulary,
    build_vocabulary,
    corpus_statistics,
    encode_pair,
    normalize,
    read_dataset,
    read_gazetteer,
    read_lines,
    split_dataset,
    tokenize,
    write_dataset,
    write_text,
)
from .decoding import DecodeConfig, beam_search
from .model import FCRGModel, ModelConfig, check_layout, train_model
from .params import GradDiff, ParamStore, TrainConfig, finite_diff_report, load_checkpoint, save_checkpoint


# ---------------------------------------------------------------- run config

# Every setting default is defined once, by the code that uses it: the config
# dataclasses and a few library keywords.  Public setting keys are the owners'
# names, except for these renames.
_RENAMES = {
    ModelConfig: {"seed": "model_seed"},
    TrainConfig: {"beta1": "adam_beta1", "beta2": "adam_beta2", "epsilon": "adam_epsilon"},
    DecodeConfig: {"max_len": "decode_max_len"},
    SplitSpec: {"train": "train_ratio", "validation": "validation_ratio", "test": "test_ratio", "seed": "split_seed"},
}


def _field_defaults(cls) -> dict[str, object]:
    renames = _RENAMES[cls]
    return {
        renames.get(f.name, f.name): f.default
        for f in dataclasses.fields(cls)
        if f.default is not dataclasses.MISSING
    }


def _keyword_defaults(function, **keys: str) -> dict[str, object]:
    """``keys`` maps keyword names of ``function`` to setting keys."""
    parameters = inspect.signature(function).parameters
    return {key: parameters[name].default for name, key in keys.items()}


# Flat setting table; the default's type decides how override text is parsed.
DEFAULTS: dict[str, object] = {
    **_field_defaults(ModelConfig),
    **_field_defaults(TrainConfig),
    **_keyword_defaults(train_model, shuffle_seed="shuffle_seed"),
    **_field_defaults(SplitSpec),
    **_keyword_defaults(build_vocabulary, min_count="min_count"),
    **_field_defaults(DecodeConfig),
    # topic model: lda_fit has no default for these (lda_alpha < 0 means its 50/num_topics default)
    "num_topics": 5,
    "lda_alpha": -1.0,
    **_keyword_defaults(analysis.lda_fit, beta="lda_beta", iterations="lda_iterations", seed="lda_seed"),
}


def _coerce(key: str, text: str, where: str = "") -> object:
    """Parse ``text`` as the type of ``key``'s default; ``where`` prefixes the error."""
    default = DEFAULTS[key]
    try:
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        return text
    except ValueError:
        raise ValueError(f"{where}config key {key!r}: cannot parse {text!r} as {type(default).__name__}") from None


def load_run_config(config_path: Optional[str], overrides: Sequence[str]) -> dict:
    """Defaults, then the config file, then --set overrides; unknown and repeated file keys rejected."""
    settings = dict(DEFAULTS)
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ValueError(f"config file not found: {path}")
        first_line: dict[str, int] = {}
        for lineno, line in enumerate(read_lines(path), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key=value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in settings:
                raise ValueError(f"{path}: line {lineno}: unknown config key {key!r}")
            if key in first_line:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate config key {key!r} (first set on line {first_line[key]})"
                )
            first_line[key] = lineno
            settings[key] = _coerce(key, value, f"{path}: line {lineno}: ")
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"--set {item!r}: expected key=value")
        key, value = item.split("=", 1)
        if key not in settings:
            raise ValueError(f"--set: unknown config key {key!r}")
        settings[key] = _coerce(key, value)
    return settings


def _prepare_run_dir(run_dir: str, settings: dict) -> Path:
    out = Path(run_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"{k}={settings[k]}" for k in sorted(settings)]
    write_text(out / "config.resolved", "\n".join(lines) + "\n")
    return out


def _build(cls, settings: dict, **extra):
    """Construct a config dataclass from the settings it owns, plus ``extra`` fields."""
    renames = _RENAMES[cls]
    values = {f.name: settings[renames.get(f.name, f.name)] for f in dataclasses.fields(cls) if f.name not in extra}
    return cls(**values, **extra)


def _load_gazetteer(path: Optional[str]) -> frozenset[str]:
    return read_gazetteer(path) if path else frozenset()


def _open_checkpoint(
    path: str, vocab_path: str, names: Optional[Sequence[str]] = None
) -> tuple[ModelConfig, ParamStore, Vocabulary]:
    """The config and parameters in checkpoint ``path`` (only ``names``, if given) and the vocabulary naming its rows.

    Whichever parameters are read, the whole header, the payload's length and
    the header's parameter layout are checked against the config, and the
    vocabulary's size must match.
    """
    store, meta = load_checkpoint(path, names)
    try:
        config = ModelConfig(**meta["config"])
        check_layout(config, {(name, shape, meta["dtype"]) for name, shape in meta["layout"].items()})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    vocab = Vocabulary.load(vocab_path)
    if vocab.size != config.vocab_size:
        raise ValueError(f"vocabulary size {vocab.size} does not match checkpoint vocab_size {config.vocab_size}")
    return config, store, vocab


def _pair_error(path, index: int, exc: ValueError) -> ValueError:
    """``exc`` prefixed with the line that holds ``read_dataset(path)[index]``; that reader skips only blank lines."""
    lineno = [n for n, line in enumerate(read_lines(path), 1) if line][index]
    return ValueError(f"{path}: line {lineno}: {exc}")


# ---------------------------------------------------------------- subcommands


def cmd_preprocess(args, settings: dict) -> int:
    out = _prepare_run_dir(args.run_dir, settings)
    gazetteer = _load_gazetteer(args.gazetteer)
    pairs = read_dataset(args.dataset)
    if not pairs:
        raise ValueError(f"{args.dataset}: dataset is empty")

    normalized = []
    for index, p in enumerate(pairs):
        original, reply = normalize(p.original_text, gazetteer), normalize(p.reply_text, gazetteer)
        try:
            normalized.append(RawPair(original, reply, p.share_count, p.label))
        except ValueError as exc:
            raise _pair_error(args.dataset, index, exc) from None
    write_dataset(out / "normalized.tsv", normalized)

    train, validation, test = split_dataset(normalized, _build(SplitSpec, settings))
    write_dataset(out / "train.tsv", train)
    write_dataset(out / "validation.tsv", validation)
    write_dataset(out / "test.tsv", test)

    token_lists = []
    for p in train:
        token_lists.append(tokenize(p.original_text))
        token_lists.append(tokenize(p.reply_text))
    vocab = build_vocabulary(token_lists, min_count=settings["min_count"])
    vocab.save(out / "vocab.tsv")

    stats = corpus_statistics(normalized, min_count=settings["min_count"])
    stats_lines = [f"{k}\t{stats[k]}" for k in sorted(stats)]
    stats_lines.append(f"pairs\t{len(pairs)}")
    stats_lines.append(f"train_pairs\t{len(train)}")
    stats_lines.append(f"validation_pairs\t{len(validation)}")
    stats_lines.append(f"test_pairs\t{len(test)}")
    write_text(out / "stats.tsv", "\n".join(stats_lines) + "\n")
    print(f"preprocess: {len(pairs)} pairs, vocabulary {vocab.size}, outputs in {out}")
    return 0


def _encode_split(path, vocab: Vocabulary, settings: dict) -> list:
    pairs = read_dataset(path)
    if not pairs:
        raise ValueError(f"{path}: split is empty")
    lengths = {key: settings[key] for key in ("max_source_len", "max_target_len")}
    encoded = []
    for index, p in enumerate(pairs):
        try:
            encoded.append(encode_pair(p, vocab, **lengths))
        except ValueError as exc:
            raise _pair_error(path, index, exc) from None
    return encoded


def cmd_train(args, settings: dict) -> int:
    out = _prepare_run_dir(args.run_dir, settings)
    vocab = Vocabulary.load(args.vocab)
    train_pairs = _encode_split(args.train, vocab, settings)
    val_pairs = _encode_split(args.validation, vocab, settings)
    model = FCRGModel(_build(ModelConfig, settings, vocab_size=vocab.size))

    log_lines = ["epoch\ttrain_nll\tvalidation_nll"]

    def log(record):
        log_lines.append(f"{record.epoch}\t{record.train_nll_per_token:.6f}\t{record.validation_nll_per_token:.6f}")
        print(log_lines[-1])

    result = train_model(
        model, train_pairs, val_pairs, _build(TrainConfig, settings),
        shuffle_seed=settings["shuffle_seed"], log=log,
    )
    write_text(out / "epochs.tsv", "\n".join(log_lines) + "\n")
    save_checkpoint(
        out / "model.ckpt", model.params, model.config.to_dict(),
        seed=settings["model_seed"], epoch=result.best_epoch,
    )
    print(f"train: best epoch {result.best_epoch}, validation nll {result.best_validation_nll:.6f}")
    return 0


def cmd_generate(args, settings: dict) -> int:
    out = _prepare_run_dir(args.run_dir, settings)
    config, store, vocab = _open_checkpoint(args.checkpoint, args.vocab)
    model = FCRGModel(config, params=store)
    gazetteer = _load_gazetteer(args.gazetteer)
    decode = _build(DecodeConfig, settings)
    sources = list(read_lines(args.sources))
    if not sources:
        raise ValueError(f"{args.sources}: no source lines")

    lines = []
    for index, text in enumerate(sources):
        tokens = tokenize(normalize(text, gazetteer))[: model.config.max_source_len]
        if not tokens:
            raise ValueError(f"{args.sources}: line {index + 1}: source normalizes to zero tokens")
        responses = beam_search(vocab.encode(tokens), model, decode)
        for rank, response in enumerate(responses, 1):
            words = " ".join(vocab.decode(response.ids))
            lines.append(f"{index}\t{rank}\t{response.log_prob:.6f}\t{words}")
    write_text(out / "generations.tsv", "\n".join(lines) + "\n")
    print(f"generate: {len(sources)} sources, beam {decode.beam_size}, outputs in {out}")
    return 0


def _indexed_rows(path, width: int):
    """``(lineno, source index, fields)`` for each non-blank line of ``width`` tab-separated fields."""
    for lineno, line in enumerate(read_lines(path), 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != width:
            raise ValueError(f"{path}: line {lineno}: expected {width} tab-separated fields")
        try:
            index = int(parts[0])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: bad source index {parts[0]!r}") from None
        yield lineno, index, parts


def _read_generations(path) -> dict[int, list[list[str]]]:
    """``index <TAB> rank <TAB> log_prob <TAB> tokens`` per line; each (index, rank) once."""
    result: dict[int, list[list[str]]] = {}
    first_line: dict[tuple[int, int], int] = {}
    for lineno, index, parts in _indexed_rows(path, 4):
        try:
            rank = int(parts[1])
            if rank < 1:
                raise ValueError
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: rank must be an integer >= 1, got {parts[1]!r}") from None
        try:
            float(parts[2])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: log-prob must be a number, got {parts[2]!r}") from None
        if (index, rank) in first_line:
            first = first_line[index, rank]
            raise ValueError(f"{path}: line {lineno}: duplicate rank {rank} for source {index} (first on line {first})")
        first_line[index, rank] = lineno
        result.setdefault(index, []).append(parts[3].split())
    if not result:
        raise ValueError(f"{path}: no generations")
    return result


def _read_references(path) -> dict[int, list[str]]:
    """``index <TAB> tokens`` per line."""
    result: dict[int, list[str]] = {}
    for lineno, index, parts in _indexed_rows(path, 2):
        if index in result:
            raise ValueError(f"{path}: line {lineno}: duplicate source index {index}")
        tokens = parts[1].split()
        if not tokens:
            raise ValueError(f"{path}: line {lineno}: reference has no tokens")
        result[index] = tokens
    if not result:
        raise ValueError(f"{path}: no references")
    return result


def cmd_evaluate(args, settings: dict) -> int:
    if args.checkpoint and not args.vocab:
        raise ValueError("--checkpoint needs --vocab to name the embedding rows")
    if args.vocab and not args.checkpoint:
        raise ValueError("--vocab names a checkpoint's embedding rows, so it needs --checkpoint")
    out = _prepare_run_dir(args.run_dir, settings)
    generations = _read_generations(args.generations)
    references = _read_references(args.references)
    if generations.keys() - references.keys():
        lineno, index = next((n, i) for n, i, _ in _indexed_rows(args.generations, 4) if i not in references)
        raise ValueError(f"{args.generations}: line {lineno}: no reference for source index {index}")
    table = None
    if args.embeddings:
        table = metrics.load_embedding_table(args.embeddings)
    elif args.checkpoint:
        _, store, vocab = _open_checkpoint(args.checkpoint, args.vocab, names=("embedding",))
        table = metrics.embedding_table_from_model(store["embedding"].data, vocab)
        del store, vocab  # the table holds its own copy: free the embedding and vocabulary before scoring
    else:
        print("evaluate: no embeddings given; skipping greedy matching and vector extrema")
    report = metrics.evaluate(generations, references, table)
    write_text(out / "metrics.tsv", report.to_tsv())
    detail = []
    for name in metrics.METRIC_NAMES:
        for index in sorted(report.per_source.get(name, ())):
            detail.append(f"{name}\t{index}\t{report.per_source[name][index] * 100.0:.3f}")
    write_text(out / "per_source.tsv", "\n".join(detail) + "\n")
    print(report.to_tsv(), end="")
    for name, count in sorted(report.skipped.items()):
        if count:
            print(f"evaluate: {name}: skipped {count} pair(s) with no in-table tokens")
    if report.negative_extrema:
        print(f"evaluate: vector_extrema: {report.negative_extrema} negative cosine(s) clamped to 0")
    return 0


def cmd_analyze(args, settings: dict) -> int:
    out = _prepare_run_dir(args.run_dir, settings)
    gazetteer = _load_gazetteer(args.gazetteer)
    pairs = read_dataset(args.dataset)
    if not pairs:
        raise ValueError(f"{args.dataset}: dataset is empty")
    reply_docs = analysis.reply_tokens(pairs, gazetteer)

    lines: list[str] = []

    lexicon_path = args.lexicon or Path(__file__).parent / "data" / "demo_lexicon.tsv"
    lexicon = analysis.Lexicon.load(lexicon_path)
    groups: dict[str, list[list[str]]] = {}
    for p, doc in zip(pairs, reply_docs):
        groups.setdefault(p.label or "all", []).append(doc)
    lines.append("section\tgroup\tcategory\tmean\tvariance\tn")
    for group in sorted(groups):
        docs = [doc for doc in groups[group] if doc]
        if len(docs) < 2:
            print(f"analyze: {group}: skipped, fewer than 2 non-empty replies")
            continue
        if len(docs) < len(groups[group]):
            print(f"analyze: {group}: skipped {len(groups[group]) - len(docs)} empty repl(ies)")
        stats = analysis.group_stats(docs, lexicon)
        for category in lexicon.categories:
            lines.append(
                f"lexicon\t{group}\t{category}\t{stats.means[category]:.6f}"
                f"\t{stats.variances[category]:.6f}\t{stats.sample_size}"
            )

    documents = [doc for doc in reply_docs if doc]
    if documents:
        alpha = None if settings["lda_alpha"] < 0 else settings["lda_alpha"]
        topics = analysis.lda_fit(
            documents,
            num_topics=settings["num_topics"],
            alpha=alpha,
            beta=settings["lda_beta"],
            iterations=settings["lda_iterations"],
            seed=settings["lda_seed"],
        )
        for k, words in enumerate(analysis.lda_top_words(topics, 10)):
            lines.append(f"topic\t{k}\t{' '.join(words)}")

    if any(p.share_count is not None for p in pairs):
        try:
            statistic, p_value = analysis.length_share_test(pairs, reply_docs)
            lines.append(f"length_share_test\tU={statistic:.1f}\tp={p_value:.6f}")
        except ValueError as exc:
            lines.append(f"length_share_test\tskipped\t{exc}")

    write_text(out / "analysis.tsv", "\n".join(lines) + "\n")
    print(f"analyze: {len(pairs)} pairs, outputs in {out}")
    return 0


# Pinned tiny configuration for the gradient check.
_GRADCHECK = dict(vocab_size=20, embed_dim=8, hidden_size=8, output_size=8, source_len=6, target_len=5)
_GRADCHECK_TOLERANCE = 1e-4


def gradcheck_report(samples_per_param: int = 25) -> dict[str, dict[str, GradDiff]]:
    """The finite-difference report per parameter, per attention kind."""
    from .corpus import BOS, EOS, make_batch, EncodedPair

    g = _GRADCHECK
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(3):
        source = rng.integers(len(RESERVED_TOKENS), g["vocab_size"], size=g["source_len"]).tolist()
        body = rng.integers(len(RESERVED_TOKENS), g["vocab_size"], size=g["target_len"]).tolist()
        pairs.append(EncodedPair(source, [BOS] + body + [EOS]))
    batch = make_batch(pairs)

    report: dict[str, dict[str, float]] = {}
    for attention in ("dot", "bilinear"):
        config = ModelConfig(
            vocab_size=g["vocab_size"], embed_dim=g["embed_dim"], hidden_size=g["hidden_size"],
            output_size=g["output_size"], max_source_len=g["source_len"], max_target_len=g["target_len"] + 2,
            attention=attention, dropout=0.0, seed=11, dtype="float64",
        )
        model = FCRGModel(config)
        report[attention] = finite_diff_report(
            lambda: model.sequence_nll(batch, train=False)[0],
            model.params,
            samples_per_param=samples_per_param,
            seed=3,
        )
    return report


def cmd_gradcheck(args, settings: dict) -> int:
    report = gradcheck_report()
    # max_rel_error counts a coordinate within the absolute floor as exact;
    # max_abs_error and above_floor show how near the floor the differences are.
    lines = ["attention\tparameter\tmax_rel_error\tmax_abs_error\tabove_floor"]
    worst, worst_abs, above, sampled = 0.0, 0.0, 0, 0
    for attention, diffs in report.items():
        for name in sorted(diffs):
            d = diffs[name]
            lines.append(f"{attention}\t{name}\t{d.max_rel_error:.3e}\t{d.max_abs_error:.3e}\t{d.above_floor}/{d.sampled}")
            worst, worst_abs = max(worst, d.max_rel_error), max(worst_abs, d.max_abs_error)
            above, sampled = above + d.above_floor, sampled + d.sampled
    text = "\n".join(lines) + f"\nworst\t-\t{worst:.3e}\t{worst_abs:.3e}\t{above}/{sampled}\n"
    if args.run_dir:
        out = _prepare_run_dir(args.run_dir, settings)
        write_text(out / "gradcheck.tsv", text)
    print(text, end="")
    if worst >= _GRADCHECK_TOLERANCE:
        print(f"gradcheck: FAILED (worst {worst:.3e} >= {_GRADCHECK_TOLERANCE})", file=sys.stderr)
        return 1
    print(f"gradcheck: ok (worst {worst:.3e} < {_GRADCHECK_TOLERANCE})")
    return 0


# ---------------------------------------------------------------- wiring


def _add_common(sub: argparse.ArgumentParser, run_dir_required: bool = True) -> None:
    sub.add_argument("--config", help="key=value settings file")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override one setting")
    sub.add_argument("--run-dir", required=run_dir_required, help="directory for all outputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fcrg", description="Fact-checking response generation pipeline.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("preprocess", help="normalize, split and build the vocabulary")
    p.add_argument("--dataset", required=True)
    p.add_argument("--gazetteer")
    _add_common(p)
    p.set_defaults(func=cmd_preprocess)

    p = subs.add_parser("train", help="train a model on preprocessed splits")
    p.add_argument("--train", required=True)
    p.add_argument("--validation", required=True)
    p.add_argument("--vocab", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("generate", help="beam-search responses for source texts")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sources", required=True, help="one source text per line")
    p.add_argument("--vocab", required=True)
    p.add_argument("--gazetteer")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser("evaluate", help="score generations against references")
    p.add_argument("--generations", required=True)
    p.add_argument("--references", required=True)
    embeddings = p.add_mutually_exclusive_group()
    embeddings.add_argument("--embeddings", help="token-vector file for the embedding metrics")
    embeddings.add_argument("--checkpoint", help="use a checkpoint's embedding instead")
    p.add_argument("--vocab")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("analyze", help="lexicon, topic and share-count analyses")
    p.add_argument("--dataset", required=True)
    p.add_argument("--lexicon", help="category lexicon (defaults to the bundled demo)")
    p.add_argument("--gazetteer")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("gradcheck", help="finite-difference check on a pinned tiny model")
    _add_common(p, run_dir_required=False)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = load_run_config(args.config, args.set)
        return args.func(args, settings)
    except (OSError, ValueError) as exc:
        print(f"fcrg {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
