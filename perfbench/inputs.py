"""Seeded input generator for every benchmark workload.

``build(workload, seed, directory, size)`` writes all the files one workload
needs: corpus TSVs, vocabulary, sources, references, generations, CLI config
files and, where a workload needs one, a seeded checkpoint.  The same
(workload, seed, size) always gives byte-identical files; a different seed
gives different words, texts and parameters.  ``meta.json`` records the work
each file set carries (scored tokens, sources, pairs, LDA site updates) so
rates can be computed without re-reading the inputs.

Why each workload has its shape:

train
    Paper scale (V=20k, D=H=300, O=256, batch 32, dot attention, dropout
    0.2), one epoch plus validation and the checkpoint write.  Sources are
    10-40 tokens and targets 6-20, so every batch unrolls about 40 encoder
    and 20 decoder steps; each step looks up embeddings whose backward
    allocates a dense (V x D) gradient, which makes this the workload where
    ``tensor`` backward and ``params`` Adam do most of their work.
generate
    Beam 15, min_tokens 5, max_len 20 against a paper-scale checkpoint, one
    source per command.  Candidate selection scans k x V (about 300k)
    candidates per step, so ``decoding`` dominates while ``model`` runs
    forward-only on at most 15 rows.  A freshly initialised model never ranks
    </s> high enough to finish a hypothesis, which would leave the completed
    pool and the min-length mask idle, so the checkpoint gets a small </s>
    bias: depending on the source, responses end with </s> at different
    lengths (never below min_tokens) or run to max_len and are force-finished.
score
    ``evaluate`` with the checkpoint's embedding table, then ``analyze``
    with the bundled lexicon, LDA and the share test.  The corpus is Zipfian
    with URLs, mentions, numbers, share counts and true/false labels, and
    mixes in lexicon words and inflected forms so that Porter-stem matches
    occur.  Some responses repeat words, which widens METEOR's chunk search,
    a few use only out-of-table words, so skipped pairs are counted, and one
    per source shares no words with its reference, so some vector-extrema
    cosines come out negative.
    ``metrics``, ``stemmer`` and ``analysis`` do pure-Python work here.

Length multisets (sources, targets, references, replies) are fixed per size;
the seed decides their order and every word, so each seed carries the same
amount of work and run-to-run differences come from the machine, not the
inputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("train", "generate", "score")

# Model and decoding shape per size; "paper" is what the benchmark times,
# "tiny" is for the self-test and the stored reference case.  ``eos_bias`` is
# the </s> logit offset wired into generate's checkpoint (``_write_checkpoint``),
# set per size so that </s> competes with the best other tokens.
SIZES = {
    "paper": dict(vocab=20000, embed=300, hidden=300, output=256, batch=32,
                  train_pairs=64, validation_pairs=32, sources=1, eos_bias=0.25,
                  score_sources=20, analyze_pairs=400, lda_iterations=20),
    "tiny": dict(vocab=400, embed=16, hidden=16, output=16, batch=8,
                 train_pairs=16, validation_pairs=8, sources=4, eos_bias=0.5,
                 score_sources=4, analyze_pairs=60, lda_iterations=3),
}
BEAM_SIZE, MIN_TOKENS, MAX_LEN = 15, 5, 20
SOURCE_LENGTHS = (10, 40)
TARGET_LENGTHS = (6, 20)
ZIPF_EXPONENT = 1.1

PLACEHOLDER_TOKENS = ("url", "@user", "<number>")
PUNCTUATION = (".", ",", "!", "?")
# Lexicon words (bundled demo lexicon) and inflection families whose members
# share a Porter stem, so METEOR finds stem matches between them.
LEXICON_WORDS = ("it", "that", "this", "nothing", "everyone", "not", "never", "no",
                 "don't", "isn't", "damn", "stupid", "fool", "was", "were", "said",
                 "claimed", "posted", "shared", "debunked", "happened")
INFLECTIONS = (
    ("claim", "claims", "claimed", "claiming"),
    ("report", "reports", "reported", "reporting"),
    ("check", "checks", "checked", "checking"),
    ("share", "shares", "shared", "sharing"),
    ("debunk", "debunks", "debunked", "debunking"),
    ("mislead", "misleads", "misleading"),
    ("fabricate", "fabricated", "fabricating", "fabrication"),
    ("connect", "connected", "connecting", "connection"),
)
_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"


def _words(rng: np.random.Generator, count: int, exclude: set[str]) -> list[str]:
    """``count`` distinct lowercase pseudo-words of 2-4 syllables."""
    out: list[str] = []
    seen = set(exclude)
    while len(out) < count:
        n = int(rng.integers(2, 5))
        word = "".join(_CONSONANTS[c] + _VOWELS[v] for c, v in
                       zip(rng.integers(0, len(_CONSONANTS), n), rng.integers(0, len(_VOWELS), n)))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


class _Language:
    """A seeded vocabulary with Zipfian sampling and surface rendering."""

    def __init__(self, rng: np.random.Generator, vocab_size: int):
        fixed = list(PLACEHOLDER_TOKENS) + list(PUNCTUATION) + list(LEXICON_WORDS)
        fixed += [w for family in INFLECTIONS for w in family if w not in fixed]
        self.rng = rng
        self.tokens = fixed + _words(rng, vocab_size - 4 - len(fixed), set(fixed))
        self.content = [t for t in self.tokens if t not in PLACEHOLDER_TOKENS and t not in PUNCTUATION]
        ranks = np.arange(1, len(self.content) + 1, dtype=np.float64)
        weights = ranks ** -ZIPF_EXPONENT
        self.cdf = np.cumsum(weights / weights.sum())
        self.cdf[-1] = 1.0
        # Word order in Zipf rank is seeded, so frequent words differ by seed.
        self.content = [self.content[i] for i in rng.permutation(len(self.content))]

    def zipf(self, n: int) -> list[str]:
        return [self.content[i] for i in np.searchsorted(self.cdf, self.rng.random(n), side="right")]

    def sentence(self, length: int) -> list[str]:
        """``length`` tokens: Zipfian words with occasional placeholders and punctuation."""
        tokens = self.zipf(length)
        for i in range(length):
            roll = self.rng.random()
            if roll < 0.03:
                tokens[i] = PLACEHOLDER_TOKENS[int(self.rng.integers(0, 3))]
            elif roll < 0.08 and i > 0:
                tokens[i] = PUNCTUATION[int(self.rng.integers(0, 4))]
        return tokens

    def render(self, tokens: list[str]) -> str:
        """Surface text that ``tokenize(normalize(text))`` maps back to ``tokens``."""
        parts: list[str] = []
        for i, token in enumerate(tokens):
            if token == "url":
                text = "https://t.co/" + "".join(self.rng.choice(list("abcXYZ0123456789"), 8))
            elif token == "@user":
                text = "@" + self.content[int(self.rng.integers(0, 50))].capitalize()
            elif token == "<number>":
                text = f"{int(self.rng.integers(1, 100000)):,}"
            else:
                text = token.capitalize() if i == 0 else token
            if token in PUNCTUATION and parts and tokens[i - 1] not in PLACEHOLDER_TOKENS:
                parts[-1] += text
            else:
                parts.append(text)
        return " ".join(parts)


def _stratified(rng: np.random.Generator, bounds: tuple[int, int], count: int) -> list[int]:
    """``count`` lengths spread evenly over ``bounds`` (inclusive), in seeded order."""
    lo, hi = bounds
    lengths = [lo + (i * (hi - lo + 1)) // count for i in range(count)]
    return [lengths[i] for i in rng.permutation(count)]


def _write_vocab(path: Path, lang: _Language, rng: np.random.Generator) -> None:
    tokens = ["<pad>", "<s>", "</s>", "<unk>"] + lang.tokens
    counts = [0, 0, 0, 0] + sorted(rng.integers(3, 5000, len(lang.tokens)).tolist(), reverse=True)
    path.write_text("".join(f"{t}\t{i}\t{c}\n" for i, (t, c) in enumerate(zip(tokens, counts))), encoding="utf-8")


def _write_config(path: Path, settings: dict) -> None:
    path.write_text("".join(f"{k}={v}\n" for k, v in settings.items()), encoding="utf-8")


def _pair_row(lang: _Language, source: list[str], reply: list[str], shares: int, label: str) -> str:
    return f"{lang.render(source)}\t{lang.render(reply)}\t{shares}\t{label}\n"


def _model_settings(size: dict, seed: int) -> dict:
    return dict(embed_dim=size["embed"], hidden_size=size["hidden"], output_size=size["output"],
                attention="dot", dropout=0.2, batch_size=size["batch"], model_seed=seed % 100003)


def _write_checkpoint(path: Path, size: dict, seed: int, eos_bias: float = 0.0) -> None:
    """A freshly initialised model at the workload's shape, seeded from ``seed``.

    The network has no bias terms, so a non-zero ``eos_bias`` is wired in:
    embedding row 0 becomes a constant input, which drives decoder hidden
    unit 0 to about +1 (candidate gate on, update gate off); that unit drives
    output unit 0 to about +1, whose ``out_vocab`` weight into </s> is
    ``eos_bias``.  The </s> logit is then ``eos_bias`` plus the usual noise,
    whatever the source.
    """
    from fcrg.corpus import EOS
    from fcrg.model import FCRGModel, ModelConfig
    from fcrg.params import save_checkpoint

    settings = _model_settings(size, seed)
    config = ModelConfig(vocab_size=size["vocab"], embed_dim=settings["embed_dim"],
                         hidden_size=settings["hidden_size"], output_size=settings["output_size"],
                         attention="dot", dropout=0.2, seed=settings["model_seed"])
    model = FCRGModel(config)
    if eos_bias:
        p = model.params
        p["embedding"].data[0, :] = 1.0
        p["dec_candidate_x"].data[0, 0] = 10.0
        p["dec_update_x"].data[0, 0] = -10.0
        p["out_hidden"].data[config.hidden_size, 0] = 10.0
        p["out_vocab"].data[0, EOS] = eos_bias
    save_checkpoint(path, model.params, config.to_dict(), seed=config.seed)


def _build_train(out: Path, lang: _Language, rng, size: dict, seed: int) -> dict:
    target_tokens = 0
    for name, count in (("train", size["train_pairs"]), ("validation", size["validation_pairs"])):
        sources = _stratified(rng, SOURCE_LENGTHS, count)
        targets = _stratified(rng, TARGET_LENGTHS, count)
        with open(out / f"{name}.tsv", "w", encoding="utf-8") as fh:
            for s_len, t_len in zip(sources, targets):
                fh.write(_pair_row(lang, lang.sentence(s_len), lang.sentence(t_len),
                                   int(rng.geometric(0.01)), ("true", "false")[int(rng.integers(0, 2))]))
        if name == "train":
            target_tokens = sum(targets) + count  # every content token plus </s>
    settings = _model_settings(size, seed)
    settings.update(max_epochs=1, shuffle_seed=seed % 1009)
    _write_config(out / "train.cfg", settings)
    return {"train_target_tokens": target_tokens, "train_pairs": size["train_pairs"]}


def _build_generate(out: Path, lang: _Language, rng, size: dict, seed: int) -> dict:
    lengths = rng.integers(SOURCE_LENGTHS[0], SOURCE_LENGTHS[1] + 1, size["sources"])
    (out / "sources.txt").write_text("".join(lang.render(lang.sentence(int(n))) + "\n" for n in lengths),
                                     encoding="utf-8")
    _write_checkpoint(out / "model.ckpt", size, seed, size["eos_bias"])
    _write_config(out / "generate.cfg", dict(beam_size=BEAM_SIZE, min_tokens=MIN_TOKENS, decode_max_len=MAX_LEN))
    return {"sources": size["sources"]}


def _perturb(lang: _Language, rng, reference: list[str]) -> list[str]:
    """A response near ``reference``: swaps, inflections, repeats and moves."""
    family_of = {w: family for family in INFLECTIONS for w in family}
    out = []
    for token in reference:
        roll = rng.random()
        if roll < 0.25:
            out.append(lang.zipf(1)[0])
        elif roll < 0.45 and token in family_of:
            family = family_of[token]
            out.append(family[int(rng.integers(0, len(family)))])
        else:
            out.append(token)
    if rng.random() < 0.3:  # repeated words widen METEOR's alignment search
        word = out[int(rng.integers(0, len(out)))]
        for _ in range(int(rng.integers(1, 3))):
            out.insert(int(rng.integers(0, len(out) + 1)), word)
    if rng.random() < 0.5 and len(out) > 3:  # move a span to break chunks
        i = int(rng.integers(0, len(out) - 2))
        span = out[i:i + 2]
        del out[i:i + 2]
        out.insert(int(rng.integers(0, len(out) + 1)), span[0])
        out.insert(int(rng.integers(0, len(out) + 1)), span[1])
    return out[:MAX_LEN] or reference[:1]


def _reply(lang: _Language, rng, length: int) -> list[str]:
    """Zipfian reply tokens with lexicon words and inflected forms mixed in."""
    tokens = lang.sentence(length)
    for i in range(length):
        roll = rng.random()
        if roll < 0.12:
            tokens[i] = LEXICON_WORDS[int(rng.integers(0, len(LEXICON_WORDS)))]
        elif roll < 0.24:
            family = INFLECTIONS[int(rng.integers(0, len(INFLECTIONS)))]
            tokens[i] = family[int(rng.integers(0, len(family)))]
    return tokens


def _build_score(out: Path, lang: _Language, rng, size: dict, seed: int) -> dict:
    out_of_table = _words(rng, 4, set(lang.tokens))  # never in the vocabulary
    gen_lines, ref_lines = [], []
    pairs = 0
    for index, length in enumerate(_stratified(rng, TARGET_LENGTHS, size["score_sources"])):
        reference = _reply(lang, rng, length)
        ref_lines.append(f"{index}\t{' '.join(reference)}\n")
        for rank in range(1, BEAM_SIZE + 1):
            if index % 10 == 0 and rank == BEAM_SIZE:
                response = out_of_table[: int(rng.integers(1, 5))]
            elif rank == BEAM_SIZE - 1:  # unrelated rare words: extrema cosines near 0, some negative
                response = [lang.content[i] for i in rng.integers(len(lang.content) // 2, len(lang.content), 8)]
            else:
                response = _perturb(lang, rng, reference)
            gen_lines.append(f"{index}\t{rank}\t{-3.0 * rank - rng.random():.6f}\t{' '.join(response)}\n")
            pairs += 1
    (out / "generations.tsv").write_text("".join(gen_lines), encoding="utf-8")
    (out / "references.tsv").write_text("".join(ref_lines), encoding="utf-8")

    # Alternate the share test's short (0-9) and long (10-20) buckets.
    half = size["analyze_pairs"] // 2
    lengths = [n for pair in zip(_stratified(rng, (10, 20), half), _stratified(rng, (3, 9), half)) for n in pair]
    lda_tokens = 0
    with open(out / "corpus.tsv", "w", encoding="utf-8") as fh:
        for i, length in enumerate(lengths):
            reply = _reply(lang, rng, length)
            lda_tokens += len(reply)
            shares = int(rng.geometric(0.02 if length >= 10 else 0.03))
            fh.write(_pair_row(lang, lang.sentence(int(rng.integers(*SOURCE_LENGTHS))), reply,
                               shares, ("true", "false")[i % 2 if rng.random() < 0.7 else 1 - i % 2]))
    _write_checkpoint(out / "model.ckpt", size, seed)
    _write_config(out / "analyze.cfg", dict(lda_iterations=size["lda_iterations"], lda_seed=seed % 1013))
    return {"pairs": pairs, "lda_site_updates": lda_tokens * size["lda_iterations"]}


def build(workload: str, seed: int, directory, size: str = "paper") -> dict:
    """Write every input of ``workload`` into ``directory``; returns its meta."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    shape = SIZES[size]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    lang = _Language(rng, shape["vocab"])
    _write_vocab(out / "vocab.tsv", lang, rng)
    make = {"train": _build_train, "generate": _build_generate, "score": _build_score}[workload]
    meta = make(out, lang, rng, shape, seed)
    meta.update(workload=workload, seed=seed, size=size)
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
    return meta


def digest(directory) -> str:
    """sha256 over the names and bytes of every file under ``directory``."""
    h = hashlib.sha256()
    root = Path(directory)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()
