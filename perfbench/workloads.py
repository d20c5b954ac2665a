"""The three workloads: the CLI commands each operation runs, the checks on
their outputs, and the closed-loop measurement.

One caller runs operations in sequence (a closed loop with one client).  An
operation is the workload's CLI command sequence, called in-process through
``fcrg.cli.main(argv)``; it counts as failed when a command exits non-zero,
raises, or any output check fails.  Every operation of a run works on the
same inputs, so its output digest must equal the first operation's.
"""

from __future__ import annotations

import gc
import io
import json
import math
import resource
import shutil
import statistics
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import inputs
from spans import Tracer, per_op

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
# Chosen so that the tiny generate case holds both </s>-finished responses of
# several lengths and force-finished ones.
REFERENCE_SEED = 12
SETUP_REPEATS = 3
MIN_OPS = 2
WARM_UP = {"train"}

# Tolerances against the stored tiny reference case.  Other BLAS kernels and
# thread counts move the tiny case's NLL by about 2e-7 relative and its
# log-probs by about 1e-6; a 1 % error in Adam's first moment moves the NLL by
# about 1e-5.
TRAIN_NLL_RTOL = 5e-6
GENERATE_LOG_PROB_ATOL = 1e-4
SCORE_ATOL = 2e-3  # scores are printed with three decimals on the x100 scale


def _cli(argv: list) -> tuple[int, float, str]:
    from fcrg import cli

    captured = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(captured), redirect_stderr(captured):
        code = cli.main([str(a) for a in argv])
    return code, time.perf_counter() - start, captured.getvalue()


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


# ---------------------------------------------------------------- train


def train_commands(src: Path, out: Path) -> dict[str, list]:
    return {"train": ["train", "--train", src / "train.tsv", "--validation", src / "validation.tsv",
                      "--vocab", src / "vocab.tsv", "--config", src / "train.cfg", "--run-dir", out]}


def train_check(src: Path, out: Path, meta: dict) -> dict:
    from fcrg.params import load_checkpoint

    rows = (out / "epochs.tsv").read_text(encoding="utf-8").splitlines()
    if len(rows) != 2:
        raise ValueError(f"epochs.tsv: expected one epoch row, got {len(rows) - 1}")
    _, train_nll, validation_nll = rows[1].split("\t")
    _, ckpt_meta = load_checkpoint(out / "model.ckpt")
    vocab_rows = sum(1 for _ in open(src / "vocab.tsv", encoding="utf-8"))
    if ckpt_meta["config"]["vocab_size"] != vocab_rows:
        raise ValueError("checkpoint vocab_size does not match the vocabulary")
    return {"train_nll": _finite(train_nll), "validation_nll": _finite(validation_nll)}


def train_compare(values: dict, reference: dict) -> list[str]:
    return [f"{key} {values[key]!r} differs from reference {reference[key]!r} by more than rtol {TRAIN_NLL_RTOL}"
            for key in ("train_nll", "validation_nll")
            if not math.isclose(values[key], reference[key], rel_tol=TRAIN_NLL_RTOL)]


def train_rates(meta: dict, command_s: dict) -> dict:
    return {"train_tokens_per_s": (meta["train_target_tokens"] / command_s["train"], "tokens/s")}


# ---------------------------------------------------------------- generate


def generate_commands(src: Path, out: Path) -> dict[str, list]:
    return {"generate": ["generate", "--checkpoint", src / "model.ckpt", "--sources", src / "sources.txt",
                         "--vocab", src / "vocab.tsv", "--config", src / "generate.cfg", "--run-dir", out]}


def generate_check(src: Path, out: Path, meta: dict) -> dict:
    """K responses per source, ranked by log-prob, within the length limits."""
    by_source: dict[int, list] = {}
    for line in (out / "generations.tsv").read_text(encoding="utf-8").splitlines():
        index, rank, log_prob, words = line.split("\t")
        by_source.setdefault(int(index), []).append((int(rank), _finite(log_prob), words.split()))
    if sorted(by_source) != list(range(meta["sources"])):
        raise ValueError(f"generations cover sources {sorted(by_source)}, expected {meta['sources']}")
    responses = []
    for index, rows in sorted(by_source.items()):
        if [r[0] for r in rows] != list(range(1, inputs.BEAM_SIZE + 1)):
            raise ValueError(f"source {index}: expected ranks 1..{inputs.BEAM_SIZE}, got {len(rows)} rows")
        log_probs = [r[1] for r in rows]
        if any(a < b for a, b in zip(log_probs, log_probs[1:])):
            raise ValueError(f"source {index}: responses not sorted by log-prob")
        for rank, log_prob, words in rows:
            if len(words) > inputs.MAX_LEN:
                raise ValueError(f"source {index} rank {rank}: {len(words)} tokens > max_len")
            # Shorter than max_len means it ended with </s>, so it is not forced.
            if len(words) < inputs.MAX_LEN and len(words) < inputs.MIN_TOKENS:
                raise ValueError(f"source {index} rank {rank}: {len(words)} tokens < min_tokens")
            responses.append([log_prob, " ".join(words)])
    return {"responses": responses}


def generate_compare(values: dict, reference: dict) -> list[str]:
    got, want = values["responses"], reference["responses"]
    if [w for _, w in got] != [w for _, w in want]:
        return ["generated tokens differ from the reference"]
    return [f"response {i}: log-prob {g[0]} differs from reference {w[0]} by more than {GENERATE_LOG_PROB_ATOL}"
            for i, (g, w) in enumerate(zip(got, want)) if abs(g[0] - w[0]) > GENERATE_LOG_PROB_ATOL]


def generate_rates(meta: dict, command_s: dict) -> dict:
    return {"generate_s_per_source": (command_s["generate"] / meta["sources"], "s/source")}


# ---------------------------------------------------------------- score


def score_commands(src: Path, out: Path) -> dict[str, list]:
    return {
        "evaluate": ["evaluate", "--generations", src / "generations.tsv", "--references", src / "references.tsv",
                     "--checkpoint", src / "model.ckpt", "--vocab", src / "vocab.tsv", "--run-dir", out / "evaluate"],
        "analyze": ["analyze", "--dataset", src / "corpus.tsv", "--config", src / "analyze.cfg",
                    "--run-dir", out / "analyze"],
    }


def score_check(src: Path, out: Path, meta: dict) -> dict:
    """Every score in [0, 100]; analysis sections present and in range."""
    header, row = (out / "evaluate" / "metrics.tsv").read_text(encoding="utf-8").splitlines()
    scores = dict(zip(header.split("\t"), (_finite(v) for v in row.split("\t"))))
    per_source = [line.split("\t") for line in
                  (out / "evaluate" / "per_source.tsv").read_text(encoding="utf-8").splitlines()]
    for name, value in list(scores.items()) + [(f"{r[0]}[{r[1]}]", _finite(r[2])) for r in per_source]:
        if not 0.0 <= value <= 100.0:
            raise ValueError(f"score {name} = {value} outside [0, 100]")
    if len(scores) != 7:
        raise ValueError(f"metrics.tsv has {len(scores)} metrics, expected 7")
    analysis = (out / "analyze" / "analysis.tsv").read_text(encoding="utf-8")
    sections = [line.split("\t")[0] for line in analysis.splitlines()]
    if sections.count("topic") != 5 or sections.count("lexicon") < 4 or "length_share_test" not in sections:
        raise ValueError("analysis.tsv is missing topic, lexicon or share-test sections")
    for line in analysis.splitlines():
        fields = line.split("\t")
        if fields[0] == "lexicon" and not 0.0 <= _finite(fields[3]) <= 1.0:
            raise ValueError(f"lexicon mean outside [0, 1]: {line}")
        if fields[0] == "length_share_test" and not 0.0 <= _finite(fields[2].removeprefix("p=")) <= 1.0:
            raise ValueError(f"share-test p outside [0, 1]: {line}")
    return {"scores": scores, "analysis": analysis}


def score_compare(values: dict, reference: dict) -> list[str]:
    problems = [f"score {name} {values['scores'].get(name)} differs from reference {want}"
                for name, want in reference["scores"].items()
                if abs(values["scores"].get(name, math.inf) - want) > SCORE_ATOL]
    if values["analysis"] != reference["analysis"]:
        problems.append("analysis.tsv differs from the reference")
    return problems


def score_rates(meta: dict, command_s: dict) -> dict:
    return {"evaluate_pairs_per_s": (meta["pairs"] / command_s["evaluate"], "pairs/s"),
            "analyze_site_updates_per_s": (meta["lda_site_updates"] / command_s["analyze"], "updates/s")}


WORKLOADS = {
    "train": (train_commands, train_check, train_compare, train_rates),
    "generate": (generate_commands, generate_check, generate_compare, generate_rates),
    "score": (score_commands, score_check, score_compare, score_rates),
}


# ---------------------------------------------------------------- one operation


def run_op(workload: str, src: Path, out: Path, meta: dict, tracer: Tracer | None = None):
    """Run one operation; returns (wall s, per-command s, checked values, problems)."""
    commands, check, _, _ = WORKLOADS[workload]
    if out.exists():
        shutil.rmtree(out)
    gc.collect()  # start every operation from the same heap state
    command_s: dict[str, float] = {}
    problems: list[str] = []
    start = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        with tracer.span("op") if tracer is not None else nullcontext():
            for name, argv in commands(src, out).items():
                try:
                    code, seconds, log = _cli(argv)
                except Exception as exc:  # a crash is a failed operation, not the end of the run
                    problems.append(f"fcrg {name} raised {type(exc).__name__}: {exc}")
                    break
                command_s[name] = seconds
                if code != 0:
                    problems.append(f"fcrg {name} exited {code}: {log.strip()[-300:]}")
                    break
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - start
    values = None
    if not problems:
        try:
            values = check(src, out, meta)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"output check: {exc}")
    return wall, command_s, values, problems


def reference_case(workload: str, work: Path) -> tuple[dict | None, list[str]]:
    """Run the fixed tiny case; returns its checked values and any problems."""
    src = work / "reference-inputs"
    meta = inputs.build(workload, REFERENCE_SEED, src, size="tiny")
    _, _, values, problems = run_op(workload, src, work / "reference-out", meta)
    return values, problems


# ---------------------------------------------------------------- the run


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path, size: str = "paper") -> dict:
    """Set up, check the reference case, then run operations for ``seconds``."""
    _, _, compare, rates = WORKLOADS[workload]
    attempted, failed, problems = 0, 0, []

    def record(op_problems: list[str], what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        failed += bool(op_problems)
        problems.extend(f"{what}: {p}" for p in op_problems)

    # Set-up: build the inputs several times; they must be byte-identical.
    setup_s, digests = [], []
    for i in range(SETUP_REPEATS):
        directory = work / f"setup{i}"
        start = time.perf_counter()
        meta = inputs.build(workload, seed, directory, size)
        setup_s.append(time.perf_counter() - start)
        digests.append(inputs.digest(directory))
        if i:
            shutil.rmtree(directory)
    src = work / "setup0"
    record([] if len(set(digests)) == 1 else ["inputs differ between set-ups of one seed"], "setup")

    # The stored reference case.
    reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))[workload]
    values, op_problems = reference_case(workload, work)
    record(op_problems or compare(values, reference), "reference")

    # Closed loop; with tracing, untraced and traced operations alternate.
    # train's first operation grows the heap by about 1.5 GB, far beyond what
    # its set-up touches, so it runs once untimed (but checked) first; the
    # other set-ups build a same-size model in-process, which warms the heap.
    tracer = Tracer() if trace else None
    untraced, traced, commands = [], [], []
    first_digest = None
    out = work / "out"
    start = None if workload in WARM_UP else time.perf_counter()
    while True:
        warm_up = start is None
        is_traced = trace and not warm_up and len(untraced) > len(traced)
        if tracer is not None:
            tracer.run_id += 1
        wall, command_s, values, op_problems = run_op(workload, src, out, meta, tracer if is_traced else None)
        if not op_problems:
            digest = inputs.digest(out)
            first_digest = first_digest or digest
            if digest != first_digest:
                op_problems.append("output digest differs from the first operation's")
        record(op_problems, "warm-up" if warm_up else f"op {len(untraced) + len(traced)}")
        if warm_up:
            start = time.perf_counter()
            continue
        (traced if is_traced else untraced).append(wall)
        if not is_traced and not op_problems:
            commands.append(command_s)
        if len(untraced) + len(traced) >= MIN_OPS and time.perf_counter() - start + wall > seconds:
            break

    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "size": size,
        "attempted": attempted, "failed": failed, "problems": problems,
        "meta": meta, "output_digest": first_digest, "setup_samples_s": setup_s,
        "op_samples_s": untraced, "traced_op_samples_s": traced, "command_samples_s": commands,
        "end_to_end": {
            "op_s": (statistics.median(untraced), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        },
        "named": {},
    }
    if commands:
        result["named"] = rates(meta, {name: statistics.median(c[name] for c in commands) for name in commands[0]})
    if trace:
        layers = per_op(tracer, len(traced))
        layers["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
        result["per_layer"] = layers
        result["tracer"] = tracer
    return result
