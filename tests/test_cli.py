"""End-to-end subcommand tests on a small synthetic dataset."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fcrg import analysis, cli, metrics
from fcrg.cli import DEFAULTS, load_run_config, main
from fcrg.corpus import build_vocabulary
from fcrg.model import FCRGModel, ModelConfig
from fcrg.params import GradDiff, load_checkpoint, save_checkpoint
from test_corpus import fail_writes_midway

TINY = [
    "--set", "embed_dim=4", "--set", "hidden_size=5", "--set", "output_size=6",
    "--set", "dtype=float64", "--set", "max_epochs=2", "--set", "batch_size=4",
    "--set", "min_count=1",
]


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "dataset.tsv"
    rows = []
    subjects = ["the claim", "this story", "that rumor", "the photo", "this quote"]
    verdicts = ["is fake news", "was debunked already", "is an old hoax", "is not real"]
    for i in range(20):
        original = f"{subjects[i % 5]} spreading fast number {i}"
        reply = f"{verdicts[i % 4]} see url"
        rows.append(f"{original}\t{reply}\t{i * 3}\t{'false' if i % 2 else 'true'}")
    path.write_text("\n".join(rows) + "\n")
    return path


# ---------------------------------------------------------------- run config


def test_defaults_match_documented_values():
    assert DEFAULTS["learning_rate"] == 0.001
    assert DEFAULTS["batch_size"] == 32
    assert DEFAULTS["clip_norm"] == 0.25
    assert DEFAULTS["beam_size"] == 15
    assert DEFAULTS["max_source_len"] == 89
    assert DEFAULTS["max_target_len"] == 64


# Every settable key with its default; the default's type decides parsing.
PINNED_DEFAULTS = {
    "embed_dim": 300, "hidden_size": 300, "output_size": 256, "max_source_len": 89,
    "max_target_len": 64, "attention": "dot", "dropout": 0.2, "model_seed": 0, "dtype": "float32",
    "learning_rate": 0.001, "batch_size": 32, "clip_norm": 0.25, "adam_beta1": 0.9,
    "adam_beta2": 0.999, "adam_epsilon": 1e-8, "max_epochs": 20, "patience": 3, "shuffle_seed": 0,
    "train_ratio": 0.8, "validation_ratio": 0.1, "test_ratio": 0.1, "split_seed": 0, "min_count": 3,
    "beam_size": 15, "min_tokens": 0, "decode_max_len": 64,
    "num_topics": 5, "lda_alpha": -1.0, "lda_beta": 0.01, "lda_iterations": 1000, "lda_seed": 0,
}

PINNED_RESOLVED = """\
adam_beta1=0.9
adam_beta2=0.999
adam_epsilon=1e-08
attention=dot
batch_size=32
beam_size=15
clip_norm=0.25
decode_max_len=64
dropout=0.2
dtype=float32
embed_dim=300
hidden_size=300
lda_alpha=-1.0
lda_beta=0.01
lda_iterations=1000
lda_seed=0
learning_rate=0.001
max_epochs=20
max_source_len=89
max_target_len=64
min_count=3
min_tokens=0
model_seed=0
num_topics=5
output_size=256
patience=3
shuffle_seed=0
split_seed=0
test_ratio=0.1
train_ratio=0.8
validation_ratio=0.1
"""


def test_defaults_pinned_keys_values_and_types(tmp_path, monkeypatch):
    assert len(DEFAULTS) == 31
    assert DEFAULTS == PINNED_DEFAULTS
    for key, value in PINNED_DEFAULTS.items():
        assert type(DEFAULTS[key]) is type(value), key
    # The written configuration does not depend on the check itself; skip its cost.
    monkeypatch.setattr(cli, "gradcheck_report", lambda: {"dot": {"w": GradDiff(0.0, 0.0, 0, 1)}})
    assert main(["gradcheck", "--run-dir", str(tmp_path / "g")]) == 0
    assert (tmp_path / "g" / "config.resolved").read_text(encoding="utf-8") == PINNED_RESOLVED


def test_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nbeam_size = 5\nattention=bilinear\n")
    settings = load_run_config(str(cfg), ["beam_size=7"])
    assert settings["beam_size"] == 7  # --set wins
    assert settings["attention"] == "bilinear"


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense_key=1\n")
    with pytest.raises(ValueError, match="nonsense_key"):
        load_run_config(str(cfg), [])
    with pytest.raises(ValueError, match="mystery"):
        load_run_config(None, ["mystery=2"])


def test_config_parse_error_has_line_number(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beam_size=5\njust words\n")
    with pytest.raises(ValueError, match="line 2"):
        load_run_config(str(cfg), [])


def test_config_value_errors_name_the_file_and_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beam_size=5\nmin_tokens=lots\n")
    message = f"{cfg}: line 2: config key 'min_tokens': cannot parse 'lots' as int"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_run_config(str(cfg), [])


def test_config_line_numbers_count_newlines_only(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# note\x0cmore words\nbeam_size=3\njust words\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(cfg))}: line 3: expected 'key=value'$"):
        load_run_config(str(cfg), [])


def test_config_rejects_a_repeated_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beam_size=15\n# again\nbeam_size = 3\n")
    message = f"{cfg}: line 3: duplicate config key 'beam_size' (first set on line 1)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_run_config(str(cfg), [])
    cfg.write_text("beam_size=15\n")
    assert load_run_config(str(cfg), ["beam_size=3", "beam_size=4"])["beam_size"] == 4  # --set: the last wins


def test_config_type_errors_name_the_key():
    with pytest.raises(ValueError, match="beam_size"):
        load_run_config(None, ["beam_size=lots"])


# ---------------------------------------------------------------- preprocess


def test_preprocess_outputs(dataset, tmp_path):
    run = tmp_path / "run"
    code = main(["preprocess", "--dataset", str(dataset), "--run-dir", str(run), "--set", "min_count=1"])
    assert code == 0
    for name in ("normalized.tsv", "train.tsv", "validation.tsv", "test.tsv", "vocab.tsv", "stats.tsv", "config.resolved"):
        assert (run / name).exists(), name
    stats = dict(line.split("\t") for line in (run / "stats.tsv").read_text().splitlines())
    assert int(stats["pairs"]) == 20
    assert int(stats["train_pairs"]) == 16
    vocab_lines = (run / "vocab.tsv").read_text().splitlines()
    assert vocab_lines[0].startswith("<pad>\t0")


def test_preprocess_deterministic(dataset, tmp_path):
    outs = []
    for name in ("a", "b"):
        run = tmp_path / name
        main(["preprocess", "--dataset", str(dataset), "--run-dir", str(run), "--set", "min_count=1"])
        outs.append(b"".join((run / f).read_bytes() for f in ("train.tsv", "vocab.tsv", "stats.tsv")))
    assert outs[0] == outs[1]


def test_preprocess_missing_dataset_exits_nonzero(tmp_path, capsys):
    code = main(["preprocess", "--dataset", str(tmp_path / "nope.tsv"), "--run-dir", str(tmp_path / "r")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_preprocess_names_the_line_of_a_pair_that_normalizes_to_nothing(dataset, tmp_path, capsys):
    lines = dataset.read_text().splitlines()
    lines[3] = lines[3].split("\t")[0] + "\t☃☃☃"
    dataset.write_text("\n".join(["", *lines]) + "\n")  # the pair is on line 5
    code = main(["preprocess", "--dataset", str(dataset), "--run-dir", str(tmp_path / "r")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"fcrg preprocess: error: {dataset}: line 5: both texts must be non-empty after trimming\n"
    )


def test_preprocess_rejects_a_nan_split_ratio_in_one_line(dataset, tmp_path, capsys):
    code = main(["preprocess", "--dataset", str(dataset), "--run-dir", str(tmp_path / "r"), "--set", "train_ratio=nan"])
    assert code == 1
    assert capsys.readouterr().err == "fcrg preprocess: error: split ratios must be positive\n"


def test_preprocess_rejects_ratios_that_leave_a_split_empty(dataset, tmp_path, capsys):
    dataset.write_text("".join(dataset.read_text().splitlines(keepends=True)[:10]))
    code = main([
        "preprocess", "--dataset", str(dataset), "--run-dir", str(tmp_path / "r"),
        "--set", "train_ratio=0.85", "--set", "validation_ratio=0.05",
    ])
    assert code == 1
    assert capsys.readouterr().err == "fcrg preprocess: error: split ratios leave the validation split empty for 10 pairs\n"
    assert not (tmp_path / "r" / "validation.tsv").exists()


# ---------------------------------------------------------------- pipeline


@pytest.fixture
def preprocessed(dataset, tmp_path):
    run = tmp_path / "prep"
    assert main(["preprocess", "--dataset", str(dataset), "--run-dir", str(run), "--set", "min_count=1"]) == 0
    return run


@pytest.fixture
def trained(preprocessed, tmp_path):
    run = tmp_path / "train"
    code = main([
        "train",
        "--train", str(preprocessed / "train.tsv"),
        "--validation", str(preprocessed / "validation.tsv"),
        "--vocab", str(preprocessed / "vocab.tsv"),
        "--run-dir", str(run),
        *TINY,
    ])
    assert code == 0
    return run


def test_train_writes_checkpoint_and_log(trained):
    assert (trained / "model.ckpt").exists()
    log = (trained / "epochs.tsv").read_text().splitlines()
    assert log[0] == "epoch\ttrain_nll\tvalidation_nll"
    assert len(log) == 3  # header + 2 epochs


def test_train_under_one_and_two_blas_threads_agrees_within_the_stated_tolerance(tmp_path):
    # Reruns are byte-identical only for a fixed BLAS thread count.  Across
    # counts, the head's GEMMs (n x 16 x ~1300, over OpenBLAS's threading
    # threshold) may round differently; the per-token NLLs must still agree
    # to 1e-5 relative (the paper-size run moved by 1e-7).  Two processes.
    rng = np.random.default_rng(0)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words = sorted({"".join(rng.choice(letters, size=6)) for _ in range(1500)})
    rows = [
        f"{' '.join(rng.choice(words, size=8))}\t{' '.join(rng.choice(words, size=6))}\t{i}\t{'false' if i % 2 else 'true'}"
        for i in range(300)
    ]
    (tmp_path / "dataset.tsv").write_text("\n".join(rows) + "\n")
    prep = tmp_path / "prep"
    assert main(["preprocess", "--dataset", str(tmp_path / "dataset.tsv"), "--run-dir", str(prep), "--set", "min_count=1"]) == 0
    src = Path(cli.__file__).resolve().parent.parent
    logs = []
    for threads in ("1", "2"):
        run = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        argv = [
            sys.executable, "-c", "import sys; from fcrg.cli import main; sys.exit(main(sys.argv[1:]))",
            "train", "--train", str(prep / "train.tsv"), "--validation", str(prep / "validation.tsv"),
            "--vocab", str(prep / "vocab.tsv"), "--run-dir", str(run),
            "--set", "embed_dim=16", "--set", "hidden_size=16", "--set", "output_size=16", "--set", "max_epochs=2",
        ]
        result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        logs.append((run / "epochs.tsv").read_text().splitlines())
    one, two = logs
    assert one[0] == two[0] == "epoch\ttrain_nll\tvalidation_nll" and len(one) == len(two) == 3
    for row_one, row_two in zip(one[1:], two[1:]):
        values_one, values_two = ([float(v) for v in row.split("\t")] for row in (row_one, row_two))
        assert values_one == pytest.approx(values_two, rel=1e-5, abs=0)


def _train_argv(preprocessed, tmp_path, *settings):
    return ["train", "--train", str(preprocessed / "train.tsv"), "--validation", str(preprocessed / "validation.tsv"),
            "--vocab", str(preprocessed / "vocab.tsv"), "--run-dir", str(tmp_path / "t"), *TINY,
            *(item for setting in settings for item in ("--set", setting))]


@pytest.mark.parametrize("setting, message", [
    ("adam_beta1=1", "beta1 must be below 1, got 1.0"),
    ("adam_beta1=1.5", "beta1 must be below 1, got 1.5"),
    ("adam_beta2=1", "beta2 must be below 1, got 1.0"),
    ("learning_rate=nan", "learning_rate must be positive, got nan"),
    ("learning_rate=inf", "learning_rate must be finite, got inf"),
    ("adam_epsilon=nan", "epsilon must be positive, got nan"),
    ("adam_epsilon=inf", "epsilon must be finite, got inf"),
    ("clip_norm=nan", "clip_norm must be positive, got nan"),
    ("model_seed=-1", "seed must be a non-negative integer, got -1"),
])
def test_train_rejects_a_bad_setting_in_one_line(preprocessed, tmp_path, capsys, setting, message):
    capsys.readouterr()
    assert main(_train_argv(preprocessed, tmp_path, setting)) == 1
    assert capsys.readouterr().err == f"fcrg train: error: {message}\n"


def test_train_accepts_an_infinite_clip_norm(preprocessed, tmp_path):
    assert main(_train_argv(preprocessed, tmp_path, "clip_norm=inf", "max_epochs=1")) == 0


def test_train_reports_divergence_in_one_line(preprocessed, tmp_path, capsys, monkeypatch):
    class Poisoned(FCRGModel):
        def _init_params(self):
            super()._init_params()
            self.params["out_vocab"].data[0, 0] = float("nan")

    monkeypatch.setattr(cli, "FCRGModel", Poisoned)
    capsys.readouterr()
    assert main(_train_argv(preprocessed, tmp_path)) == 1
    assert capsys.readouterr().err == "fcrg train: error: training diverged at epoch 1: loss=nan\n"


@pytest.mark.parametrize("split", ["train", "validation"])
def test_train_names_the_line_of_a_pair_that_normalizes_to_nothing(preprocessed, tmp_path, capsys, split):
    path = preprocessed / f"{split}.tsv"
    lines = path.read_text().splitlines()
    lines[1] = lines[1].split("\t")[0] + "\t☃☃☃"
    path.write_text("\n".join([lines[0], "", *lines[1:]]) + "\n")  # the pair is on line 3
    capsys.readouterr()
    assert main(_train_argv(preprocessed, tmp_path)) == 1
    assert capsys.readouterr().err == f"fcrg train: error: {path}: line 3: reply tokenizes to zero tokens\n"


def test_generate_enforces_min_tokens(trained, preprocessed, tmp_path):
    sources = tmp_path / "sources.txt"
    sources.write_text("the claim spreading fast\nthis story is viral\n")
    run = tmp_path / "gen"
    code = main([
        "generate",
        "--checkpoint", str(trained / "model.ckpt"),
        "--sources", str(sources),
        "--vocab", str(preprocessed / "vocab.tsv"),
        "--run-dir", str(run),
        "--set", "beam_size=3", "--set", "min_tokens=3", "--set", "decode_max_len=8",
    ])
    assert code == 0
    lines = (run / "generations.tsv").read_text().splitlines()
    assert lines
    for line in lines:
        index, rank, log_prob, tokens = line.split("\t")
        assert len(tokens.split()) >= 3
        float(log_prob)
    assert {line.split("\t")[0] for line in lines} == {"0", "1"}


def test_generate_deterministic(trained, preprocessed, tmp_path):
    sources = tmp_path / "sources.txt"
    sources.write_text("the claim spreading fast\n")
    outs = []
    for name in ("g1", "g2"):
        run = tmp_path / name
        main([
            "generate",
            "--checkpoint", str(trained / "model.ckpt"),
            "--sources", str(sources),
            "--vocab", str(preprocessed / "vocab.tsv"),
            "--run-dir", str(run),
            "--set", "beam_size=3", "--set", "decode_max_len=6",
        ])
        outs.append((run / "generations.tsv").read_bytes())
    assert outs[0] == outs[1]


def test_generate_reports_checkpoint_without_dtype(trained, preprocessed, tmp_path, capsys):
    checkpoint = tmp_path / "no-dtype.ckpt"
    checkpoint.write_bytes(re.sub(rb"\ndtype \w+\n", b"\n", (trained / "model.ckpt").read_bytes(), count=1))
    sources = tmp_path / "sources.txt"
    sources.write_text("the claim spreading fast\n")
    code = main([
        "generate",
        "--checkpoint", str(checkpoint),
        "--sources", str(sources),
        "--vocab", str(preprocessed / "vocab.tsv"),
        "--run-dir", str(tmp_path / "gen"),
    ])
    assert code == 1
    assert f"{checkpoint}: missing header line(s) dtype" in capsys.readouterr().err


def test_generate_reports_unknown_checkpoint_config_key(trained, preprocessed, tmp_path, capsys):
    checkpoint = tmp_path / "extra-key.ckpt"
    checkpoint.write_bytes((trained / "model.ckpt").read_bytes().replace(b"\nconfig {", b'\nconfig {"layers": 2, ', 1))
    sources = tmp_path / "sources.txt"
    sources.write_text("the claim spreading fast\n")
    code = main([
        "generate",
        "--checkpoint", str(checkpoint),
        "--sources", str(sources),
        "--vocab", str(preprocessed / "vocab.tsv"),
        "--run-dir", str(tmp_path / "gen"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"fcrg generate: error: {checkpoint}: ") and "'layers'" in err
    assert err.count("\n") == 1


def test_checkpoint_whose_parameters_do_not_match_its_config_fails(tmp_path):
    model = FCRGModel(ModelConfig(vocab_size=50, embed_dim=4, hidden_size=5, output_size=6))
    config = dict(model.config.to_dict(), vocab_size=60)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.params, config)
    with pytest.raises(ValueError, match=r"parameters do not match the config") as info:
        cli._open_checkpoint(str(path), str(tmp_path / "vocab.tsv"))
    assert str(info.value).startswith(f"{path}: ")
    assert "('embedding', (4, 60), 'float32')" in str(info.value)


def _checkpoint_argv(tmp_path, command, vocab_size, checkpoint):
    """``command`` on a small vocabulary of ``vocab_size`` rows with ``checkpoint``."""
    words = [f"w{i}" for i in range(vocab_size - 4)]
    build_vocabulary([words], min_count=1).save(tmp_path / "vocab.tsv")
    (tmp_path / "lines.txt").write_text("w0 w1 w2\n")
    (tmp_path / "gens.tsv").write_text("0\t1\t-1.0\tw1 w2 w3\n")
    (tmp_path / "refs.tsv").write_text("0\tw0 w1 w2 w3\n")
    inputs = {
        "generate": ["--sources", str(tmp_path / "lines.txt")],
        "evaluate": ["--generations", str(tmp_path / "gens.tsv"), "--references", str(tmp_path / "refs.tsv")],
    }[command]
    return [command, *inputs, "--checkpoint", str(checkpoint), "--vocab", str(tmp_path / "vocab.tsv"),
            "--run-dir", str(tmp_path / command)]


CHECKPOINT_FAULTS = {
    # The config's vocab_size is 60, as the vocabulary's, but the parameters were made for 50.
    "layout": lambda raw: raw.replace(b'"vocab_size": 50', b'"vocab_size": 60'),
    "attention": lambda raw: raw.replace(b'"attention": "dot"', b'"attention": "bilinear"'),
    "dtype": lambda raw: raw.replace(b"dtype float32", b"dtype float64"),
    "truncated": lambda raw: raw[:-1],
    "trailing": lambda raw: raw + b"\0" * 4,
    "config-key": lambda raw: raw.replace(b"\nconfig {", b'\nconfig {"layers": 2, ', 1),
}


@pytest.mark.parametrize("fault", sorted(CHECKPOINT_FAULTS))
def test_evaluate_rejects_a_checkpoint_as_generate_does(tmp_path, capsys, fault):
    model = FCRGModel(ModelConfig(vocab_size=50, embed_dim=4, hidden_size=5, output_size=6))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.params, model.config.to_dict())
    path.write_bytes(CHECKPOINT_FAULTS[fault](path.read_bytes()))
    vocab_size = 60 if fault == "layout" else 50
    errors = {}
    for command in ("generate", "evaluate"):
        assert main(_checkpoint_argv(tmp_path, command, vocab_size, path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"fcrg {command}: error: {path}: ") and err.count("\n") == 1, err
        errors[command] = err.removeprefix(f"fcrg {command}: error: ")
    assert errors["generate"] == errors["evaluate"]


def test_evaluate_reads_only_the_checkpoint_embedding(tmp_path):
    # The embedding E and out_vocab are the same size, and the table is a
    # second copy of E.  Beside those, the vocabulary and the table's index
    # take about 250 bytes per token.  Reading only the embedding peaks at
    # 2 E plus those (2.21 E here); reading every parameter at 3.35 E.
    model = FCRGModel(ModelConfig(vocab_size=3000, embed_dim=300, hidden_size=8, output_size=300, seed=2))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.params, model.config.to_dict())
    embedding_bytes = model.params["embedding"].data.nbytes
    argv = _checkpoint_argv(tmp_path, "evaluate", 3000, path)
    del model
    assert main(argv) == 0  # the first run allocates once per process
    written = (tmp_path / "evaluate" / "metrics.tsv").read_bytes()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "evaluate" / "metrics.tsv").read_bytes() == written
    assert peak <= 2 * embedding_bytes + 280 * 3000, peak / embedding_bytes


def test_a_format_1_checkpoint_generates_and_evaluates_as_its_format_2_copy(tmp_path):
    v1 = Path(__file__).parent / "data" / "format1.ckpt"
    store, meta = load_checkpoint(v1)
    v2 = tmp_path / "format2.ckpt"
    save_checkpoint(v2, store, meta["config"], seed=meta["seed"], epoch=meta["epoch"])
    written = {}
    for fmt, path in (("v1", v1), ("v2", v2)):
        (tmp_path / fmt).mkdir()
        for command, output in (("generate", "generations.tsv"), ("evaluate", "metrics.tsv")):
            assert main(_checkpoint_argv(tmp_path / fmt, command, 50, path)) == 0
            written[fmt, output] = (tmp_path / fmt / command / output).read_bytes()
    assert written["v1", "generations.tsv"] == written["v2", "generations.tsv"]
    assert written["v1", "metrics.tsv"] == written["v2", "metrics.tsv"]
    assert written["v1", "generations.tsv"].count(b"\n") > 1 and b"greedy" in written["v1", "metrics.tsv"].lower()


@pytest.mark.parametrize("command", ["generate", "evaluate"])
@pytest.mark.parametrize("extra", [1, -1])
def test_vocabulary_size_must_match_the_checkpoint(tmp_path, capsys, command, extra):
    # extra=1: the vocabulary names a row the checkpoint lacks; -1: it leaves one unnamed.
    vocab = build_vocabulary([["that", "is", "fake", "news"]], min_count=1)
    vocab.save(tmp_path / "vocab.tsv")
    model = FCRGModel(ModelConfig(vocab_size=vocab.size - extra, embed_dim=4, hidden_size=5, output_size=6))
    save_checkpoint(tmp_path / "model.ckpt", model.params, model.config.to_dict())
    (tmp_path / "lines.txt").write_text("that is fake news\n")
    (tmp_path / "gens.tsv").write_text("0\t1\t-1.0\tfake news\n")
    (tmp_path / "refs.tsv").write_text("0\tthat is fake news\n")
    inputs = {
        "generate": ["--sources", str(tmp_path / "lines.txt")],
        "evaluate": ["--generations", str(tmp_path / "gens.tsv"), "--references", str(tmp_path / "refs.tsv")],
    }[command]
    code = main([
        command, *inputs,
        "--checkpoint", str(tmp_path / "model.ckpt"),
        "--vocab", str(tmp_path / "vocab.tsv"),
        "--run-dir", str(tmp_path / "run"),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        f"fcrg {command}: error: vocabulary size {vocab.size} does not match checkpoint vocab_size {vocab.size - extra}\n"
    )


def test_generate_rejects_an_empty_sources_file(tmp_path, capsys):
    vocab = build_vocabulary([["that", "is", "fake", "news"]], min_count=1)
    vocab.save(tmp_path / "vocab.tsv")
    model = FCRGModel(ModelConfig(vocab_size=vocab.size, embed_dim=4, hidden_size=5, output_size=6))
    save_checkpoint(tmp_path / "model.ckpt", model.params, model.config.to_dict())
    sources = tmp_path / "sources.txt"
    sources.write_text("")
    code = main([
        "generate", "--sources", str(sources),
        "--checkpoint", str(tmp_path / "model.ckpt"),
        "--vocab", str(tmp_path / "vocab.tsv"),
        "--run-dir", str(tmp_path / "run"),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"fcrg generate: error: {sources}: no source lines\n"
    assert not (tmp_path / "run" / "generations.tsv").exists()


def test_generate_truncates_with_checkpoint_source_len(preprocessed, tmp_path):
    train_run = tmp_path / "short"
    assert main([
        "train",
        "--train", str(preprocessed / "train.tsv"),
        "--validation", str(preprocessed / "validation.tsv"),
        "--vocab", str(preprocessed / "vocab.tsv"),
        "--run-dir", str(train_run),
        *TINY, "--set", "max_source_len=3",
    ]) == 0
    outs = []
    for name, text in (("full", "this story spreading fast is viral"), ("cut", "this story spreading")):
        sources = tmp_path / f"{name}.txt"
        sources.write_text(text + "\n")
        run = tmp_path / f"gen_{name}"
        assert main([
            "generate",
            "--checkpoint", str(train_run / "model.ckpt"),
            "--sources", str(sources),
            "--vocab", str(preprocessed / "vocab.tsv"),
            "--run-dir", str(run),
            "--set", "beam_size=3", "--set", "decode_max_len=6",
        ]) == 0
        outs.append((run / "generations.tsv").read_text())
    assert outs[0] == outs[1]


def test_evaluate_references_as_generations(tmp_path, capsys):
    refs = tmp_path / "refs.tsv"
    refs.write_text("0\tthis was debunked see url\n1\tthat is fake news\n")
    gens = tmp_path / "gens.tsv"
    gens.write_text("0\t1\t-1.0\tthis was debunked see url\n1\t1\t-1.0\tthat is fake news\n")
    run = tmp_path / "eval"
    code = main(["evaluate", "--generations", str(gens), "--references", str(refs), "--run-dir", str(run)])
    assert code == 0
    table = (run / "metrics.tsv").read_text().splitlines()
    scores = dict(zip(table[0].split("\t"), table[1].split("\t")))
    for name in ("bleu2", "bleu3", "bleu4", "rouge_l"):
        assert scores[name] == "100.000"
    assert float(scores["meteor_lite"]) > 90.0  # fragmentation penalty keeps it below 100


def test_evaluate_with_embedding_file(tmp_path):
    refs = tmp_path / "refs.tsv"
    refs.write_text("0\ta b\n")
    gens = tmp_path / "gens.tsv"
    gens.write_text("0\t1\t-1.0\ta b\n")
    vectors = tmp_path / "vec.txt"
    vectors.write_text("a 1.0 0.0\nb 0.0 1.0\n")
    run = tmp_path / "eval"
    code = main([
        "evaluate", "--generations", str(gens), "--references", str(refs),
        "--embeddings", str(vectors), "--run-dir", str(run),
    ])
    assert code == 0
    table = (run / "metrics.tsv").read_text().splitlines()
    scores = dict(zip(table[0].split("\t"), table[1].split("\t")))
    assert scores["greedy_matching"] == "100.000"
    assert scores["vector_extrema"] == "100.000"


def test_evaluate_rejects_both_embedding_sources(tmp_path, capsys):
    refs = tmp_path / "refs.tsv"
    refs.write_text("0\ta b\n")
    gens = tmp_path / "gens.tsv"
    gens.write_text("0\t1\t-1.0\ta b\n")
    vectors = tmp_path / "vec.txt"
    vectors.write_text("a 1.0 0.0\nb 0.0 1.0\n")
    with pytest.raises(SystemExit) as exc:
        main([
            "evaluate", "--generations", str(gens), "--references", str(refs),
            "--embeddings", str(vectors), "--checkpoint", str(tmp_path / "model.ckpt"),
            "--vocab", str(tmp_path / "vocab.tsv"), "--run-dir", str(tmp_path / "eval"),
        ])
    assert exc.value.code == 2
    assert "argument --checkpoint: not allowed with argument --embeddings" in capsys.readouterr().err


@pytest.mark.parametrize("embeddings", [False, True])
def test_evaluate_rejects_a_vocabulary_without_a_checkpoint(tmp_path, capsys, embeddings):
    refs = tmp_path / "refs.tsv"
    refs.write_text("0\ta b\n")
    gens = tmp_path / "gens.tsv"
    gens.write_text("0\t1\t-1.0\ta b\n")
    vectors = tmp_path / "vec.txt"
    vectors.write_text("a 1.0 0.0\nb 0.0 1.0\n")
    code = main([
        "evaluate", "--generations", str(gens), "--references", str(refs),
        *(["--embeddings", str(vectors)] if embeddings else []),
        "--vocab", str(tmp_path / "nonexistent.tsv"), "--run-dir", str(tmp_path / "eval"),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        "fcrg evaluate: error: --vocab names a checkpoint's embedding rows, so it needs --checkpoint\n"
    )
    assert not (tmp_path / "eval").exists()


def test_evaluate_reports_clamped_negative_extrema(tmp_path, capsys):
    refs = tmp_path / "refs.tsv"
    refs.write_text("0\tb\n")
    gens = tmp_path / "gens.tsv"
    gens.write_text("0\t1\t-1.0\ta\n")
    vectors = tmp_path / "vec.txt"
    vectors.write_text("a 1.0 0.0\nb -1.0 0.0\n")
    run = tmp_path / "eval"
    code = main([
        "evaluate", "--generations", str(gens), "--references", str(refs),
        "--embeddings", str(vectors), "--run-dir", str(run),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "evaluate: vector_extrema: 1 negative cosine(s) clamped to 0\n" in out
    table = (run / "metrics.tsv").read_text().splitlines()
    assert dict(zip(table[0].split("\t"), table[1].split("\t")))["vector_extrema"] == "0.000"


def test_evaluate_reports_chunk_searches_that_ran_out_of_budget(tmp_path, capsys, monkeypatch):
    refs = tmp_path / "refs.tsv"
    refs.write_text("0\tclaim was debunked\n1\tfake\n")
    gens = tmp_path / "gens.tsv"
    gens.write_text("0\t1\t-1.0\tclaim was debunked\n1\t1\t-1.0\tnews\n")
    argv = ["evaluate", "--generations", str(gens), "--references", str(refs), "--run-dir", str(tmp_path / "e")]
    assert main(argv) == 0
    assert "node budget" not in capsys.readouterr().out
    monkeypatch.setattr(metrics, "_NODE_BUDGET", 1)
    assert main(argv) == 0
    assert (
        "evaluate: meteor_lite: chunk search ran out of its node budget on 1 pair(s); "
        "their chunk counts may not be the fewest\n"
    ) in capsys.readouterr().out


def test_evaluate_malformed_generations(tmp_path, capsys):
    gens = tmp_path / "gens.tsv"
    gens.write_text("0\t1\tmissing-tokens-field\n")
    refs = tmp_path / "refs.tsv"
    refs.write_text("0\twords\n")
    code = main(["evaluate", "--generations", str(gens), "--references", str(refs), "--run-dir", str(tmp_path / "e")])
    assert code == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("0\t1\tthe claim\t-1.5", "log-prob must be a number, got 'the claim'"),
    ("0\t0\t-1.5\tthe claim", "rank must be an integer >= 1, got '0'"),
    ("0\tfirst\t-1.5\tthe claim", "rank must be an integer >= 1, got 'first'"),
    ("0\t1.0\t-1.5\tthe claim", "rank must be an integer >= 1, got '1.0'"),
    ("0\t1\tnan\tclaim was debunked", "log-prob must be finite, got 'nan'"),
    ("0\t1\tinf\tclaim was debunked", "log-prob must be finite, got 'inf'"),
    ("0\t1\t-Infinity\tclaim was debunked", "log-prob must be finite, got '-Infinity'"),
], ids=["swapped", "rank_zero", "rank_word", "rank_float", "log_prob_nan", "log_prob_inf", "log_prob_minus_inf"])
def test_evaluate_rejects_a_bad_rank_or_log_prob(tmp_path, capsys, line, message):
    gens = tmp_path / "gens.tsv"
    gens.write_text(f"0\t1\t-1.0\ta b\n\n{line}\n")
    refs = tmp_path / "refs.tsv"
    refs.write_text("0\ta b\n")
    code = main(["evaluate", "--generations", str(gens), "--references", str(refs), "--run-dir", str(tmp_path / "e")])
    assert code == 1
    assert capsys.readouterr().err == f"fcrg evaluate: error: {gens}: line 3: {message}\n"


def test_evaluate_rejects_a_repeated_rank_for_a_source(tmp_path, capsys):
    gens = tmp_path / "gens.tsv"
    gens.write_text("0\t1\t-1.0\ta b\n0\t2\t-2.0\tb\n1\t1\t-1.0\ta\n\n0\t1\t-3.0\ta\n")
    refs = tmp_path / "refs.tsv"
    refs.write_text("0\ta b\n1\ta\n")
    code = main(["evaluate", "--generations", str(gens), "--references", str(refs), "--run-dir", str(tmp_path / "e")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"fcrg evaluate: error: {gens}: line 5: duplicate rank 1 for source 0 (first on line 1)\n"
    )


def test_evaluate_names_the_generation_line_without_a_reference(tmp_path, capsys):
    gens = tmp_path / "gens.tsv"
    gens.write_text("0\t1\t-1.0\ta b\n2\t1\t-1.0\tb\n2\t2\t-2.0\ta\n1\t1\t-1.0\ta\n")
    refs = tmp_path / "refs.tsv"
    refs.write_text("0\ta b\n1\ta\n")
    code = main(["evaluate", "--generations", str(gens), "--references", str(refs), "--run-dir", str(tmp_path / "e")])
    assert code == 1
    assert capsys.readouterr().err == f"fcrg evaluate: error: {gens}: line 2: no reference for source index 2\n"


def test_evaluate_empty_reference_names_the_line(tmp_path, capsys):
    gens = tmp_path / "gens.tsv"
    gens.write_text("0\t1\t-1.0\ta b\n1\t1\t-1.0\tc\n")
    refs = tmp_path / "refs.tsv"
    refs.write_text("0\ta b\n1\t \n")
    code = main(["evaluate", "--generations", str(gens), "--references", str(refs), "--run-dir", str(tmp_path / "e")])
    assert code == 1
    assert capsys.readouterr().err == f"fcrg evaluate: error: {refs}: line 2: reference has no tokens\n"


@pytest.mark.parametrize("command", ["evaluate", "analyze", "preprocess"])
def test_bad_byte_is_reported_with_path_and_line(dataset, tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0\tfine\n1\tcaf\xe9\n")
    gens = tmp_path / "gens.tsv"
    gens.write_text("0\t1\t-1.0\tfine\n")
    inputs = {
        "evaluate": ["--generations", gens, "--references", bad],
        "analyze": ["--dataset", bad],
        "preprocess": ["--dataset", dataset, "--gazetteer", bad],
    }[command]
    code = main([command, *map(str, inputs), "--run-dir", str(tmp_path / "r")])
    assert code == 1
    assert capsys.readouterr().err == f"fcrg {command}: error: {bad}: line 2: not valid UTF-8\n"


def test_analyze_outputs(dataset, tmp_path):
    run = tmp_path / "analysis"
    code = main([
        "analyze", "--dataset", str(dataset), "--run-dir", str(run),
        "--set", "num_topics=2", "--set", "lda_iterations=20",
    ])
    assert code == 0
    text = (run / "analysis.tsv").read_text()
    assert "lexicon\tfalse\t" in text
    assert "lexicon\ttrue\t" in text
    assert "topic\t0\t" in text
    assert "length_share_test" in text


def test_analyze_normalizes_and_tokenizes_each_reply_once(dataset, tmp_path, monkeypatch):
    # Every pair has a share count, so the length-share test reads all 20 replies too.
    calls = {"normalize": 0, "tokenize": 0}
    for module in (cli, analysis):
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(module, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
    argv = ["analyze", "--dataset", str(dataset), "--run-dir", str(tmp_path / "a"), "--set", "lda_iterations=5"]
    assert main(argv) == 0
    assert "length_share_test" in (tmp_path / "a" / "analysis.tsv").read_text()
    assert calls == {"normalize": 20, "tokenize": 20}


def test_analyze_reports_skipped_empty_replies(dataset, tmp_path, capsys):
    # Two "true" replies normalise to no tokens; analysis.tsv is unchanged in form.
    lines = dataset.read_text().splitlines()
    lines[0] = lines[0].replace("is fake news see url", "☃☃")
    lines[2] = lines[2].replace("is an old hoax see url", "\U0001F600")
    dataset.write_text("\n".join(lines) + "\n")
    assert main(["analyze", "--dataset", str(dataset), "--run-dir", str(tmp_path / "a"), "--set", "lda_iterations=5"]) == 0
    out = capsys.readouterr().out
    assert "analyze: true: skipped 2 empty repl(ies)\n" in out
    assert "analyze: false:" not in out
    assert "empty repl" not in (tmp_path / "a" / "analysis.tsv").read_text()


def test_analyze_skips_a_group_with_fewer_than_two_non_empty_replies(dataset, tmp_path, capsys):
    # Every "true" reply but one is a lone snowman, which normalises to no tokens.
    argv = ["analyze", "--run-dir", str(tmp_path / "a"), "--set", "lda_iterations=5"]
    assert main([*argv, "--dataset", str(dataset)]) == 0
    before = (tmp_path / "a" / "analysis.tsv").read_text()
    rows = [line.split("\t") for line in dataset.read_text().splitlines()]
    snowed = [row[:1] + ["☃"] + row[2:] if row[3] == "true" and i else row for i, row in enumerate(rows)]
    dataset.write_text("".join("\t".join(row) + "\n" for row in snowed))
    capsys.readouterr()
    assert main([*argv, "--dataset", str(dataset)]) == 0
    assert "analyze: true: skipped, fewer than 2 non-empty replies\n" in capsys.readouterr().out
    after = (tmp_path / "a" / "analysis.tsv").read_text()
    assert "lexicon\ttrue\t" not in after

    def false_lexicon(text):
        return [line for line in text.splitlines() if line.startswith("lexicon\tfalse\t")]

    assert false_lexicon(after) == false_lexicon(before) != []



@pytest.mark.parametrize("setting", ["lda_beta=0", "lda_beta=-0.5", "lda_beta=nan", "lda_alpha=0", "lda_alpha=nan"])
def test_analyze_rejects_bad_lda_hyperparameter_in_one_line(dataset, tmp_path, capsys, setting):
    name, value = setting.split("=")
    code = main(["analyze", "--dataset", str(dataset), "--run-dir", str(tmp_path / "a"), "--set", setting])
    assert code == 1
    shown = str(float(value))
    assert capsys.readouterr().err == f"fcrg analyze: error: {name[4:]} must be a finite number > 0, got {shown}\n"


def test_analyze_rejects_a_negative_lda_seed_in_one_line(dataset, tmp_path, capsys):
    code = main(["analyze", "--dataset", str(dataset), "--run-dir", str(tmp_path / "a"), "--set", "lda_seed=-1"])
    assert code == 1
    assert capsys.readouterr().err == "fcrg analyze: error: seed must be a non-negative integer, got -1\n"


def test_analyze_rejects_underflowing_lda_hyperparameters_in_one_line(dataset, tmp_path, capsys):
    code = main(["analyze", "--dataset", str(dataset), "--run-dir", str(tmp_path / "a"),
                 "--set", "lda_alpha=1e-300", "--set", "lda_beta=1e-300"])
    assert code == 1
    assert capsys.readouterr().err == (
        "fcrg analyze: error: alpha=1e-300 and beta=1e-300 underflow: the smallest site weight "
        "alpha*beta/(tokens + V*beta) is not a normal float\n"
    )


def test_analyze_failing_midway_keeps_the_previous_outputs(dataset, tmp_path, monkeypatch, capsys):
    run = tmp_path / "analysis"
    argv = ["analyze", "--dataset", str(dataset), "--run-dir", str(run), "--set", "lda_iterations=5"]
    assert main(argv + ["--set", "num_topics=2"]) == 0
    previous = {p.name: p.read_bytes() for p in run.iterdir()}
    assert sorted(previous) == ["analysis.tsv", "config.resolved"]
    fail_writes_midway(monkeypatch, "analysis.tsv")
    capsys.readouterr()
    assert main(argv + ["--set", "num_topics=3"]) == 1
    assert capsys.readouterr().err == "fcrg analyze: error: [Errno 28] No space left on device\n"
    assert sorted(p.name for p in run.iterdir()) == ["analysis.tsv", "config.resolved"]
    assert (run / "analysis.tsv").read_bytes() == previous["analysis.tsv"]
    assert b"num_topics=3" in (run / "config.resolved").read_bytes()  # written before the failure


def test_gradcheck_passes(tmp_path, capsys):
    code = main(["gradcheck", "--run-dir", str(tmp_path / "g")])
    assert code == 0
    assert (tmp_path / "g" / "gradcheck.tsv").exists()
    assert "gradcheck: ok" in capsys.readouterr().out


def test_gradcheck_reports_the_absolute_difference_and_the_coordinates_above_the_floor(tmp_path, monkeypatch):
    report = {"dot": {"w": GradDiff(0.0, 3e-10, 0, 25), "u": GradDiff(2e-5, 4e-8, 2, 25)}}
    monkeypatch.setattr(cli, "gradcheck_report", lambda: report)
    assert main(["gradcheck", "--run-dir", str(tmp_path / "g")]) == 0
    assert (tmp_path / "g" / "gradcheck.tsv").read_text(encoding="utf-8").splitlines() == [
        "attention\tparameter\tmax_rel_error\tmax_abs_error\tabove_floor",
        "dot\tu\t2.000e-05\t4.000e-08\t2/25",
        "dot\tw\t0.000e+00\t3.000e-10\t0/25",
        "worst\t-\t2.000e-05\t4.000e-08\t2/50",
    ]
    report["dot"]["u"] = GradDiff(1e-4, 4e-8, 2, 25)  # the pass rule is still max_rel_error < 1e-4
    assert main(["gradcheck", "--run-dir", str(tmp_path / "h")]) == 1
