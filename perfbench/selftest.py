"""Self-test of the benchmark at tiny size (about a minute).

    python3 perfbench/selftest.py                    # run the checks
    python3 perfbench/selftest.py --write-reference  # re-record reference.json

Checks that the generator is deterministic per seed and differs across
seeds, that its recorded work counts match what fcrg's tokenizer sees, that
every workload passes its output checks with identical digests on a repeat,
and that every metric named in BENCHMARK.json is reported with its unit and
is non-zero on each workload whose layer it measures.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, import_program, limit_blas_threads

# (metric-name prefix, workloads on which it must be non-zero); first match wins.
NONZERO = (
    ("tensor.backward", {"train"}), ("tensor.accumulate_grad", {"train"}),
    ("tensor.embedding_grad_dense", {"train"}), ("tensor.", {"train", "generate"}),
    ("model.encode", {"train", "generate"}), ("model.decode_step", {"train", "generate"}),
    ("model.", {"train"}),
    ("params.load_checkpoint", {"generate", "score"}), ("params.checkpoint_bytes", {"train", "generate", "score"}),
    ("params.", {"train"}),
    ("decoding.", {"generate"}), ("metrics.", {"score"}), ("analysis.", {"score"}),
    ("corpus.read_dataset", {"train", "score"}), ("corpus.make_batch", {"train"}),
    ("corpus.", {"train", "generate", "score"}),
    ("cli.train", {"train"}), ("cli.generate", {"generate"}), ("cli.evaluate", {"score"}),
    ("cli.analyze", {"score"}), ("trace.", {"train", "generate", "score"}),
)


def expected_nonzero(metric: str) -> set[str]:
    return next(workloads for prefix, workloads in NONZERO if metric.startswith(prefix))


def check_generator(tmp: Path) -> list[str]:
    import inputs
    from fcrg.corpus import normalize, read_dataset, tokenize

    problems = []
    for workload in inputs.WORKLOADS:
        first = inputs.build(workload, 1, tmp / f"{workload}-a", "tiny")
        inputs.build(workload, 1, tmp / f"{workload}-b", "tiny")
        inputs.build(workload, 2, tmp / f"{workload}-c", "tiny")
        a, b, c = (inputs.digest(tmp / f"{workload}-{x}") for x in "abc")
        if a != b:
            problems.append(f"{workload}: one seed gave different inputs")
        if a == c:
            problems.append(f"{workload}: two seeds gave identical inputs")
        src = tmp / f"{workload}-a"
        if workload == "train":
            tokens = sum(len(tokenize(normalize(p.reply_text))) + 1 for p in read_dataset(src / "train.tsv"))
            if tokens != first["train_target_tokens"]:
                problems.append(f"train: meta says {first['train_target_tokens']} target tokens, tokenizer sees {tokens}")
        if workload == "score":
            iterations = int((src / "analyze.cfg").read_text().split("lda_iterations=")[1].split()[0])
            tokens = sum(len(tokenize(normalize(p.reply_text))) for p in read_dataset(src / "corpus.tsv"))
            if tokens * iterations != first["lda_site_updates"]:
                problems.append(f"score: meta says {first['lda_site_updates']} site updates, tokenizer sees "
                                f"{tokens * iterations}")
    return problems


def check_workloads(tmp: Path) -> list[str]:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in workloads.WORKLOADS:
        plain = workloads.measure(workload, 3, 0.5, False, tmp / f"{workload}-plain", "tiny")
        traced = workloads.measure(workload, 3, 0.5, True, tmp / f"{workload}-traced", "tiny")
        for result in (plain, traced):
            problems += [f"{workload}: {p}" for p in result["problems"]]
        if plain["output_digest"] != traced["output_digest"]:
            problems.append(f"{workload}: output digest differs between two runs of one seed")
        for kind, got in (("end_to_end", plain["end_to_end"]), ("per_layer", traced["per_layer"])):
            for metric in spec[kind]:
                name = metric["name"]
                if name not in got:
                    problems.append(f"{workload}: {kind} metric {name} is missing")
                    continue
                value, unit = got[name]
                if unit != metric["unit"]:
                    problems.append(f"{workload}: {name} has unit {unit}, BENCHMARK.json says {metric['unit']}")
                if value == 0 and (kind == "end_to_end" or workload in expected_nonzero(name)):
                    problems.append(f"{workload}: {name} reads zero")
            extra = set(got) - {m["name"] for m in spec[kind]}
            if extra:
                problems.append(f"{workload}: {kind} metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def write_reference(tmp: Path) -> None:
    import workloads

    reference = {}
    for workload in workloads.WORKLOADS:
        values, problems = workloads.reference_case(workload, tmp / workload)
        if problems:
            raise SystemExit(f"{workload}: reference case failed: {problems}")
        reference[workload] = values
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_FILE}")


def main(argv) -> int:
    limit_blas_threads()
    import_program()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))
    try:
        if "--write-reference" in argv:
            write_reference(tmp)
            return 0
        problems = check_generator(tmp) + check_workloads(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
