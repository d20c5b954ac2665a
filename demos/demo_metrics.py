"""Scoring generated responses: word-overlap metrics, embedding metrics,
and a paired significance test between two systems.

Run:  python3 demos/demo_metrics.py
"""

import numpy as np

from fcrg.metrics import (
    EmbeddingTable,
    bleu_n,
    evaluate,
    meteor_lite,
    rouge_l,
    wilcoxon_one_sided,
)

reference = "that claim was debunked see url".split()
good = "that claim was already debunked url".split()
bad = "thanks for sharing this".split()

print("single-pair scores (candidate vs reference)")
for name, cand in (("good", good), ("bad", bad)):
    print(f"  {name}: bleu2={bleu_n([cand], [reference], 2):.3f}"
          f"  rouge_l={rouge_l(cand, reference):.3f}"
          f"  meteor={meteor_lite(cand, reference):.3f}")

# Embedding metrics need word vectors; any table works, including the
# trained model's own embedding (metrics.embedding_table_from_model).
rng = np.random.default_rng(0)
table = EmbeddingTable({w: rng.standard_normal(8) for w in sorted(set(reference + good + bad))})

references = {0: reference, 1: "no the photo is fake".split()}
generations = {0: [good, bad], 1: ["the photo is fake".split()]}
report = evaluate(generations, references, table)
print("\ncorpus report (x100 scale)")
print(report.to_tsv(), end="")

# Compare two systems on per-example ROUGE-L with a one-sided Wilcoxon test.
system_a = [0.61, 0.55, 0.70, 0.48, 0.66, 0.59, 0.72, 0.51]
system_b = [0.50, 0.49, 0.61, 0.47, 0.52, 0.55, 0.60, 0.50]
result = wilcoxon_one_sided(system_a, system_b)
print(f"\nWilcoxon one-sided (A > B): W+={result.statistic}, p={result.p_value:.4f}")
