"""Corpus-linguistic analyses: lexicon category profiles, LDA topics,
and the shares-vs-length rank test.

Run:  python3 demos/demo_analysis.py
"""

from pathlib import Path

import numpy as np

import fcrg.analysis as analysis
from fcrg.analysis import (
    Lexicon,
    group_stats,
    lda_fit,
    lda_top_words,
    length_share_test,
    mann_whitney_u,
    reply_tokens,
)
from fcrg.corpus import RawPair, normalize, tokenize

lexicon = Lexicon.load(Path(analysis.__file__).parent / "data" / "demo_lexicon.tsv")

replies = [
    "no that was debunked it is an old hoax",
    "this is not true the photo was staged",
    "it never happened nothing supports it",
    "thanks for sharing",
    "interesting story",
]
docs = [tokenize(normalize(r)) for r in replies]

stats = group_stats(docs[:3], lexicon)  # the fact-checking replies
print("category profile of fact-checking replies")
for cat in lexicon.categories:
    print(f"  {cat:10s} mean={stats.means[cat]:.3f} var={stats.variances[cat]:.4f}")

# Topic extraction over a synthetic two-theme corpus.
rng = np.random.default_rng(0)
themes = [["election", "ballot", "vote", "fraud"], ["vaccine", "virus", "dose", "trial"]]
corpus = [[themes[i % 2][j] for j in rng.integers(0, 4, size=10)] for i in range(60)]
model = lda_fit(corpus, num_topics=2, alpha=0.1, iterations=50, seed=1)
for k, words in enumerate(lda_top_words(model, 4)):
    print(f"topic {k}: {' '.join(words)}")

# Do longer replies spread more?  (Mann-Whitney, long bucket greater.)
pairs = [RawPair("claim", " ".join(["w"] * n), shares)
         for n, shares in [(4, 3), (5, 1), (6, 4), (12, 30), (14, 22), (15, 41)]]
u, p = length_share_test(pairs, reply_tokens(pairs))
print(f"shares of long vs short replies: U={u}, p={p:.4f}")

u, p = mann_whitney_u([4, 5, 6], [1, 2, 3])
print(f"textbook check [4,5,6] vs [1,2,3]: U={u}, p={p:.4f}")
