#!/usr/bin/env python3
"""Time meteor_counts on adversarial 24-token captions, per vocabulary size.

Two input families, each a hypothesis that is a rearrangement of its
reference, so every token matches and only the chunk search is hard:

- block shuffles: the reference cut into 4-10 blocks at random points, the
  blocks put in a random order (150 pairs per vocabulary size, 2-10 words);
- permutations: the reference's tokens in a uniformly random order (40 pairs
  per vocabulary size, 2-4 words).

Each pair's match count and link bound (its clipped unigram and bigram
totals) are made before its clock starts, as `score_all` takes them from the
one pass that serves all its metrics. Every input comes from
--seed. One line per cell: the family, the vocabulary size, the median and
worst time of one meteor_counts call in ms, and how many calls took longer
than 20 ms (the per-pair deadline of the metrics_adversarial benchmark
workload).

Run from a checkout:  python3 scripts/meteor_worst_case.py
Time another checkout's package:  python3 scripts/meteor_worst_case.py --src OTHER/src
"""
import argparse
import os
import statistics
import sys
import time

import numpy as np

LENGTH = 24
DEADLINE_MS = 20.0
GRID = (("block", range(2, 11), 150), ("perm", range(2, 5), 40))


def block_shuffle(rng, ref):
    cuts = sorted(rng.choice(np.arange(1, len(ref)), size=int(rng.integers(3, 10)), replace=False))
    blocks = [ref[a:b] for a, b in zip([0, *cuts], [*cuts, len(ref)])]
    return [t for k in rng.permutation(len(blocks)) for t in blocks[k]]


def pairs(seed, family, words, count):
    rng = np.random.default_rng([seed, words, family == "perm"])
    vocab = [chr(ord("a") + k) for k in range(words)]
    for _ in range(count):
        ref = [vocab[k] for k in rng.integers(words, size=LENGTH)]
        hyp = block_shuffle(rng, ref) if family == "block" else [ref[k] for k in rng.permutation(LENGTH)]
        yield hyp, ref


def report(seed, grid=GRID):
    """Print the header and one line per (family, words) cell of `grid`, a
    sequence of (family, vocabulary sizes, pairs per size)."""
    from capkit.metrics import build_idf, meteor_counts, overlap
    from capkit.textproc import ngrams

    print(f"{'family':<6} {'words':>5} {'pairs':>5} {'median_ms':>10} {'worst_ms':>10} {'over_20ms':>9}")
    for family, sizes, count in grid:
        for words in sizes:
            ms = []
            for hyp, ref in pairs(seed, family, words, count):
                m, links = overlap(ngrams(hyp), len(hyp), build_idf([ref]).reference(ref))[0][:2]
                t0 = time.perf_counter()
                meteor_counts(hyp, ref, m, links)
                ms.append((time.perf_counter() - t0) * 1e3)
            over = sum(t > DEADLINE_MS for t in ms)
            print(f"{family:<6} {words:>5} {count:>5} {statistics.median(ms):>10.2f} {max(ms):>10.2f} {over:>9}",
                  flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
                    help="directory that holds the capkit package (default: this checkout's src)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    report(args.seed)


if __name__ == "__main__":
    main()
