#!/usr/bin/env python3
"""Time build_idf, score_all and each metric on seeded edited-reference pairs.

The pairs are those of the metrics_adversarial benchmark workload, made by
its own code (`perfbench/workloads.py`): the references are the 2000 captions
of a 1000-clip `synth_corpus` (seed 1), and each hypothesis is a reference with
1-4 seeded adjacent swaps, duplications and deletions. Each round builds a
fresh IDF table over all references, as the workload's set-up does, then
scores 450 pairs one `score_all([hyp], [ref], idf)` call at a time. It then
builds a second table and times each part of `score_all` alone, over the same
pairs in turn:

- ngrams: `ngrams(hyp)`, the hypothesis's n-gram counts;
- reference: `idf.reference(ref)`, which makes the reference's entry the
  first time and looks it up after that;
- overlap: `overlap` of the hypothesis's counts against the entry, the one
  pass that gives the clipped counts BLEU and METEOR read and the CIDEr-D;
- rouge_l: `rouge_l(hyp, ref)`;
- meteor: `meteor_counts` given the pass's clipped unigram and bigram totals.

The parts run after `reference`, so every entry they read is already made,
and meteor reads the clipped totals that the overlap part returned.
Each part starts after a full garbage collection, so that a collection which
earlier work made due is not charged to it.

Two reference sets:

- workload: the synthetic captions as they are; they repeat their template
  sentences, so most references are scored again against the same table;
- unique: each caption with its clip id appended as one more token, so no two
  references are equal and every reference is scored for the first time or
  nearly so.

Per set, prints the share of scored pairs whose reference was already scored
in the same round, and over 12 rounds the median and quartiles of the
`build_idf` time in ms, of the mean `score_all` time per pair in us, and of
each part's mean time per pair in us.

Run from a checkout:  python3 scripts/score_timing.py
Time another checkout's package:  python3 scripts/score_timing.py --src OTHER/src
"""
import argparse
import gc
import os
import statistics
import sys
import time

SEED = 1
ROUNDS = 12


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return f"{q2:10.1f} {q1:10.1f} {q3:10.1f}"


def report(rounds=ROUNDS):
    """Print the tables above over `rounds` rounds per reference set. Needs
    capkit, the repository root and tests/ on sys.path."""
    from capkit.data import SynthConfig, synth_corpus
    from capkit.metrics import build_idf, meteor_counts, overlap, rouge_l, score_all
    from capkit.textproc import ROLES, Caption, ngrams
    from perfbench.workloads import MetricsAdversarial

    workload = MetricsAdversarial(SEED, work=None)
    corpus = synth_corpus(SynthConfig(n_clips=workload.REF_CLIPS, seed=SEED))
    ref_sets = {
        "workload": [getattr(s, role) for s in corpus.samples for role in ROLES],
        "unique": [Caption.make(f"{getattr(s, role).raw} {s.id}", role) for s in corpus.samples for role in ROLES],
    }
    print(f"{rounds} rounds of {workload.PAIRS_PER_ROUND} pairs; {'median':>10} {'q1':>10} {'q3':>10}")
    for name, refs in ref_sets.items():
        workload.refs = refs  # what the workload's set-up stores; its pairs() draws from it
        ref_tokens = [r.tokens for r in refs]
        idf_ms, pair_us, repeated = [], [], 0
        part_us = {part: [] for part in ("ngrams", "reference", "overlap", "rouge_l", "meteor")}
        for i in range(rounds):
            pairs = workload.pairs(i)
            repeated += len(pairs) - len({ref.tokens for _, ref in pairs})
            t0 = time.perf_counter()
            idf = build_idf(ref_tokens)
            t1 = time.perf_counter()
            for hyp, ref in pairs:
                score_all([hyp], [ref], idf)
            t2 = time.perf_counter()
            idf_ms.append((t1 - t0) * 1e3)
            pair_us.append((t2 - t1) * 1e6 / len(pairs))

            idf = build_idf(ref_tokens)
            toks = [(hyp.tokens, ref.tokens) for hyp, ref in pairs]
            grams = [ngrams(h) for h, _ in toks]
            parts = {
                "ngrams": lambda: [ngrams(h) for h, _ in toks],
                "reference": lambda: [idf.reference(r) for _, r in toks],
                "overlap": lambda: [overlap(g, len(h), idf.reference(r)) for g, (h, r) in zip(grams, toks)],
                "rouge_l": lambda: [rouge_l(h, r) for h, r in toks],
                "meteor": lambda: [meteor_counts(h, r, c[0], c[1]) for (c, _), (h, r) in zip(out["overlap"], toks)],
            }
            out = {}  # each part's results; meteor reads the clipped totals of overlap's
            for part, run in parts.items():
                gc.collect()
                t0 = time.perf_counter()
                out[part] = run()
                part_us[part].append((time.perf_counter() - t0) * 1e6 / len(pairs))
        distinct = len({r.tokens for r in refs})
        share = repeated / (rounds * workload.PAIRS_PER_ROUND)
        print(f"{name}: {len(refs)} references ({distinct} distinct), {share:.1%} of pairs repeat a reference")
        print(f"  {'build_idf_ms':<20} {quartiles(idf_ms)}")
        print(f"  {'score_all_us_pair':<20} {quartiles(pair_us)}")
        for part, us in part_us.items():
            print(f"  {part + '_us_pair':<20} {quartiles(us)}")


def main():
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(root, "src"),
                    help="directory that holds the capkit package (default: this checkout's src)")
    args = ap.parse_args()
    # The workload module imports capkit, so --src goes first; it also imports tests/oracles.py.
    sys.path[:0] = [args.src, root, os.path.join(root, "tests")]
    report()


if __name__ == "__main__":
    main()
