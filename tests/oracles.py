"""Independent brute-force oracles used to freeze expected metric values, the
token log-probabilities of the training loss, and the synthetic corpus.

Deliberately written as naive, direct translations of the scoring formulas
and the corpus recipe, separate from the package implementations they check."""
import itertools
import math
import re
from collections import Counter
from functools import lru_cache

import numpy as np


def oracle_log_softmax(z):
    """log softmax over the last axis: z - max - log(sum(exp(z - max)))."""
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def oracle_bleu(hyps, refs, n):
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    if hyp_len == 0:
        return 0.0
    logs = []
    for k in range(1, n + 1):
        num = 0
        den = 0
        for h, r in zip(hyps, refs):
            hgrams = [tuple(h[i : i + k]) for i in range(len(h) - k + 1)]
            rgrams = [tuple(r[i : i + k]) for i in range(len(r) - k + 1)]
            den += len(hgrams)
            rcount = Counter(rgrams)
            for g, c in Counter(hgrams).items():
                num += min(c, rcount.get(g, 0))
        if num == 0:
            return 0.0
        logs.append(math.log(num / den))
    bp = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    return bp * math.exp(sum(logs) / n)


def oracle_lcs(a, b):
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def oracle_rouge_l(hyp, ref, beta=1.2):
    L = oracle_lcs(tuple(hyp), tuple(ref))
    p = L / len(hyp) if hyp else 0.0
    r = L / len(ref) if ref else 0.0
    if p == 0 and r == 0:
        return 0.0
    return (1 + beta**2) * p * r / (r + beta**2 * p)


def _max_alignments(hyp, ref, prune=lambda pairs: False):
    """Every alignment with the most exact-unigram matches: each a list of
    (hyp index, ref index) pairs in hyp order, no index used twice. A partial
    alignment for which `prune(pairs)` is true is dropped with its extensions."""
    m = sum((Counter(hyp) & Counter(ref)).values())

    def rec(hi, used_r, pairs):
        if len(pairs) + (len(hyp) - hi) < m or prune(pairs):
            return
        if hi == len(hyp):
            yield pairs
            return
        yield from rec(hi + 1, used_r, pairs)
        for ri in range(len(ref)):
            if ri not in used_r and ref[ri] == hyp[hi]:
                yield from rec(hi + 1, used_r | {ri}, pairs + [(hi, ri)])

    return rec(0, frozenset(), [])


def _chunks(pairs):
    """Runs of matches adjacent in both captions."""
    return sum(k == 0 or pairs[k] != (pairs[k - 1][0] + 1, pairs[k - 1][1] + 1) for k in range(len(pairs)))


def _crossings(pairs):
    """Pairs of matches whose order in the reference is not their order in the hypothesis."""
    return sum(1 for k, (_, ri) in enumerate(pairs) for _, rj in pairs[k + 1 :] if rj < ri)


def oracle_fewest_chunks(hyp, ref):
    """capkit's rule: the fewest chunks over all maximal alignments. A match
    added to an alignment never removes a chunk, so the enumeration drops a
    partial alignment with as many chunks as the best complete one so far."""
    best = math.inf
    for a in _max_alignments(hyp, ref, lambda pairs: _chunks(pairs) >= best):
        best = _chunks(a)
    return best


def oracle_fewest_crossings(hyp, ref):
    """Banerjee & Lavie (2005), Section 2: of the alignments with the most
    matches, those with the fewest unigram mapping crosses, where two matches
    cross when the reference orders them the other way from the hypothesis."""
    fewest, tied = None, []
    for a in _max_alignments(hyp, ref):
        c = _crossings(a)
        if fewest is None or c < fewest:
            fewest, tied = c, []
        if c == fewest:
            tied.append(a)
    return tied


def oracle_paper_chunks(hyp, ref):
    """The chunk counts of the fewest-crossing alignments: one value unless
    the paper's rule needs a tie-break."""
    return {_chunks(a) for a in oracle_fewest_crossings(hyp, ref)}


def oracle_meteor(hyp, ref, alpha=0.9, gamma=0.5, theta=3.0):
    """Exhaustive search over all maximal exact-unigram alignments."""
    m = sum((Counter(hyp) & Counter(ref)).values())
    if m == 0:
        return 0.0
    chunks = oracle_fewest_chunks(hyp, ref)
    p = m / len(hyp)
    r = m / len(ref)
    f = p * r / (alpha * p + (1 - alpha) * r)
    return f * (1.0 - gamma * (chunks / m) ** theta)


def oracle_cider_d(hyp, ref, ref_corpus, sigma=6.0):
    doc_count = len(ref_corpus)

    def grams(toks, n):
        return Counter(tuple(toks[i : i + n]) for i in range(len(toks) - n + 1))

    def df(gram, n):
        return sum(1 for doc in ref_corpus if gram in grams(doc, n))

    total = 0.0
    for n in range(1, 5):
        hg = grams(hyp, n)
        rg = grams(ref, n)
        hvec, rvec = {}, {}
        for g in set(hg) | set(rg):
            d = df(g, n)
            w = math.log(doc_count / d) if d > 0 else 0.0
            hvec[g] = min(hg.get(g, 0), rg.get(g, 0)) * w
            rvec[g] = rg.get(g, 0) * w
        hn = math.sqrt(sum(v * v for v in hvec.values()))
        rn = math.sqrt(sum(v * v for v in rvec.values()))
        if hn > 0 and rn > 0:
            dot = sum(hvec[g] * rvec[g] for g in hvec)
            total += max(0.0, dot / (hn * rn))
    pen = math.exp(-((len(hyp) - len(ref)) ** 2) / (2 * sigma * sigma))
    return 10.0 * pen * total / 4.0


def oracle_cider_d_paper(hyp, refs, images, sigma=6.0):
    """CIDEr-D as Vedantam et al. (CVPR 2015, section 3) define it and the
    coco-caption scorer (pycocoevalcap/cider/cider_scorer.py) computes it:
    the candidate hyp against refs, the references of its image, with
    `images` the corpus, a list of each image's references.

    A sentence's n-gram g weighs tf(g) * log(N / max(1, df(g))): N images, of
    which df(g) have a reference that holds g, so an n-gram that no image
    holds weighs log N. tf is the raw count, as the scorer takes it (the
    paper writes it divided by the sentence's n-gram total). For each n and
    each reference s, min(g(hyp), g(s)) . g(s) is divided by the norms of the
    whole vectors g(hyp) and g(s) and scaled by exp(-(l(hyp) - l(s))^2 /
    (2 sigma^2)), l the token count. (The scorer counts a sentence's bigrams
    as its length: the same difference for nonempty sentences.) The score is
    10 times the mean over the references and n = 1..4."""
    doc_count = len(images)

    def grams(toks, n):
        return Counter(tuple(toks[i : i + n]) for i in range(len(toks) - n + 1))

    def weight(gram, n):
        df = sum(1 for image in images if any(gram in grams(r, n) for r in image))
        return math.log(doc_count / max(1, df))

    total = 0.0
    for ref in refs:
        pen = math.exp(-((len(hyp) - len(ref)) ** 2) / (2 * sigma * sigma))
        for n in range(1, 5):
            hvec = {g: c * weight(g, n) for g, c in grams(hyp, n).items()}
            rvec = {g: c * weight(g, n) for g, c in grams(ref, n).items()}
            hn = math.sqrt(sum(v * v for v in hvec.values()))
            rn = math.sqrt(sum(v * v for v in rvec.values()))
            if hn > 0 and rn > 0:
                dot = sum(min(v, rvec.get(g, 0.0)) * rvec.get(g, 0.0) for g, v in hvec.items())
                total += pen * dot / (hn * rn)
    return 10.0 * total / (4 * len(refs))


def oracle_frechet(mu_a, cov_a, mu_b, cov_b):
    """Frechet distance via numpy's eigendecomposition."""
    wa, va = np.linalg.eigh(cov_a)
    sa = (va * np.sqrt(np.clip(wa, 0, None))) @ va.T
    inner = sa @ cov_b @ sa
    inner = (inner + inner.T) / 2
    w = np.clip(np.linalg.eigvalsh(inner), 0, None)
    diff = np.asarray(mu_a) - np.asarray(mu_b)
    return float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2 * np.sqrt(w).sum())


def oracle_trace_sqrt(cov_a, cov_b):
    wa, va = np.linalg.eigh(cov_a)
    sa = (va * np.sqrt(np.clip(wa, 0, None))) @ va.T
    inner = sa @ cov_b @ sa
    inner = (inner + inner.T) / 2
    return float(np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0, None)).sum())


def oracle_synth_corpus(config):
    """The synthetic corpus re-derived from its recipe: per clip, integers(3)
    for the actor, the action and the cause, then normal(0, |noise_std|,
    (8, D)); the clip is float32 of that noise plus ones at the actor, 3 +
    the action and 6 + the cause; the captions are the phrase tables'
    sentences; after the last clip one permutation splits the ids 80/10/10.

    Returns (clips, split): per clip in draw order (id, (actor, action,
    cause), [(raw, tokens, role)] for the description and the avoidance,
    float32 array)."""
    from capkit.data import ACTIONS, ACTORS, CAUSES, MEASURES

    def caption(raw, role):
        return raw, tuple(re.findall("[a-z0-9]+", raw.lower())), role

    rng = np.random.default_rng(config.seed)
    clips = []
    for i in range(config.n_clips):
        actor = int(rng.integers(3))
        action = int(rng.integers(3))
        cause = int(rng.integers(3))
        signal = np.zeros(config.D)
        signal[[actor, 3 + action, 6 + cause]] = 1.0
        noise = rng.normal(0.0, abs(config.noise_std), (8, config.D))
        captions = [
            caption(f"the {ACTORS[actor]} {ACTIONS[action]}; {CAUSES[cause]}", "description"),
            caption(f"the {ACTORS[actor]} should {MEASURES[cause]}", "avoidance"),
        ]
        clips.append((f"clip{i:04d}", (actor, action, cause), captions, (signal + noise).astype(np.float32)))
    ids = [clips[k][0] for k in rng.permutation(config.n_clips)]
    n_train, n_val = int(0.8 * config.n_clips), int(0.1 * config.n_clips)
    split = {"train": ids[:n_train], "val": ids[n_train : n_train + n_val], "test": ids[n_train + n_val :]}
    return clips, split


MICRO_CORPUS = [
    # (hypothesis, reference) raw strings; one reference per hypothesis
    ("a red car stops at the junction", "a red car stops at the junction"),
    ("the the the", "the cat"),
    ("a truck merges into traffic quickly", "a truck merges into the traffic"),
    ("cyclist ignores the right of way", "the cyclist ignores right of way"),
    ("rain falls", "snow melts slowly"),
]
