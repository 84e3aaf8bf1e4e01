"""Caption metrics: BLEU-1..4, ROUGE-L, METEOR-lite, CIDEr-D, Frechet distance."""
from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from operator import mul

import numpy as np

from .errors import CapkitError, NumericFailure
from .textproc import MAX_N, Caption, ngrams

ROUGE_BETA = 1.2
METEOR_ALPHA, METEOR_GAMMA, METEOR_THETA = 0.9, 0.5, 3.0
CIDER_SIGMA = 6.0
QL_MAX_ITERS = 30  # implicit QL iterations allowed per eigenvalue


# ---------------------------------------------------------------------------
# BLEU

def bleu_counts(pairs) -> list[float]:
    """Corpus BLEU-1..4 from each pair's (hypothesis length, reference length,
    clipped counts of orders 1..4), as `overlap` gives them: pooled over the
    pairs, no smoothing."""
    clipped = [0] * MAX_N
    total = [0] * MAX_N
    ref_len = 0
    for hyp_len, rlen, clip in pairs:
        ref_len += rlen
        for k in range(MAX_N):
            total[k] += max(0, hyp_len - k)  # the hypothesis's (k + 1)-grams
            clipped[k] += clip[k]
    scores, log_p_sum = [0.0] * MAX_N, 0.0
    for k in range(MAX_N):
        if clipped[k] == 0:  # BLEU-(k + 1) and every higher order are 0; total[k] may be 0
            break
        log_p_sum += math.log(clipped[k] / total[k])
        # total[0] is the hypothesis length, so this is the brevity penalty
        scores[k] = min(1.0, math.exp(1.0 - ref_len / total[0])) * math.exp(log_p_sum / (k + 1))
    return scores


# ---------------------------------------------------------------------------
# ROUGE-L

def _lcs_len(a, b) -> int:
    """The length of a longest common subsequence of a and b, by the
    bit-parallel recurrence of Allison & Dix (1986) in the form of Hyyrö
    (2004), over Python ints. Bit j of `at[t]` is set where b[j] == t. For
    each token of a, u = v & at[t] and v = ((v + u) | (v - u)) & full; the
    LCS length is the number of bits of v that are 0. One big-int step per
    token of a, not one Python step per pair of tokens."""
    at = {}
    for j, t in enumerate(b):
        at[t] = at.get(t, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for t in a:
        match = at.get(t)
        if match:  # else u = 0, which leaves v as it is
            u = v & match
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(hyp, ref) -> float:
    L = _lcs_len(hyp, ref)
    p = L / len(hyp) if hyp else 0.0
    r = L / len(ref) if ref else 0.0
    if p == 0.0 and r == 0.0:
        return 0.0
    b2 = ROUGE_BETA * ROUGE_BETA
    return (1.0 + b2) * p * r / (r + b2 * p)


# ---------------------------------------------------------------------------
# METEOR-lite (exact-match stage only)

def _cover(spans, remaining, budget) -> bool:
    """Whether at most `budget` disjoint blocks of spans hold exactly
    `remaining` unigrams.

    A depth-first search over an explicit stack, so its depth (one level per
    block taken) is data, not Python frames. A frame is (the next span it
    tries, the unigrams still to cover, the used hyp and ref masks, the blocks
    left); taking a block pushes the frame, to resume at the next span, and
    then the child, which tries only later spans. A frame gives up once its
    next span times its budget cannot reach what is left, since the spans are
    longest first."""
    stack = [(0, remaining, 0, 0, budget)]
    while stack:
        n, remaining, used_h, used_r, budget = stack.pop()
        if remaining == 0:
            return True
        while n < len(spans):
            k, hs, rs = spans[n]
            if k * budget < remaining:
                break
            n += 1
            if k > remaining or hs & used_h or rs & used_r:
                continue
            stack.append((n, remaining, used_h, used_r, budget))
            stack.append((n, remaining - k, used_h | hs, used_r | rs, budget - 1))
            break
    return False


def _min_chunks(hyp, ref, m: int, links: int) -> int:
    """Fewest contiguous common blocks that realize m >= 1 matched unigrams.

    Exhaustive search over disjoint common substrings with iterative
    deepening. Every sub-run of a common run is a candidate, because the
    fewest blocks can need part of a run. Blocks are taken in list order,
    longest first, so each set of blocks is tried once, and a branch stops
    when its longest remaining block times the budget cannot reach m. A
    block's hyp and ref positions, and the positions used so far, are int
    bitmasks.

    Deepening starts at a lower bound. chunks = m - links, where a link is a
    pair of adjacent hyp positions matched to adjacent ref positions; links
    use distinct hyp bigrams and distinct ref bigrams of the same type, so
    there are at most `links` = sum_g min(hyp_bigrams[g], ref_bigrams[g]) of
    them. And no block is longer than the longest common run.
    """
    at = {}  # token -> its ref positions, last first
    for j in range(len(ref) - 1, -1, -1):
        at.setdefault(ref[j], []).append(j)
    # by_len[k]: the common blocks of length k as (k, hyp mask, ref mask), in
    # (i, j) order from the back, which is the longest-first order of the list
    by_len = [[] for _ in range(min(len(hyp), len(ref)) + 1)]
    below = [0] * (len(ref) + 1)  # run lengths from row i + 1 of the run table
    for i in range(len(hyp) - 1, -1, -1):
        row = [0] * (len(ref) + 1)
        for j in at.get(hyp[i], ()):
            run = row[j] = below[j + 1] + 1
            for k in range(1, run + 1):
                ones = (1 << k) - 1
                by_len[k].append((k, ones << i, ones << j))
        below = row
    spans = [span for blocks in reversed(by_len) for span in blocks]
    for chunks in range(max(1, m - links, -(-m // spans[0][0])), m + 1):
        if _cover(spans, m, chunks):
            return chunks
    return m


def meteor_counts(hyp, ref, m: int, links: int) -> float:
    """METEOR-lite of a pair from its clipped unigram total m, the match
    count, and its clipped bigram total `links`, which bounds the links
    between matches."""
    if m == 0:
        return 0.0
    p = m / len(hyp)
    r = m / len(ref)
    f_mean = p * r / (METEOR_ALPHA * p + (1.0 - METEOR_ALPHA) * r)
    penalty = METEOR_GAMMA * (_min_chunks(hyp, ref, m, links) / m) ** METEOR_THETA
    return f_mean * (1.0 - penalty)


# ---------------------------------------------------------------------------
# The reference table, and the one pass that BLEU, METEOR and CIDEr-D read

@dataclass(frozen=True)
class RefEntry:
    """One reference as BLEU, METEOR and CIDEr-D read it: its length and,
    per n, (table, norm). The table maps each n-gram of the reference to (its
    count, its IDF weight, count x weight), the weight computed when the entry
    is made and 0.0 where df is 0 or doc_count; norm is the Euclidean norm of
    the reference's tf-idf vector."""
    length: int
    tables: dict  # n -> ({gram: (count, weight, count * weight)}, norm)


@dataclass(frozen=True)
class IdfTable:
    """Document frequencies over a reference corpus, and the RefEntry of each
    reference scored against it, made on first use: one per distinct reference
    scored (a document of the table or not), so the table's memory grows with
    the references scored against it; equality and repr ignore them. The table
    stores no weights: an entry computes log(doc_count / df) for each of its
    n-grams when it is made.
    """
    doc_count: int
    df: dict  # n -> {gram: document frequency}
    _entries: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def reference(self, tokens) -> RefEntry:
        """The RefEntry of a reference's tokens, made the first time it is asked for."""
        key = tuple(tokens)
        entry = self._entries.get(key)
        if entry is None:
            grams, tables = ngrams(key), {}
            for n in range(1, MAX_N + 1):
                df, table = self.df[n], {}
                for g, c in grams[n].items():
                    d = df.get(g, 0)
                    w = math.log(self.doc_count / d) if d else 0.0
                    table[g] = (c, w, c * w)
                tables[n] = (table, math.sqrt(sum(e[2] * e[2] for e in table.values() if e[1])))
            entry = RefEntry(len(key), tables)
            # One store: a signal raised while the entry was built leaves no partial entry.
            self._entries[key] = entry
        return entry


def build_idf(refs) -> IdfTable:
    """The table over refs, token sequences: the n-grams of each distinct
    reference are counted once, and go into df once per occurrence."""
    if not refs:
        raise CapkitError("cannot build an IDF table from zero references")
    df = {n: Counter() for n in range(1, MAX_N + 1)}
    for r, k in Counter(map(tuple, refs)).items():
        grams = ngrams(r)
        for n in range(1, MAX_N + 1):
            df[n].update(dict.fromkeys(grams[n], k))  # each of the k documents holds each gram once
    return IdfTable(doc_count=len(refs), df={n: dict(c) for n, c in df.items()})


def cider_d(hyp, ref, idf: IdfTable) -> float:
    return overlap(ngrams(hyp), len(hyp), idf.reference(ref))[1]


def overlap(hyp_grams: dict, hyp_len: int, entry: RefEntry) -> tuple[list[int], float]:
    """A hypothesis's `ngrams` counts and length against a reference's entry,
    with one table lookup per hypothesis n-gram: the clipped count of each
    order 1..MAX_N, and the CIDEr-D.

    CIDEr-D's sums run through `sum` over the grams of nonzero weight in
    hypothesis-gram order, the order of the four-lookup form that
    tests/test_metrics.py keeps, so the two agree bit for bit."""
    clipped, sim_sum = [], 0.0
    for n in range(1, MAX_N + 1):
        table, rn = entry.tables[n]
        total, hv, rv = 0, [], []  # hv: the clipped hypothesis vector; rv: the reference's coordinates
        get = table.get
        for g, c in hyp_grams[n].items():
            e = get(g)
            if e is not None:
                rc, w, r = e
                if rc < c:
                    c = rc
                total += c
                if w:
                    hv.append(c * w)
                    rv.append(r)
        clipped.append(total)
        hn = math.sqrt(sum(map(mul, hv, hv)))
        if hn and rn:
            sim_sum += max(0.0, sum(map(mul, hv, rv)) / (hn * rn))
    delta = hyp_len - entry.length
    penalty = math.exp(-(delta * delta) / (2.0 * CIDER_SIGMA * CIDER_SIGMA))
    return clipped, 10.0 * penalty * sim_sum / MAX_N


# ---------------------------------------------------------------------------
# Frechet distance

@dataclass(frozen=True)
class GaussianStats:
    mean: np.ndarray
    cov: np.ndarray


def gaussian_stats(features: np.ndarray) -> GaussianStats:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise CapkitError("features must be an N x D matrix")
    if x.shape[0] < 2:
        raise CapkitError("need at least 2 feature rows")
    if not np.isfinite(x).all():
        raise CapkitError("features contain NaN or infinite values")
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        mean = x.mean(axis=0)
        c = np.atleast_2d(np.cov(x, rowvar=False, ddof=1))
        c = (c + c.T) / 2.0
    if not (np.isfinite(mean).all() and np.isfinite(c).all()):
        raise NumericFailure("feature mean or covariance overflows float64")
    return GaussianStats(mean=mean, cov=c)


def symmetric_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, in ascending order; no eigenvectors.

    The matrix is scaled by a power of two, which is exact, so that its largest
    entry lies in [0.5, 1) and no square overflows. Householder reflections
    reduce it to tridiagonal form, each one rank-2 update of the trailing
    block, and implicit QL with Wilkinson shifts finds the eigenvalues of the
    tridiagonal (Bowdler, Martin, Reinsch & Wilkinson, 1968; EISPACK tql1).
    As in tql1, an off-diagonal entry counts as zero once it is at most eps
    times the tridiagonal's norm: a test relative to its diagonal neighbours
    stalls on eigenvalues near zero in one block with a much larger one.

    Raises CapkitError for NaN or infinite entries, and NumericFailure when
    an eigenvalue needs more than QL_MAX_ITERS iterations.
    """
    b = np.array(a, dtype=np.float64)
    if not np.isfinite(b).all():
        raise CapkitError("matrix contains NaN or infinite values")
    n = b.shape[0]
    shift = math.frexp(np.abs(b).max(initial=0.0))[1]
    b = np.ldexp(b, -shift)
    e = [0.0] * n  # e[i] couples d[i] and d[i + 1]; e[n - 1] stays 0
    for k in range(n - 1):
        v = b[k + 1:, k]  # turned into the reflection vector in place: column k is not read again
        norm = math.sqrt(v @ v)
        if norm == 0.0:
            continue
        alpha = -math.copysign(norm, v[0])
        h = norm * (norm + abs(v[0]))  # v.v / 2 after v[0] -= alpha: the reflection is I - v v^T / h
        v[0] -= alpha
        rest = b[k + 1:, k + 1:]
        p = rest @ v / h
        w = p - (v @ p / (2.0 * h)) * v
        rest -= np.outer(v, w) + np.outer(w, v)
        e[k] = alpha
    d = np.diag(b).tolist()
    tol = np.finfo(np.float64).eps * max((abs(x) + abs(y) for x, y in zip(d, e)), default=0.0)
    for l in range(n):
        for it in range(QL_MAX_ITERS + 1):
            m = l
            while m < n - 1 and abs(e[m]) > tol:
                m += 1
            if m == l:
                break
            if it == QL_MAX_ITERS:
                raise NumericFailure(f"QL found no eigenvalue in {QL_MAX_ITERS} iterations")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[m] - d[l] + e[l] / (g + math.copysign(math.hypot(g, 1.0), g))
            s, c, p = 1.0, 1.0, 0.0
            for i in range(m - 1, l - 1, -1):
                f, bi = s * e[i], c * e[i]
                r = e[i + 1] = math.hypot(f, g)
                if r == 0.0:  # the rotation underflowed: split here and retry
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * bi
                p = s * r
                d[i + 1] = g + p
                g = c * r - bi
            else:
                d[l] -= p
                e[l], e[m] = g, 0.0
    return np.ldexp(np.sort(d), shift)


def _pivoted_cholesky(c: np.ndarray) -> np.ndarray:
    """A d x r factor L with L L^T = C, for a symmetric PSD C of numerical rank r.

    Each step pivots on the largest remaining diagonal entry of the Schur
    complement and stops once it is at most d * eps * max(diag(C)), so a
    semidefinite C of any scale factors without error (Higham 2009; the LAPACK
    xPSTRF rule), and an all-zero C gives a d x 0 factor. L keeps C's row order.
    """
    c = np.asarray(c, dtype=np.float64)
    d = c.shape[0]
    rest = np.diag(c).copy()  # diagonal of the Schur complement
    tol = d * np.finfo(np.float64).eps * rest.max(initial=0.0)
    l = np.zeros((d, d))
    for k in range(d):
        j = int(np.argmax(rest))
        if rest[j] <= tol:
            return l[:, :k]
        col = (c[:, j] - l[:, :k] @ l[j, :k]) / math.sqrt(rest[j])
        rest -= col * col
        rest[j] = 0.0  # pivoted: never chosen again, since tol > 0
        l[:, k] = col
    return l


def frechet_distance(a: GaussianStats, b: GaussianStats) -> float:
    """||mu_a - mu_b||^2 + tr A + tr B - 2 tr sqrt(sqrt(A) B sqrt(A)).

    For any factor A = L L^T the last trace is sum sqrt(eig(L^T B L))
    (Dowson & Landau 1982), so a pivoted Cholesky factor and the eigenvalues
    of the r x r matrix L^T B L give it. A non-finite covariance raises
    CapkitError; an overflow from finite inputs raises NumericFailure.
    """
    if a.mean.shape != b.mean.shape:
        raise CapkitError(f"feature dimensions differ: {a.mean.shape} vs {b.mean.shape}")
    if not (np.isfinite(a.cov).all() and np.isfinite(b.cov).all()):
        raise CapkitError("covariance contains NaN or infinite values")
    if np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov):
        return 0.0
    diff = a.mean - b.mean
    # The trace term is homogeneous of degree one: one power of two brings the
    # larger covariance's largest entry into [0.5, 1), so that L^T B L neither
    # overflows nor underflows at any scale, and ldexp undoes it.
    shift = math.frexp(max(np.abs(a.cov).max(initial=0.0), np.abs(b.cov).max(initial=0.0)))[1]
    l = _pivoted_cholesky(np.ldexp(a.cov, -shift))
    inner = l.T @ np.ldexp(b.cov, -shift) @ l
    w = symmetric_eigvals((inner + inner.T) / 2.0)
    tr_sqrt = np.ldexp(np.sqrt(np.clip(w, 0.0, None)).sum(), shift)  # a PSD matrix: negative eigenvalues are rounding
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        fd = float(diff @ diff + np.trace(a.cov) + np.trace(b.cov) - 2.0 * tr_sqrt)
    if not math.isfinite(fd):
        raise NumericFailure(f"Frechet distance is not finite: {fd}")
    return max(0.0, fd)


# ---------------------------------------------------------------------------
# Combined report

@dataclass
class ScoreReport:
    b1: float
    b2: float
    b3: float
    b4: float
    rouge_l: float
    meteor: float
    cider_d: float
    counts: int
    unmatched: int = 0  # hypotheses left out because no reference shares their (id, role)

    # Each score lies in [0, SCORE_MAX]; a report may pass either end by
    # ROUNDING, since an exact match scores CIDEr-D 10.000000000000002.
    SCORE_MAX = {"b1": 1.0, "b2": 1.0, "b3": 1.0, "b4": 1.0, "rouge_l": 1.0, "meteor": 1.0, "cider_d": 10.0}
    FIELDS = (*SCORE_MAX, "counts")
    ROUNDING = 1e-9

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_dict(cls, d: dict, where: str = "report") -> "ScoreReport":
        """Raises CapkitError unless every metric field is a finite number
        (an int or float, not a bool, of at most a float's largest magnitude),
        each score lies in its range, and counts is an int >= 0."""
        if not all(type(d.get(f)) in (int, float) and abs(d[f]) <= sys.float_info.max for f in cls.FIELDS):
            raise CapkitError(f"{where}: needs a finite number for each of {', '.join(cls.FIELDS)}")
        for f, hi in cls.SCORE_MAX.items():
            if not -cls.ROUNDING <= d[f] <= hi + cls.ROUNDING:
                raise CapkitError(f"{where}: {f} = {d[f]!r} lies outside [0, {hi:g}]")
        if type(d["counts"]) is not int or d["counts"] < 0:
            raise CapkitError(f"{where}: counts = {d['counts']!r} is not an int >= 0")
        return cls(**{f: d[f] for f in cls.FIELDS})


def score_all(hyps: list[Caption], refs: list[Caption], idf: IdfTable) -> ScoreReport:
    """Every metric over the pairs. Each hypothesis is counted once, each
    reference looked up once, and one `overlap` pass serves BLEU, METEOR and
    CIDEr-D."""
    if len(hyps) != len(refs):
        raise CapkitError(f"{len(hyps)} hypotheses vs {len(refs)} references")
    if not hyps:
        raise CapkitError("no sentences to score")
    for h, r in zip(hyps, refs):
        if h.role != r.role:
            raise CapkitError(f"role mismatch: {h.role} vs {r.role}")
    bleu, rouge, meteor, cider = [], [], [], []
    for h, r in zip(hyps, refs):
        ht, rt = h.tokens, r.tokens
        entry = idf.reference(rt)
        clipped, c = overlap(ngrams(ht), len(ht), entry)
        bleu.append((len(ht), entry.length, clipped))
        rouge.append(rouge_l(ht, rt))
        meteor.append(meteor_counts(ht, rt, clipped[0], clipped[1]))
        cider.append(c)
    n = len(hyps)
    return ScoreReport(
        *bleu_counts(bleu),  # b1..b4
        rouge_l=sum(rouge) / n,
        meteor=sum(meteor) / n,
        cider_d=sum(cider) / n,
        counts=n,
    )
