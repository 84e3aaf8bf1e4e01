"""Caption metrics: BLEU-1..4, ROUGE-L, METEOR-lite, CIDEr-D, Frechet distance."""
from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCorpus,
    LengthMismatch,
    MalformedReport,
    NonFiniteValue,
    NumericFailure,
    TooFewSamples,
)
from .textproc import Caption, ngrams

MAX_N = 4
ROUGE_BETA = 1.2
METEOR_ALPHA, METEOR_GAMMA, METEOR_THETA = 0.9, 0.5, 3.0
CIDER_SIGMA = 6.0
JACOBI_TOL, JACOBI_MAX_SWEEPS = 1e-13, 100


def _check_pairs(hyps, refs) -> None:
    """Paired corpora hold the same number of sentences, and at least one."""
    if len(hyps) != len(refs):
        raise LengthMismatch(f"{len(hyps)} hypotheses vs {len(refs)} references")
    if not hyps:
        raise EmptyCorpus("no sentences to score")


# ---------------------------------------------------------------------------
# BLEU

def bleu_corpus(hyps, refs) -> list[float]:
    """Corpus BLEU-1..4 with pooled clipped counts, no smoothing, from one
    n-gram count of each sentence."""
    _check_pairs(hyps, refs)
    clipped = [0] * (MAX_N + 1)
    total = [0] * (MAX_N + 1)
    for h, r in zip(hyps, refs):
        hg, rg = ngrams(h, MAX_N), ngrams(r, MAX_N)
        for k in range(1, MAX_N + 1):
            total[k] += sum(hg[k].values())
            clipped[k] += sum(min(c, rg[k][g]) for g, c in hg[k].items())
    ref_len = sum(len(r) for r in refs)
    scores, log_p_sum = [0.0] * MAX_N, 0.0
    for k in range(1, MAX_N + 1):
        if clipped[k] == 0:  # BLEU-k and every higher order are 0; total[k] may be 0
            break
        log_p_sum += math.log(clipped[k] / total[k])
        # total[1] is the hypothesis length, so this is the brevity penalty
        scores[k - 1] = min(1.0, math.exp(1.0 - ref_len / total[1])) * math.exp(log_p_sum / k)
    return scores


# ---------------------------------------------------------------------------
# ROUGE-L

def _lcs_len(a, b) -> int:
    la, lb = len(a), len(b)
    prev = [0] * (lb + 1)
    for i in range(1, la + 1):
        cur = [0] * (lb + 1)
        ai = a[i - 1]
        for j in range(1, lb + 1):
            if ai == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = cur[j - 1] if cur[j - 1] >= prev[j] else prev[j]
        prev = cur
    return prev[lb]


def rouge_l(hyp, ref) -> float:
    L = _lcs_len(hyp, ref)
    p = L / len(hyp) if hyp else 0.0
    r = L / len(ref) if ref else 0.0
    if p == 0.0 and r == 0.0:
        return 0.0
    b2 = ROUGE_BETA * ROUGE_BETA
    return (1.0 + b2) * p * r / (r + b2 * p)


def rouge_l_corpus(hyps, refs) -> float:
    _check_pairs(hyps, refs)
    return sum(rouge_l(h, r) for h, r in zip(hyps, refs)) / len(hyps)


# ---------------------------------------------------------------------------
# METEOR-lite (exact-match stage only)

def _min_chunks(hyp, ref, m: int) -> int:
    """Fewest contiguous common blocks that realize m matched unigrams.

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
    there are at most sum_g min(hyp_bigrams[g], ref_bigrams[g]) of them. And
    no block is longer than the longest common run.
    """
    if m == 0:
        return 0
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

    def search(start, remaining, used_h, used_r, budget):
        if remaining == 0:
            return True
        for n in range(start, len(spans)):
            k, hs, rs = spans[n]
            if k * budget < remaining:
                return False
            if k > remaining or hs & used_h or rs & used_r:
                continue
            if search(n + 1, remaining - k, used_h | hs, used_r | rs, budget - 1):
                return True
        return False

    ref_bigrams = Counter(zip(ref, ref[1:]))
    links = sum(min(c, ref_bigrams[g]) for g, c in Counter(zip(hyp, hyp[1:])).items())
    for chunks in range(max(1, m - links, -(-m // spans[0][0])), m + 1):
        if search(0, m, 0, 0, chunks):
            return chunks
    return m


def meteor_lite(hyp, ref) -> float:
    hc, rc = Counter(hyp), Counter(ref)
    m = sum(min(c, rc[t]) for t, c in hc.items())
    if m == 0:
        return 0.0
    p = m / len(hyp)
    r = m / len(ref)
    f_mean = p * r / (METEOR_ALPHA * p + (1.0 - METEOR_ALPHA) * r)
    chunks = _min_chunks(list(hyp), list(ref), m)
    penalty = METEOR_GAMMA * (chunks / m) ** METEOR_THETA
    return f_mean * (1.0 - penalty)


def meteor_corpus(hyps, refs) -> float:
    _check_pairs(hyps, refs)
    return sum(meteor_lite(h, r) for h, r in zip(hyps, refs)) / len(hyps)


# ---------------------------------------------------------------------------
# CIDEr-D

@dataclass(frozen=True)
class IdfTable:
    doc_count: int
    df: dict  # n -> {gram: document frequency}


def build_idf(refs) -> IdfTable:
    if not refs:
        raise EmptyCorpus("cannot build an IDF table from zero references")
    df = {n: Counter() for n in range(1, MAX_N + 1)}
    for r in refs:
        grams = ngrams(r, MAX_N)
        for n in range(1, MAX_N + 1):
            df[n].update(set(grams[n]))
    return IdfTable(doc_count=len(refs), df={n: dict(c) for n, c in df.items()})


def _tfidf_vec(counts: Counter, n: int, idf: IdfTable) -> dict:
    df, vec = idf.df[n], {}
    for gram, c in counts.items():
        d = df.get(gram, 0)
        if d > 0:
            w = c * math.log(idf.doc_count / d)
            if w != 0.0:
                vec[gram] = w
    return vec


def cider_d(hyp, ref, idf: IdfTable) -> float:
    hyp_grams = ngrams(hyp, MAX_N)
    ref_grams = ngrams(ref, MAX_N)
    sim_sum = 0.0
    for n in range(1, MAX_N + 1):
        clipped = Counter(
            {g: min(c, ref_grams[n][g]) for g, c in hyp_grams[n].items()}
        )
        hv = _tfidf_vec(clipped, n, idf)
        rv = _tfidf_vec(ref_grams[n], n, idf)
        hn = math.sqrt(sum(w * w for w in hv.values()))
        rn = math.sqrt(sum(w * w for w in rv.values()))
        if hn == 0.0 or rn == 0.0:
            continue
        dot = sum(w * rv.get(g, 0.0) for g, w in hv.items())
        sim_sum += max(0.0, dot / (hn * rn))
    delta = len(hyp) - len(ref)
    penalty = math.exp(-(delta * delta) / (2.0 * CIDER_SIGMA * CIDER_SIGMA))
    return 10.0 * penalty * sim_sum / MAX_N


def cider_corpus(hyps, refs, idf: IdfTable) -> float:
    _check_pairs(hyps, refs)
    return sum(cider_d(h, r, idf) for h, r in zip(hyps, refs)) / len(hyps)


# ---------------------------------------------------------------------------
# Frechet distance

@dataclass(frozen=True)
class GaussianStats:
    mean: np.ndarray
    cov: np.ndarray
    n: int


def gaussian_stats(features: np.ndarray) -> GaussianStats:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch("features must be an N x D matrix")
    if x.shape[0] < 2:
        raise TooFewSamples("need at least 2 feature rows")
    if not np.isfinite(x).all():
        raise NonFiniteValue("features contain NaN or infinite values")
    mean = x.mean(axis=0)
    c = np.cov(x, rowvar=False, ddof=1)
    c = np.atleast_2d(c)
    c = (c + c.T) / 2.0
    return GaussianStats(mean=mean, cov=c, n=x.shape[0])


@functools.lru_cache(maxsize=16)
def _round_robin(d: int) -> tuple:
    """The rounds of one Jacobi sweep over range(d), in tournament order.

    Each round is a read-only k x 2 array of disjoint (p, q) pairs with p < q
    that together pair every index once; for odd d, the index drawn against
    the dummy index d sits the round out. Over the d + d % 2 - 1 rounds every
    pair appears once.
    """
    m = d + d % 2
    ring = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [sorted((ring[i], ring[m - 1 - i])) for i in range(m // 2)]
        pq = np.array(sorted(pair for pair in pairs if pair[1] < d), dtype=np.intp)
        pq.flags.writeable = False
        rounds.append(pq)
        ring = [ring[0], ring[-1]] + ring[1:-1]
    return tuple(rounds)


def jacobi_eigh(a: np.ndarray):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Each sweep visits every (p, q) pair once in round-robin order (Brent & Luk,
    1985). The pairs of one round are disjoint, so their rotations commute and
    are applied together as one batched 2 x 2 update of the gathered rows:
    A <- J^T A J and V <- V J. The iteration stops when the off-diagonal norm
    reaches JACOBI_TOL * max|A| or a sweep no longer lowers it, which is where
    rounding leaves it at large sizes.

    Returns (eigenvalues, eigenvectors) with columns of V as eigenvectors,
    A = V diag(w) V^T.
    """
    a = np.array(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise NonFiniteValue("matrix contains NaN or infinite values")
    d = a.shape[0]
    vt = np.eye(d)  # V^T, so that V J is a row update too
    scale = np.abs(a).max(initial=0.0)
    rounds = _round_robin(d)
    last_off = math.inf
    for _ in range(JACOBI_MAX_SWEEPS):
        off = math.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= JACOBI_TOL * scale or not off < last_off:
            break
        last_off = off
        for pq in rounds:
            p, q = pq.T
            apq = a[p, q]
            live = np.abs(apq) > JACOBI_TOL * scale * 1e-3
            if not live.all():
                pq, apq = pq[live], apq[live]
                if not len(pq):
                    continue
                p, q = pq.T
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = np.copysign(1.0 / (np.abs(theta) + np.hypot(theta, 1.0)), theta)
            c = 1.0 / np.hypot(t, 1.0)
            s = t * c
            # rot[i] maps rows (p_i, q_i) to (c p - s q, s p + c q): J^T on the left.
            rot = np.stack((c, -s, s, c), axis=1).reshape(-1, 2, 2)
            a[pq] = rot @ a[pq]
            # A is symmetric, so (J^T A)^T = A J, and its row update is J^T A J.
            a = a.T.copy()
            a[pq] = rot @ a[pq]
            vt[pq] = rot @ vt[pq]
    return np.diag(a).copy(), vt.T


def _pivoted_cholesky(c: np.ndarray) -> np.ndarray:
    """A d x r factor L with L L^T = C, for a symmetric PSD C of numerical rank r.

    Each step pivots on the largest remaining diagonal entry of the Schur
    complement and stops once it is at most d * eps * max(diag(C)), so a
    semidefinite C of any scale factors without error (Higham 2009; the LAPACK
    xPSTRF rule), and an all-zero C gives a d x 0 factor. L keeps C's row order.
    """
    c = np.asarray(c, dtype=np.float64)
    if not np.isfinite(c).all():
        raise NonFiniteValue("matrix contains NaN or infinite values")
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
    (Dowson & Landau 1982), so a pivoted Cholesky factor and one Jacobi
    eigensolve of the r x r matrix L^T B L give it.
    """
    if a.mean.shape != b.mean.shape:
        raise DimensionMismatch(
            f"feature dimensions differ: {a.mean.shape} vs {b.mean.shape}"
        )
    if np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov):
        return 0.0
    diff = a.mean - b.mean
    l = _pivoted_cholesky(a.cov)
    inner = l.T @ b.cov @ l
    inner = (inner + inner.T) / 2.0
    w, _ = jacobi_eigh(inner)
    tr_sqrt = float(np.sqrt(np.clip(w, 0.0, None)).sum())  # a PSD matrix: negative eigenvalues are rounding
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

    FIELDS = ("b1", "b2", "b3", "b4", "rouge_l", "meteor", "cider_d", "counts")

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_dict(cls, d: dict, where: str = "report") -> "ScoreReport":
        """Raises MalformedReport unless every metric field is a number."""
        if not all(type(d.get(f)) in (int, float) for f in cls.FIELDS):
            raise MalformedReport(f"{where}: needs a number for each of {', '.join(cls.FIELDS)}")
        return cls(**{f: d[f] for f in cls.FIELDS})


def score_all(hyps: list[Caption], refs: list[Caption], idf: IdfTable) -> ScoreReport:
    _check_pairs(hyps, refs)
    for h, r in zip(hyps, refs):
        if h.role != r.role:
            raise LengthMismatch(f"role mismatch: {h.role} vs {r.role}")
    ht = [h.tokens for h in hyps]
    rt = [r.tokens for r in refs]
    return ScoreReport(
        *bleu_corpus(ht, rt),  # b1..b4
        rouge_l=rouge_l_corpus(ht, rt),
        meteor=meteor_corpus(ht, rt),
        cider_d=cider_corpus(ht, rt, idf),
        counts=len(hyps),
    )
