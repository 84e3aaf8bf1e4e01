import gc
import json
import math
import os
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from capkit.data import SynthConfig, synth_corpus
from capkit.errors import CapkitError, NumericFailure
from capkit.metrics import (
    CIDER_SIGMA,
    MAX_N,
    METEOR_ALPHA,
    METEOR_GAMMA,
    METEOR_THETA,
    GaussianStats,
    ScoreReport,
    _lcs_len,
    _min_chunks,
    bleu_counts,
    build_idf,
    cider_d,
    frechet_distance,
    gaussian_stats,
    meteor_counts,
    overlap,
    rouge_l,
    score_all,
    symmetric_eigvals,
)
from capkit.textproc import Caption, ngrams

tokens_st = st.lists(st.sampled_from(["a", "b", "c", "car", "stops"]), max_size=10)
# caption pairs over 2-3 words: the repeats make METEOR's chunk search branch
repeats_st = st.integers(2, 3).flatmap(lambda w: st.tuples(*[st.lists(st.sampled_from("abc"[:w]), max_size=9)] * 2))


def clipped(hyp, ref):
    """The clipped counts of orders 1..MAX_N of a pair of token lists, each
    counted here; the table's weights do not change them."""
    return overlap(ngrams(hyp), len(hyp), build_idf([ref]).reference(ref))[0]


def bleu(hyps, refs):
    """Corpus BLEU-1..4 of token lists."""
    return bleu_counts([(len(h), len(r), clipped(h, r)) for h, r in zip(hyps, refs)])


def meteor(hyp, ref):
    """METEOR-lite of a pair of token lists."""
    return meteor_counts(hyp, ref, *clipped(hyp, ref)[:2])


# ---------------------------------------------------------------------------
# BLEU

def test_bleu_identical():
    h = [["a", "car", "stops"]]
    assert bleu(h, h)[0] == pytest.approx(1.0)


def test_bleu_clipping():
    got = bleu([["the", "the", "the"]], [["the", "cat"]])[0]
    assert got == pytest.approx(1.0 / 3.0)


def test_bleu_empty_hyp():
    assert bleu([[]], [["a"]]) == [0.0] * 4


def test_bleu_zero_order_precision():
    assert bleu([["a", "b"]], [["a", "c"]])[1:] == [0.0] * 3


def test_bleu_length_mismatch():
    """One hypothesis against two references: the corpus BLEU that score_all
    reports has no pairing to score."""
    with pytest.raises(CapkitError, match="1 hypotheses vs 2 references") as excinfo:
        score_all(_caps(["a"]), _caps(["a", "b"]), build_idf([("a",)]))
    assert excinfo.type is CapkitError


def test_bleu_brevity_penalty():
    # hyp shorter than ref: BP = exp(1 - 2/1)
    got = bleu([["a"]], [["a", "b"]])[0]
    assert got == pytest.approx(math.exp(-1.0))


@given(st.lists(tokens_st, min_size=1, max_size=4))
def test_bleu_matches_oracle(hyps):
    refs = [list(reversed(h)) + ["car"] for h in hyps]
    want = [oracles.oracle_bleu(hyps, refs, n) for n in range(1, 5)]
    assert bleu(hyps, refs) == pytest.approx(want)


@given(tokens_st, st.integers(1, 6))
def test_bleu_clipping_property(ref, k):
    # repeating one reference token k times never beats count_ref/k precision
    if not ref:
        ref = ["a"]
    tok = ref[0]
    hyp = [tok] * k
    p1 = bleu([hyp], [ref])[0]
    assert p1 <= min(1.0, ref.count(tok) / k) + 1e-12


# ---------------------------------------------------------------------------
# ROUGE-L

def test_rouge_identical():
    assert rouge_l(["a", "b"], ["a", "b"]) == pytest.approx(1.0)


def test_rouge_example():
    got = rouge_l(["a", "b", "c", "d"], ["a", "c", "d", "e"])
    assert got == pytest.approx(0.75)


def test_rouge_disjoint():
    assert rouge_l(["x"], ["y"]) == 0.0


def test_rouge_empty():
    assert rouge_l([], ["a"]) == 0.0


@given(tokens_st, tokens_st)
def test_rouge_matches_brute_force(hyp, ref):
    assert rouge_l(hyp, ref) == pytest.approx(oracles.oracle_rouge_l(hyp, ref))


# ---------------------------------------------------------------------------
# METEOR-lite

def test_meteor_identical():
    got = meteor(["a", "b", "c"], ["a", "b", "c"])
    assert got == pytest.approx(1.0 - 0.5 * (1.0 / 3.0) ** 3)


def test_meteor_disjoint():
    assert meteor(["x"], ["y"]) == 0.0


def test_meteor_swapped():
    assert meteor(["b", "a"], ["a", "b"]) == pytest.approx(0.5)


def test_meteor_splits_a_common_run():
    """The fewest chunks take "a" alone from the common run "a c" (hyp 0, ref 2)."""
    hyp, ref = ["a", "c", "b", "c", "a"], ["c", "b", "a", "c", "a"]
    assert meteor(hyp, ref) == pytest.approx(1.0 - 0.5 * (3 / 5) ** 3)
    assert meteor(hyp, ref) == pytest.approx(oracles.oracle_meteor(hyp, ref))


@settings(deadline=None)
@given(st.one_of(st.tuples(tokens_st, tokens_st), repeats_st))
def test_meteor_matches_exhaustive_oracle(pair):
    hyp, ref = pair
    assert meteor(hyp, ref) == pytest.approx(oracles.oracle_meteor(hyp, ref))


# Banerjee & Lavie (2005) align by fewest crossings, then count chunks; capkit
# takes the fewest chunks over all maximal alignments (ROADMAP item 9).

def _in_order_alignment(hyp, ref):
    """The k-th occurrence of each hyp token matched to its k-th in ref."""
    where = {}
    for ri, t in enumerate(ref):
        where.setdefault(t, []).append(ri)
    return [(hi, where[t].pop(0)) for hi, t in enumerate(hyp)]


def test_meteor_fewest_crossings_of_a_permutation_is_the_in_order_alignment():
    rng = np.random.default_rng(0)
    for _ in range(150):
        words = "abc"[: int(rng.integers(2, 4))]
        ref = [str(t) for t in rng.choice(list(words), size=int(rng.integers(2, 8)))]
        hyp = [str(t) for t in rng.permutation(ref)]
        assert oracles.oracle_fewest_crossings(hyp, ref) == [_in_order_alignment(hyp, ref)], (hyp, ref)


def test_meteor_rules_agree_on_the_oracle_sheet():
    for h, r in oracles.MICRO_CORPUS:
        hyp, ref = h.split(), r.split()
        assert oracles.oracle_paper_chunks(hyp, ref) == {oracles.oracle_fewest_chunks(hyp, ref)}


def test_meteor_rules_differ_on_a_hand_pair():
    """The fewest chunks map the first "the" to the last and keep "the car"
    whole: 2 chunks, 2 crossings. The in-order alignment crosses once and
    has 3 chunks. capkit counts 2."""
    hyp, ref = ["the", "the", "car"], ["the", "car", "the"]
    assert oracles.oracle_fewest_chunks(hyp, ref) == 2
    assert oracles.oracle_fewest_crossings(hyp, ref) == [[(0, 0), (1, 2), (2, 1)]]
    assert oracles.oracle_paper_chunks(hyp, ref) == {3}
    assert meteor(hyp, ref) == pytest.approx(1.0 - 0.5 * (2 / 3) ** 3)


# 24-token hypotheses that rearrange their reference, at 2-10 words. Per
# vocabulary size: the block shuffle (4-10 blocks) slowest for the earlier
# set-based search among 150 (seed 0 of scripts/meteor_worst_case.py), then
# the first two random permutations. The chunk counts come from that search.
# The slowest case takes 0.24 s on a 2-core VM (Python 3.11); the bound is
# over 5x that.
_CHUNK_CASES = [
    ('babbabbaaaababbabbbabbba', 'bbbabaaababbabbabbbaaabb', 7),
    ('ababbaababbaaababbabbabb', 'bbabbbaaaaababbbbbaaabba', 8),
    ('bbaabaaaabbbbaaaabbbabba', 'baabaabbabbbababbbaaaaab', 7),
    ('acbccbbbcbbcacaaabbccbbb', 'abbccbbbccbbbccacaaabcbb', 7),
    ('aabcbbbcbbbbcccccbaabbba', 'cabcbabbbabbcacccbbbcabb', 9),
    ('cbaaabbbaaccbacbacacbcca', 'acccaabbcababcbcaaabccba', 11),
    ('abdbbdaabadbacccbddccabd', 'bbdaabadbacdabdbacccbddc', 7),
    ('adabcdbcddbababbddabcccd', 'cdbbbddccdbcdaabbacadbda', 12),
    ('cacaabababadadbbacabdbad', 'cbbdabcaaababddcaaababad', 12),
    ('caccccebbbcbdbbcebcccace', 'cccbdacacccccebebbbbbcce', 9),
    ('adebabeebaabacecbddeeece', 'cbeeebdeeaeadacaedbcebba', 15),
    ('ecebceeaebaeddebacdbecca', 'aeaadabcdceedeebeeecbccb', 16),
    ('bbeddcedfdbcfdeedcbccbfd', 'bbedcedfdbcfdeedcbdbccdf', 7),
    ('dadbdecffaeefedccbedcbea', 'ffcedeafaedcbcebdaceebdd', 15),
    ('effbeebcdfbcacbdbbafcdfc', 'ccbfcdefbddcbebfaecfabfb', 18),
    ('faceacfbfeacebbcabeebgca', 'cebacbbcabfaceacfbfegaee', 9),
    ('cfbgecbgdfbgbabgcabaebeb', 'gbgaefebgbccdbbbcaeabgbf', 17),
    ('faagbffgaedadbeadbaebdbg', 'dbbgdabdadfbgagefaaaebef', 15),
    ('agccgagafcfffcagcgbdcecc', 'gagafgbfffccdcccecagcagc', 10),
    ('acffahchebfhfcbhfffhccda', 'aehhfffbahchdfchbfcfccfa', 14),
    ('acgaeaffegdafhegedbefbfd', 'gfabfeddegfdfaaebfeecagh', 19),
    ('ceffhdfbiiehegeigabdiidi', 'iiehegeigabdiiffhdfbiecd', 6),
    ('ccdahbfiecabfihcfbdbefdi', 'hdfbfifdheecacibfcbdciba', 17),
    ('fadfichaabehaffbccfecffd', 'bbahffccaficddffeahafcef', 17),
    ('jejcgbibgfhddgfaedddbjag', 'dfaeddgfjejcgbibgbjaddhg', 9),
    ('bhaiedgcgijhjagghcefefcb', 'aijcchfigehhfbjgdegbcgae', 22),
    ('eidacjhhjbffeddaeabaffdi', 'bdchfdabedihdffajjifaeea', 19),
]
CHUNK_WALL_S = 1.5


def test_meteor_chunks_of_rearranged_captions_in_bounded_time():
    from capkit.metrics import _min_chunks

    for hyp, ref, want in _CHUNK_CASES:
        t0 = time.perf_counter()
        links = ref_clipped_total(Counter(zip(hyp, hyp[1:])), Counter(zip(ref, ref[1:])))
        got = _min_chunks(hyp, ref, len(hyp), links)
        elapsed = time.perf_counter() - t0
        assert (got, elapsed < CHUNK_WALL_S) == (want, True), (hyp, ref, elapsed)


def test_meteor_leaves_no_reference_cycles():
    # A cycle per call would keep each call's blocks alive until the cyclic
    # collector runs; with it off, collect() counts what the calls left.
    pairs = [("acbca", "cbaca"), ("ba", "ab"), ("abcabbca", "cababbac")]
    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            for hyp, ref in pairs:
                meteor(list(hyp), list(ref))
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# CIDEr-D

def test_build_idf_counts():
    idf = build_idf([["a", "b"], ["a", "c"]])
    assert idf.doc_count == 2
    assert idf.df[1][("a",)] == 2
    assert idf.df[1][("b",)] == 1
    assert idf.df[2][("a", "b")] == 1


def test_build_idf_single_doc():
    idf = build_idf([["a", "b"]])
    assert idf.df[1][("a",)] == idf.doc_count == 1


def test_build_idf_absent_gram():
    idf = build_idf([["a"]])
    assert ("zzz",) not in idf.df[1]


def test_build_idf_empty():
    with pytest.raises(CapkitError, match="cannot build an IDF table from zero references") as excinfo:
        build_idf([])
    assert excinfo.type is CapkitError


@given(st.data())
def test_build_idf_counts_repeated_references_per_document(data):
    """A reference that occurs k times counts as k documents, whether it comes
    as a list or a tuple, and CIDEr-D over such a corpus matches the oracle."""
    pool = data.draw(st.lists(tokens_st, min_size=1, max_size=4))
    picks = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()), min_size=1, max_size=12))
    refs = [tuple(r) if as_tuple else list(r) for r, as_tuple in picks]
    idf = build_idf(refs)
    assert idf.doc_count == len(refs)
    for n in range(1, 5):
        want = Counter()
        for r in refs:
            want.update({tuple(r[i : i + n]) for i in range(len(r) - n + 1)})
        assert idf.df[n] == dict(want)
    hyp, ref = data.draw(tokens_st), data.draw(st.sampled_from(refs))
    assert cider_d(hyp, ref, idf) == pytest.approx(oracles.oracle_cider_d(hyp, ref, refs))


TWO_DOC_REFS = [["a", "b", "c", "d", "e"], ["x", "y", "z", "w", "v"]]


def test_cider_disjoint_zero():
    idf = build_idf(TWO_DOC_REFS)
    assert cider_d(["p", "q"], ["a", "b"], idf) == 0.0


def test_cider_identity_ten():
    idf = build_idf(TWO_DOC_REFS)
    sent = ["a", "b", "c", "d", "e"]
    assert cider_d(sent, sent, idf) == pytest.approx(10.0)


def test_cider_short_identity_five():
    idf = build_idf([["a", "b"], ["x", "y"]])
    assert cider_d(["a", "b"], ["a", "b"], idf) == pytest.approx(5.0)


def test_cider_single_doc_idf_all_zero():
    # every gram has df = doc_count = 1 so all weights vanish
    idf = build_idf([["a", "b", "c"]])
    assert cider_d(["a", "b", "c"], ["a", "b", "c"], idf) == 0.0


@given(tokens_st, tokens_st)
def test_cider_matches_oracle(hyp, ref):
    corpus = [ref, ["car", "stops", "here"], ["b", "c"]]
    idf = build_idf(corpus)
    assert cider_d(hyp, ref, idf) == pytest.approx(
        oracles.oracle_cider_d(hyp, ref, corpus)
    )


# One reference per image, so a document is both a caption (capkit) and an
# image (the paper); each case names its reference by index.
CIDER_IMAGES = [
    "a red car stops at the junction".split(),
    "a truck merges into the traffic".split(),
    "the cyclist ignores right of way".split(),
    "snow melts slowly on the road".split(),
]


def _cider_d_both(hyp, i):
    """capkit's CIDEr-D oracle and the paper's, of hyp against image i."""
    ref = CIDER_IMAGES[i]
    return oracles.oracle_cider_d(hyp, ref, CIDER_IMAGES), oracles.oracle_cider_d_paper(
        hyp, [ref], [[r] for r in CIDER_IMAGES]
    )


def _excess(hyp, ref):
    """Whether some n-gram of hyp occurs in it more often than in ref."""
    return any(
        Counter(tuple(hyp[k : k + n]) for k in range(len(hyp) - n + 1))
        - Counter(tuple(ref[k : k + n]) for k in range(len(ref) - n + 1))
        for n in range(1, MAX_N + 1)
    )


@pytest.mark.parametrize(
    "hyp, i",
    [
        ("a red car stops at the junction", 0),
        ("a red car stops", 0),
        ("merges into the traffic", 1),
        ("the cyclist", 2),
        ("slowly on", 3),
    ],
)
def test_cider_d_oracles_agree_without_excess_counts(hyp, i):
    """When no hypothesis n-gram occurs more often than in the reference, the
    clipped hypothesis vector is the whole one and every hypothesis n-gram is
    a document's, so the two definitions give one value; capkit's is it."""
    hyp = hyp.split()
    assert not _excess(hyp, CIDER_IMAGES[i])
    ours, paper = _cider_d_both(hyp, i)
    assert ours > 0.0 and paper == pytest.approx(ours, rel=1e-12)
    assert cider_d(hyp, CIDER_IMAGES[i], build_idf(CIDER_IMAGES)) == pytest.approx(ours, rel=1e-12)


@pytest.mark.parametrize(
    "hyp, i",
    [
        ("a red red car stops at the junction", 0),  # repeats a unigram past its count
        ("a red car a red car", 0),  # repeats a trigram
        ("the the cyclist ignores right of way", 2),
        ("a blue car stops at the junction", 0),  # "blue": no image holds it
        ("a truck merges into the road", 1),  # "road": another image's
    ],
)
def test_cider_d_paper_is_lower_on_excess_counts(hyp, i):
    """The paper divides by the norm of the whole hypothesis vector, and an
    n-gram that no image holds weighs log N there, so a hypothesis that
    repeats an n-gram past the reference's count, or holds one the reference
    lacks, scores strictly lower than under capkit's clipped norm."""
    hyp = hyp.split()
    assert _excess(hyp, CIDER_IMAGES[i])
    ours, paper = _cider_d_both(hyp, i)
    assert 0.0 < paper < ours
    assert cider_d(hyp, CIDER_IMAGES[i], build_idf(CIDER_IMAGES)) == pytest.approx(ours, rel=1e-12)


def test_cider_corpus_mean():
    idf = build_idf(TWO_DOC_REFS)
    sent = ["a", "b", "c", "d", "e"]
    got = score_all(_caps(["a b c d e", "p"]), _caps(["a b c d e", "a"]), idf).cider_d
    assert got == pytest.approx(cider_d(sent, sent, idf) / 2.0)


def test_cider_corpus_errors():
    idf = build_idf(TWO_DOC_REFS)
    with pytest.raises(CapkitError, match="1 hypotheses vs 0 references") as excinfo:
        score_all(_caps(["a"]), [], idf)
    assert excinfo.type is CapkitError
    with pytest.raises(CapkitError, match="no sentences to score") as excinfo:
        score_all([], [], idf)
    assert excinfo.type is CapkitError


@given(tokens_st, tokens_st)
def test_cider_range(hyp, ref):
    idf = build_idf([ref if ref else ["a"], ["q", "r"]])
    assert 0.0 <= cider_d(hyp, ref, idf) <= 10.0 + 1e-12


# ---------------------------------------------------------------------------
# Gaussian stats and Frechet distance

def test_gaussian_stats_hand_case():
    s = gaussian_stats(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert np.allclose(s.mean, [1.0, 0.0])
    assert np.allclose(s.cov, [[2.0, 0.0], [0.0, 0.0]])


def test_gaussian_stats_identical_rows():
    s = gaussian_stats(np.ones((5, 3)))
    assert np.allclose(s.cov, 0.0)


@pytest.mark.parametrize("features", [np.ones(5), np.ones((2, 3, 4))])
def test_gaussian_stats_needs_a_matrix(features):
    with pytest.raises(CapkitError, match="N x D matrix") as excinfo:
        gaussian_stats(features)
    assert excinfo.type is CapkitError


def test_gaussian_stats_too_few():
    with pytest.raises(CapkitError, match="need at least 2 feature rows") as excinfo:
        gaussian_stats(np.ones((1, 3)))
    assert excinfo.type is CapkitError


def test_frechet_self_zero():
    x = np.random.default_rng(0).normal(size=(50, 4))
    s = gaussian_stats(x)
    assert frechet_distance(s, s) == 0.0


def test_frechet_identity_cov():
    a = GaussianStats(np.array([0.0, 0.0]), np.eye(2))
    b = GaussianStats(np.array([3.0, 4.0]), np.eye(2))
    assert frechet_distance(a, b) == pytest.approx(25.0, abs=1e-6)


def test_frechet_diagonal_case():
    a = GaussianStats(np.zeros(2), np.diag([4.0, 1.0]))
    b = GaussianStats(np.zeros(2), np.diag([1.0, 1.0]))
    assert frechet_distance(a, b) == pytest.approx(1.0, abs=1e-6)


def test_frechet_dimension_mismatch():
    a = GaussianStats(np.zeros(2), np.eye(2))
    b = GaussianStats(np.zeros(3), np.eye(3))
    with pytest.raises(CapkitError, match="feature dimensions differ") as excinfo:
        frechet_distance(a, b)
    assert excinfo.type is CapkitError


def test_frechet_symmetry():
    rng = np.random.default_rng(5)
    sa = gaussian_stats(rng.normal(size=(40, 5)))
    sb = gaussian_stats(rng.normal(size=(40, 5)) * 2 + 1)
    assert frechet_distance(sa, sb) == pytest.approx(frechet_distance(sb, sa), abs=1e-8)


def test_frechet_matches_oracle_random_psd():
    rng = np.random.default_rng(11)
    for _ in range(10):
        qa = rng.normal(size=(3, 3))
        qb = rng.normal(size=(3, 3))
        ca = qa @ qa.T
        cb = qb @ qb.T
        mu_a, mu_b = rng.normal(size=3), rng.normal(size=3)
        got = frechet_distance(GaussianStats(mu_a, ca), GaussianStats(mu_b, cb))
        want = oracles.oracle_frechet(mu_a, ca, mu_b, cb)
        assert got == pytest.approx(want, abs=1e-6)


def test_trace_identity_random_psd():
    """tr sqrt(sqrt(A) B sqrt(A)) = sum sqrt(eig(L^T B L)) for the factor A = L L^T."""
    from capkit.metrics import _pivoted_cholesky

    rng = np.random.default_rng(13)
    for _ in range(20):
        qa = rng.normal(size=(3, 3))
        qb = rng.normal(size=(3, 3))
        ca = qa @ qa.T
        cb = qb @ qb.T
        l = _pivoted_cholesky(ca)
        inner = l.T @ cb @ l
        inner = (inner + inner.T) / 2
        w = symmetric_eigvals(inner)
        got = float(np.sqrt(np.clip(w, 0, None)).sum())
        assert got == pytest.approx(oracles.oracle_trace_sqrt(ca, cb), abs=1e-6)


def _low_rank_psd(d, rank, scale, seed):
    q = np.random.default_rng(seed).normal(size=(d, rank))
    return scale * (q @ q.T) / max(rank, 1)


_RANK_CASES = [
    (d, rank, scale)
    for d in (1, 2, 3, 8, 16, 64)
    for rank in sorted({0, 1, d // 2, d - 1, d})
    for scale in (1e-16, 1e-6, 1.0, 1e4)
]


def test_pivoted_cholesky_reconstructs():
    """L is d x rank and L L^T reconstructs A, also when A is only semidefinite."""
    from capkit.metrics import _pivoted_cholesky

    for d, rank, scale in _RANK_CASES:
        a = _low_rank_psd(d, rank, scale, seed=d * 100 + rank)
        l = _pivoted_cholesky(a)
        assert l.shape == (d, rank), (d, rank, scale)
        assert np.allclose(l @ l.T, a, rtol=0.0, atol=1e-12 * scale), (d, rank, scale)


def test_frechet_rank_deficient_matches_oracle():
    """A and B each of rank 0..d at scale 1e-16..1e4, in both argument orders,
    to within 1e-6 of tr A + tr B."""
    for d, rank_a, scale_a in _RANK_CASES:
        for _, rank_b, scale_b in (case for case in _RANK_CASES if case[0] == d):
            rng = np.random.default_rng(d * 100 + rank_a * 10 + rank_b)
            a = _low_rank_psd(d, rank_a, scale_a, seed=d * 100 + rank_a)
            b = _low_rank_psd(d, rank_b, scale_b, seed=d * 100 + rank_b + 50)
            mu_a, mu_b = rng.normal(size=d) * math.sqrt(scale_a), rng.normal(size=d) * math.sqrt(scale_b)
            tol = 1e-6 * (np.trace(a) + np.trace(b)) + 1e-12 * float((mu_a - mu_b) @ (mu_a - mu_b))
            for (m1, c1), (m2, c2) in (((mu_a, a), (mu_b, b)), ((mu_b, b), (mu_a, a))):
                got = frechet_distance(GaussianStats(m1, c1), GaussianStats(m2, c2))
                want = oracles.oracle_frechet(m1, c1, m2, c2)
                case = (d, rank_a, scale_a, rank_b, scale_b, got, want)
                assert abs(got - want) <= tol, case


@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
def test_frechet_non_finite_covariance(first):
    """A non-finite covariance built straight into GaussianStats is rejected as input: a CapkitError, not a NumericFailure."""
    cov = np.eye(3)
    cov[0, 1] = cov[1, 0] = np.nan
    bad = GaussianStats(np.zeros(3), cov)
    good = GaussianStats(np.ones(3), 2.0 * np.eye(3))
    with pytest.raises(CapkitError, match="covariance contains NaN or infinite values") as excinfo:
        frechet_distance(*((bad, good) if first else (good, bad)))
    assert excinfo.type is CapkitError


def test_frechet_one_eigensolve(monkeypatch):
    """One symmetric_eigvals per distance of distinct statistics, none for identical ones."""
    from capkit import metrics

    calls = []

    def counted(a):
        calls.append(a.shape)
        return symmetric_eigvals(a)

    monkeypatch.setattr(metrics, "symmetric_eigvals", counted)
    rng = np.random.default_rng(21)
    sa = gaussian_stats(rng.normal(size=(40, 8)))
    sb = gaussian_stats(rng.normal(size=(40, 8)) * 2 + 1)
    frechet_distance(sa, sb)
    assert calls == [(8, 8)]
    frechet_distance(sa, GaussianStats(sa.mean.copy(), sa.cov.copy()))
    assert calls == [(8, 8)]
    frechet_distance(GaussianStats(sa.mean, np.zeros((8, 8))), sb)
    assert calls == [(8, 8), (0, 0)]


def test_no_numpy_linalg_in_package():
    """capkit computes its eigenvalues and factors itself: no numpy.linalg."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "capkit")
    names = sorted(n for n in os.listdir(src) if n.endswith(".py"))
    assert "metrics.py" in names
    for name in names:
        with open(os.path.join(src, name), encoding="utf-8") as f:
            assert "linalg" not in f.read(), f"{name} references linalg"


def test_frechet_monotone_in_noise():
    rng = np.random.default_rng(123)
    x = rng.normal(size=(1000, 16))
    base = gaussian_stats(x)
    dists = []
    for sigma in (0.0, 0.1, 0.5, 1.0):
        noisy = x + np.random.default_rng(99).normal(size=x.shape) * sigma
        dists.append(frechet_distance(base, gaussian_stats(noisy)))
    assert dists == sorted(dists)


def _random_symmetric(n, seed):
    a = np.random.default_rng(seed).normal(size=(n, n))
    return (a + a.T) / 2


# The test_jacobi_* names are those of the earlier Jacobi eigensolver's tests; they
# now check symmetric_eigvals and keep their names so their results stay comparable.
def _check_eigvals(a):
    w = symmetric_eigvals(a)
    assert w.shape == (len(a),)
    assert np.allclose(w, np.linalg.eigvalsh(a), atol=1e-9)


def test_jacobi_matches_numpy():
    for n in (1, 2, 3, 5, 8, 16, 33, 64, 128):
        _check_eigvals(_random_symmetric(n, 3 + n))


def _repeated_eigenvalues():
    q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(7, 7)))
    return (q * [1.0, 1.0, 1.0, 2.0, 2.0, 5.0, -3.0]) @ q.T


def _block_diagonal():
    """Householder leaves a zero coupling between the blocks, so QL deflates mid-matrix."""
    a = np.zeros((9, 9))
    a[:4, :4] = _random_symmetric(4, 6)
    a[4:, 4:] = 1e3 * _random_symmetric(5, 7)
    return a


@pytest.mark.parametrize(
    "a",
    [
        np.diag([3.0, -1.0, 0.5, 7.0, 0.0]),
        np.eye(6),
        _repeated_eigenvalues(),
        np.zeros((4, 4)),
        np.diag([2.0, -5.0]),
        np.array([[1.0, 3.0], [3.0, -2.0]]),
        np.array([[1.0, 1e-200], [1e-200, 1.0]]),
        _block_diagonal(),
    ],
    ids=["diagonal", "identity", "repeated", "zero", "2x2_diagonal", "2x2", "2x2_tiny_coupling", "block_diagonal"],
)
def test_jacobi_special_matrices(a):
    _check_eigvals(a)


def test_jacobi_matches_numpy_512():
    _check_eigvals(_random_symmetric(512, 0))


def test_symmetric_eigvals_graded_diagonal():
    """A rotated diagonal 1e-12..1e12: every eigenvalue to within 1e-13 of the largest."""
    q, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(25, 25)))
    graded = np.logspace(-12, 12, 25)
    a = (q * graded) @ q.T
    a = (a + a.T) / 2
    assert np.allclose(symmetric_eigvals(a), graded, rtol=0.0, atol=1e-13 * graded[-1])


def test_symmetric_eigvals_iteration_limit(monkeypatch):
    """With no QL iterations allowed a coupled matrix fails and a diagonal one needs none."""
    from capkit import metrics

    monkeypatch.setattr(metrics, "QL_MAX_ITERS", 0)
    with pytest.raises(NumericFailure):
        symmetric_eigvals(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert symmetric_eigvals(np.diag([3.0, 1.0, 2.0])).tolist() == [1.0, 2.0, 3.0]


def test_gaussian_stats_rejects_non_finite():
    x = np.random.default_rng(0).normal(size=(50, 16))
    x[7, 3] = np.nan
    with pytest.raises(CapkitError, match="features contain NaN or infinite values") as excinfo:
        gaussian_stats(x)
    assert excinfo.type is CapkitError


@pytest.mark.parametrize("features", [
    np.random.default_rng(0).normal(size=(10, 3)) * 1e160,  # the covariance overflows
    np.full((4, 2), 1.5e308),  # the mean's sum overflows
], ids=["cov", "mean"])
def test_gaussian_stats_overflow_is_numeric_failure(features):
    """Finite features whose mean or covariance overflows float64 raise
    NumericFailure, with no warning."""
    with warnings.catch_warnings(), pytest.raises(NumericFailure):
        warnings.simplefilter("error")
        gaussian_stats(features)


def test_frechet_identical_non_finite_stats():
    """Identical stats get no zero-distance shortcut past the finiteness check."""
    a = GaussianStats(np.zeros(2), np.full((2, 2), np.inf))
    with pytest.raises(CapkitError, match="covariance contains NaN or infinite values") as excinfo:
        frechet_distance(a, a)
    assert excinfo.type is CapkitError


def test_jacobi_rejects_non_finite():
    a = np.eye(4)
    a[1, 2] = a[2, 1] = np.nan
    with pytest.raises(CapkitError, match="matrix contains NaN or infinite values") as excinfo:
        symmetric_eigvals(a)
    assert excinfo.type is CapkitError


@pytest.mark.parametrize("mu", [[0.0, np.inf, 0.0], [1e200, 0.0, 0.0]], ids=["inf", "overflow"])
def test_frechet_non_finite_is_numeric_failure(mu):
    """An overflow that the check turns into NumericFailure warns nothing."""
    a = GaussianStats(np.zeros(3), np.eye(3))
    with warnings.catch_warnings(), pytest.raises(NumericFailure):
        warnings.simplefilter("error")
        frechet_distance(a, GaussianStats(np.array(mu), 2.0 * np.eye(3)))


@pytest.mark.parametrize("scale", [1e100, 1e150])
def test_frechet_large_scale_matches_oracle(scale):
    """Covariances whose squared entries overflow still give the oracle's distance."""
    rng = np.random.default_rng(17)
    qa, qb = rng.normal(size=(2, 6, 6))
    ca, cb = scale * (qa @ qa.T), scale * (qb @ qb.T)
    mu_a, mu_b = rng.normal(size=(2, 6)) * math.sqrt(scale)
    got = frechet_distance(GaussianStats(mu_a, ca), GaussianStats(mu_b, cb))
    want = oracles.oracle_frechet(mu_a, ca, mu_b, cb)
    assert got == pytest.approx(want, rel=1e-9)


def test_frechet_homogeneous_over_float_range():
    """The distance is homogeneous of degree one: scaling the covariances by c
    and the means by sqrt(c) gives c times the oracle's distance at scale 1,
    over the whole float range, where L^T B L of the unscaled covariances
    would underflow (below about 1e-155) or overflow (above about 1e154)."""
    rng = np.random.default_rng(23)
    qa, qb = rng.normal(size=(2, 6, 6))
    ca, cb = qa @ qa.T, qb @ qb.T
    mu_a, mu_b = rng.normal(size=(2, 6))
    want = oracles.oracle_frechet(mu_a, ca, mu_b, cb)
    tr = np.trace(ca) + np.trace(cb)
    for e in range(-300, 301, 20):
        c = 10.0**e
        a = GaussianStats(mu_a * math.sqrt(c), c * ca)
        b = GaussianStats(mu_b * math.sqrt(c), c * cb)
        assert abs(frechet_distance(a, b) / c - want) <= 1e-12 * tr, e


def test_fid_vid_d64_match_oracle():
    """The FID/VID pair of the metrics_adversarial benchmark workload at D=64."""
    frames, pooled = [], []
    for seed in (3, 4):
        cfg = SynthConfig(n_clips=80, D=64, noise_std=1.0, seed=seed)
        clips = [clip.data for clip in synth_corpus(cfg).clips.values()]
        frames.append(np.vstack(clips))
        pooled.append(np.vstack([c.mean(axis=0) for c in clips]))
    for a, b in (frames, pooled):
        got = frechet_distance(gaussian_stats(a), gaussian_stats(b))
        want = oracles.oracle_frechet(
            a.mean(axis=0), np.cov(a, rowvar=False), b.mean(axis=0), np.cov(b, rowvar=False)
        )
        assert got >= 0.0
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# The straightforward forms of the clipping, the LCS length and CIDEr-D, kept
# as references: the package's forms must equal them under ==, bit for bit.

# caption pairs of 0-30 tokens over 2-5 word types: repeats, empty captions
# and empty overlaps all occur
PAIR_WORDS = "abcde"
pair_st = st.integers(2, 5).flatmap(
    lambda w: st.tuples(*[st.lists(st.sampled_from(PAIR_WORDS[:w]), max_size=30)] * 2))


def ref_lcs_len(a, b):
    """The LCS length by the |a| x |b| dynamic programme."""
    prev = [0] * (len(b) + 1)
    for ai in a:
        cur = [0] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            cur[j] = prev[j - 1] + 1 if ai == b[j - 1] else max(cur[j - 1], prev[j])
        prev = cur
    return prev[-1]


def ref_clipped_total(counts, ref_counts: Counter):
    """Clipping by Counter subscript, which reads 0 for a missing key."""
    return sum(min(c, ref_counts[g]) for g, c in counts.items())


def ref_bleu_counts(hyp_grams, ref_grams):
    clipped, total, ref_len = [0] * (MAX_N + 1), [0] * (MAX_N + 1), 0
    for hg, rg in zip(hyp_grams, ref_grams):
        ref_len += sum(rg[1].values())
        for k in range(1, MAX_N + 1):
            total[k] += sum(hg[k].values())
            clipped[k] += ref_clipped_total(hg[k], rg[k])
    scores, log_p_sum = [0.0] * MAX_N, 0.0
    for k in range(1, MAX_N + 1):
        if clipped[k] == 0:
            break
        log_p_sum += math.log(clipped[k] / total[k])
        scores[k - 1] = min(1.0, math.exp(1.0 - ref_len / total[1])) * math.exp(log_p_sum / k)
    return scores


def ref_cider_d(hyp_grams, hyp_len, ref, idf):
    """CIDEr-D with four lookups per hypothesis n-gram: `g in rv`, the
    reference count, the IDF weight and the reference's tf-idf weight. The
    weights are log(doc_count / df) over all of `idf.df`, kept where nonzero."""
    ref_grams = ngrams(ref)
    sim_sum = 0.0
    for n in range(1, MAX_N + 1):
        rg = ref_grams[n]
        logs = {g: math.log(idf.doc_count / d) for g, d in idf.df[n].items() if d > 0}
        weight = {g: w for g, w in logs.items() if w != 0.0}
        rv = {g: c * weight[g] for g, c in rg.items() if g in weight}
        rn = math.sqrt(sum(w * w for w in rv.values()))
        hv = {g: min(c, rg[g]) * weight[g] for g, c in hyp_grams[n].items() if g in rv}
        hn = math.sqrt(sum(w * w for w in hv.values()))
        if hn == 0.0 or rn == 0.0:
            continue
        dot = sum(w * rv[g] for g, w in hv.items())
        sim_sum += max(0.0, dot / (hn * rn))
    delta = hyp_len - len(ref)
    return 10.0 * math.exp(-(delta * delta) / (2.0 * CIDER_SIGMA * CIDER_SIGMA)) * sim_sum / MAX_N


@given(pair_st)
def test_lcs_len_equals_dynamic_programme(pair):
    hyp, ref = pair
    assert _lcs_len(hyp, ref) == ref_lcs_len(hyp, ref)
    assert _lcs_len(ref, hyp) == ref_lcs_len(hyp, ref)


def test_lcs_len_across_a_machine_word():
    """References of 70-150 tokens: the bit vector spans more than 64 bits."""
    rng = np.random.default_rng(0)
    for lh, lr, w in ((80, 70, 2), (100, 150, 3), (150, 130, 5)):
        hyp = [str(t) for t in rng.integers(w, size=lh)]
        ref = [str(t) for t in rng.integers(w, size=lr)]
        assert _lcs_len(hyp, ref) == ref_lcs_len(hyp, ref)
    assert _lcs_len(list("ab" * 40), list("ba" * 40)) == 79


@given(st.lists(pair_st, min_size=1, max_size=4))
def test_bleu_counts_equals_counter_clipping(pairs):
    """BLEU from the pass's clipped counts and the two lengths equals BLEU
    from Counter clipping and sums over the Counters."""
    hg = [ngrams(h) for h, _ in pairs]
    rg = [ngrams(r) for _, r in pairs]
    assert bleu([h for h, _ in pairs], [r for _, r in pairs]) == ref_bleu_counts(hg, rg)


@given(pair_st, st.lists(pair_st, max_size=3), st.booleans())
def test_overlap_clipping_equals_counter_subscript(pair, others, ref_is_doc):
    """The pass's clipped count of each order, which BLEU pools and METEOR
    reads as its matches and links, equals Counter-subscript clipping,
    whatever the reference's IDF weights are."""
    hyp, ref = pair
    docs = [d for o in others for d in o] + [list("abc")] + ([ref] if ref_is_doc else [])
    hg, rg = ngrams(hyp), ngrams(ref)
    got = overlap(hg, len(hyp), build_idf(docs).reference(ref))[0]
    assert got == [ref_clipped_total(hg[n], rg[n]) for n in range(1, MAX_N + 1)]


@settings(deadline=None)
@given(st.integers(2, 5).flatmap(lambda w: st.tuples(*[st.lists(st.sampled_from(PAIR_WORDS[:w]), max_size=12)] * 2)))
def test_meteor_equals_counter_clipping(pair):
    """Whole METEOR-lite scores, on captions short enough for the chunk search."""
    hyp, ref = pair
    m = ref_clipped_total(Counter(hyp), Counter(ref))
    want = 0.0
    if m:
        p, r = m / len(hyp), m / len(ref)
        f_mean = p * r / (METEOR_ALPHA * p + (1.0 - METEOR_ALPHA) * r)
        links = ref_clipped_total(Counter(zip(hyp, hyp[1:])), Counter(zip(ref, ref[1:])))
        want = f_mean * (1.0 - METEOR_GAMMA * (_min_chunks(hyp, ref, m, links) / m) ** METEOR_THETA)
    assert meteor(hyp, ref) == want


@given(pair_st, st.lists(pair_st, max_size=3), st.sampled_from(["no doc", "a doc", "every doc"]))
def test_overlap_cider_d_equals_four_lookups(pair, others, ref_docs):
    """Against a table whose documents hold the reference nowhere (its grams
    of df 0 weigh 0), among others, or in every document (every gram of the
    reference weighs 0), before and after the reference's entry is made."""
    hyp, ref = pair
    docs = [d for o in others for d in o] + [list("abc"), list("cde")]
    if ref_docs == "a doc":
        docs.append(ref)
    elif ref_docs == "every doc":
        docs = [ref + d for d in docs]
    idf = build_idf(docs)
    want = ref_cider_d(ngrams(hyp), len(hyp), ref, idf)
    assert overlap(ngrams(hyp), len(hyp), idf.reference(ref))[1] == want
    assert overlap(ngrams(hyp), len(hyp), idf.reference(ref))[1] == want
    assert cider_d(hyp, ref, idf) == want


# ---------------------------------------------------------------------------
# score_all

def _caps(texts, role="description"):
    return [Caption.make(t, role) for t in texts]


def test_score_all_identity():
    texts = ["a car stops at the light", "the truck merges into traffic"]
    caps = _caps(texts)
    idf = build_idf([c.tokens for c in caps])
    rep = score_all(caps, caps, idf)
    for f in ("b1", "b2", "b3", "b4", "rouge_l"):
        assert getattr(rep, f) == pytest.approx(1.0)
    assert rep.counts == 2


def test_score_all_disjoint():
    hyps = _caps(["foo bar baz qux"])
    refs = _caps(["one two three four"])
    idf = build_idf([r.tokens for r in refs])
    rep = score_all(hyps, refs, idf)
    assert rep.b1 == rep.b4 == rep.rouge_l == rep.meteor == rep.cider_d == 0.0


def test_score_all_role_mismatch():
    """A hypothesis and reference of different roles raise CapkitError;
    mismatched counts and an empty corpus are checked by
    test_bleu_length_mismatch and test_cider_corpus_errors."""
    idf = build_idf([("a",)])
    with pytest.raises(CapkitError, match="role mismatch: description vs avoidance") as excinfo:
        score_all(_caps(["a"], "description"), _caps(["a"], "avoidance"), idf)
    assert excinfo.type is CapkitError


def test_score_all_micro_corpus_oracle_sheet():
    here = os.path.dirname(__file__)
    with open(os.path.join(here, "data", "micro_corpus_expected.json")) as f:
        sheet = json.load(f)
    hyps = _caps([h for h, _ in sheet["pairs"]])
    refs = _caps([r for _, r in sheet["pairs"]])
    idf = build_idf([r.tokens for r in refs])
    rep = score_all(hyps, refs, idf)
    assert rep.b1 == pytest.approx(sheet["bleu"]["1"], abs=1e-6)
    assert rep.b2 == pytest.approx(sheet["bleu"]["2"], abs=1e-6)
    assert rep.b3 == pytest.approx(sheet["bleu"]["3"], abs=1e-6)
    assert rep.b4 == pytest.approx(sheet["bleu"]["4"], abs=1e-6)
    assert rep.rouge_l == pytest.approx(sheet["rouge_l"], abs=1e-6)
    assert rep.meteor == pytest.approx(sheet["meteor"], abs=1e-6)
    assert rep.cider_d == pytest.approx(sheet["cider_d"], abs=1e-6)


@settings(deadline=None)
@given(st.lists(st.tuples(tokens_st, tokens_st), min_size=1, max_size=4), st.booleans())
def test_score_all_equals_corpus_metrics_bit_for_bit(pairs, refs_are_docs):
    """score_all's shared n-gram counts and reference entries change no bit,
    whether the table makes the entries or already holds them, and whether
    the references are documents of the table or not. The reference counts
    both captions of each pair per metric, and scores CIDEr-D against a
    table of its own."""
    hyps = _caps([" ".join(h) for h, _ in pairs])
    refs = _caps([" ".join(r) for _, r in pairs])
    ht, rt = [h.tokens for h in hyps], [r.tokens for r in refs]
    docs = (rt if refs_are_docs else []) + [("car", "stops", "a"), ("b", "c")]
    fresh = build_idf(docs)
    want = ScoreReport(
        *bleu(ht, rt),
        rouge_l=sum(rouge_l(h, r) for h, r in zip(ht, rt)) / len(ht),
        meteor=sum(meteor(h, r) for h, r in zip(ht, rt)) / len(ht),
        cider_d=sum(cider_d(h, r, fresh) for h, r in zip(ht, rt)) / len(ht),
        counts=len(ht),
    )
    idf = build_idf(docs)
    assert score_all(hyps, refs, idf) == want
    assert score_all(hyps, refs, idf) == want
    oracle = sum(oracles.oracle_cider_d(h, r, docs) for h, r in zip(ht, rt)) / len(ht)
    assert want.cider_d == pytest.approx(oracle)


def test_score_all_remembers_each_distinct_reference_once():
    """Scoring N pairs whose references hold k distinct captions leaves k
    entries in the table, and none for a hypothesis."""
    distinct = ["a car stops at the light", "the truck merges", "a van turns left"]
    refs = _caps([distinct[i % 3] for i in range(12)])
    hyps = _caps([f"{distinct[i % 3]} {'now ' * (i // 3 + 1)}" for i in range(12)])
    idf = build_idf([c.tokens for c in refs])
    score_all(hyps, refs, idf)
    for h, r in zip(hyps, refs):
        score_all([h], [r], idf)
    assert set(idf._entries) == {r.tokens for r in refs}
    assert len(idf._entries) == 3


@given(st.lists(tokens_st, min_size=1, max_size=3))
def test_metric_ranges(hyps):
    refs = [h + ["car"] for h in hyps]
    idf = build_idf(refs)
    assert all(0.0 <= b <= 1.0 for b in bleu(hyps, refs))
    for h, r in zip(hyps, refs):
        assert 0.0 <= rouge_l(h, r) <= 1.0
        assert 0.0 <= meteor(h, r) <= 1.0
        assert 0.0 <= cider_d(h, r, idf) <= 10.0 + 1e-12
