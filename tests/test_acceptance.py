"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""
import json
import os
import time

import numpy as np
import pytest

from capkit import harness
from capkit.cli import render_report_row
from capkit.data import FeatureClip, SynthConfig, read_features, synth_corpus, write_features
from capkit.metrics import (
    GaussianStats,
    ScoreReport,
    build_idf,
    cider_d,
    frechet_distance,
    gaussian_stats,
    score_all,
)
from capkit.scst import scst_train
from capkit.seqmodel import (
    ModelConfig,
    _token_loss,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train_mle,
)
from capkit.textproc import BOS, EOS, Caption, ROLE_DESCRIPTION, build_vocab

import oracles

HERE = os.path.dirname(__file__)


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_metric_oracle_sheet():
    t0 = time.perf_counter()
    with open(os.path.join(HERE, "data", "micro_corpus_expected.json")) as f:
        sheet = json.load(f)
    hyps = [Caption.make(h, ROLE_DESCRIPTION) for h, _ in sheet["pairs"]]
    refs = [Caption.make(r, ROLE_DESCRIPTION) for _, r in sheet["pairs"]]
    idf = build_idf([r.tokens for r in refs])
    rep = score_all(hyps, refs, idf)
    expected = {
        "b1": sheet["bleu"]["1"],
        "b2": sheet["bleu"]["2"],
        "b3": sheet["bleu"]["3"],
        "b4": sheet["bleu"]["4"],
        "rouge_l": sheet["rouge_l"],
        "meteor": sheet["meteor"],
        "cider_d": sheet["cider_d"],
    }
    errs = {k: abs(getattr(rep, k) - v) for k, v in expected.items()}
    elapsed = time.perf_counter() - t0
    ok = all(e < 1e-6 for e in errs.values()) and elapsed < 1.0
    _report(
        "metric oracle sheet (5-pair micro-corpus, tol 1e-6, <1s)",
        ok,
        f"max err {max(errs.values()):.2e}, {elapsed:.3f}s",
    )


def test_criterion_frechet_closed_forms():
    t0 = time.perf_counter()
    x = np.random.default_rng(0).normal(size=(100, 4))
    s = gaussian_stats(x)
    self_d = frechet_distance(s, s)

    a = GaussianStats(np.array([0.0, 0.0]), np.eye(2))
    b = GaussianStats(np.array([3.0, 4.0]), np.eye(2))
    mean_d = frechet_distance(a, b)

    c = GaussianStats(np.zeros(2), np.diag([4.0, 1.0]))
    d = GaussianStats(np.zeros(2), np.diag([1.0, 1.0]))
    diag_d = frechet_distance(c, d)

    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        qa, qb = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        ca, cb = qa @ qa.T, qb @ qb.T
        mu_a, mu_b = rng.normal(size=3), rng.normal(size=3)
        got = frechet_distance(GaussianStats(mu_a, ca), GaussianStats(mu_b, cb))
        worst = max(worst, abs(got - oracles.oracle_frechet(mu_a, ca, mu_b, cb)))

    elapsed = time.perf_counter() - t0
    ok = (
        abs(self_d) < 1e-8
        and abs(mean_d - 25.0) < 1e-6
        and abs(diag_d - 1.0) < 1e-6
        and worst < 1e-6
        and elapsed < 1.0
    )
    _report(
        "Frechet closed forms (self=0, |dmu|^2=25, diag=1, PSD oracle)",
        ok,
        f"self {self_d:.1e}, mean {mean_d:.8f}, diag {diag_d:.8f}, "
        f"psd err {worst:.2e}, {elapsed:.3f}s",
    )


def xent(logits, target_ids, mask):
    """Masked length-normalized cross entropy of a batch (B x L x |V| logits,
    B x L targets and 0/1 mask) and its gradient w.r.t. the logits: the
    `_token_loss` of unit rewards, as MLE training runs it."""
    m = np.asarray(mask, dtype=np.float64)
    return _token_loss(np.asarray(logits, dtype=np.float64), np.asarray(target_ids, dtype=np.intp), m, m.sum(axis=-1))


def test_criterion_gradient_fidelity():
    t0 = time.perf_counter()
    cfg = ModelConfig(vocab_size=16, feature_dim=8, d_model=32, n_heads=2, max_len=12, seed=5)
    params = init_params(cfg)
    feats = np.random.default_rng(3).normal(size=(5, 8))
    prefix = [BOS, 6, 7, 8, 9, 10]
    targets = [[6, 7, 8, 9, 10, EOS]]
    mask = [[1] * 6]
    trace = forward(params, [feats], [prefix], train=True)
    _, glog = xent(trace.logits.value, targets, mask)
    grads = backward(trace, glog)
    rng = np.random.default_rng(17)
    names = sorted(params.tensors)
    worst = 0.0
    for _ in range(20):
        name = names[rng.integers(len(names))]
        arr = params.tensors[name]
        idx = tuple(rng.integers(s) for s in arr.shape)
        h = 1e-4
        orig = arr[idx]
        arr[idx] = orig + h
        (up,), _ = xent(forward(params, [feats], [prefix]), targets, mask)
        arr[idx] = orig - h
        (dn,), _ = xent(forward(params, [feats], [prefix]), targets, mask)
        arr[idx] = orig
        fd = (up - dn) / (2 * h)
        an = grads[name][idx]
        worst = max(worst, abs(an - fd) / max(1.0, abs(an)))

    # the reward-weighted loss's logits gradient on a padded batch with
    # signed rewards, against central differences of the rows' mean loss
    rng2 = np.random.default_rng(23)
    logits = rng2.normal(size=(3, 5, 7))
    tgt = rng2.integers(7, size=(3, 5))
    n = np.array([5, 3, 1])
    r = rng2.normal(size=(3, 1)) * (np.arange(5) < n[:, None])
    _, grad = _token_loss(logits, tgt, r, n)
    worst_lin = 0.0
    h = 3e-5  # about eps ** (1/3): truncation and rounding errors balance
    for idx in np.ndindex(logits.shape):
        up = logits.copy(); up[idx] += h
        dn = logits.copy(); dn[idx] -= h
        fd = (_token_loss(up, tgt, r, n)[0].mean() - _token_loss(dn, tgt, r, n)[0].mean()) / (2 * h)
        worst_lin = max(worst_lin, abs(fd - grad[idx]))

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and worst_lin < 1e-10 and elapsed < 30.0
    _report(
        "gradient fidelity (xent FD rel err < 1e-4; SCST token loss FD < 1e-10)",
        ok,
        f"xent {worst:.2e}, scst {worst_lin:.2e}, {elapsed:.1f}s",
    )


def test_criterion_scst_loss_unit_value():
    # exp(-1000) and exp(-2000) underflow, so the targets' log-probabilities
    # are exactly -1000 and -2000; the third position is padding
    logits = np.array([[[0.0, -1000.0], [0.0, -2000.0], [0.0, -3000.0]]])
    (loss,), _ = _token_loss(logits, np.ones((1, 3), dtype=np.intp), np.array([[0.5, 0.5, 0.0]]), np.array([2]))
    _report("SCST loss unit value L=750 exactly", loss == 750.0, f"L={loss!r}")


def _val_cider(params, val, clips, vocab, idf):
    """Corpus CIDEr-D of the greedy description captions of the val split."""
    decoded = harness.decode_split(params, harness.rows(val, clips, [ROLE_DESCRIPTION]), vocab)
    return sum(cider_d(c.tokens, s.description.tokens, idf) for c, s in zip(decoded, val, strict=True)) / len(decoded)


def test_criterion_end_to_end_learning():
    t0 = time.perf_counter()
    corpus = synth_corpus(SynthConfig(n_clips=500, seed=7))
    by_id = {s.id: s for s in corpus.samples}
    train = [by_id[i] for i in corpus.split["train"]]
    val = [by_id[i] for i in corpus.split["val"]]
    roles = [ROLE_DESCRIPTION]
    rows = harness.rows(train, corpus.clips, roles)
    vocab = build_vocab([r.ref for r in rows])
    idf = build_idf([r.ref.tokens for r in rows])
    feature_dim = corpus.clips[train[0].id].D
    wins = 0
    details = []
    for seed in range(1, 6):
        cfg = ModelConfig(
            vocab_size=len(vocab), feature_dim=feature_dim, d_model=64,
            n_heads=2, max_len=24, seed=seed,
        )
        params = init_params(cfg)
        train_mle(params, rows, epochs=30, batch_size=8, seed=seed, vocab=vocab)
        mle_score = _val_cider(params, val, corpus.clips, vocab, idf)
        scst_train(params, rows, idf, epochs=10, batch_size=8, seed=seed, vocab=vocab)
        scst_score = _val_cider(params, val, corpus.clips, vocab, idf)
        if scst_score >= mle_score:
            wins += 1
        details.append(f"seed {seed}: mle {mle_score:.3f} scst {scst_score:.3f}")
    elapsed = time.perf_counter() - t0
    ok = wins >= 4 and elapsed < 600.0
    _report(
        "end-to-end learning (SCST >= MLE held-out CIDEr-D in >=4/5 seeds, <10min)",
        ok,
        f"{wins}/5 seeds, {elapsed:.0f}s; " + "; ".join(details),
    )


def test_criterion_fid_noise_direction():
    rng = np.random.default_rng(7)
    clean = rng.normal(size=(800, 16))
    base = gaussian_stats(clean)
    dists = []
    for sigma in (0.1, 0.5, 1.0):
        noisy = clean + np.random.default_rng(101).normal(size=clean.shape) * sigma
        frames = frechet_distance(base, gaussian_stats(noisy))
        pooled_clean = clean.reshape(100, 8, 16).mean(axis=1)
        pooled_noisy = noisy.reshape(100, 8, 16).mean(axis=1)
        pooled = frechet_distance(gaussian_stats(pooled_clean), gaussian_stats(pooled_noisy))
        dists.append((frames, pooled))
    fids = [d[0] for d in dists]
    vids = [d[1] for d in dists]
    ok = fids[0] < fids[1] < fids[2] and vids[0] < vids[1] < vids[2]
    _report(
        "Table-analog direction (FID and VID strictly increase with noise)",
        ok,
        f"FID {['%.3f' % f for f in fids]}, VID {['%.3f' % v for v in vids]}",
    )


def test_criterion_formats(tmp_path):
    # feature file round trip
    rng = np.random.default_rng(9)
    clip = FeatureClip(id="fmt", data=rng.normal(size=(6, 5)).astype(np.float32))
    fpath = os.path.join(tmp_path, "c.avdf")
    write_features(clip, fpath)
    back = read_features(fpath)
    feat_ok = back.data.tobytes() == clip.data.tobytes() and back.id == clip.id

    # checkpoint round trip
    cfg = ModelConfig(vocab_size=10, feature_dim=4, d_model=16, n_heads=2, max_len=8, seed=1)
    params = init_params(cfg)
    cpath = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(params, cpath)
    loaded, _ = load_checkpoint(cpath)
    ckpt_ok = all(
        loaded.tensors[n].tobytes() == params.tensors[n].tobytes() for n in params.tensors
    )

    # published-row rendering
    rep = ScoreReport(
        b1=0.304, b2=0.243, b3=0.203, b4=0.178,
        rouge_l=0.312, meteor=0.172, cider_d=9.81, counts=0,
    )
    row_ok = render_report_row(rep) == ["30.4", "24.3", "20.3", "17.8", "98.1", "17.2", "31.2"]

    _report(
        "formats (feature + checkpoint round trips bit-exact; published row renders)",
        feat_ok and ckpt_ok and row_ok,
        f"features {feat_ok}, checkpoint {ckpt_ok}, row {row_ok}",
    )
