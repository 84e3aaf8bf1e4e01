import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from capkit import harness, scst
from capkit.data import SynthConfig, synth_corpus
from capkit.errors import BadPrefix, EmptyDataset, InvalidTemperature, NumericFailure
from capkit.metrics import build_idf, cider_d
from capkit.scst import (
    RewardVector,
    compute_rewards,
    derive_seed,
    rollout,
    scst_train,
)
from capkit.seqmodel import (
    AdamState,
    DecoderCache,
    ModelConfig,
    Row,
    _pad_rows,
    _token_loss,
    adam_step,
    backward,
    forward,
    init_params,
    train_mle,
)
from capkit.textproc import BOS, EOS, ROLE_AVOIDANCE, ROLE_DESCRIPTION, Caption, Vocab, RESERVED, build_vocab, decode_ids

from oracles import oracle_log_softmax

CFG = ModelConfig(vocab_size=12, feature_dim=6, d_model=16, n_heads=2, max_len=8, seed=3)
FEATS = np.random.default_rng(0).normal(size=(4, 6))
VOCAB = Vocab(tokens=RESERVED + tuple("abcdefgh"))


@pytest.fixture
def params():
    return init_params(CFG)


# ---------------------------------------------------------------------------
# decoding

def test_greedy_forced_eos(params):
    params.tensors["tok_emb"][:] = 0.0
    params.tensors["tok_emb"][EOS, 0] = 10.0  # output tied: EOS logit dominates
    assert rollout(params, [FEATS], [None]) == [(BOS, EOS)]


def test_greedy_tie_breaks_low_id():
    params = init_params(replace(CFG, max_len=3))
    params.tensors["tok_emb"][:] = 0.0  # all logits identical at every step
    assert rollout(params, [FEATS], [None]) == [(BOS, 0, 0)]


def test_greedy_deterministic(params):
    assert rollout(params, [FEATS], [None]) == rollout(params, [FEATS], [None])


def test_greedy_output_invariants(params):
    (ids,) = rollout(params, [FEATS], [None])
    assert ids[-1] == EOS or len(ids) == CFG.max_len  # no rollout needs a mask
    assert ids[0] == BOS
    assert len(ids) <= CFG.max_len


def test_greedy_logit_shift_invariance(params):
    base = rollout(params, [FEATS], [None])
    params.tensors["ln2_b"][:] += 0.0  # no-op guard; real check below
    # adding a constant to every logit at each step cannot change the argmax:
    # emulate by comparing argmax of row and row + c
    cache = DecoderCache(params, [FEATS])
    (row,) = cache.step([BOS])
    assert np.argmax(row) == np.argmax(row + 3.7)
    assert base == rollout(params, [FEATS], [None])


def test_sample_matches_greedy_at_tiny_temperature(params):
    """Down to the smallest subnormal, sampling returns the argmax (warnings
    are errors in this suite, so no overflow warning escapes either)."""
    g = rollout(params, [FEATS] * 4, [None] * 4)
    for temperature in (1e-6, 1e-310, 5e-324):
        assert rollout(params, [FEATS] * 4, [5, 6, 7, 8], temperature=temperature) == g


def test_sample_seed_deterministic(params):
    assert rollout(params, [FEATS], [11]) == rollout(params, [FEATS], [11])


def test_sample_invalid_temperature(params):
    """A bad temperature, or a seed list whose length is not the number of
    feature matrices, is a typed error."""
    for temperature in (0.0, math.inf):
        with pytest.raises(InvalidTemperature):
            rollout(params, [FEATS], [0], temperature=temperature)
    with pytest.raises(BadPrefix, match="1 seeds for 2 feature matrices"):
        rollout(params, [FEATS, FEATS], [None])
    with pytest.raises(BadPrefix, match="2 seeds for 1 feature matrices"):
        rollout(params, [FEATS], [None, 3])


def test_sample_first_step_frequencies():
    # two-token effective vocabulary with a 50/50 first-step distribution
    params = init_params(replace(CFG, max_len=2))
    # the last layer norm puts out e_0 on every row, so the logits are tok_emb[:, 0]
    params.tensors["ln2_g"][:] = 0.0
    params.tensors["ln2_b"][:] = np.eye(CFG.d_model)[0]
    params.tensors["tok_emb"][:] = 0.0
    params.tensors["tok_emb"][4, 0] = 30.0
    params.tensors["tok_emb"][5, 0] = 30.0
    counts = {4: 0, 5: 0}
    for seed in range(10000):
        (ids,) = rollout(params, [FEATS], [seed])
        counts[ids[1]] += 1
    assert counts[4] + counts[5] == 10000
    assert 0.48 <= counts[4] / 10000 <= 0.52


def _reference_rollout(params, features, seeds, temperature):
    """rollout's specification, one row at a time over one lockstep batch: a
    greedy row takes the argmax; a sampled row draws default_rng(seed).random()
    once per step until its EOS and takes the first id whose entry of the
    normalised CDF of softmax(logits / T) exceeds the draw."""
    rngs = [None if s is None else np.random.default_rng(s) for s in seeds]
    cache = DecoderCache(params, features)
    rows = [[BOS] for _ in seeds]
    for _ in range(1, params.config.max_len):
        logits = cache.step([row[-1] for row in rows])  # a finished row steps on EOS, unread
        for row, rng, z in zip(rows, rngs, logits):
            if row[-1] == EOS:
                continue
            if rng is None:
                row.append(int(np.argmax(z)))
            else:
                p = np.exp(oracle_log_softmax(z / temperature))
                cdf = np.cumsum(p / p.sum())
                row.append(int(np.sum(cdf / cdf[-1] <= rng.random())))
        if all(row[-1] == EOS for row in rows):
            break
    return [tuple(row) for row in rows]


def test_rollout_draws_what_the_reference_sampler_draws():
    """1152 rows over 24 models, a quarter greedy, at three temperatures: the
    same ids as one uniform per live step against the normalised CDF."""
    rows = differ = 0
    for m in range(24):
        params = init_params(replace(CFG, seed=m))
        rng = np.random.default_rng(m)
        for tensor in params.tensors.values():
            tensor *= rng.uniform(0.5, 3.0)  # sharper or flatter distributions, earlier or later EOS
        feats = [rng.normal(size=(int(rng.integers(1, 7)), CFG.feature_dim)) for _ in range(16)]
        seeds = [None if b % 4 == 0 else int(rng.integers(1 << 40)) for b in range(16)]
        greedy = rollout(params, feats, [None] * 16)
        for temperature in (0.3, 1.0, 2.5):
            got = rollout(params, feats, seeds, temperature)
            assert got == _reference_rollout(params, feats, seeds, temperature)
            rows += len(got)
            differ += sum(s is not None and ids != g for s, ids, g in zip(seeds, got, greedy))
    assert rows >= 1000
    assert differ > rows // 4  # the sampled rows do not all fall back to the argmax


def test_batch_rollout_matches_one_row_rollouts(params):
    """A lockstep batch of greedy and seeded sampled rows, with clips of
    different T, decodes each row to the ids a one-row rollout gives."""
    eos = params.tensors["tok_emb"][EOS]
    params.tensors["ln2_b"][:] += 2.0 * eos / np.linalg.norm(eos)  # rows stop at different steps
    rng = np.random.default_rng(3)
    feats = [rng.normal(size=(T, CFG.feature_dim)) for T in (4, 1, 6, 4, 2, 5)]
    seeds = [None, 7, None, 8, 9, None]
    for temperature in (1.0, 2.5):
        batch = rollout(params, feats, seeds, temperature)
        for f, seed, ids in zip(feats, seeds, batch):
            assert [ids] == rollout(params, [f], [seed], temperature)
        assert len({len(ids) for ids in batch}) > 1


def test_decode_split_does_not_depend_on_chunk(monkeypatch):
    """A split larger than one chunk decodes, greedy and sampled, to the
    captions of one-row chunks."""
    corpus = synth_corpus(SynthConfig(n_clips=40, seed=2))
    roles = [ROLE_DESCRIPTION, ROLE_AVOIDANCE]
    rows = harness.rows(corpus.samples, corpus.clips, roles)
    vocab = build_vocab([r.ref for r in rows])
    params = init_params(replace(CFG, vocab_size=len(vocab), feature_dim=corpus.clips[corpus.samples[0].id].D))
    assert len(rows) > harness.DECODE_CHUNK
    for seed in (None, 3):
        chunked = harness.decode_split(params, rows, vocab, seed)
        monkeypatch.setattr(harness, "DECODE_CHUNK", 1)
        one_row = harness.decode_split(params, rows, vocab, seed)
        monkeypatch.undo()
        assert chunked == one_row


def test_harness_rows():
    """One row per sample and then per role, keyed "<id>/<role>", with the
    role frame last and the sample's caption of that role."""
    corpus = synth_corpus(SynthConfig(n_clips=3, seed=4))
    rows = harness.rows(corpus.samples, corpus.clips, [ROLE_DESCRIPTION, ROLE_AVOIDANCE])
    expected = [(s, role) for s in corpus.samples for role in (ROLE_DESCRIPTION, ROLE_AVOIDANCE)]
    assert len(rows) == len(expected)
    for row, (s, role) in zip(rows, expected):
        assert row.sample_id == s.id
        assert row.key == f"{s.id}/{role}"
        clip = corpus.clips[s.id].data
        assert np.array_equal(row.features[:-1], clip)
        assert np.all(row.features[-1] == (1.0 if role == ROLE_DESCRIPTION else -1.0))
        assert row.ref == getattr(s, role) and row.ref.role == role


# ---------------------------------------------------------------------------
# rewards

def _idf():
    return build_idf([("a", "b", "c"), ("d", "e", "f")])


def test_rewards_sample_equals_greedy(monkeypatch):
    """A sample equal to the greedy caption is scored once, to the
    RewardVector that scoring both captions gives; other pairs are scored twice."""
    dec, other = (BOS, 4, 5, EOS), (BOS, 4, EOS)
    ref = Caption.make("a b", "description")
    idf = _idf()
    score = cider_d(decode_ids(VOCAB, dec), ref.tokens, idf)
    calls = []
    monkeypatch.setattr(scst, "cider_d", lambda *args: calls.append(args) or cider_d(*args))
    rv = compute_rewards(dec, dec, ref, idf, VOCAB)
    assert rv == RewardVector(r=score - score, baseline_score=score, sample_score=score)
    assert rv.r == 0.0 and score > 0.0
    assert len(calls) == 1
    compute_rewards(dec, other, ref, idf, VOCAB)
    assert len(calls) == 3


def test_rewards_broadcast_with_mask():
    """A row's reward reaches each of its real targets; a padded position of
    the SCST batch gets zero reward and zero logits gradient."""
    samples = [(BOS, 4, 5, EOS), (BOS, 4, EOS)]
    greedy = (BOS, 9, EOS)
    ref = Caption.make("a b", "description")
    rewards = [compute_rewards(s, greedy, ref, _idf(), VOCAB) for s in samples]
    diffs = [rv.sample_score - rv.baseline_score for rv in rewards]
    assert [rv.r for rv in rewards] == diffs and all(d != 0.0 for d in diffs)
    prefix, targets, r, n = _pad_rows(samples, [rv.r for rv in rewards])
    assert prefix.tolist() == [[BOS, 4, 5], [BOS, 4, EOS]]
    assert targets.tolist() == [[4, 5, EOS], [4, EOS, 0]]
    assert n.tolist() == [3, 2]
    assert r.tolist() == [[diffs[0]] * 3, [diffs[1], diffs[1], 0.0]]
    logits = np.random.default_rng(1).normal(size=(2, 3, CFG.vocab_size))
    _, grad = _token_loss(logits, targets, r, n)
    assert np.all(grad[1, 2] == 0.0) and np.all(grad[:, :2] != 0.0)


def test_rewards_same_on_fresh_and_warm_table():
    """compute_rewards reads each reference's entry from the table; a table
    that already holds the entry gives the same bits as a fresh one."""
    ref = Caption.make("a b c", "description")
    sample, greedy = (BOS, VOCAB.id_of("a"), VOCAB.id_of("b"), EOS), (BOS, VOCAB.id_of("c"), EOS)
    warm = _idf()
    first = compute_rewards(sample, greedy, ref, warm, VOCAB)
    assert ref.tokens in warm._entries
    assert compute_rewards(sample, greedy, ref, warm, VOCAB) == first
    assert compute_rewards(sample, greedy, ref, _idf(), VOCAB) == first
    want = cider_d(decode_ids(VOCAB, sample), ref.tokens, _idf()) - cider_d(decode_ids(VOCAB, greedy), ref.tokens, _idf())
    assert first.r == want and first.r != 0.0


def test_rewards_sign_when_sample_worse():
    # greedy reproduces the reference, sample is disjoint
    greedy = (BOS, VOCAB.id_of("a"), VOCAB.id_of("b"), EOS)
    sample = (BOS, VOCAB.id_of("g"), VOCAB.id_of("h"), EOS)
    ref = Caption.make("a b", "description")
    idf = build_idf([("a", "b"), ("g", "c")])
    rv = compute_rewards(sample, greedy, ref, idf, VOCAB)
    assert rv.baseline_score > rv.sample_score
    assert rv.r < 0


def test_reward_symmetry():
    a = (BOS, VOCAB.id_of("a"), EOS)
    b = (BOS, VOCAB.id_of("b"), EOS)
    ref = Caption.make("a", "description")
    idf = build_idf([("a",), ("b", "c")])
    fwd = compute_rewards(a, b, ref, idf, VOCAB)
    rev = compute_rewards(b, a, ref, idf, VOCAB)
    assert fwd.r == -rev.r


# ---------------------------------------------------------------------------
# the reward-weighted token loss


def _mean_loss_fd(logits, targets, r, n, h):
    """Central differences, logit by logit, of the rows' mean `_token_loss`."""
    fd = np.empty_like(logits)
    for idx in np.ndindex(logits.shape):
        up, dn = logits.copy(), logits.copy()
        up[idx] += h
        dn[idx] -= h
        fd[idx] = (_token_loss(up, targets, r, n)[0].mean() - _token_loss(dn, targets, r, n)[0].mean()) / (2 * h)
    return fd


def test_scst_loss_hand_value():
    """Logits [0, -k] give the target 1 the exact log-probability -k, since
    exp(-k) underflows: -(0.5 * -1000 + 0.5 * -2000) / 2 = 750, and each real
    position's gradient is 0.5 / 2 * (softmax - onehot) = [0.25, -0.25]."""
    logits = np.array([[[0.0, -1000.0], [0.0, -2000.0], [0.0, -3000.0]]])
    loss, grad = _token_loss(logits, np.ones((1, 3), dtype=np.intp), np.array([[0.5, 0.5, 0.0]]), np.array([2]))
    assert loss.tolist() == [750.0]
    assert grad.tolist() == [[[0.25, -0.25], [0.25, -0.25], [0.0, 0.0]]]


def test_scst_loss_zero_rewards():
    logits = np.random.default_rng(4).normal(size=(2, 3, 5))
    loss, grad = _token_loss(logits, np.array([[1, 2, 3], [4, 0, 0]]), np.zeros((2, 3)), np.array([3, 1]))
    assert np.all(loss == 0.0)
    assert np.all(grad == 0.0)


def test_scst_loss_gradient_closed_form():
    """On a padded batch with signed rewards the gradient is r_it / (n_i B) *
    (softmax - onehot), and it matches central differences of the mean loss."""
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(2, 4, 6))
    targets = rng.integers(6, size=(2, 4))
    n = np.array([4, 2])
    r = rng.normal(size=(2, 1)) * (np.arange(4) < n[:, None])
    _, grad = _token_loss(logits, targets, r, n)
    w = r / n[:, None] / 2
    want = w[..., None] * np.exp(oracle_log_softmax(logits))
    want[np.arange(2)[:, None], np.arange(4), targets] -= w
    assert np.allclose(grad, want, atol=0)
    assert np.all(grad[1, 2:] == 0.0)
    assert np.abs(_mean_loss_fd(logits, targets, r, n, 3e-5) - grad).max() < 1e-10


@given(st.floats(min_value=0.01, max_value=100.0))
def test_scst_loss_scale_equivariance(c):
    logits = np.random.default_rng(9).normal(size=(2, 3, 5))
    targets = np.array([[1, 2, 3], [4, 0, 0]])
    n = np.array([3, 1])
    r = np.array([[0.3, -0.2, 0.7], [-0.4, 0.0, 0.0]])
    l1, g1 = _token_loss(logits, targets, r, n)
    l2, g2 = _token_loss(logits, targets, r * c, n)
    assert l2 == pytest.approx(c * l1, rel=1e-12)
    assert np.allclose(g2, g1 * c, rtol=1e-12)


# ---------------------------------------------------------------------------
# scst_train

def _memorized_setup():
    """A single-sample dataset the model has fully memorized via MLE."""
    vocab = VOCAB
    ref = Caption.make("a b c", "description")
    params = init_params(CFG)
    rows = [Row(sample_id="s0", features=FEATS, ref=ref)]
    train_mle(params, rows, epochs=120, batch_size=1, seed=0, vocab=vocab, lr=1e-2)
    idf = build_idf([ref.tokens, ("d", "e", "f", "g")])
    return params, vocab, ref, idf


def test_scst_train_memorized_sample():
    params, vocab, ref, idf = _memorized_setup()
    (greedy,) = rollout(params, [FEATS], [None])
    from capkit.textproc import decode_ids

    assert decode_ids(vocab, greedy) == list(ref.tokens)  # baseline is the reference
    items = [Row(sample_id="s0", features=FEATS, ref=ref)]
    history = scst_train(params, items, idf, epochs=5, batch_size=1, seed=1, vocab=vocab)
    first = history[0].mean_baseline
    for h in history:
        assert h.mean_reward <= 1e-12  # no rollout can beat the reference
        assert h.mean_baseline >= first - 0.05
        assert h.mean_reward == pytest.approx(h.mean_sample - h.mean_baseline, abs=1e-9)


def test_scst_train_epoch_moves_parameters():
    """Below the CIDEr-D ceiling (noise_std=1.0, short MLE), one SCST epoch with
    nonzero rewards changes the parameters: a no-op SCST stage fails here."""
    corpus = synth_corpus(SynthConfig(n_clips=100, noise_std=1.0, seed=7))
    by_id = {s.id: s for s in corpus.samples}
    train = [by_id[i] for i in corpus.split["train"]]
    val = [by_id[i] for i in corpus.split["val"]]
    roles = [ROLE_DESCRIPTION]
    rows = harness.rows(train, corpus.clips, roles)
    vocab = build_vocab([r.ref for r in rows])
    idf = build_idf([r.ref.tokens for r in rows])
    cfg = ModelConfig(
        vocab_size=len(vocab), feature_dim=corpus.clips[train[0].id].D, d_model=32,
        n_heads=2, max_len=24, seed=1,
    )
    params = init_params(cfg)
    train_mle(params, rows, epochs=6, batch_size=8, seed=1, vocab=vocab)
    decoded = harness.decode_split(params, harness.rows(val, corpus.clips, roles), vocab)
    held_out = sum(cider_d(c.tokens, s.description.tokens, idf) for c, s in zip(decoded, val, strict=True)) / len(decoded)
    assert held_out < 10.0
    before = params.flat.copy()
    history = scst_train(params, rows, idf, epochs=1, batch_size=8, seed=1, vocab=vocab)
    assert len(history) == 1
    assert math.isfinite(history[0].mean_reward) and history[0].mean_reward != 0.0
    assert not np.array_equal(params.flat, before)


def test_scst_train_batch_is_one_hand_composed_step():
    """A one-batch scst_train epoch is a lockstep greedy and sampled rollout,
    compute_rewards, then _pad_rows, forward, the reward-weighted _token_loss,
    backward and adam_step, bit for bit."""
    rng = np.random.default_rng(8)
    items = [
        Row(f"s{k}", rng.normal(size=(T, CFG.feature_dim)), Caption.make(text, "description"))
        for k, (T, text) in enumerate([(4, "a b"), (2, "c d e"), (5, "a f"), (3, "b b c")])
    ]
    idf = _idf()
    params, ref = init_params(CFG), init_params(CFG)
    history = scst_train(params, items, idf, 1, len(items), seed=6, vocab=VOCAB, lr=1e-2)

    batch = [items[i] for i in np.random.default_rng(6).permutation(len(items))]
    feats = [it.features for it in batch]
    seeds = [derive_seed(6, it.key, 0) for it in batch]
    decoded = rollout(ref, feats + feats, [None] * len(batch) + seeds)
    greedy, rolls = decoded[: len(batch)], decoded[len(batch) :]
    rewards = [compute_rewards(s, g, it.ref, idf, VOCAB) for s, g, it in zip(rolls, greedy, batch)]
    assert any(rv.r != 0.0 for rv in rewards)
    prefix, targets, r, n = _pad_rows(rolls, [rv.r for rv in rewards])
    trace = forward(ref, feats, prefix, train=True)
    loss, glogits = _token_loss(trace.logits.value, targets, r, n)
    adam_step(ref, backward(trace, glogits), AdamState(), lr=1e-2)
    assert history[0].loss == float(np.mean(loss))
    assert history[0].mean_sample == float(np.mean([rv.sample_score for rv in rewards]))
    assert params.flat.tobytes() == ref.flat.tobytes()


def test_scst_train_zero_epochs(params):
    before = params.flat.copy()
    items = [Row(sample_id="s0", features=FEATS, ref=Caption.make("a b", "description"))]
    assert scst_train(params, items, _idf(), 0, 1, seed=0, vocab=VOCAB) == []
    assert params.flat.tobytes() == before.tobytes()


def test_scst_train_deterministic():
    def run():
        p = init_params(CFG)
        items = [Row(sample_id="s0", features=FEATS, ref=Caption.make("a b", "description"))]
        h = scst_train(p, items, _idf(), 3, 1, seed=5, vocab=VOCAB)
        return [(x.mean_reward, x.loss) for x in h]

    assert run() == run()


def test_scst_train_non_finite_loss_fails_fast(params, monkeypatch):
    before = params.flat.copy()

    def nan_rewards(sample, *_):
        return RewardVector(r=np.nan, baseline_score=0.0, sample_score=0.0)

    monkeypatch.setattr(scst, "compute_rewards", nan_rewards)
    items = [Row(sample_id="s0", features=FEATS, ref=Caption.make("a b", "description"))]
    with pytest.raises(NumericFailure):
        scst_train(params, items, _idf(), 2, 1, seed=0, vocab=VOCAB)
    assert np.array_equal(params.flat, before)


def test_scst_parameter_gradient_finite_difference(params):
    """The reward-weighted `_token_loss` of a fixed sampled caption whose last
    target is padding, through forward, the logits gradient and backward,
    against central differences of the textbook loss."""
    (roll,) = rollout(params, [FEATS], [4])
    prefix = roll[:-1]
    targets = np.asarray(roll[1:], dtype=np.intp)
    rows = np.arange(len(targets))
    r = np.random.default_rng(5).normal(size=len(targets))
    r[-1] = 0.0
    n = len(targets) - 1
    assert n >= 2

    def loss_of():
        return -(r * oracle_log_softmax(forward(params, [FEATS], [prefix])[0])[rows, targets]).sum() / n

    trace = forward(params, [FEATS], [prefix], train=True)
    grads = backward(trace, _token_loss(trace.logits.value, targets[None], r[None], np.array([n]))[1])
    rng = np.random.default_rng(6)
    names = sorted(params.tensors)
    for _ in range(30):
        name = names[rng.integers(len(names))]
        arr = params.tensors[name]
        idx = tuple(rng.integers(s) for s in arr.shape)
        h = 1e-5
        orig = arr[idx]
        arr[idx] = orig + h
        up = loss_of()
        arr[idx] = orig - h
        dn = loss_of()
        arr[idx] = orig
        fd = (up - dn) / (2 * h)
        an = grads[name][idx]
        assert abs(an - fd) / max(1.0, abs(an)) < 1e-6


def test_scst_train_empty_dataset(params):
    with pytest.raises(EmptyDataset):
        scst_train(params, [], _idf(), 1, 1, seed=0, vocab=VOCAB)


def test_derive_seed_stable():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a", 2) != derive_seed(2, "a", 2)
