import json
import math
import os
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capkit import autodiff as ad, seqmodel
from capkit.errors import (
    BadMagic,
    BadPrefix,
    BadVersion,
    CapkitError,
    DimensionMismatch,
    EmptyDataset,
    InvalidConfig,
    NonFiniteValue,
    NumericFailure,
    TruncatedFile,
)
from capkit.seqmodel import (
    CKPT_MAGIC,
    CKPT_VERSION,
    PARAM_SHAPES,
    AdamState,
    DecoderCache,
    ModelConfig,
    ModelParams,
    Row,
    _pad_rows,
    _token_loss,
    adam_step,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train_mle,
)
from capkit.scst import rollout
from capkit.textproc import BOS, EOS, PAD, RESERVED, Caption, Vocab, encode

from oracles import oracle_log_softmax

CFG = ModelConfig(vocab_size=12, feature_dim=6, d_model=16, n_heads=2, max_len=10, seed=3)
RNG = np.random.default_rng(0)
FEATS = RNG.normal(size=(4, 6))
PREFIX = [BOS, 5, 6, 7]


@pytest.fixture
def params():
    return init_params(CFG)


def xent(logits, target_ids, mask):
    """Masked length-normalized cross entropy of a batch (B x L x |V| logits,
    B x L targets and 0/1 mask) and its gradient w.r.t. the logits: the
    `_token_loss` of unit rewards, as MLE training runs it."""
    m = np.asarray(mask, dtype=np.float64)
    return _token_loss(np.asarray(logits, dtype=np.float64), np.asarray(target_ids, dtype=np.intp), m, m.sum(axis=-1))


# ---------------------------------------------------------------------------
# init

def test_init_deterministic():
    a = init_params(CFG)
    b = init_params(CFG)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])


def test_init_seed_changes_params():
    a = init_params(CFG)
    b = init_params(ModelConfig(**{**CFG.__dict__, "seed": 4}))
    assert any(not np.array_equal(a.tensors[n], b.tensors[n]) for n in a.tensors)


def test_init_invalid_divisibility():
    with pytest.raises(InvalidConfig):
        init_params(ModelConfig(vocab_size=12, feature_dim=6, d_model=65, n_heads=2))


def test_init_invalid_vocab():
    with pytest.raises(InvalidConfig):
        init_params(ModelConfig(vocab_size=4, feature_dim=6))


@pytest.mark.parametrize("n_heads", [0, -2, 0.5, True])
def test_init_invalid_n_heads(n_heads):
    with pytest.raises(InvalidConfig):
        init_params(ModelConfig(vocab_size=12, feature_dim=6, d_model=16, n_heads=n_heads))


def test_tensors_are_views_of_flat(params):
    """Each tensor is the reshaped slice of `flat` at its PARAM_SHAPES offset,
    writes through a view reach `flat`, and params over a copy of `flat` share
    no memory with it."""
    dims = (CFG.vocab_size, CFG.d_model, CFG.max_len, CFG.feature_dim)
    assert list(params.tensors) == [name for name, _ in PARAM_SHAPES]
    offset = {}
    start = 0
    for name, shape_fn in PARAM_SHAPES:
        view = params.tensors[name]
        assert view.shape == shape_fn(*dims) and view.dtype == np.float64
        assert view.ctypes.data == params.flat.ctypes.data + 8 * start
        assert np.shares_memory(view, params.flat)
        offset[name] = start
        start += view.size
    assert params.flat.shape == (start,)
    params.tensors["sa_q"][1, 2] = 7.0
    assert params.flat[offset["sa_q"] + CFG.d_model + 2] == 7.0
    twin = ModelParams(params.config, params.flat.copy())
    assert not np.shares_memory(twin.flat, params.flat)
    assert all(np.shares_memory(twin.tensors[n], twin.flat) for n in twin.tensors)
    twin.tensors["sa_q"][1, 2] = -1.0
    twin.flat[0] = 3.0
    assert params.tensors["sa_q"][1, 2] == 7.0 and params.flat[0] != 3.0


def test_init_layernorm_identity(params):
    assert np.all(params.tensors["ln1_g"] == 1.0)
    assert np.all(params.tensors["ln1_b"] == 0.0)


def test_init_glorot_bounds(params):
    w = params.tensors["sa_q"]
    s = math.sqrt(6.0 / (CFG.d_model * 2))
    assert np.all(np.abs(w) <= s)


# ---------------------------------------------------------------------------
# forward

def test_forward_softmax_rows(params):
    (logits,) = forward(params, [FEATS], [PREFIX])
    p = np.exp(oracle_log_softmax(logits))
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)
    assert np.isfinite(logits).all()


def test_forward_requires_bos(params):
    with pytest.raises(BadPrefix):
        forward(params, [FEATS], [[5, 6]])


@pytest.mark.parametrize("prefix", [PREFIX, np.array(PREFIX)])
def test_forward_rejects_one_row_prefix(params, prefix):
    """Prefixes are a B x L array: one 1-D prefix is not a batch of one."""
    with pytest.raises(BadPrefix, match="B x L"):
        forward(params, [FEATS], prefix)


def test_forward_causality(params):
    (base,) = forward(params, [FEATS], [PREFIX])
    changed = list(PREFIX)
    changed[2] = 9
    (out,) = forward(params, [FEATS], [changed])
    assert np.allclose(base[:2], out[:2], atol=1e-12)
    assert not np.allclose(base[2:], out[2:])


def test_forward_zero_cross_attention_ignores_features(params):
    params.tensors["ca_o"][:] = 0.0
    a = forward(params, [FEATS], [PREFIX])
    b = forward(params, [RNG.normal(size=(7, 6))], [PREFIX])
    assert np.allclose(a, b, atol=1e-12)


def test_forward_feature_order_irrelevant_single_row(params):
    f = RNG.normal(size=(1, 6))
    assert np.allclose(forward(params, [f], [PREFIX]), forward(params, [f.copy()], [PREFIX]))


def test_incremental_decode_matches_forward():
    """Cached stepping equals a full recompute, up to a max_len prefix, for
    one and several heads."""
    rng = np.random.default_rng(5)
    for n_heads in (1, 2, 4):
        params = init_params(ModelConfig(**{**CFG.__dict__, "n_heads": n_heads}))
        for prefix in (PREFIX, [BOS] + list(rng.integers(4, CFG.vocab_size, CFG.max_len - 1))):
            (logits,) = forward(params, [FEATS], [prefix])
            cache = DecoderCache(params, [FEATS])
            rows = np.array([cache.step([t])[0] for t in prefix])
            assert np.allclose(rows, logits, atol=1e-10), (n_heads, len(prefix))


def test_decoder_cache_stops_at_max_len(params):
    cache = DecoderCache(params, [FEATS])
    for _ in range(CFG.max_len):
        cache.step([BOS])
    with pytest.raises(BadPrefix):
        cache.step([BOS])


@pytest.mark.parametrize("bad", [CFG.vocab_size, 40, -1, 2.0, True, False])
def test_forward_rejects_token_outside_vocab(params, bad):
    with pytest.raises(BadPrefix):
        forward(params, [FEATS], [[BOS, 5, bad]])


@pytest.mark.parametrize("prefix", [[[True]], np.array([[True, False]]), [(BOS, np.True_)]])
def test_forward_rejects_bool_prefix(params, prefix):
    """A bool is not a token id, though numpy reads True as 1 (BOS)."""
    with pytest.raises(BadPrefix, match="not all ints"):
        forward(params, [FEATS], prefix)


@pytest.mark.parametrize("feats, prefix, message", [
    ([FEATS, FEATS], [[BOS, 5], [BOS]], "do not form an array"),
    ([FEATS], [[BOS] * (CFG.max_len + 1)], "longer than max_len"),
    ([FEATS], [PREFIX, PREFIX], "2 prefixes but 1 feature matrices"),
])
def test_forward_rejects_batch_shape(params, feats, prefix, message):
    """Ragged prefix rows, a prefix past max_len, and a prefix count other
    than the feature count each raise BadPrefix."""
    with pytest.raises(BadPrefix, match=message):
        forward(params, feats, prefix)


def test_decoder_step_rejects_id_count(params):
    cache = DecoderCache(params, [FEATS, FEATS])
    with pytest.raises(BadPrefix, match="1 token ids for 2 rows"):
        cache.step([BOS])


def _mixed_batch(rng):
    """Rows of different caption lengths (one of max_len ids) with clips of
    different T."""
    lengths = [3, CFG.max_len, 5, 2]
    rows = [[BOS, *rng.integers(4, CFG.vocab_size, n - 2), EOS] for n in lengths]
    feats = [rng.normal(size=(T, CFG.feature_dim)) for T in (4, 1, 7, 4)]
    return rows, feats


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_batch_matches_single_rows(n_heads):
    """One padded batch gives each row's loss, and the mean of the rows'
    gradients, as one-row forwards do."""
    params = init_params(ModelConfig(**{**CFG.__dict__, "n_heads": n_heads}))
    rows, feats = _mixed_batch(np.random.default_rng(n_heads))
    prefix, targets, r, n = _pad_rows(rows, np.ones(len(rows)))
    trace = forward(params, feats, prefix, train=True)
    losses, glog = _token_loss(trace.logits.value, targets, r, n)
    grads = backward(trace, glog)

    want = {name: np.zeros_like(t) for name, t in params.tensors.items()}
    for row, f, loss in zip(rows, feats, losses):
        one = forward(params, [f], [row[:-1]], train=True)
        (l1,), g1 = xent(one.logits.value, [row[1:]], np.ones((1, len(row) - 1)))
        assert loss == pytest.approx(l1, rel=1e-12, abs=1e-12)
        for name, g in backward(one, g1).items():
            want[name] += g / len(rows)
    for name in want:
        assert np.allclose(grads[name], want[name], rtol=1e-12, atol=1e-12), name


def test_batch_incremental_decode_matches_forward():
    """Stepping a cached batch in lockstep equals a full batched forward at
    every position of every row, padding included."""
    for n_heads in (1, 2, 4):
        params = init_params(ModelConfig(**{**CFG.__dict__, "n_heads": n_heads}))
        rows, feats = _mixed_batch(np.random.default_rng(10 + n_heads))
        ids = np.hstack([_pad_rows(rows, np.ones(len(rows)))[0], np.full((len(rows), 1), PAD)])
        full = forward(params, feats, ids)
        cache = DecoderCache(params, feats)
        stepped = np.stack([cache.step(ids[:, t]) for t in range(ids.shape[1])], axis=1)
        assert stepped.shape == full.shape == (len(rows), CFG.max_len, CFG.vocab_size)
        assert np.allclose(stepped, full, atol=1e-10), n_heads
        for row, f, logits in zip(ids, feats, full):
            assert np.allclose(forward(params, [f], [row])[0], logits, atol=1e-10)


@pytest.mark.parametrize("bad", [[FEATS[:, :5]], [FEATS[None]], [FEATS[:0]], [FEATS[0]], FEATS, []])
def test_decoder_cache_rejects_bad_features(params, bad):
    """The features of forward, DecoderCache and rollout are a sequence of
    T x feature_dim matrices, T >= 1; one bare matrix is not a batch of one."""
    with pytest.raises(BadPrefix):
        DecoderCache(params, bad)
    with pytest.raises(BadPrefix):
        forward(params, bad, [[BOS]] * max(len(bad), 1))
    with pytest.raises(BadPrefix):
        rollout(params, bad, [None] * max(len(bad), 1))


@pytest.mark.parametrize("bad", [CFG.vocab_size, 40, -1, 2.0, True, False])
def test_decoder_step_rejects_token_outside_vocab(params, bad):
    cache = DecoderCache(params, [FEATS])
    cache.step([BOS])
    with pytest.raises(BadPrefix):
        cache.step([bad])
    assert np.allclose(cache.step([5]), forward(params, [FEATS], [[BOS, 5]])[:, -1], atol=1e-10)


# ---------------------------------------------------------------------------
# unit-reward loss

def test_xent_uniform():
    loss, _ = xent(np.zeros((1, 1, 10)), [[3]], [[1]])
    assert loss[0] == pytest.approx(math.log(10))


def test_xent_confident():
    logits = np.zeros((1, 1, 10))
    logits[0, 0, 3] = 50.0
    loss, _ = xent(logits, [[3]], [[1]])
    assert loss[0] < 1e-6


def test_xent_grad_is_finite_difference():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(1, 3, 7))
    targets = [[1, 4, 2]]
    mask = [[1, 1, 0]]
    _, grad = xent(logits, targets, mask)
    h = 1e-6
    for i in range(3):
        for j in range(7):
            logits[0, i, j] += h
            (up,), _ = xent(logits, targets, mask)
            logits[0, i, j] -= 2 * h
            (dn,), _ = xent(logits, targets, mask)
            logits[0, i, j] += h
            assert grad[0, i, j] == pytest.approx((up - dn) / (2 * h), abs=1e-8)


def test_xent_is_unit_reward_scst_loss_bit_for_bit():
    """MLE is SCST with unit rewards. On seeded batches of ragged rows,
    `_token_loss` gives each row the textbook -(1/n_i) sum_t r_it log
    p(target_it) and the logits the textbook gradient r_it / (n_i B) *
    (softmax - onehot), all bit for bit, both at r = 1 on the real targets
    (the masked cross entropy that `xent` and MLE run) and at signed rewards."""
    for seed in range(300):
        rng = np.random.default_rng(seed)
        B, L, V = int(rng.integers(1, 6)), int(rng.integers(1, 12)), int(rng.integers(2, 30))
        logits = rng.normal(scale=float(rng.uniform(0.1, 20.0)), size=(B, L, V))
        targets = rng.integers(V, size=(B, L))
        n = rng.integers(1, L + 1, size=B)
        mask = (np.arange(L) < n[:, None]).astype(float)
        signed = rng.normal(size=(B, 1)) * mask
        lp = oracle_log_softmax(logits)
        rows, cols = np.arange(B)[:, None], np.arange(L)
        for r, (loss, grad) in [(mask, xent(logits, targets, mask)), (signed, _token_loss(logits, targets, signed, n))]:
            for i in range(B):
                assert loss[i] == float(-(r[i] * lp[i, cols, targets[i]]).sum() / n[i])
            w = r / n[:, None] / B
            want = w[..., None] * np.exp(lp)
            want[rows, cols, targets] -= w
            assert grad.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# backward

def _end_to_end_grads(params, prefix=PREFIX, targets=(5, 6, 7, EOS), mask=(1, 1, 1, 1)):
    trace = forward(params, [FEATS], [prefix], train=True)
    loss, glog = xent(trace.logits.value, [targets], [mask])
    return loss[0], backward(trace, glog)


def test_backward_finite_difference(params):
    _, grads = _end_to_end_grads(params)
    rng = np.random.default_rng(1)
    names = sorted(params.tensors)
    for _ in range(20):
        name = names[rng.integers(len(names))]
        arr = params.tensors[name]
        idx = tuple(rng.integers(s) for s in arr.shape)
        h = 1e-4
        orig = arr[idx]
        arr[idx] = orig + h
        (up,), _ = xent(forward(params, [FEATS], [PREFIX]), [[5, 6, 7, EOS]], [[1, 1, 1, 1]])
        arr[idx] = orig - h
        (dn,), _ = xent(forward(params, [FEATS], [PREFIX]), [[5, 6, 7, EOS]], [[1, 1, 1, 1]])
        arr[idx] = orig
        fd = (up - dn) / (2 * h)
        an = grads[name][idx]
        assert abs(an - fd) / max(1.0, abs(an)) < 1e-4


def test_backward_zero_upstream(params):
    trace = forward(params, [FEATS], [PREFIX], train=True)
    grads = backward(trace, np.zeros_like(trace.logits.value))
    assert all(np.all(g == 0.0) for g in grads.values())


def test_training_forward_tape_length(params):
    """One op each for the embedding, the self-attention keys and values, the
    feature projection and its cross-attention keys and values, and the
    block's 12: 18 in all, for one row and for a batch of 8."""
    assert len(forward(params, [FEATS], [PREFIX], train=True).tape) == 18
    batch = np.array([PREFIX] * 8)
    assert len(forward(params, [FEATS] * 8, batch, train=True).tape) == 18


def _vars_made(monkeypatch) -> list:
    """Every Var made from now on, in the order made."""
    made, init = [], ad.Var.__init__

    def recorded(self, value):
        init(self, value)
        made.append(self)

    monkeypatch.setattr(ad.Var, "__init__", recorded)
    return made


@pytest.mark.parametrize("reward", [1.0, 0.0])
def test_training_forward_vars_all_get_gradients(params, monkeypatch, reward):
    """A training forward on clips of 9, 7 and 5 frames, whose cross-attention
    key bias hides the padded frames, makes 35 Vars: the 17 parameters and
    the 18 op outputs. `backward` reaches each of them, so each holds a
    gradient of its value's shape, even when every reward is 0."""
    rng = np.random.default_rng(5)
    feats = [rng.normal(size=(T, CFG.feature_dim)) for T in (9, 7, 5)]
    assert seqmodel._check_features(CFG, feats)[1] is not None
    rows = [[BOS, 5, 6, 7, EOS], [BOS, 8, EOS], [BOS, 4, 9, EOS]]
    prefix, targets, r, n = _pad_rows(rows, np.full(3, reward))
    made = _vars_made(monkeypatch)
    trace = forward(params, feats, prefix, train=True)
    assert len(made) == 35 and len(trace.param_vars) == len(PARAM_SHAPES) == 17
    assert {id(v) for v in trace.param_vars.values()} <= {id(v) for v in made}
    assert len(trace.tape) == 18
    backward(trace, _token_loss(trace.logits.value, targets, r, n)[1])
    assert all(v.grad is not None and v.grad.shape == v.value.shape for v in made)


def test_rollout_makes_no_vars(params, monkeypatch):
    """Decoding runs without a tape: 2 greedy and 2 sampled rows make no Var."""
    made = _vars_made(monkeypatch)
    rollout(params, [FEATS, FEATS[:3], FEATS[:2], FEATS], [None, None, 1, 2])
    assert made == []


def test_tied_embedding_gradient_sums_both_roles(params):
    """The tied tensor's gradient equals embedding-gather plus output-projection
    contributions computed from an untied twin."""
    _, grads = _end_to_end_grads(params)

    # untied twin: the same block with an independent copy of the output matrix
    tape = []
    P = {k: ad.Var(v) for k, v in params.tensors.items()}
    out_proj = ad.Var(params.tensors["tok_emb"].copy())
    x = ad.embed(tape, P["tok_emb"], P["pos_emb"], PREFIX, 0)
    logits = seqmodel._block(
        tape, {**P, "tok_emb": out_proj}, x, ad.matmul(tape, x, P["sa_k"]), ad.matmul(tape, x, P["sa_v"]),
        np.triu(np.full((len(PREFIX),) * 2, seqmodel.MASKED), k=1), *seqmodel._cross_kv(tape, P, FEATS), None,
        CFG.n_heads,
    )
    _, glog = xent(logits.value[None], [[5, 6, 7, EOS]], [[1, 1, 1, 1]])
    backward(seqmodel.ForwardTrace(logits=logits, tape=tape, param_vars=P), glog[0])

    untied_sum = P["tok_emb"].grad + out_proj.grad
    assert np.allclose(grads["tok_emb"], untied_sum, atol=1e-10)


# ---------------------------------------------------------------------------
# adam

def test_adam_zero_grad(params):
    before = params.flat.copy()
    adam_step(params, {n: np.zeros_like(t) for n, t in params.tensors.items()}, AdamState())
    assert np.array_equal(params.flat, before)


def test_adam_first_step_direction(params):
    g = {n: np.full_like(t, 0.5) for n, t in params.tensors.items()}
    before = params.flat.copy()
    adam_step(params, g, AdamState(), lr=1e-3)
    expect = -1e-3 * 0.5 / (0.5 + 1e-8)
    assert np.allclose(params.flat - before, expect, atol=1e-9)


def test_adam_deterministic(params):
    twin = ModelParams(params.config, params.flat.copy())
    g = {n: np.random.default_rng(4).normal(size=t.shape) for n, t in params.tensors.items()}
    s1, s2 = AdamState(), AdamState()
    for _ in range(3):
        adam_step(params, g, s1)
        adam_step(twin, g, s2)
    for n in params.tensors:
        assert np.array_equal(params.tensors[n], twin.tensors[n])


def test_adam_state_allocated_once_and_update_unchanged(params):
    """Adam's flat m, v and scratch vectors are allocated on the first step and
    reused after; three seeded steps match a per-tensor reference of the update
    bit for bit."""
    ref = {n: t.copy() for n, t in params.tensors.items()}
    ref_m = {n: np.zeros_like(t) for n, t in ref.items()}
    ref_v = {n: np.zeros_like(t) for n, t in ref.items()}
    state = AdamState()
    rng = np.random.default_rng(8)
    for t in range(1, 4):
        g = {n: rng.normal(size=p.shape) for n, p in params.tensors.items()}
        adam_step(params, g, state, lr=1e-2)
        if t == 1:
            first = (state.m, state.v, state.g, state.tmp)
        assert all(a is b for a, b in zip((state.m, state.v, state.g, state.tmp), first))
        for n in params.tensors:
            m, v = ref_m[n], ref_v[n]
            m += (1.0 - 0.9) * (g[n] - m)
            v += (1.0 - 0.999) * (g[n] * g[n] - v)
            mhat = m / (1.0 - 0.9**t)
            vhat = v / (1.0 - 0.999**t)
            ref[n] -= 1e-2 * mhat / (np.sqrt(vhat) + 1e-8)
    assert state.m.shape == params.flat.shape
    assert state.m.tobytes() == b"".join(ref_m[n].tobytes() for n in params.tensors)
    assert state.v.tobytes() == b"".join(ref_v[n].tobytes() for n in params.tensors)
    for n in params.tensors:
        assert params.tensors[n].tobytes() == ref[n].tobytes()


# ---------------------------------------------------------------------------
# train_mle

VOCAB = Vocab(tokens=RESERVED + tuple("abcdefgh"))  # CFG.vocab_size ids


def _one_row(features=FEATS):
    return Row(sample_id="s0", features=features, ref=Caption.make("b c d", "description"))  # ids 5, 6, 7


def test_train_mle_memorizes_one_sample(params):
    curve = train_mle(params, [_one_row()], epochs=50, batch_size=1, seed=0, vocab=VOCAB, lr=1e-2)
    assert curve[-1] < 0.1


def test_train_mle_zero_epochs(params):
    before = params.flat.copy()
    assert train_mle(params, [_one_row()], epochs=0, batch_size=1, seed=0, vocab=VOCAB) == []
    assert params.flat.tobytes() == before.tobytes()


def test_train_mle_deterministic():
    c1 = train_mle(init_params(CFG), [_one_row()], 5, 1, seed=9, vocab=VOCAB)
    c2 = train_mle(init_params(CFG), [_one_row()], 5, 1, seed=9, vocab=VOCAB)
    assert c1 == c2


def test_train_mle_non_finite_loss_fails_fast(params, monkeypatch):
    """A non-finite loss stops the step before backward and Adam run."""
    before = params.flat.copy()
    monkeypatch.setattr(seqmodel, "backward", lambda *_: pytest.fail("backward ran on a non-finite loss"))
    with pytest.raises(NumericFailure):
        train_mle(params, [_one_row(np.full_like(FEATS, np.nan))], epochs=2, batch_size=1, seed=0, vocab=VOCAB)
    assert np.array_equal(params.flat, before)


def test_train_mle_epoch_is_one_hand_composed_step():
    """A one-batch train_mle epoch is encode, _pad_rows, forward, xent,
    backward and adam_step, bit for bit; a caption longer than max_len - 2
    tokens trains truncated to max_len ids."""
    rng = np.random.default_rng(7)
    lengths = [1, CFG.max_len + 3, 3, 0]  # tokens per caption
    texts = [" ".join(VOCAB.tokens[i] for i in rng.integers(4, CFG.vocab_size, n)) for n in lengths]
    feats = [rng.normal(size=(T, CFG.feature_dim)) for T in (4, 1, 7, 4)]
    rows = [Row(f"s{k}", f, Caption.make(t, "description")) for k, (f, t) in enumerate(zip(feats, texts))]
    ids = [encode(VOCAB, list(r.ref.tokens), CFG.max_len) for r in rows]
    assert len(rows[1].ref.tokens) > CFG.max_len - 2 and len(ids[1]) == CFG.max_len
    params, ref = init_params(CFG), init_params(CFG)
    curve = train_mle(params, rows, epochs=1, batch_size=len(rows), seed=4, vocab=VOCAB, lr=1e-2)

    order = np.random.default_rng(4).permutation(len(rows))
    prefix, targets, _, n = _pad_rows([ids[i] for i in order], np.ones(len(rows)))
    trace = forward(ref, [feats[i] for i in order], prefix, train=True)
    loss, glogits = xent(trace.logits.value, targets, np.arange(targets.shape[1]) < n[:, None])
    adam_step(ref, backward(trace, glogits), AdamState(), lr=1e-2)
    assert curve == [float(np.mean(loss))]
    assert params.flat.tobytes() == ref.flat.tobytes()
    assert not np.array_equal(ref.flat, init_params(CFG).flat)


def test_train_mle_empty_dataset(params):
    with pytest.raises(EmptyDataset):
        train_mle(params, [], 1, 1, seed=0, vocab=VOCAB)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip(tmp_path, params):
    path = os.path.join(tmp_path, "model.ckpt")
    save_checkpoint(params, path, extra={"vocab": ["<pad>", "<bos>", "<eos>", "<unk>", "a"]})
    loaded, extra = load_checkpoint(path)
    assert loaded.config == params.config
    assert extra["vocab"][4] == "a"
    for n in params.tensors:
        assert np.array_equal(loaded.tensors[n], params.tensors[n])


def test_checkpoint_bit_exact_subnormals(tmp_path, params):
    params.tensors["sa_q"][0, 0] = 5e-324  # smallest subnormal double
    path = os.path.join(tmp_path, "model.ckpt")
    save_checkpoint(params, path)
    loaded, _ = load_checkpoint(path)
    assert loaded.tensors["sa_q"][0, 0] == 5e-324


def test_checkpoint_truncated_at_every_offset(tmp_path):
    params = init_params(ModelConfig(vocab_size=5, feature_dim=1, d_model=2, n_heads=1, max_len=2))
    path = os.path.join(tmp_path, "model.ckpt")
    save_checkpoint(params, path, extra={"vocab": ["<pad>", "<bos>", "<eos>", "<unk>", "a"]})
    with open(path, "rb") as f:
        blob = f.read()
    for n in range(len(blob)):
        with open(path, "wb") as f:
            f.write(blob[:n])
        with pytest.raises(TruncatedFile):
            load_checkpoint(path)


def _write_checkpoint(path, header: bytes, payload=b""):
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC + struct.pack("<II", CKPT_VERSION, len(header)) + header + payload)


def _split_checkpoint(path):
    """(header dict, tensor bytes) of a checkpoint file."""
    with open(path, "rb") as f:
        blob = f.read()
    (hlen,) = struct.unpack("<I", blob[8:12])
    return json.loads(blob[12 : 12 + hlen]), blob[12 + hlen :]


def test_checkpoint_layout(tmp_path, params):
    """CKPT, u32 version, u32 header length, a JSON header without a manifest,
    then each tensor in PARAM_SHAPES order."""
    path = os.path.join(tmp_path, "model.ckpt")
    save_checkpoint(params, path, extra={"vocab": ["<pad>"]})
    with open(path, "rb") as f:
        blob = f.read()
    assert blob[:4] == b"CKPT" and struct.unpack("<I", blob[4:8]) == (1,)
    header, payload = _split_checkpoint(path)
    assert set(header) == {"config", "vocab"}
    assert payload == b"".join(params.tensors[name].astype("<f8").tobytes() for name, _ in PARAM_SHAPES)
    assert payload == params.flat.astype("<f8").tobytes()


def test_checkpoint_payload_longer_than_header(tmp_path, params):
    """A header config smaller than the payload would read misaligned weights."""
    path = os.path.join(tmp_path, "model.ckpt")
    save_checkpoint(params, path)
    header, payload = _split_checkpoint(path)
    header["config"]["d_model"] = 8
    _write_checkpoint(path, json.dumps(header).encode("utf-8"), payload)
    with pytest.raises(DimensionMismatch, match=f"file has {12 + len(json.dumps(header)) + len(payload)}"):
        load_checkpoint(path)


def test_checkpoint_corrupt_json_header(tmp_path):
    path = os.path.join(tmp_path, "model.ckpt")
    for header in (b'{"config": {"vocab_size": 12,', b"\xff\xfe not utf-8"):
        _write_checkpoint(path, header)
        with pytest.raises(InvalidConfig):
            load_checkpoint(path)


@pytest.mark.parametrize("edit", ["bad_config", "n_heads=0", "n_heads=0.5", "n_heads=-2"])
def test_checkpoint_manifest_mismatch(tmp_path, params, edit):
    path = os.path.join(tmp_path, "model.ckpt")
    save_checkpoint(params, path)
    header, payload = _split_checkpoint(path)
    if edit == "bad_config":
        header["config"]["d_model"] = 15
    else:
        header["config"]["n_heads"] = json.loads(edit.partition("=")[2])
    _write_checkpoint(path, json.dumps(header).encode("utf-8"), payload)
    with pytest.raises(InvalidConfig):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", ["no_config", "missing_key", "unknown_key"])
def test_checkpoint_config_keys(tmp_path, params, edit):
    """A header without a config, or whose config lacks a field or holds an
    unknown one, raises InvalidConfig."""
    path = os.path.join(tmp_path, "model.ckpt")
    save_checkpoint(params, path)
    header, payload = _split_checkpoint(path)
    if edit == "no_config":
        del header["config"]
    elif edit == "missing_key":
        del header["config"]["vocab_size"]
    else:
        header["config"]["bogus"] = 1
    _write_checkpoint(path, json.dumps(header).encode("utf-8"), payload)
    with pytest.raises(InvalidConfig, match="checkpoint config unreadable"):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path, params):
    path = os.path.join(tmp_path, "model.ckpt")
    save_checkpoint(params, path)
    with open(path, "rb") as f:
        blob = f.read()
    for head in (b"AVDF", b"CKPX", b"XKPT"):
        with open(path, "wb") as f:
            f.write(head + blob[4:])
        with pytest.raises(BadMagic):
            load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path, params):
    path = os.path.join(tmp_path, "model.ckpt")
    save_checkpoint(params, path)
    with open(path, "rb") as f:
        blob = bytearray(f.read())
    for version in (0, 2, 2**32 - 1):
        blob[4:8] = struct.pack("<I", version)
        with open(path, "wb") as f:
            f.write(blob)
        with pytest.raises(BadVersion):
            load_checkpoint(path)


def test_checkpoint_old_layout_is_bad_magic(tmp_path, params):
    """The manifest layout (u32 header length, JSON header with name, shape and
    offset of each tensor, then the tensors) has no reader."""
    path = os.path.join(tmp_path, "model.ckpt")
    manifest, blobs, offset = [], [], 0
    for name in sorted(params.tensors):
        arr = params.tensors[name].astype("<f8")
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(arr.tobytes())
        offset += arr.nbytes
    header = json.dumps({"config": asdict(params.config), "manifest": manifest}).encode("utf-8")
    with open(path, "wb") as f:
        f.write(struct.pack("<I", len(header)) + header + b"".join(blobs))
    with pytest.raises(BadMagic):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_tensor(tmp_path, params, value):
    params.tensors["ff_w2"][0, 0] = value
    path = os.path.join(tmp_path, "model.ckpt")
    save_checkpoint(params, path)
    with pytest.raises(NonFiniteValue):
        load_checkpoint(path)


# Fuzzing: any bytes must come out as a loaded model or a CapkitError.

TINY = init_params(ModelConfig(vocab_size=5, feature_dim=1, d_model=2, n_heads=1, max_len=2))


def _load_only_capkit_errors(tmp_path_factory, blob: bytes):
    path = os.path.join(tmp_path_factory.getbasetemp(), "fuzz.ckpt")
    with open(path, "wb") as f:
        f.write(blob)
    try:
        load_checkpoint(path)
    except CapkitError:
        pass


@settings(max_examples=300)
@given(st.binary(max_size=256))
def test_checkpoint_reader_fuzz_whole_file(tmp_path_factory, blob):
    _load_only_capkit_errors(tmp_path_factory, blob)


@settings(max_examples=300)
@given(st.binary(max_size=128), st.binary(max_size=64))
def test_checkpoint_reader_fuzz_framed_header(tmp_path_factory, header, payload):
    _load_only_capkit_errors(
        tmp_path_factory, CKPT_MAGIC + struct.pack("<II", CKPT_VERSION, len(header)) + header + payload
    )


JSON_VALUES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 2**70)
    | st.floats()
    | st.text(max_size=3)
    | st.lists(st.integers(-2, 5), max_size=3)
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
)


@settings(max_examples=300)
@given(
    st.sampled_from(["vocab_size", "feature_dim", "d_model", "n_heads", "max_len", "seed"]),
    JSON_VALUES,
    st.integers(0, 200),
)
def test_checkpoint_reader_fuzz_header_field(tmp_path_factory, key, value, cut):
    """A valid tiny checkpoint with one config value replaced, optionally with
    its payload cut short."""
    path = os.path.join(tmp_path_factory.getbasetemp(), "fuzz.ckpt")
    save_checkpoint(TINY, path)
    header, payload = _split_checkpoint(path)
    header["config"][key] = value
    head = json.dumps(header).encode("utf-8")
    _load_only_capkit_errors(
        tmp_path_factory,
        CKPT_MAGIC + struct.pack("<II", CKPT_VERSION, len(head)) + head + payload[: len(payload) - cut],
    )
