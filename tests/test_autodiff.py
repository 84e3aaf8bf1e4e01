"""Finite-difference checks for every tape primitive in isolation."""
import inspect

import numpy as np
import pytest

from capkit import autodiff as ad

RNG = np.random.default_rng(42)


def fd_check(fn, shapes, h=1e-6, tol=1e-7, n_probe=10):
    """Central-difference check of fn(*vars) -> Var against the tape gradient."""
    inputs = [RNG.normal(size=s) for s in shapes]

    def run(arrs, tape=None):
        vs = [ad.Var(a) for a in arrs] if tape else list(arrs)
        out = fn(tape, *vs)
        return out, vs

    tape = ad.Tape()
    out, vs = run(inputs, tape)
    seed = RNG.normal(size=out.value.shape)
    out.accumulate(seed)
    tape.run_backward()

    rng = np.random.default_rng(7)
    for _ in range(n_probe):
        k = int(rng.integers(len(inputs)))
        idx = tuple(rng.integers(s) for s in inputs[k].shape)
        orig = inputs[k][idx]
        inputs[k][idx] = orig + h
        up, _ = run(inputs)
        inputs[k][idx] = orig - h
        dn, _ = run(inputs)
        inputs[k][idx] = orig
        fd = float(((ad.val(up) - ad.val(dn)) * seed).sum()) / (2 * h)
        an = vs[k].grad[idx]
        assert abs(an - fd) <= tol * max(1.0, abs(an)), (k, idx, an, fd)


def test_matmul():
    fd_check(lambda t, a, b: ad.matmul(t, a, b), [(3, 4), (4, 5)])


def test_matmul_nt():
    fd_check(lambda t, a, b: ad.matmul_nt(t, a, b), [(3, 4), (5, 4)])


def test_relu():
    fd_check(lambda t, a: ad.relu(t, a), [(4, 6)])


def test_layer_norm():
    """The norm of a sum of one, two or three tracked terms, each of which gets
    the input gradient, and of a tracked term plus a constant (a plain
    ndarray, which gets none and is left as it was)."""
    for n in (1, 2, 3):
        fd_check(lambda t, g, b, *xs: ad.layer_norm(t, xs, g, b), [(6,), (6,)] + [(3, 6)] * n, tol=1e-6, n_probe=30)
    c = RNG.normal(size=(3, 6))
    c0 = c.copy()
    fd_check(lambda t, x, g, b: ad.layer_norm(t, (x, c), g, b), [(3, 6), (6,), (6,)], tol=1e-6)
    assert np.array_equal(c, c0)


def test_layer_norm_term_order():
    """The block's residual terms (sa, ca, x) sum to x + (sa + ca) bit for bit,
    the order the model's parameters were trained in."""
    sa, ca, x = (RNG.normal(size=(4, 8)) for _ in range(3))
    g, b = RNG.normal(size=8), RNG.normal(size=8)
    assert np.array_equal(ad.layer_norm(None, (sa, ca, x), g, b), ad.layer_norm(None, (x + (sa + ca),), g, b))


@pytest.mark.parametrize("n_heads", [1, 2])
def test_attention_causal_self(n_heads):
    fd_check(lambda t, q, k, v: ad.attention(t, q, k, v, n_heads, True), [(5, 4), (5, 4), (5, 4)])


@pytest.mark.parametrize("n_heads", [1, 2])
def test_attention_cross_unequal_lengths(n_heads):
    fd_check(lambda t, q, k, v: ad.attention(t, q, k, v, n_heads, False), [(3, 4), (6, 4), (6, 4)])


@pytest.mark.parametrize("n_heads", [1, 2])
def test_attention_one_query_cached_keys(n_heads):
    fd_check(lambda t, q, k, v: ad.attention(t, q, k, v, n_heads, True), [(1, 4), (5, 4), (5, 4)])


def test_attention_causal_rule_matches_prefix_rows():
    """Query i of Lq sees the same keys as the last query of a prefix that
    ends at key i + Lk - Lq."""
    q, k, v = (RNG.normal(size=(6, 4)) for _ in range(3))
    full = ad.attention(None, q, k, v, 2, True)
    for i in range(6):
        row = ad.attention(None, q[i : i + 1], k[: i + 1], v[: i + 1], 2, True)
        assert np.allclose(row, full[i : i + 1], atol=1e-12)
    tail = ad.attention(None, q[3:], k, v, 2, True)
    assert np.allclose(tail, full[3:], atol=1e-12)


def test_softmax_rows_sum_to_one():
    """With scores scaled by 10 the attention weights still sum to one per
    query row and head, and every output stays finite."""
    q, k = RNG.normal(size=(6, 8)) * 10, RNG.normal(size=(9, 8))
    v = RNG.normal(size=(9, 8))
    for causal in (True, False):
        assert np.isfinite(ad.attention(None, q, k, v, 2, causal)).all()
        ones = ad.attention(None, q, k, np.ones_like(v), 2, causal)
        assert np.allclose(ones, 1.0, atol=1e-12)


@pytest.mark.parametrize("start", [0, 3])
def test_embed(start):
    """Repeated ids and rows at an offset into the position table."""
    ids = [0, 2, 2, 1]
    fd_check(lambda t, tok, pos: ad.embed(t, tok, pos, ids, start), [(3, 4), (7, 4)], n_probe=30)


def test_embed_accumulates_repeats():
    tok, pos = ad.Var(np.eye(3)), ad.Var(np.zeros((5, 3)))
    tape = ad.Tape()
    out = ad.embed(tape, tok, pos, [1, 1, 1], 2)
    out.accumulate(np.ones((3, 3)))
    tape.run_backward()
    assert np.array_equal(tok.grad, [[0.0] * 3, [3.0] * 3, [0.0] * 3])
    assert np.array_equal(pos.grad, [[0.0] * 3] * 2 + [[1.0] * 3] * 3)


# ---------------------------------------------------------------------------
# The plain-expression forms of `embed`, `layer_norm` and `attention`, kept as
# references: the ops, which reduce with ufuncs and work in place, must give
# their values bit for bit, forward and backward.

def ref_embed(tok, pos, ids, start, g):
    """Output, then the tok and pos gradients for output gradient g."""
    hi = start + ids.shape[-1]
    gt, gp = np.zeros_like(tok), np.zeros_like(pos)
    np.add.at(gt, ids, g)
    gp[start:hi] = g.reshape(-1, *g.shape[-2:]).sum(axis=0)
    return tok[ids] + pos[start:hi], gt, gp


def ref_layer_norm(terms, gv, bv, g):
    """Output, then the gain, bias and (shared) term gradients."""
    xv = sum(terms[1:], terms[0])
    xc = xv - xv.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + ad.LN_EPS)
    xhat = xc * inv
    axes = tuple(range(g.ndim - 1))
    gx = g * gv
    m1 = gx.mean(axis=-1, keepdims=True)
    m2 = (gx * xhat).mean(axis=-1, keepdims=True)
    return xhat * gv + bv, (g * xhat).sum(axis=axes), g.sum(axis=axes), inv * (gx - m1 - xhat * m2)


def ref_attention(q, k, v, n_heads, causal, key_bias, g):
    """Output, then the q, k and v gradients."""
    qh, kh, vh = (ad._split_heads(a, n_heads) for a in (q, k, v))
    Lq, Lk = qh.shape[-2], kh.shape[-2]
    c = 1.0 / np.sqrt(qh.shape[-1])
    s = (qh @ kh.swapaxes(-1, -2)) * c
    if causal and Lq > 1:
        s += np.triu(np.full((Lq, Lk), ad.MASKED), k=Lk - Lq + 1)
    if key_bias is not None:
        s += key_bias[..., None, None, :]
    s -= s.max(axis=-1, keepdims=True)
    p = np.exp(s)
    p /= p.sum(axis=-1, keepdims=True)
    gh = ad._split_heads(g, n_heads)
    gp = gh @ vh.swapaxes(-1, -2)
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * c
    merge = ad._merge_heads
    return merge(p @ vh), merge(gs @ kh), merge(gs.swapaxes(-1, -2) @ qh), merge(p.swapaxes(-1, -2) @ gh)


def taped(op, arrays, g):
    """The op's output on Vars of the arrays, then each array's gradient for
    output gradient g."""
    tape = ad.Tape()
    vs = [ad.Var(a) for a in arrays]
    out = op(tape, *vs)
    out.accumulate(g)
    tape.run_backward()
    return [out.value] + [v.grad for v in vs]


def assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape and np.array_equal(a, b), np.abs(a - b).max()
        assert np.array_equal(np.signbit(a), np.signbit(b))  # zero signs too


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (4, 1), (3, 7), (9,)])
@pytest.mark.parametrize("start", [0, 2])
def test_embed_matches_add_at(shape, start):
    """Repeated ids (5 rows of the table), one row, one position; some output
    gradients are -0.0, which a sum that starts from +0.0 turns into +0.0."""
    rng = np.random.default_rng(sum(shape) + start)
    ids = rng.integers(0, 5, size=shape)
    tok, pos = rng.normal(size=(5, 8)), rng.normal(size=(shape[-1] + start + 1, 8))
    g = rng.normal(size=(*shape, 8))
    g[rng.random(g.shape) < 0.3] = -0.0
    got = taped(lambda t, a, b: ad.embed(t, a, b, ids, start), [tok, pos], g)
    assert_same_bits(got, ref_embed(tok, pos, ids, start, g))


@pytest.mark.parametrize("n_terms", [2, 3])
@pytest.mark.parametrize("lead", [(6,), (4, 5)])
def test_layer_norm_matches_plain_form(n_terms, lead):
    rng = np.random.default_rng(n_terms + len(lead))
    for scale in (1e-3, 1.0, 1e3):
        terms = [rng.normal(size=(*lead, 8)) * scale for _ in range(n_terms)]
        gv, bv, g = rng.normal(size=8), rng.normal(size=8), rng.normal(size=(*lead, 8)) * scale
        got = taped(lambda t, gain, bias, *xs: ad.layer_norm(t, xs, gain, bias), [gv, bv, *terms], g)
        out, g_gain, g_bias, g_in = ref_layer_norm(terms, gv, bv, g)
        assert_same_bits(got, [out, g_gain, g_bias] + [g_in] * n_terms)


@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize(
    "lq, lk, causal, padded",
    [(6, 6, True, False), (1, 5, True, False), (4, 7, False, True)],
    ids=["causal-prefix", "cached-query", "key-bias"],
)
def test_attention_matches_plain_form(n_heads, lq, lk, causal, padded):
    """A causal full prefix, one cached query against its prefix's keys, and
    cross-attention whose key bias hides the last keys of some rows."""
    rng = np.random.default_rng(lq * 10 + lk + n_heads)
    B, d = 3, 8
    q, k, v = rng.normal(size=(B, lq, d)) * 3, rng.normal(size=(B, lk, d)), rng.normal(size=(B, lk, d))
    bias = np.where(np.arange(lk) < np.array([[lk], [lk - 2], [3]]), 0.0, ad.MASKED) if padded else None
    g = rng.normal(size=(B, lq, d))
    got = taped(lambda t, *qkv: ad.attention(t, *qkv, n_heads, causal, key_bias=bias), [q, k, v], g)
    assert_same_bits(got, ref_attention(q, k, v, n_heads, causal, bias, g))
    assert_same_bits([ad.attention(None, q, k, v, n_heads, causal, key_bias=bias)], got[:1])


def test_op_set():
    """The tape's ops are the decoder's six and no more."""
    ops = {
        name
        for name, fn in vars(ad).items()
        if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_")
    }
    assert ops - {"val"} == {"embed", "matmul", "matmul_nt", "relu", "layer_norm", "attention"}


def test_constants_are_untracked():
    tape = ad.Tape()
    a = ad.Var(np.ones((2, 2)))
    c = np.full((2, 2), 3.0)
    out = ad.matmul(tape, a, c)
    out.accumulate(np.ones((2, 2)))
    tape.run_backward()
    assert np.array_equal(a.grad, np.ones((2, 2)) @ c.T)


def test_no_tape_returns_ndarray():
    out = ad.matmul(None, np.ones((2, 2)), np.ones((2, 2)))
    assert isinstance(out, np.ndarray)


def test_backward_order_is_reversed():
    calls = []
    tape = ad.Tape()
    tape.record(lambda: calls.append("first"))
    tape.record(lambda: calls.append("second"))
    tape.run_backward()
    assert calls == ["second", "first"]
