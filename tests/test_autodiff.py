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


def test_add():
    fd_check(lambda t, a, b: ad.add(t, a, b), [(3, 4), (3, 4)])


def test_relu():
    fd_check(lambda t, a: ad.relu(t, a), [(4, 6)])


def test_layer_norm():
    fd_check(lambda t, x, g, b: ad.layer_norm(t, x, g, b), [(3, 6), (6,), (6,)], tol=1e-6)


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


def test_op_set():
    """The tape's ops are the decoder's seven and no more."""
    ops = {
        name
        for name, fn in vars(ad).items()
        if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_")
    }
    assert ops - {"val"} == {"embed", "matmul", "matmul_nt", "add", "relu", "layer_norm", "attention"}


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
