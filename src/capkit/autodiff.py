"""Minimal reverse-mode differentiation over numpy arrays.

Ops accept either a `Var` (tracked) or a plain ndarray (constant). When the
tape is None every op degrades to its plain numpy forward computation, so the
same model code serves both training and inference.

The op set is the decoder's and no more: the token-plus-position `embed`,
`matmul`, `matmul_nt`, `add`, `relu`, `layer_norm` and multi-head `attention`.
Activations may carry any leading (batch) axes; weights are matrices or
vectors, and their gradients sum over those axes.
"""
from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-6
MASKED = -1e9  # additive score of a key a query must not see


class Tape:
    """Records backward closures; replayed in exact reverse order."""

    def __init__(self):
        self._ops = []

    def record(self, fn) -> None:
        self._ops.append(fn)

    def run_backward(self) -> None:
        for fn in reversed(self._ops):
            fn()


class Var:
    """A tracked value. Its gradient is allocated when the first contribution
    arrives; ops replace it by a sum and never update it in place, so one
    contribution array may be shared by several Vars."""

    __slots__ = ("value", "_grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self._grad = None

    @property
    def grad(self):
        """d(loss)/d(value); zeros while nothing has reached this Var."""
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    def accumulate(self, g) -> None:
        self._grad = g if self._grad is None else self._grad + g


def val(x):
    return x.value if isinstance(x, Var) else x


def _out(tape, value):
    return Var(value) if tape is not None else value


def _rows(a: np.ndarray) -> np.ndarray:
    """... x n -> (prod ...) x n, one BLAS call for every leading axis."""
    return a.reshape(-1, a.shape[-1])


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a with leading axes and a matrix b."""
    return (_rows(a) @ b).reshape(*a.shape[:-1], b.shape[-1])


def matmul(tape, a, b):
    """a @ b: a is ... x k, b a k x n matrix."""
    av, bv = val(a), val(b)
    out = _out(tape, _mm(av, bv))
    if tape is not None:
        def back():
            g = out.grad
            if isinstance(a, Var):
                a.accumulate(_mm(g, bv.T))
            if isinstance(b, Var):
                b.accumulate(_rows(av).T @ _rows(g))
        tape.record(back)
    return out


def matmul_nt(tape, a, b):
    """a @ b.T without materializing the transpose on the tape: a is ... x k,
    b an n x k matrix."""
    av, bv = val(a), val(b)
    out = _out(tape, _mm(av, bv.T))
    if tape is not None:
        def back():
            g = out.grad
            if isinstance(a, Var):
                a.accumulate(_mm(g, bv))
            if isinstance(b, Var):
                b.accumulate(_rows(g).T @ _rows(av))
        tape.record(back)
    return out


def add(tape, a, b):
    """a + b for operands of one shape (no broadcasting)."""
    av, bv = val(a), val(b)
    out = _out(tape, av + bv)
    if tape is not None:
        def back():
            g = out.grad
            if isinstance(a, Var):
                a.accumulate(g)
            if isinstance(b, Var):
                b.accumulate(g)
        tape.record(back)
    return out


def relu(tape, a):
    av = val(a)
    out_v = np.maximum(av, 0.0)
    out = _out(tape, out_v)
    if tape is not None:
        def back():
            if isinstance(a, Var):
                a.accumulate(out.grad * (av > 0.0))
        tape.record(back)
    return out


def layer_norm(tape, x, gain, bias):
    xv, gv, bv = val(x), val(gain), val(bias)
    xc = xv - xv.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + LN_EPS)
    xhat = xc * inv
    out = _out(tape, xhat * gv + bv)
    if tape is not None:
        def back():
            g = out.grad
            if isinstance(gain, Var):
                gain.accumulate((g * xhat).sum(axis=tuple(range(g.ndim - 1))))
            if isinstance(bias, Var):
                bias.accumulate(g.sum(axis=tuple(range(g.ndim - 1))))
            if isinstance(x, Var):
                gx = g * gv
                m1 = gx.mean(axis=-1, keepdims=True)
                m2 = (gx * xhat).mean(axis=-1, keepdims=True)
                x.accumulate(inv * (gx - m1 - xhat * m2))
        tape.record(back)
    return out


def embed(tape, tok, pos, ids, start: int):
    """tok[ids] + pos[start:start + L] for ids of shape ... x L: token rows plus
    the position rows they sit at. A repeated id accumulates its rows'
    gradients."""
    ids = np.asarray(ids, dtype=np.intp)
    hi = start + ids.shape[-1]
    out = _out(tape, val(tok)[ids] + val(pos)[start:hi])
    if tape is not None:
        def back():
            g = out.grad
            if isinstance(tok, Var):
                gt = np.zeros_like(tok.value)
                np.add.at(gt, ids, g)
                tok.accumulate(gt)
            if isinstance(pos, Var):
                gp = np.zeros_like(pos.value)
                gp[start:hi] = g.reshape(-1, *g.shape[-2:]).sum(axis=0)
                pos.accumulate(gp)
        tape.record(back)
    return out


def _split_heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """... x L x d -> ... x n_heads x L x (d / n_heads), as a view."""
    *lead, L, d = a.shape
    return a.reshape(*lead, L, n_heads, d // n_heads).swapaxes(-2, -3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """... x n_heads x L x dh -> ... x L x (n_heads * dh)."""
    *lead, h, L, dh = a.shape
    return a.swapaxes(-2, -3).reshape(*lead, L, h * dh)


def attention(tape, q, k, v, n_heads: int, causal: bool, key_bias=None):
    """Multi-head softmax(q k^T / sqrt(dh) + mask) v for ... x Lq x d queries
    against ... x Lk x d keys and values. Under `causal`, query i sees key j
    only when j <= i + Lk - Lq, so a full prefix and one cached query follow
    one rule. key_bias (... x Lk, 0 or MASKED) hides padded keys."""
    qh, kh, vh = _split_heads(val(q), n_heads), _split_heads(val(k), n_heads), _split_heads(val(v), n_heads)
    Lq, Lk = qh.shape[-2], kh.shape[-2]
    c = 1.0 / math.sqrt(qh.shape[-1])
    s = (qh @ kh.swapaxes(-1, -2)) * c
    if causal and Lq > 1:
        s += np.triu(np.full((Lq, Lk), MASKED), k=Lk - Lq + 1)
    if key_bias is not None:
        s += key_bias[..., None, None, :]
    s -= s.max(axis=-1, keepdims=True)
    p = np.exp(s)
    p /= p.sum(axis=-1, keepdims=True)
    out = _out(tape, _merge_heads(p @ vh))
    if tape is not None:
        def back():
            g = _split_heads(out.grad, n_heads)
            if isinstance(v, Var):
                v.accumulate(_merge_heads(p.swapaxes(-1, -2) @ g))
            gp = g @ vh.swapaxes(-1, -2)
            gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * c
            if isinstance(q, Var):
                q.accumulate(_merge_heads(gs @ kh))
            if isinstance(k, Var):
                k.accumulate(_merge_heads(gs.swapaxes(-1, -2) @ qh))
        tape.record(back)
    return out
