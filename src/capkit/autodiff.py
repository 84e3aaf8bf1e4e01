"""Minimal reverse-mode differentiation over numpy arrays.

Ops accept either a `Var` (tracked) or a plain ndarray (constant). When the
tape is None every op degrades to its plain numpy forward computation, so the
same model code serves both training and inference.

The op set is the decoder's and no more: the token-plus-position `embed`,
`matmul`, `matmul_nt`, `add`, `relu`, `layer_norm` and multi-head `attention`.
"""
from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-6


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
    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)


def val(x):
    return x.value if isinstance(x, Var) else x


def _out(tape, value):
    return Var(value) if tape is not None else value


def matmul(tape, a, b):
    av, bv = val(a), val(b)
    out = _out(tape, av @ bv)
    if tape is not None:
        def back():
            g = out.grad
            if isinstance(a, Var):
                a.grad += g @ bv.T
            if isinstance(b, Var):
                b.grad += av.T @ g
        tape.record(back)
    return out


def matmul_nt(tape, a, b):
    """a @ b.T without materializing the transpose on the tape."""
    av, bv = val(a), val(b)
    out = _out(tape, av @ bv.T)
    if tape is not None:
        def back():
            g = out.grad
            if isinstance(a, Var):
                a.grad += g @ bv
            if isinstance(b, Var):
                b.grad += g.T @ av
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
                a.grad += g
            if isinstance(b, Var):
                b.grad += g
        tape.record(back)
    return out


def relu(tape, a):
    av = val(a)
    out_v = np.maximum(av, 0.0)
    out = _out(tape, out_v)
    if tape is not None:
        def back():
            if isinstance(a, Var):
                a.grad += out.grad * (av > 0.0)
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
                gain.grad += (g * xhat).sum(axis=tuple(range(g.ndim - 1)))
            if isinstance(bias, Var):
                bias.grad += g.sum(axis=tuple(range(g.ndim - 1)))
            if isinstance(x, Var):
                gx = g * gv
                m1 = gx.mean(axis=-1, keepdims=True)
                m2 = (gx * xhat).mean(axis=-1, keepdims=True)
                x.grad += inv * (gx - m1 - xhat * m2)
        tape.record(back)
    return out


def embed(tape, tok, pos, ids, start: int):
    """tok[ids] + pos[start:start + len(ids)]: token rows plus the position rows
    they sit at. A repeated id accumulates its rows' gradients."""
    ids = np.asarray(ids, dtype=np.intp)
    hi = start + len(ids)
    out = _out(tape, val(tok)[ids] + val(pos)[start:hi])
    if tape is not None:
        def back():
            if isinstance(tok, Var):
                np.add.at(tok.grad, ids, out.grad)
            if isinstance(pos, Var):
                pos.grad[start:hi] += out.grad
        tape.record(back)
    return out


def _split_heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """L x d -> n_heads x L x (d / n_heads), as a view."""
    L, d = a.shape
    return a.reshape(L, n_heads, d // n_heads).transpose(1, 0, 2)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """n_heads x L x dh -> L x (n_heads * dh)."""
    h, L, dh = a.shape
    return a.transpose(1, 0, 2).reshape(L, h * dh)


def attention(tape, q, k, v, n_heads: int, causal: bool):
    """Multi-head softmax(q k^T / sqrt(dh) + mask) v for Lq x d queries against
    Lk x d keys and values. Under `causal`, query i sees key j only when
    j <= i + Lk - Lq, so a full prefix and one cached query follow one rule."""
    qh, kh, vh = _split_heads(val(q), n_heads), _split_heads(val(k), n_heads), _split_heads(val(v), n_heads)
    Lq, Lk = qh.shape[1], kh.shape[1]
    c = 1.0 / math.sqrt(qh.shape[2])
    s = (qh @ kh.transpose(0, 2, 1)) * c
    if causal and Lq > 1:
        s += np.triu(np.full((Lq, Lk), -1e9), k=Lk - Lq + 1)
    s -= s.max(axis=-1, keepdims=True)
    p = np.exp(s)
    p /= p.sum(axis=-1, keepdims=True)
    out = _out(tape, _merge_heads(p @ vh))
    if tape is not None:
        def back():
            g = _split_heads(out.grad, n_heads)
            if isinstance(v, Var):
                v.grad += _merge_heads(p.transpose(0, 2, 1) @ g)
            gp = g @ vh.transpose(0, 2, 1)
            gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * c
            if isinstance(q, Var):
                q.grad += _merge_heads(gs @ kh)
            if isinstance(k, Var):
                k.grad += _merge_heads(gs.transpose(0, 2, 1) @ qh)
        tape.record(back)
    return out

