"""Minimal reverse-mode differentiation over numpy arrays.

Every op takes a tape first: None, or a list to which it appends its one
backward closure, for the caller to replay last-first. Under a tape every
operand is a `Var`, except `matmul`'s left operand, which may be a plain
ndarray (the clip features) that gets no gradient. With None every op runs its
plain numpy forward, so the same model code serves training and inference.

The op set is the decoder's and no more: the token-plus-position `embed`,
`matmul`, `matmul_nt`, `relu`, `layer_norm` of a sum of residual terms and
multi-head `attention`. Activations may carry any leading (batch) axes;
weights are matrices or vectors, and their gradients sum over those axes.
"""
from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-6


class Var:
    """A tracked value and d(loss)/d(value) in `grad`: None until the first
    contribution arrives, then the sum of the contributions. A sum replaces
    `grad` and never updates it in place, so one contribution array may be
    shared by several Vars."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None

    def accumulate(self, g) -> None:
        self.grad = g if self.grad is None else self.grad + g


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
    """a @ b: a is ... x k, b a k x n matrix. Under a tape, a may be a plain
    ndarray, which gets no gradient."""
    av, bv = val(a), val(b)
    out = _out(tape, _mm(av, bv))
    if tape is not None:
        def back():
            g = out.grad
            if isinstance(a, Var):
                a.accumulate(_mm(g, bv.T))
            b.accumulate(_rows(av).T @ _rows(g))
        tape.append(back)
    return out


def matmul_nt(tape, a, b):
    """a @ b.T without materializing the transpose on the tape: a is ... x k,
    b an n x k matrix."""
    av, bv = val(a), val(b)
    out = _out(tape, _mm(av, bv.T))
    if tape is not None:
        def back():
            g = out.grad
            a.accumulate(_mm(g, bv))
            b.accumulate(_rows(g).T @ _rows(av))
        tape.append(back)
    return out


def relu(tape, a):
    av = val(a)
    out_v = np.maximum(av, 0.0)
    out = _out(tape, out_v)
    if tape is not None:
        def back():
            a.accumulate(out.grad * (av > 0.0))
        tape.append(back)
    return out


def layer_norm(tape, terms, gain, bias):
    """Layer norm of the sum of `terms`, two or more operands of one shape
    added left to right (a post-norm residual); every term gets the same input
    gradient.

    Each mean is `np.add.reduce / n`, which is how `np.mean` computes it, and
    the centring, scaling and backward steps run in place on arrays this op
    owns, so the values are those of the plain expressions term for term."""
    gv, bv = val(gain), val(bias)
    x = np.add(val(terms[0]), val(terms[1]))
    for t in terms[2:]:
        x += val(t)
    n = x.shape[-1]
    x -= np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(x * x, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = x
    xhat *= inv
    out_v = xhat * gv
    out_v += bv
    out = _out(tape, out_v)
    if tape is not None:
        def back():
            g = out.grad
            buf = g * xhat  # the one scratch buffer: g * xhat, then gx * xhat, then xhat * m2
            gain.accumulate(np.add.reduce(_rows(buf), axis=0))
            bias.accumulate(np.add.reduce(_rows(g), axis=0))
            gx = g * gv
            m1 = np.add.reduce(gx, axis=-1, keepdims=True) / n
            m2 = np.add.reduce(np.multiply(gx, xhat, out=buf), axis=-1, keepdims=True) / n
            gx -= m1
            gx -= np.multiply(xhat, m2, out=buf)
            gx *= inv  # inv * (gx - m1 - xhat * m2)
            for t in terms:
                t.accumulate(gx)
        tape.append(back)
    return out


def embed(tape, tok, pos, ids, start: int):
    """tok[ids] + pos[start:start + L] for ids of shape ... x L: token rows plus
    the position rows they sit at. A repeated id accumulates its rows'
    gradients, summed in row order by one `np.bincount` over the flat indices
    id * d + column: the sum that `np.add.at` forms, bit for bit."""
    ids = np.asarray(ids, dtype=np.intp)
    hi = start + ids.shape[-1]
    x = val(tok)[ids]
    x += val(pos)[start:hi]
    out = _out(tape, x)
    if tape is not None:
        def back():
            g = out.grad
            V, d = tok.value.shape
            flat = (ids[..., None] * d + np.arange(d)).ravel()
            tok.accumulate(np.bincount(flat, weights=g.ravel(), minlength=V * d).reshape(V, d))
            gp = np.zeros_like(pos.value)
            np.add.reduce(g.reshape(-1, *g.shape[-2:]), axis=0, out=gp[start:hi])
            pos.accumulate(gp)
        tape.append(back)
    return out


def _split_heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """... x L x d -> ... x n_heads x L x (d / n_heads), as a view."""
    *lead, L, d = a.shape
    return a.reshape(*lead, L, n_heads, d // n_heads).swapaxes(-2, -3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """... x n_heads x L x dh -> ... x L x (n_heads * dh)."""
    *lead, h, L, dh = a.shape
    return a.swapaxes(-2, -3).reshape(*lead, L, h * dh)


def attention(tape, q, k, v, n_heads: int, bias=None):
    """Multi-head softmax(q k^T / sqrt(dh) + bias) v for ... x Lq x d queries
    against ... x Lk x d keys and values. `bias`, when given, broadcasts
    against the ... x n_heads x Lq x Lk scores: 0 where a query may see a
    key, a large negative score where it may not.

    The scores are scaled, biased, shifted, exponentiated and normalised in
    place; the max and sum are the ufunc reductions that `max` and `sum` call."""
    qh, kh, vh = _split_heads(val(q), n_heads), _split_heads(val(k), n_heads), _split_heads(val(v), n_heads)
    c = 1.0 / math.sqrt(qh.shape[-1])
    s = qh @ kh.swapaxes(-1, -2)
    s *= c
    if bias is not None:
        s += bias
    s -= np.maximum.reduce(s, axis=-1, keepdims=True)
    p = np.exp(s, out=s)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    out = _out(tape, _merge_heads(p @ vh))
    if tape is not None:
        def back():
            g = _split_heads(out.grad, n_heads)
            v.accumulate(_merge_heads(p.swapaxes(-1, -2) @ g))
            gs = g @ vh.swapaxes(-1, -2)
            gs -= np.add.reduce(gs * p, axis=-1, keepdims=True)
            gs *= p
            gs *= c  # p * (gp - sum(gp * p)) * c
            q.accumulate(_merge_heads(gs @ kh))
            k.accumulate(_merge_heads(gs.swapaxes(-1, -2) @ qh))
        tape.append(back)
    return out
