"""Miniature conditional caption decoder with reverse-mode differentiation."""
from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .data import _Frame, _json_object, _write_frame
from .errors import CapkitError, NumericFailure
from .textproc import BOS, PAD, Caption, Vocab, encode

MASKED = -1e9  # the attention bias of a key a query must not see
PARAM_DTYPE = np.float32  # what `init_params` and `load_checkpoint` give; the model computes in `flat`'s dtype


@dataclass(frozen=True)
class ModelConfig:
    """The decoder's sizes and init seed; building one with an invalid field raises CapkitError."""

    vocab_size: int
    feature_dim: int
    d_model: int = 64
    n_heads: int = 2
    max_len: int = 24
    seed: int = 0

    def __post_init__(self) -> None:
        if not all(type(getattr(self, f.name)) is int for f in fields(self)):
            raise CapkitError("every model config field must be an int")
        if self.n_heads < 1:
            raise CapkitError("n_heads must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise CapkitError("d_model must be divisible by n_heads")
        if self.vocab_size < 5:
            raise CapkitError("vocab_size must be >= 5")
        if self.max_len < 2:
            raise CapkitError("max_len must be >= 2")
        if self.feature_dim < 1 or self.d_model < 1:
            raise CapkitError("dimensions must be positive")


@dataclass
class ModelParams:
    """Every parameter in one vector `flat`, in `_shapes` order; `tensors` holds its named views.

    The model computes in `flat`'s dtype: `forward`, `DecoderCache`, `backward`
    and `adam_step` give values, gradients and moments of that dtype. Production
    parameters are PARAM_DTYPE (float32); a test that needs float64 precision
    runs the same code on `ModelParams(config, flat.astype(np.float64))`."""

    config: ModelConfig
    flat: np.ndarray
    tensors: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names, shapes = zip(*_shapes(self.config))
        views = np.split(self.flat, np.cumsum([math.prod(shape) for shape in shapes])[:-1])
        self.tensors = {name: v.reshape(shape) for name, v, shape in zip(names, views, shapes)}


def _shapes(config: ModelConfig) -> list:
    """(name, shape) of every parameter tensor, in the one order that `flat`,
    `tensors` and the checkpoint payload share."""
    V, d, L, F = config.vocab_size, config.d_model, config.max_len, config.feature_dim
    return [
        ("tok_emb", (V, d)), ("pos_emb", (L, d)), ("feat_proj", (F, d)),
        ("sa_q", (d, d)), ("sa_k", (d, d)), ("sa_v", (d, d)), ("sa_o", (d, d)),
        ("ca_q", (d, d)), ("ca_k", (d, d)), ("ca_v", (d, d)), ("ca_o", (d, d)),
        ("ff_w1", (d, 4 * d)), ("ff_w2", (4 * d, d)),
        ("ln1_g", (d,)), ("ln1_b", (d,)), ("ln2_g", (d,)), ("ln2_b", (d,)),
    ]


def _size(config: ModelConfig) -> int:
    """The number of parameters, a Python int however large the config."""
    return sum(math.prod(shape) for _, shape in _shapes(config))


def init_params(config: ModelConfig) -> ModelParams:
    rng = np.random.default_rng(config.seed)
    size = _size(config)
    try:
        flat = np.empty(size, dtype=PARAM_DTYPE)
    except (MemoryError, ValueError) as e:  # numpy's "Unable to allocate" and "Maximum allowed dimension"
        raise CapkitError(f"a model of {size} parameters cannot be allocated: {e}") from e
    params = ModelParams(config, flat)
    for name, p in params.tensors.items():
        if name.startswith("ln"):
            p[...] = 1.0 if name.endswith("_g") else 0.0
        else:
            s = math.sqrt(6.0 / sum(p.shape))
            p[...] = rng.uniform(-s, s, size=p.shape)
    return params


@dataclass
class ForwardTrace:
    logits: ad.Var
    tape: list
    param_vars: dict


def _check_ids(config: ModelConfig, token_ids) -> np.ndarray:
    """token_ids as an intp array; CapkitError unless every id is an integer (not
    a bool) in 0..vocab_size-1."""
    try:
        ids = np.asarray(token_ids)
    except ValueError as e:  # ragged rows
        raise CapkitError(f"token ids do not form an array: {e}") from None
    # numpy stores [1, True] as ints, so a sequence's element types are read too
    bools = not isinstance(token_ids, np.ndarray) and {bool, np.bool_} & set(
        map(type, np.ravel(np.asarray(token_ids, dtype=object)))
    )
    if ids.dtype.kind not in "iu" or bools or ids.size and not (0 <= ids.min() and ids.max() < config.vocab_size):
        raise CapkitError(f"token ids {np.ravel(token_ids)[:8]!r} are not all ints in 0..{config.vocab_size - 1}")
    return ids.astype(np.intp, copy=False)


def _cast(values, dtype, what: str) -> np.ndarray:
    """values as an array of dtype; CapkitError naming `what` when a finite
    value is out of dtype's range (NaN and infinities pass unchanged)."""
    try:
        with np.errstate(over="raise"):
            return np.asarray(values, dtype=dtype)
    except FloatingPointError:
        raise CapkitError(f"{what} overflow {np.dtype(dtype).name}") from None


def _check_features(params: ModelParams, features):
    """Stack a batch's T_b x feature_dim matrices (T_b >= 1) into one zero-padded
    B x T x feature_dim array of `flat`'s dtype; return it and the B x 1 x 1 x T
    cross-attention bias, of the same dtype, that hides the padded frames (all
    zeros when no row is padded). CapkitError otherwise, and for a finite
    feature value that overflows the dtype."""
    config, dtype = params.config, params.flat.dtype
    rows = [_cast(f, dtype, "feature values") for f in features]
    if not rows or any(f.ndim != 2 or f.shape[0] < 1 or f.shape[1] != config.feature_dim for f in rows):
        raise CapkitError("features must be a sequence of B matrices T x feature_dim with T >= 1")
    lengths = np.array([f.shape[0] for f in rows])
    T = int(lengths.max())
    feats = np.zeros((len(rows), T, config.feature_dim), dtype=dtype)
    for dst, f in zip(feats, rows):
        dst[: len(f)] = f
    return feats, np.where(np.arange(T) < lengths[:, None, None, None], 0.0, MASKED).astype(dtype, copy=False)


def _cross_kv(tape, P, feats):
    """Cross-attention keys and values of the projected clip features."""
    fp = ad.matmul(tape, feats, P["feat_proj"])
    return ad.matmul(tape, fp, P["ca_k"]), ad.matmul(tape, fp, P["ca_v"])


def _block(tape, P, x, sa_k, sa_v, sa_bias, ca_k, ca_v, ca_bias, n_heads: int):
    """The decoder block from embedded inputs x (B x Lq x d) to tied logits.

    sa_k/sa_v hold the self-attention keys and values of every position up to
    and including x's last row, of which sa_bias hides each query's later
    positions; ca_k/ca_v those of the features, of which ca_bias hides the
    padded frames. A bias of 0.0 hides nothing.
    """
    sa = ad.attention(tape, ad.matmul(tape, x, P["sa_q"]), sa_k, sa_v, n_heads, sa_bias)
    ca = ad.attention(tape, ad.matmul(tape, x, P["ca_q"]), ca_k, ca_v, n_heads, ca_bias)
    sa = ad.matmul(tape, sa, P["sa_o"])
    ca = ad.matmul(tape, ca, P["ca_o"])
    x1 = ad.layer_norm(tape, (sa, ca, x), P["ln1_g"], P["ln1_b"])
    ff = ad.matmul(tape, ad.relu(tape, ad.matmul(tape, x1, P["ff_w1"])), P["ff_w2"])
    x2 = ad.layer_norm(tape, (ff, x1), P["ln2_g"], P["ln2_b"])
    return ad.matmul_nt(tape, x2, P["tok_emb"])


def forward(params: ModelParams, features, prefix_ids, train: bool = False):
    """Logits over the next token for every prefix position.

    The prefixes are a B x L array of BOS-initial rows, right-padded with any
    ids (causal attention hides them from the real positions), and `features`
    a sequence of B matrices T_b x feature_dim; the logits are B x L x |V|.
    In training mode returns a ForwardTrace carrying the tape and
    per-parameter Vars instead.
    """
    cfg = params.config
    ids = _check_ids(cfg, prefix_ids)
    if ids.ndim != 2 or ids.shape[1] == 0 or (ids[:, 0] != BOS).any():
        raise CapkitError(f"prefixes must be a B x L array of rows that start with BOS, got shape {ids.shape}")
    if ids.shape[1] > cfg.max_len:
        raise CapkitError("prefix longer than max_len")
    feats, ca_bias = _check_features(params, features)
    if len(feats) != len(ids):
        raise CapkitError(f"{len(ids)} prefixes but {len(feats)} feature matrices")

    tape = [] if train else None
    if train:
        P = {k: ad.Var(v) for k, v in params.tensors.items()}
    else:
        P = params.tensors
    L = ids.shape[1]
    x = ad.embed(tape, P["tok_emb"], P["pos_emb"], ids, 0)
    logits = _block(
        tape,
        P,
        x,
        ad.matmul(tape, x, P["sa_k"]),
        ad.matmul(tape, x, P["sa_v"]),
        np.triu(np.full((L, L), MASKED, dtype=params.flat.dtype), k=1),  # position i sees positions 0..i
        *_cross_kv(tape, P, feats),
        ca_bias,
        cfg.n_heads,
    )
    if train:
        return ForwardTrace(logits=logits, tape=tape, param_vars=P)
    return logits


def _token_loss(logits: np.ndarray, targets: np.ndarray, r: np.ndarray, n: np.ndarray):
    """The rows' reward-weighted, length-normalised token losses and the
    gradient of their mean w.r.t. the logits: the one loss of MLE (unit
    rewards) and SCST.

    logits are B x L x |V|, targets the B x L target ids, r the B x L rewards
    (0 on padding) and n each row's count of real targets. Row i's loss is
    -(1/n_i) sum_t r_it log p(target_it); the gradient at (i, t) is
    r_it / n_i / B * (softmax - onehot(target_it)).

    The log-softmax and the gradient are of the logits' dtype; each row's loss
    is summed in float64.
    """
    lp = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    lp -= np.log(np.add.reduce(np.exp(lp), axis=-1, keepdims=True))  # log-softmax
    flat = lp.reshape(-1, lp.shape[-1])
    at = np.arange(len(flat)), targets.ravel()
    loss = -np.add.reduce(r * flat[at].reshape(targets.shape), axis=-1, dtype=np.float64) / n
    dlogp = (-r / n[:, None] / len(n)).ravel()  # d mean loss / d log p(target)
    grad = np.exp(flat)
    grad *= -dlogp[:, None]  # dlogp * -exp: a product's sign is the xor of its operands' signs
    grad[at] += dlogp
    return loss, grad.reshape(lp.shape)


def backward(trace: ForwardTrace, loss_grad: np.ndarray) -> dict:
    """Reverse-mode gradients of the scalar loss for every parameter tensor,
    seeded with `loss_grad` cast to the logits' dtype."""
    trace.logits.accumulate(np.asarray(loss_grad, dtype=trace.logits.value.dtype))
    for back in reversed(trace.tape):
        back()
    return {name: var.grad for name, var in trace.param_vars.items()}


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam's moments m and v over `flat`, and two scratch vectors: the
    gradient in `flat` order and a temporary; allocated on the first step, of
    `flat`'s dtype."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    g: np.ndarray | None = None
    tmp: np.ndarray | None = None
    t: int = 0


def adam_step(params: ModelParams, grads: dict, state: AdamState, lr: float = 1e-3) -> None:
    """One in-place Adam step (Kingma & Ba, 2015) over `flat` from `backward`'s gradients:
    m += (1-b1)(g-m), v += (1-b2)(g*g-v), then p -= lr*mhat / (sqrt(vhat) + eps)."""
    if state.m is None:
        state.m, state.v, state.g, state.tmp = (np.zeros_like(params.flat) for _ in range(4))
    state.t += 1
    m, v, g, tmp = state.m, state.v, state.g, state.tmp
    np.concatenate([grads[name].ravel() for name in params.tensors], out=g)
    m += np.multiply(np.subtract(g, m, out=tmp), 1.0 - ADAM_BETA1, out=tmp)
    v += np.multiply(np.subtract(np.multiply(g, g, out=g), v, out=g), 1.0 - ADAM_BETA2, out=g)
    np.multiply(np.divide(m, 1.0 - ADAM_BETA1**state.t, out=tmp), lr, out=tmp)  # lr * mhat
    np.add(np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**state.t, out=g), out=g), ADAM_EPS, out=g)
    params.flat -= np.divide(tmp, g, out=tmp)


@dataclass(frozen=True)
class Row:
    """One (clip, role) pair: what MLE and SCST train on and decoding decodes."""

    sample_id: str
    features: np.ndarray  # T x feature_dim, the role frame included
    ref: Caption  # the sample's caption of this role

    @property
    def key(self) -> str:
        """The row's seed key, "<sample id>/<role>"."""
        return f"{self.sample_id}/{self.ref.role}"


def _pad_rows(rows, rewards) -> tuple:
    """Teacher-forcing arrays of a batch of BOS..EOS id rows of any lengths, one
    reward per row: the B x L prefixes (each row but its last id, right-padded
    with PAD), the B x L targets (each row but its BOS), the B x L rewards (the
    row's reward on its real targets, 0 on padding, of the rewards' dtype) and
    each row's count of real targets."""
    n = np.array([len(r) for r in rows]) - 1
    ids = np.full((len(rows), int(n.max()) + 1), PAD, dtype=np.intp)
    for dst, r in zip(ids, rows):
        dst[: len(r)] = r
    real = np.arange(ids.shape[1] - 1) < n[:, None]
    return ids[:, :-1], ids[:, 1:], np.asarray(rewards)[:, None] * real, n


def _fit(params: ModelParams, dataset: list[Row], epochs: int, batch_size: int, seed: int, lr: float, captions):
    """The training loop of MLE and SCST; returns the per-epoch mean row loss.

    Each epoch visits the rows in one permutation drawn from
    default_rng(seed), and each batch takes one teacher-forced Adam step on
    the mean of its rows' reward-weighted `_token_loss` given their features.
    captions(rows, epoch) returns the batch's BOS..EOS id rows and one reward
    per row, which the step casts to `flat`'s dtype. A non-finite loss raises
    NumericFailure before `backward` runs.
    """
    if batch_size < 1 or epochs < 0:
        raise CapkitError(f"need batch_size >= 1 and epochs >= 0, got {batch_size} and {epochs}")
    if not (math.isfinite(lr) and lr > 0.0):
        raise CapkitError(f"learning rate must be finite and > 0, got {lr}")
    if not dataset:
        raise CapkitError("empty training dataset")
    rng = np.random.default_rng(seed)
    state = AdamState()
    curve = []
    for epoch in range(epochs):
        order = rng.permutation(len(dataset))
        losses = []
        for start in range(0, len(order), batch_size):
            batch = [dataset[i] for i in order[start : start + batch_size]]
            ids, rewards = captions(batch, epoch)
            prefix, targets, r, n = _pad_rows(ids, np.asarray(rewards, dtype=params.flat.dtype))
            trace = forward(params, [row.features for row in batch], prefix, train=True)
            loss, glogits = _token_loss(trace.logits.value, targets, r, n)
            if not np.isfinite(loss).all():
                raise NumericFailure(f"non-finite training loss {loss} in epoch {epoch}")
            losses.extend(loss)
            adam_step(params, backward(trace, glogits), state, lr=lr)
            del trace  # its tape holds the batch's activations: free them before the next batch
        curve.append(float(np.mean(losses)))
    return curve


def train_mle(
    params: ModelParams,
    dataset: list[Row],
    epochs: int,
    batch_size: int,
    seed: int,
    vocab: Vocab,
    lr: float = 1e-3,
) -> list[float]:
    """Teacher-forced maximum-likelihood training on the rows' captions, the
    unit-reward case of `_fit`'s step. Each caption is encoded to the config's
    max_len, once. Updates `params` in place; returns the per-epoch mean loss."""
    encoded = {r.ref.tokens: encode(vocab, r.ref.tokens, params.config.max_len) for r in dataset}

    def captions(rows, _epoch):
        return [encoded[r.ref.tokens] for r in rows], np.ones(len(rows))

    return _fit(params, dataset, epochs, batch_size, seed, lr, captions)


# ---------------------------------------------------------------------------
# Incremental decoding cache

class DecoderCache:
    """Stepwise decoding of B rows in lockstep with cached attention state.

    `features` is a sequence of B matrices T_b x feature_dim (T_b may differ).
    Runs the same `_block` as `forward` on one new position per row per step,
    so its logits equal (to rounding) a full `forward` recompute.
    """

    def __init__(self, params: ModelParams, features):
        self.params = params
        cfg = params.config
        feats, self._ca_bias = _check_features(params, features)
        self._ca_k, self._ca_v = _cross_kv(None, params.tensors, feats)
        self._keys = np.empty((len(feats), cfg.max_len, cfg.d_model), dtype=params.flat.dtype)
        self._vals = np.empty_like(self._keys)
        self._t = 0

    def step(self, token_ids) -> np.ndarray:
        """Feed one token per row; return the next-token logits, B x |V|."""
        cfg, P, t = self.params.config, self.params.tensors, self._t
        if t >= cfg.max_len:
            raise CapkitError("prefix longer than max_len")
        ids = _check_ids(cfg, token_ids).reshape(-1, 1)
        if len(ids) != len(self._keys):
            raise CapkitError(f"{len(ids)} token ids for {len(self._keys)} rows")
        x = ad.embed(None, P["tok_emb"], P["pos_emb"], ids, t)
        self._keys[:, t] = x[:, 0] @ P["sa_k"]
        self._vals[:, t] = x[:, 0] @ P["sa_v"]
        self._t = t + 1
        return _block(  # the one new query sees every cached position
            None, P, x, self._keys[:, : t + 1], self._vals[:, : t + 1], 0.0,
            self._ca_k, self._ca_v, self._ca_bias, cfg.n_heads,
        )[:, 0]


# ---------------------------------------------------------------------------
# Checkpoint format: CKPT magic | version u32 | header_len u32 | JSON header
# (config and extra keys) | float64 little-endian tensors in `_shapes` order.
# `flat` is PARAM_DTYPE in memory; float32 widens to float64 exactly, so a
# save and a load give the same bits.

CKPT_MAGIC = b"CKPT"
CKPT_VERSION = 1


def save_checkpoint(params: ModelParams, path: str, extra: dict | None = None) -> None:
    header = json.dumps({"config": asdict(params.config), **(extra or {})}).encode("utf-8")
    payload = params.flat.astype("<f8").tobytes()
    _write_frame(path, CKPT_MAGIC, CKPT_VERSION, [struct.pack("<I", len(header)), header, payload])


def load_checkpoint(path: str) -> tuple[ModelParams, dict]:
    """Read a checkpoint and its extra header keys, with `flat` of PARAM_DTYPE.
    Framing errors raise as in `data._Frame`; a header that does not decode to
    a valid config raises CapkitError, as do a non-finite parameter and a
    finite one that overflows PARAM_DTYPE."""
    frame = _Frame(path, CKPT_MAGIC, CKPT_VERSION)
    header = _json_object(frame.take(frame.u32()), f"{path}: checkpoint header")
    try:
        config = ModelConfig(**header.pop("config"))
    except (TypeError, KeyError) as e:
        raise CapkitError(f"{path}: checkpoint config unreadable: {type(e).__name__}: {e}") from e
    payload = frame.take(8 * _size(config))  # a huge config fails here, before any allocation
    frame.end()
    stored = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(stored).all():
        raise CapkitError(f"{path}: non-finite parameter values")
    return ModelParams(config, _cast(stored, PARAM_DTYPE, f"{path}: parameter values")), header
