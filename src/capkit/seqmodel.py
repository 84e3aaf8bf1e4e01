"""Miniature conditional caption decoder with reverse-mode differentiation."""
from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .data import _Frame, _json_object, _write_frame
from .errors import AllMasked, BadPrefix, EmptyDataset, InvalidConfig, NonFiniteValue, NumericFailure
from .textproc import BOS, PAD, Caption, Vocab, encode

PARAM_SHAPES = (
    # name, shape expression over (V, d, L, F)
    ("tok_emb", lambda V, d, L, F: (V, d)),
    ("pos_emb", lambda V, d, L, F: (L, d)),
    ("feat_proj", lambda V, d, L, F: (F, d)),
    ("sa_q", lambda V, d, L, F: (d, d)),
    ("sa_k", lambda V, d, L, F: (d, d)),
    ("sa_v", lambda V, d, L, F: (d, d)),
    ("sa_o", lambda V, d, L, F: (d, d)),
    ("ca_q", lambda V, d, L, F: (d, d)),
    ("ca_k", lambda V, d, L, F: (d, d)),
    ("ca_v", lambda V, d, L, F: (d, d)),
    ("ca_o", lambda V, d, L, F: (d, d)),
    ("ff_w1", lambda V, d, L, F: (d, 4 * d)),
    ("ff_w2", lambda V, d, L, F: (4 * d, d)),
    ("ln1_g", lambda V, d, L, F: (d,)),
    ("ln1_b", lambda V, d, L, F: (d,)),
    ("ln2_g", lambda V, d, L, F: (d,)),
    ("ln2_b", lambda V, d, L, F: (d,)),
)


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    feature_dim: int
    d_model: int = 64
    n_heads: int = 2
    max_len: int = 24
    seed: int = 0

    def validate(self) -> None:
        if not all(type(getattr(self, f.name)) is int for f in fields(self)):
            raise InvalidConfig("every model config field must be an int")
        if self.n_heads < 1:
            raise InvalidConfig("n_heads must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise InvalidConfig("d_model must be divisible by n_heads")
        if self.vocab_size < 5:
            raise InvalidConfig("vocab_size must be >= 5")
        if self.max_len < 2:
            raise InvalidConfig("max_len must be >= 2")
        if self.feature_dim < 1 or self.d_model < 1:
            raise InvalidConfig("dimensions must be positive")


@dataclass
class ModelParams:
    """Every parameter in one float64 vector `flat`, in PARAM_SHAPES order; `tensors` holds its named views."""

    config: ModelConfig
    flat: np.ndarray
    tensors: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names, shapes = zip(*_shapes(self.config))
        views = np.split(self.flat, np.cumsum([math.prod(shape) for shape in shapes])[:-1])
        self.tensors = {name: v.reshape(shape) for name, v, shape in zip(names, views, shapes)}

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.flat.copy())


def _shapes(config: ModelConfig) -> list:
    """(name, shape) of every parameter tensor, in PARAM_SHAPES order."""
    dims = (config.vocab_size, config.d_model, config.max_len, config.feature_dim)
    return [(name, shape_fn(*dims)) for name, shape_fn in PARAM_SHAPES]


def _size(config: ModelConfig) -> int:
    """The number of parameters, a Python int however large the config."""
    return sum(math.prod(shape) for _, shape in _shapes(config))


def init_params(config: ModelConfig) -> ModelParams:
    config.validate()
    rng = np.random.default_rng(config.seed)
    params = ModelParams(config, np.empty(_size(config)))
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
    tape: ad.Tape
    param_vars: dict


def _check_ids(config: ModelConfig, token_ids) -> np.ndarray:
    """token_ids as an intp array; BadPrefix unless every id is an integer (not
    a bool) in 0..vocab_size-1."""
    try:
        ids = np.asarray(token_ids)
    except ValueError as e:  # ragged rows
        raise BadPrefix(f"token ids do not form an array: {e}") from None
    # numpy stores [1, True] as ints, so a sequence's element types are read too
    bools = not isinstance(token_ids, np.ndarray) and {bool, np.bool_} & set(
        map(type, np.ravel(np.asarray(token_ids, dtype=object)))
    )
    if ids.dtype.kind not in "iu" or bools or ids.size and not (0 <= ids.min() and ids.max() < config.vocab_size):
        raise BadPrefix(f"token ids {np.ravel(token_ids)[:8]!r} are not all ints in 0..{config.vocab_size - 1}")
    return ids.astype(np.intp, copy=False)


def _check_features(config: ModelConfig, features):
    """Stack a batch's T_b x feature_dim matrices (T_b >= 1) into one zero-padded
    B x T x feature_dim array; return it and the cross-attention key bias that
    hides the padded frames (None when no row is padded). BadPrefix otherwise."""
    rows = [np.asarray(f, dtype=np.float64) for f in features]
    if not rows or any(f.ndim != 2 or f.shape[0] < 1 or f.shape[1] != config.feature_dim for f in rows):
        raise BadPrefix("features must be a sequence of B matrices T x feature_dim with T >= 1")
    lengths = np.array([f.shape[0] for f in rows])
    T = int(lengths.max())
    if (lengths == T).all():
        return np.stack(rows), None
    feats = np.zeros((len(rows), T, config.feature_dim))
    for dst, f in zip(feats, rows):
        dst[: len(f)] = f
    return feats, np.where(np.arange(T) < lengths[:, None], 0.0, ad.MASKED)


def _cross_kv(tape, P, feats):
    """Cross-attention keys and values of the projected clip features."""
    fp = ad.matmul(tape, feats, P["feat_proj"])
    return ad.matmul(tape, fp, P["ca_k"]), ad.matmul(tape, fp, P["ca_v"])


def _block(tape, P, x, sa_k, sa_v, ca_k, ca_v, ca_bias, n_heads: int):
    """The decoder block from embedded inputs x (B x Lq x d) to tied logits.

    sa_k/sa_v hold the self-attention keys and values of every position up to
    and including x's last row; ca_k/ca_v those of the features, of which
    ca_bias hides the padded frames.
    """
    sa = ad.attention(tape, ad.matmul(tape, x, P["sa_q"]), sa_k, sa_v, n_heads, causal=True)
    ca = ad.attention(tape, ad.matmul(tape, x, P["ca_q"]), ca_k, ca_v, n_heads, causal=False, key_bias=ca_bias)
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
        raise BadPrefix(f"prefixes must be a B x L array of rows that start with BOS, got shape {ids.shape}")
    if ids.shape[1] > cfg.max_len:
        raise BadPrefix("prefix longer than max_len")
    feats, ca_bias = _check_features(cfg, features)
    if len(feats) != len(ids):
        raise BadPrefix(f"{len(ids)} prefixes but {len(feats)} feature matrices")

    tape = ad.Tape() if train else None
    if train:
        P = {k: ad.Var(v) for k, v in params.tensors.items()}
    else:
        P = params.tensors
    x = ad.embed(tape, P["tok_emb"], P["pos_emb"], ids, 0)
    logits = _block(
        tape,
        P,
        x,
        ad.matmul(tape, x, P["sa_k"]),
        ad.matmul(tape, x, P["sa_v"]),
        *_cross_kv(tape, P, feats),
        ca_bias,
        cfg.n_heads,
    )
    if train:
        return ForwardTrace(logits=logits, tape=tape, param_vars=P)
    return logits


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """logits - max - log(sum(exp(logits - max))) over the last axis, in place
    on one new array."""
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    shifted -= np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
    return shifted


def scst_loss(logp, r, mask):
    """L = -(1/N) sum_i r_i * logp_i * m_i, N = sum m_i, per row over the last
    axis; returns (L, dL/dlogp): a float and a vector for one row, arrays for
    a batch."""
    logp = np.asarray(logp, dtype=np.float64)
    rv = np.asarray(r, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    if not (logp.shape == rv.shape == m.shape):
        raise ValueError("logp, r, and mask lengths differ")
    n = np.add.reduce(m, axis=-1)
    if not (n > 0).all():
        raise AllMasked("every position of a row is masked out")
    loss = -np.add.reduce(rv * logp * m, axis=-1) / n
    grad = -(rv * m) / n[..., None]
    return loss, grad


def _token_loss(logits: np.ndarray, target_ids, r, mask):
    """Per-row `scst_loss` of the target tokens' log-probabilities under the
    logits (... x L x |V|), and the gradient of the rows' mean loss w.r.t. the
    logits: r_i * m_i / (N * rows) * (softmax row i - onehot(target_i)) per
    position."""
    lp = log_softmax(np.asarray(ad.val(logits), dtype=np.float64))
    targets = np.asarray(target_ids, dtype=np.intp)
    if lp.shape[:-1] != targets.shape:
        raise ValueError("logits and targets lengths differ")
    V = lp.shape[-1]
    flat = lp.reshape(-1, V)
    at = np.arange(len(flat)), targets.ravel()
    loss, dlogp = scst_loss(flat[at].reshape(targets.shape), r, mask)
    dlogp = (dlogp / np.size(loss)).ravel()
    grad = np.exp(flat)
    grad *= -dlogp[:, None]  # dlogp * -exp: a product's sign is the xor of its operands' signs
    grad[at] += dlogp
    return loss, grad.reshape(lp.shape)


def xent_loss(logits: np.ndarray, target_ids, mask):
    """Masked length-normalized cross entropy plus its gradient w.r.t. logits:
    the `_token_loss` of unit rewards (Rennie et al., 2017)."""
    return _token_loss(logits, target_ids, np.ones(np.shape(mask)), mask)


def backward(trace: ForwardTrace, loss_grad: np.ndarray) -> dict:
    """Reverse-mode gradients of the scalar loss for every parameter tensor."""
    trace.logits.accumulate(np.asarray(loss_grad, dtype=np.float64))
    trace.tape.run_backward()
    return {name: var.grad for name, var in trace.param_vars.items()}


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam's moments m and v over `flat`, and two scratch vectors: the
    gradient in `flat` order and a temporary; allocated on the first step."""

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
    row's reward on its real targets, 0 on padding) and the B x L mask of real
    targets."""
    n = np.array([len(r) for r in rows]) - 1
    ids = np.full((len(rows), int(n.max()) + 1), PAD, dtype=np.intp)
    for dst, r in zip(ids, rows):
        dst[: len(r)] = r
    mask = np.arange(ids.shape[1] - 1) < n[:, None]
    return ids[:, :-1], ids[:, 1:], np.asarray(rewards, dtype=np.float64)[:, None] * mask, mask


def _fit(params: ModelParams, dataset: list[Row], epochs: int, batch_size: int, seed: int, lr: float, captions):
    """The training loop of MLE and SCST; returns the per-epoch mean row loss.

    Each epoch visits the rows in one permutation drawn from
    default_rng(seed), and each batch takes one teacher-forced Adam step on
    the mean of its rows' reward-weighted `_token_loss` given their features.
    captions(rows, epoch) returns the batch's BOS..EOS id rows and one reward
    per row. A non-finite loss raises NumericFailure before `backward` runs.
    """
    if batch_size < 1 or epochs < 0:
        raise InvalidConfig(f"need batch_size >= 1 and epochs >= 0, got {batch_size} and {epochs}")
    if not (math.isfinite(lr) and lr > 0.0):
        raise InvalidConfig(f"learning rate must be finite and > 0, got {lr}")
    if not dataset:
        raise EmptyDataset("empty training dataset")
    rng = np.random.default_rng(seed)
    state = AdamState()
    curve = []
    for epoch in range(epochs):
        order = rng.permutation(len(dataset))
        losses = []
        for start in range(0, len(order), batch_size):
            batch = [dataset[i] for i in order[start : start + batch_size]]
            prefix, targets, r, mask = _pad_rows(*captions(batch, epoch))
            trace = forward(params, [row.features for row in batch], prefix, train=True)
            loss, glogits = _token_loss(trace.logits.value, targets, r, mask)
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
        feats, self._ca_bias = _check_features(cfg, features)
        self._ca_k, self._ca_v = _cross_kv(None, params.tensors, feats)
        self._keys = np.empty((len(feats), cfg.max_len, cfg.d_model))
        self._vals = np.empty_like(self._keys)
        self._t = 0

    def step(self, token_ids) -> np.ndarray:
        """Feed one token per row; return the next-token logits, B x |V|."""
        cfg, P, t = self.params.config, self.params.tensors, self._t
        if t >= cfg.max_len:
            raise BadPrefix("prefix longer than max_len")
        ids = _check_ids(cfg, token_ids).reshape(-1, 1)
        if len(ids) != len(self._keys):
            raise BadPrefix(f"{len(ids)} token ids for {len(self._keys)} rows")
        x = ad.embed(None, P["tok_emb"], P["pos_emb"], ids, t)
        self._keys[:, t] = x[:, 0] @ P["sa_k"]
        self._vals[:, t] = x[:, 0] @ P["sa_v"]
        self._t = t + 1
        return _block(
            None, P, x, self._keys[:, : t + 1], self._vals[:, : t + 1],
            self._ca_k, self._ca_v, self._ca_bias, cfg.n_heads,
        )[:, 0]


# ---------------------------------------------------------------------------
# Checkpoint format: CKPT magic | version u32 | header_len u32 | JSON header
# (config and extra keys) | float64 little-endian tensors in PARAM_SHAPES order

CKPT_MAGIC = b"CKPT"
CKPT_VERSION = 1


def save_checkpoint(params: ModelParams, path: str, extra: dict | None = None) -> None:
    header = json.dumps({"config": asdict(params.config), **(extra or {})}).encode("utf-8")
    payload = params.flat.astype("<f8").tobytes()
    _write_frame(path, CKPT_MAGIC, CKPT_VERSION, [struct.pack("<I", len(header)), header, payload])


def load_checkpoint(path: str) -> tuple[ModelParams, dict]:
    """Read a checkpoint and its extra header keys. Framing errors raise as in
    `data._Frame`; a header that does not decode to a valid config raises
    InvalidConfig, a non-finite parameter NonFiniteValue."""
    frame = _Frame(path, CKPT_MAGIC, CKPT_VERSION)
    header = _json_object(frame.take(frame.u32()), f"{path}: checkpoint header")
    try:
        config = ModelConfig(**header.pop("config"))
    except (TypeError, KeyError) as e:
        raise InvalidConfig(f"{path}: checkpoint config unreadable: {type(e).__name__}: {e}") from e
    config.validate()
    payload = frame.take(8 * _size(config))  # a huge config fails here, before any allocation
    frame.end()
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.isfinite(flat).all():
        raise NonFiniteValue(f"{path}: non-finite parameter values")
    return ModelParams(config, flat), header
