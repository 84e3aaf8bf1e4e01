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
from .textproc import BOS, PAD

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
    config: ModelConfig
    tensors: dict  # name -> float64 ndarray

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})


def _shapes(config: ModelConfig) -> list:
    """(name, shape) of every parameter tensor, in PARAM_SHAPES order."""
    dims = (config.vocab_size, config.d_model, config.max_len, config.feature_dim)
    return [(name, shape_fn(*dims)) for name, shape_fn in PARAM_SHAPES]


def init_params(config: ModelConfig) -> ModelParams:
    config.validate()
    rng = np.random.default_rng(config.seed)
    tensors = {}
    for name, shape in _shapes(config):
        if name.startswith("ln"):
            tensors[name] = (
                np.ones(shape) if name.endswith("_g") else np.zeros(shape)
            )
        else:
            s = math.sqrt(6.0 / sum(shape))
            tensors[name] = rng.uniform(-s, s, size=shape)
    return ModelParams(config=config, tensors=tensors)


@dataclass
class ForwardTrace:
    logits: ad.Var
    tape: ad.Tape
    param_vars: dict


def _check_inputs(config: ModelConfig, token_ids, features=None):
    """Raise BadPrefix for a token id outside the vocabulary or, when given,
    features that are not a T x feature_dim matrix with T >= 1; return the
    features as float64."""
    for t in token_ids:
        if not (isinstance(t, (int, np.integer)) and 0 <= t < config.vocab_size):
            raise BadPrefix(f"token id {t!r} is not in 0..{config.vocab_size - 1}")
    if features is None:
        return None
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] != config.feature_dim:
        raise BadPrefix("features must be T x feature_dim with T >= 1")
    return feats


def _cross_kv(tape, P, feats):
    """Cross-attention keys and values of the projected clip features."""
    fp = ad.matmul(tape, feats, P["feat_proj"])
    return ad.matmul(tape, fp, P["ca_k"]), ad.matmul(tape, fp, P["ca_v"])


def _block(tape, P, x, sa_k, sa_v, ca_k, ca_v, n_heads: int):
    """The decoder block from embedded inputs x (Lq x d) to tied logits.

    sa_k/sa_v hold the self-attention keys and values of every position up to
    and including x's last row; ca_k/ca_v those of the features.
    """
    sa = ad.attention(tape, ad.matmul(tape, x, P["sa_q"]), sa_k, sa_v, n_heads, causal=True)
    ca = ad.attention(tape, ad.matmul(tape, x, P["ca_q"]), ca_k, ca_v, n_heads, causal=False)
    sa = ad.matmul(tape, sa, P["sa_o"])
    ca = ad.matmul(tape, ca, P["ca_o"])
    x1 = ad.layer_norm(tape, ad.add(tape, x, ad.add(tape, sa, ca)), P["ln1_g"], P["ln1_b"])
    ff = ad.matmul(tape, ad.relu(tape, ad.matmul(tape, x1, P["ff_w1"])), P["ff_w2"])
    x2 = ad.layer_norm(tape, ad.add(tape, x1, ff), P["ln2_g"], P["ln2_b"])
    return ad.matmul_nt(tape, x2, P["tok_emb"])


def forward(params: ModelParams, features: np.ndarray, prefix_ids, train: bool = False):
    """Logits over the next token for every prefix position.

    Returns a logits matrix len(prefix) x |V|; in training mode returns a
    ForwardTrace carrying the tape and per-parameter Vars instead.
    """
    prefix_ids = list(prefix_ids)
    if not prefix_ids or prefix_ids[0] != BOS:
        raise BadPrefix("prefix must start with BOS")
    if len(prefix_ids) > params.config.max_len:
        raise BadPrefix("prefix longer than max_len")
    feats = _check_inputs(params.config, prefix_ids, features)

    tape = ad.Tape() if train else None
    if train:
        P = {k: ad.Var(v) for k, v in params.tensors.items()}
    else:
        P = params.tensors
    x = ad.embed(tape, P["tok_emb"], P["pos_emb"], prefix_ids, 0)
    logits = _block(
        tape,
        P,
        x,
        ad.matmul(tape, x, P["sa_k"]),
        ad.matmul(tape, x, P["sa_v"]),
        *_cross_kv(tape, P, feats),
        params.config.n_heads,
    )
    if train:
        return ForwardTrace(logits=logits, tape=tape, param_vars=P)
    return logits


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def scst_loss(logp, r, mask):
    """L = -(1/N) sum_i r_i * logp_i * m_i, N = sum m_i; returns (L, dL/dlogp)."""
    logp = np.asarray(logp, dtype=np.float64)
    rv = np.asarray(r, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    if not (logp.shape == rv.shape == m.shape):
        raise ValueError("logp, r, and mask lengths differ")
    n = m.sum()
    if n == 0:
        raise AllMasked("every position is masked out")
    loss = -(rv * logp * m).sum() / n
    grad = -(rv * m) / n
    return float(loss), grad


def _token_loss(logits: np.ndarray, target_ids, r, mask):
    """`scst_loss` of the target tokens' log-probabilities under the logits,
    plus its gradient w.r.t. the logits: r_i * m_i / N * (softmax row i -
    onehot(target_i)) per row."""
    lp = log_softmax(np.asarray(ad.val(logits), dtype=np.float64))
    targets = np.asarray(target_ids, dtype=np.intp)
    if lp.shape[0] != targets.shape[0]:
        raise ValueError("logits and targets lengths differ")
    rows = np.arange(len(targets))
    loss, dlogp = scst_loss(lp[rows, targets], r, mask)
    grad = dlogp[:, None] * -np.exp(lp)
    grad[rows, targets] += dlogp
    return loss, grad


def xent_loss(logits: np.ndarray, target_ids, mask):
    """Masked length-normalized cross entropy plus its gradient w.r.t. logits:
    the `_token_loss` of unit rewards (Rennie et al., 2017)."""
    return _token_loss(logits, target_ids, np.ones(len(mask)), mask)


def backward(trace: ForwardTrace, loss_grad: np.ndarray) -> dict:
    """Reverse-mode gradients of the scalar loss for every parameter tensor."""
    trace.logits.grad += loss_grad
    trace.tape.run_backward()
    return {name: var.grad for name, var in trace.param_vars.items()}


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(params: ModelParams, grads: dict, state: AdamState, lr: float = 1e-3) -> None:
    state.t += 1
    t = state.t
    for name, g in grads.items():
        p = params.tensors[name]
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        mhat = m / (1.0 - ADAM_BETA1**t)
        vhat = v / (1.0 - ADAM_BETA2**t)
        p -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


@dataclass(frozen=True)
class TrainItem:
    """One teacher-forcing example: features plus an encoded caption."""

    features: np.ndarray  # T x feature_dim, float64
    ids: tuple  # [BOS, tokens.., EOS, PAD..]
    mask: tuple  # non-PAD indicator aligned with ids


def _accumulate(total: dict, grads: dict, weight: float) -> None:
    for name, g in grads.items():
        if name in total:
            total[name] += weight * g
        else:
            total[name] = weight * g


def _fit(params: ModelParams, dataset: list, epochs: int, batch_size: int, seed: int, lr: float, item_step):
    """The training loop of MLE and SCST; returns the per-epoch mean item loss.

    Each epoch visits the dataset in one permutation drawn from
    default_rng(seed), and each batch takes one Adam step on the mean of its
    items' gradients. item_step(item, epoch) returns (loss, grads); a
    non-finite loss raises NumericFailure before it reaches Adam.
    """
    if batch_size < 1 or epochs < 0:
        raise InvalidConfig(f"need batch_size >= 1 and epochs >= 0, got {batch_size} and {epochs}")
    if not dataset:
        raise EmptyDataset("empty training dataset")
    rng = np.random.default_rng(seed)
    state = AdamState()
    curve = []
    for epoch in range(epochs):
        order = rng.permutation(len(dataset))
        losses = []
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            total = {}
            for idx in batch:
                loss, grads = item_step(dataset[idx], epoch)
                if not math.isfinite(loss):
                    raise NumericFailure(f"non-finite training loss {loss} in epoch {epoch}")
                _accumulate(total, grads, 1.0 / len(batch))
                losses.append(loss)
            adam_step(params, total, state, lr=lr)
        curve.append(float(np.mean(losses)))
    return curve


def train_mle(
    params: ModelParams,
    dataset: list[TrainItem],
    epochs: int,
    batch_size: int,
    seed: int,
    lr: float = 1e-3,
):
    """Teacher-forced maximum-likelihood training; returns per-epoch mean loss."""

    def step(item, _epoch):
        n_real = int(sum(item.mask))
        prefix = list(item.ids[:n_real])  # drop trailing PADs, keep EOS target
        trace = forward(params, item.features, prefix[:-1], train=True)
        loss, glogits = xent_loss(trace.logits.value, prefix[1:], item.mask[1:n_real])
        return loss, backward(trace, glogits)

    return params, _fit(params, dataset, epochs, batch_size, seed, lr, step)


# ---------------------------------------------------------------------------
# Incremental decoding cache

class DecoderCache:
    """Single-sequence stepwise decoding with cached attention state.

    Runs the same `_block` as `forward` on one new row per step, so its logits
    equal (to rounding) a full `forward` recompute.
    """

    def __init__(self, params: ModelParams, features: np.ndarray):
        self.params = params
        cfg = params.config
        feats = _check_inputs(cfg, (), features)
        self._ca_k, self._ca_v = _cross_kv(None, params.tensors, feats)
        self._keys = np.empty((cfg.max_len, cfg.d_model))
        self._vals = np.empty((cfg.max_len, cfg.d_model))
        self._t = 0

    def step(self, token_id: int) -> np.ndarray:
        """Feed one token, return the next-token logits row (|V|,)."""
        cfg, P, t = self.params.config, self.params.tensors, self._t
        if t >= cfg.max_len:
            raise BadPrefix("prefix longer than max_len")
        _check_inputs(cfg, (token_id,))
        x = ad.embed(None, P["tok_emb"], P["pos_emb"], (token_id,), t)
        self._keys[t] = x @ P["sa_k"]
        self._vals[t] = x @ P["sa_v"]
        self._t = t + 1
        return _block(None, P, x, self._keys[: t + 1], self._vals[: t + 1], self._ca_k, self._ca_v, cfg.n_heads)[0]


# ---------------------------------------------------------------------------
# Checkpoint format: CKPT magic | version u32 | header_len u32 | JSON header
# (config and extra keys) | float64 little-endian tensors in PARAM_SHAPES order

CKPT_MAGIC = b"CKPT"
CKPT_VERSION = 1


def save_checkpoint(params: ModelParams, path: str, extra: dict | None = None) -> None:
    header = json.dumps({"config": asdict(params.config), **(extra or {})}).encode("utf-8")
    tensors = [np.ascontiguousarray(params.tensors[name], dtype="<f8").tobytes() for name, _ in PARAM_SHAPES]
    _write_frame(path, CKPT_MAGIC, CKPT_VERSION, [struct.pack("<I", len(header)), header, *tensors])


def load_checkpoint(path: str) -> tuple[ModelParams, dict]:
    """Read a checkpoint and its extra header keys. Framing errors raise as in
    `data._Frame`; a header that does not decode to a valid config raises
    InvalidConfig, and a non-finite tensor NonFiniteValue."""
    frame = _Frame(path, CKPT_MAGIC, CKPT_VERSION)
    header = _json_object(frame.take(frame.u32()), f"{path}: checkpoint header")
    try:
        config = ModelConfig(**header.pop("config"))
    except (TypeError, KeyError) as e:
        raise InvalidConfig(f"{path}: checkpoint config unreadable: {type(e).__name__}: {e}") from e
    config.validate()
    tensors = {}
    for name, shape in _shapes(config):
        arr = np.frombuffer(frame.take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        if not np.isfinite(arr).all():
            raise NonFiniteValue(f"{path}: non-finite values in tensor {name!r}")
        tensors[name] = arr.astype(np.float64)
    return ModelParams(config=config, tensors=tensors), header
