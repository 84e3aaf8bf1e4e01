"""Self-critical sequence training: greedy baseline, sampled rollouts,
CIDEr-difference rewards, masked length-normalized policy-gradient loss."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidTemperature, NumericFailure
from .metrics import IdfTable, cider_d
from .seqmodel import (
    DecoderCache,
    ModelParams,
    _fit,
    _token_loss,
    backward,
    forward,
    log_softmax,
    scst_loss,  # re-exported: the SCST loss, of which MLE is the unit-reward case
)
from .textproc import BOS, EOS, Caption, Vocab, decode_ids


@dataclass(frozen=True)
class DecodeOutput:
    ids: tuple  # BOS-initiated; EOS-terminated or truncated at max_len
    mask: tuple  # 1 up to and including EOS, 0 after


@dataclass(frozen=True)
class RewardVector:
    r: tuple
    baseline_score: float
    sample_score: float


@dataclass
class ScstBatchStats:
    mean_reward: float
    mean_baseline: float
    mean_sample: float
    loss: float
    sequences: int


def _rollout(params: ModelParams, features: np.ndarray, choose) -> DecodeOutput:
    """Decode from BOS until EOS or the config's max_len; `choose` maps a logits
    row to a token id."""
    cache = DecoderCache(params, features)
    ids = [BOS]
    while len(ids) < params.config.max_len:
        tok = choose(cache.step(ids[-1]))
        ids.append(tok)
        if tok == EOS:
            break
    return DecodeOutput(ids=tuple(ids), mask=(1,) * len(ids))


def decode_greedy(params: ModelParams, features: np.ndarray) -> DecodeOutput:
    """Argmax decoding; ties resolve to the lowest token id."""
    return _rollout(params, features, lambda row: int(np.argmax(row)))


def decode_sample(params: ModelParams, features: np.ndarray, seed: int = 0, temperature: float = 1.0) -> DecodeOutput:
    """Multinomial decoding at the given temperature."""
    if not temperature > 0.0:  # also rejects NaN
        raise InvalidTemperature("temperature must be > 0")
    rng = np.random.default_rng(seed)

    def draw(row):
        probs = np.exp(log_softmax(row / temperature))
        total = probs.sum()
        if not total > 0.0:
            raise NumericFailure(f"sampling distribution at temperature {temperature} is not finite")
        return int(rng.choice(len(probs), p=probs / total))

    return _rollout(params, features, draw)


def compute_rewards(
    sample: DecodeOutput,
    greedy: DecodeOutput,
    ref: Caption,
    idf: IdfTable,
    vocab: Vocab,
) -> RewardVector:
    sample_score = cider_d(decode_ids(vocab, sample.ids), ref.tokens, idf)
    baseline_score = cider_d(decode_ids(vocab, greedy.ids), ref.tokens, idf)
    diff = sample_score - baseline_score
    r = tuple(diff * m for m in sample.mask)
    return RewardVector(r=r, baseline_score=baseline_score, sample_score=sample_score)


def derive_seed(seed: int, sample_id: str, epoch: int) -> int:
    h = hashlib.blake2b(f"{seed}:{sample_id}:{epoch}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class ScstItem:
    sample_id: str
    features: np.ndarray  # T x feature_dim
    ref: Caption


def scst_train(
    params: ModelParams,
    dataset: list[ScstItem],
    idf: IdfTable,
    epochs: int,
    batch_size: int,
    seed: int,
    vocab: Vocab,
    lr: float = 1e-4,
    temperature: float = 1.0,
):
    """One sampled rollout against a greedy baseline per sample per epoch.

    The gradient flows only through the sampled sequence's log-probabilities;
    the baseline is a constant. Returns (params, per-epoch ScstBatchStats)."""
    scores = [([], []) for _ in range(epochs)]  # per epoch: baseline, sample CIDEr-D

    def step(item, epoch):
        greedy = decode_greedy(params, item.features)
        roll = decode_sample(
            params,
            item.features,
            seed=derive_seed(seed, item.sample_id, epoch),
            temperature=temperature,
        )
        rewards = compute_rewards(roll, greedy, item.ref, idf, vocab)
        scores[epoch][0].append(rewards.baseline_score)
        scores[epoch][1].append(rewards.sample_score)

        # Re-run the sampled prefix in training mode; positions after BOS
        # predict roll.ids[1:].
        trace = forward(params, item.features, roll.ids[:-1], train=True)
        loss, glogits = _token_loss(trace.logits.value, roll.ids[1:], rewards.r[1:], roll.mask[1:])
        return loss, backward(trace, glogits)

    curve = _fit(params, dataset, epochs, batch_size, seed, lr, step)
    history = []
    for loss, (baselines, samples) in zip(curve, scores):
        mean_b = float(np.mean(baselines))
        mean_s = float(np.mean(samples))
        history.append(
            ScstBatchStats(
                mean_reward=mean_s - mean_b,
                mean_baseline=mean_b,
                mean_sample=mean_s,
                loss=loss,
                sequences=len(dataset),
            )
        )
    return params, history
