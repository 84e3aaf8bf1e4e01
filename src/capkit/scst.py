"""Self-critical sequence training: greedy baseline, sampled rollouts,
CIDEr-difference rewards, masked length-normalized policy-gradient loss."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import BadPrefix, InvalidTemperature, NumericFailure
from .metrics import IdfTable, cider_d
from .seqmodel import (
    DecoderCache,
    ModelParams,
    Row,
    _fit,
    log_softmax,
)
from .textproc import BOS, EOS, PAD, Caption, Vocab, decode_ids


@dataclass(frozen=True)
class RewardVector:
    r: float  # the sampled caption's reward: sample_score - baseline_score
    baseline_score: float
    sample_score: float


@dataclass
class ScstBatchStats:
    mean_reward: float
    mean_baseline: float
    mean_sample: float
    loss: float
    sequences: int


def rollout(params: ModelParams, features, seeds, temperature: float = 1.0) -> list[tuple]:
    """Each row's BOS-initial id tuple, decoded in lockstep from one feature
    matrix until EOS or the config's max_len. Row b is greedy (argmax; ties go
    to the lowest id) when seeds[b] is None, and otherwise samples at the
    temperature from default_rng(seeds[b]) with one uniform draw per step:
    inverse-CDF sampling, the draw of Generator.choice. Non-finite logits
    in a live row, or a sampling distribution that overflows, raise
    NumericFailure; a temperature that is not finite and > 0 raises
    InvalidTemperature when a row samples."""
    if len(seeds) != len(features):
        raise BadPrefix(f"{len(seeds)} seeds for {len(features)} feature matrices: rollout needs one seed per row")
    rngs = [None if s is None else np.random.default_rng(s) for s in seeds]
    sampled = np.array([s is not None for s in seeds])
    if sampled.any() and not (np.isfinite(temperature) and temperature > 0.0):
        raise InvalidTemperature(f"temperature must be finite and > 0, got {temperature}")
    B, L = len(seeds), params.config.max_len
    cache = DecoderCache(params, features)
    ids = np.full((B, L), PAD, dtype=np.intp)
    ids[:, 0] = BOS
    n = np.ones(B, dtype=np.intp)
    live = np.ones(B, dtype=bool)  # rows before their EOS; the others step on unread
    # Overflow and NaN are checked below and raise NumericFailure, not warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, L):
            logits = cache.step(ids[:, t - 1])
            if not np.isfinite(logits[live]).all():
                raise NumericFailure(f"non-finite logits at decoding step {t}")
            tok = logits.argmax(axis=-1)
            draw = sampled & live
            if draw.any():
                probs = np.exp(log_softmax(logits[draw] / temperature))
                total = np.add.reduce(probs, axis=-1, keepdims=True)
                if not (total > 0.0).all():
                    raise NumericFailure(f"sampling distribution at temperature {temperature} is not finite")
                cdf = np.add.accumulate(np.divide(probs, total, out=probs), axis=-1)
                cdf /= cdf[:, -1:]
                u = np.array([rngs[b].random() for b in np.flatnonzero(draw)])
                tok[draw] = np.add.reduce(cdf <= u[:, None], axis=-1)
            ids[:, t] = tok
            n += live
            live &= tok != EOS
            if not live.any():
                break
    return [tuple(row[:k].tolist()) for row, k in zip(ids, n)]


def compute_rewards(
    sample: tuple,
    greedy: tuple,
    ref: Caption,
    idf: IdfTable,
    vocab: Vocab,
) -> RewardVector:
    sample_score = cider_d(decode_ids(vocab, sample), ref.tokens, idf)
    # cider_d is deterministic, so a sample equal to the baseline is scored once
    baseline_score = sample_score if sample == greedy else cider_d(decode_ids(vocab, greedy), ref.tokens, idf)
    return RewardVector(r=sample_score - baseline_score, baseline_score=baseline_score, sample_score=sample_score)


def derive_seed(seed: int, key: str, epoch: int) -> int:
    h = hashlib.blake2b(f"{seed}:{key}:{epoch}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little")


def scst_train(
    params: ModelParams,
    dataset: list[Row],
    idf: IdfTable,
    epochs: int,
    batch_size: int,
    seed: int,
    vocab: Vocab,
    lr: float = 1e-4,
    temperature: float = 1.0,
):
    """One sampled rollout against a greedy baseline per row per epoch.

    The gradient flows only through the sampled sequence's log-probabilities;
    the baseline is a constant. Updates `params` in place; returns the
    per-epoch ScstBatchStats."""
    scores = [([], []) for _ in range(epochs)]  # per epoch: baseline, sample CIDEr-D

    def captions(rows, epoch):
        # Greedy baselines and sampled rollouts decode as one lockstep batch;
        # the sampled captions are then teacher-forced under their rewards.
        feats = [r.features for r in rows]
        seeds = [derive_seed(seed, r.key, epoch) for r in rows]
        decoded = rollout(params, feats + feats, [None] * len(rows) + seeds, temperature)
        greedy, rolls = decoded[: len(rows)], decoded[len(rows) :]
        rewards = [compute_rewards(s, g, r.ref, idf, vocab) for s, g, r in zip(rolls, greedy, rows)]
        scores[epoch][0].extend(rv.baseline_score for rv in rewards)
        scores[epoch][1].extend(rv.sample_score for rv in rewards)
        return rolls, [rv.r for rv in rewards]

    curve = _fit(params, dataset, epochs, batch_size, seed, lr, captions)
    history = []
    for loss, (baselines, samples) in zip(curve, scores):
        mean_b, mean_s = float(np.mean(baselines)), float(np.mean(samples))
        history.append(ScstBatchStats(mean_s - mean_b, mean_b, mean_s, loss, len(dataset)))
    return history
