"""Self-critical sequence training: greedy baseline, sampled rollouts and
CIDEr-difference rewards that weight `seqmodel._token_loss`, the loss MLE uses too."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import BadPrefix, InvalidTemperature, NumericFailure
from .metrics import IdfTable, cider_d
from .seqmodel import DecoderCache, ModelParams, Row, _fit
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
    temperature with the k-th uniform of default_rng(seeds[b]) at step k:
    inverse-CDF sampling, in exact arithmetic the draw of Generator.choice.
    Non-finite logits in a live row raise NumericFailure; a temperature that
    is not finite and > 0 raises InvalidTemperature when a row samples."""
    if len(seeds) != len(features):
        raise BadPrefix(f"{len(seeds)} seeds for {len(features)} feature matrices: rollout needs one seed per row")
    sampled = np.array([s is not None for s in seeds])
    if sampled.any() and not (np.isfinite(temperature) and temperature > 0.0):
        raise InvalidTemperature(f"temperature must be finite and > 0, got {temperature}")
    B, L = len(seeds), params.config.max_len
    u = np.zeros((B, L - 1))  # row b's uniform at step t is u[b, t - 1]
    for b in np.flatnonzero(sampled):
        u[b] = np.random.default_rng(seeds[b]).random(L - 1)
    cache = DecoderCache(params, features)
    ids = np.full((B, L), PAD, dtype=np.intp)
    ids[:, 0] = BOS
    n = np.ones(B, dtype=np.intp)
    live = np.ones(B, dtype=bool)  # rows before their EOS; the others step on unread
    # NaN is checked below and raises NumericFailure, not a warning. A tiny
    # temperature may overflow (z - max) / T to -inf, whose exp is 0.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, L):
            logits = cache.step(ids[:, t - 1])
            if not np.isfinite(logits[live]).all():
                raise NumericFailure(f"non-finite logits at decoding step {t}")
            tok = logits.argmax(axis=-1)
            draw = sampled & live
            if draw.any():
                z = logits[draw]
                # Shifted before scaling, the largest term is exp(0) = 1, so the
                # unnormalised total is in [1, |V|] at any temperature.
                cdf = np.add.accumulate(np.exp((z - z.max(axis=-1, keepdims=True)) / temperature), axis=-1)
                tok[draw] = np.add.reduce(cdf <= u[draw, t - 1][:, None] * cdf[:, -1:], axis=-1)
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
