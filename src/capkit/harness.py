"""Glue between the dataset and the decoder: role conditioning, training-item
construction, and split decoding.

The decoder is conditioned on features only, so the requested caption role is
conveyed by appending one constant indicator frame to the feature matrix
(+1s for description, -1s for avoidance)."""
from __future__ import annotations

import numpy as np

from .scst import ScstItem, derive_seed, rollout
from .seqmodel import ModelParams, TrainItem
from .textproc import ROLE_DESCRIPTION, Caption, Vocab, decode_ids, encode


def role_features(clip_data: np.ndarray, role: str) -> np.ndarray:
    data = np.asarray(clip_data, dtype=np.float64)
    sign = 1.0 if role == ROLE_DESCRIPTION else -1.0
    frame = np.full((1, data.shape[1]), sign)
    return np.vstack([data, frame])


def caption_for(sample, role: str) -> Caption:
    return sample.description if role == ROLE_DESCRIPTION else sample.avoidance


def mle_items(samples, clips, vocab: Vocab, roles, max_len: int) -> list[TrainItem]:
    items = []
    for s in samples:
        for role in roles:
            items.append(
                TrainItem(
                    features=role_features(clips[s.id].data, role),
                    ids=encode(vocab, list(caption_for(s, role).tokens), max_len),
                )
            )
    return items


def scst_items(samples, clips, roles) -> list[ScstItem]:
    items = []
    for s in samples:
        for role in roles:
            items.append(
                ScstItem(
                    sample_id=f"{s.id}/{role}",
                    features=role_features(clips[s.id].data, role),
                    ref=caption_for(s, role),
                )
            )
    return items


DECODE_CHUNK = 64  # rows per lockstep decoding batch


def decode_split(
    params: ModelParams, samples, clips, vocab: Vocab, roles, seed=None, temperature=1.0
) -> list[tuple[str, Caption]]:
    """(sample id, decoded Caption) for each sample and then each role: greedy,
    or sampled with the seed derived from `seed` and "<id>/<role>" when a seed
    is given. Rows decode in lockstep chunks of DECODE_CHUNK; a row's caption
    does not depend on the chunk it falls in."""
    rows = [(s.id, role) for s in samples for role in roles]
    out = []
    for lo in range(0, len(rows), DECODE_CHUNK):
        chunk = rows[lo : lo + DECODE_CHUNK]
        feats = [role_features(clips[sid].data, role) for sid, role in chunk]
        seeds = [None if seed is None else derive_seed(seed, f"{sid}/{role}", 0) for sid, role in chunk]
        for (sid, role), ids in zip(chunk, rollout(params, feats, seeds, temperature)):
            out.append((sid, Caption.make(" ".join(decode_ids(vocab, ids)), role)))
    return out
