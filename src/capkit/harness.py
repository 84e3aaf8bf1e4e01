"""Glue between the dataset and the decoder: role conditioning, training-item
construction, and split decoding.

The decoder is conditioned on features only, so the requested caption role is
conveyed by appending one constant indicator frame to the feature matrix
(+1s for description, -1s for avoidance)."""
from __future__ import annotations

import numpy as np

from .scst import ScstItem, decode_greedy, decode_sample, derive_seed
from .seqmodel import ModelParams, TrainItem
from .textproc import ROLE_AVOIDANCE, ROLE_DESCRIPTION, Caption, Vocab, decode_ids, encode


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
            ids, mask = encode(vocab, list(caption_for(s, role).tokens), max_len)
            items.append(
                TrainItem(
                    features=role_features(clips[s.id].data, role),
                    ids=tuple(ids),
                    mask=tuple(mask),
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


def decode_split(
    params: ModelParams, samples, clips, vocab: Vocab, roles, seed=None, temperature=1.0
) -> list[tuple[str, Caption]]:
    """(sample id, decoded Caption) for each sample and then each role: greedy,
    or sampled with the seed derived from `seed` and "<id>/<role>" when a seed
    is given."""
    out = []
    for s in samples:
        for role in roles:
            feats = role_features(clips[s.id].data, role)
            if seed is None:
                dec = decode_greedy(params, feats)
            else:
                dec = decode_sample(params, feats, seed=derive_seed(seed, f"{s.id}/{role}", 0), temperature=temperature)
            out.append((s.id, Caption.make(" ".join(decode_ids(vocab, dec.ids)), role)))
    return out
