"""Glue between the dataset and the decoder: role conditioning, building the
(clip, role) rows that MLE, SCST and decoding read, and split decoding.

The decoder is conditioned on features only, so the requested caption role is
conveyed by appending one constant indicator frame to the feature matrix
(+1s for description, -1s for avoidance)."""
from __future__ import annotations

import numpy as np

from .scst import derive_seed, rollout
from .seqmodel import ModelParams, Row
from .textproc import ROLE_DESCRIPTION, Caption, Vocab, decode_ids


def role_features(clip_data: np.ndarray, role: str) -> np.ndarray:
    """The clip's T x D frames and the role's indicator frame, in the clip's
    dtype; the model casts features to its parameters' dtype."""
    data = np.asarray(clip_data)
    sign = 1.0 if role == ROLE_DESCRIPTION else -1.0
    frame = np.full((1, data.shape[1]), sign, dtype=data.dtype)
    return np.vstack([data, frame])


def rows(samples, clips, roles) -> list[Row]:
    """One Row per sample and then per role: the clip's role features and the
    sample's caption of that role."""
    return [
        Row(sample_id=s.id, features=role_features(clips[s.id].data, role), ref=getattr(s, role))
        for s in samples
        for role in roles
    ]


# Rows per lockstep decoding batch. It bounds decoding memory, about 20 KB a row
# in float32 (self-attention K/V at max_len 24, cross K/V, features): an 800-row
# split peaks at 2.1 MB with 64 rows per chunk and 5.8 MB with 256 (tracemalloc),
# for 0.13 and 0.12 ms per row (d_model 64, 2-core Xeon). No benchmark workload or digest
# step fills one chunk: `train` decodes 40 rows per split, the digest 12.
DECODE_CHUNK = 64


def decode_split(params: ModelParams, rows: list[Row], vocab: Vocab, seed=None, temperature=1.0) -> list[Caption]:
    """The decoded Caption of each row, in row order: greedy, or sampled with
    the seed derived from `seed` and the row's key when a seed is given. Rows
    decode in lockstep chunks of DECODE_CHUNK; a row's caption does not depend
    on the chunk it falls in."""
    out = []
    for lo in range(0, len(rows), DECODE_CHUNK):
        chunk = rows[lo : lo + DECODE_CHUNK]
        seeds = [None if seed is None else derive_seed(seed, r.key, 0) for r in chunk]
        for r, ids in zip(chunk, rollout(params, [r.features for r in chunk], seeds, temperature)):
            out.append(Caption.make(" ".join(decode_ids(vocab, ids)), r.ref.role))
    return out
