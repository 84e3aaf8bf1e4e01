"""Dataset ingestion, binary feature files, and the synthetic accident corpus."""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadMagic,
    BadVersion,
    DuplicateId,
    InvalidConfig,
    MissingField,
    NonFiniteValue,
    TruncatedFile,
    UnknownField,
)
from .textproc import Caption, ROLE_AVOIDANCE, ROLE_DESCRIPTION

MAGIC = b"AVDF"
VERSION = 1

ANNOTATION_FIELDS = ("id", "texts", "causes", "measures")


@dataclass(frozen=True)
class RawAnnotation:
    id: str
    texts: str
    causes: str
    measures: str

    @classmethod
    def from_dict(cls, d: dict) -> "RawAnnotation":
        for f in ANNOTATION_FIELDS:
            if f not in d:
                raise MissingField(f"annotation missing field {f!r}")
        extra = set(d) - set(ANNOTATION_FIELDS)
        if extra:
            raise UnknownField(f"unexpected annotation fields: {sorted(extra)}")
        if not d["id"]:
            raise MissingField("annotation id is empty")
        return cls(id=d["id"], texts=d["texts"], causes=d["causes"], measures=d["measures"])


@dataclass(frozen=True)
class Sample:
    id: str
    description: Caption
    avoidance: Caption
    features_path: str = ""


def restructure(raws: list[RawAnnotation]) -> list[Sample]:
    """Merge texts+causes into a description caption; measures becomes avoidance."""
    seen = set()
    out = []
    for raw in raws:
        if raw.id in seen:
            raise DuplicateId(f"duplicate annotation id {raw.id!r}")
        seen.add(raw.id)
        out.append(
            Sample(
                id=raw.id,
                description=Caption.make(raw.texts + "; " + raw.causes, ROLE_DESCRIPTION),
                avoidance=Caption.make(raw.measures, ROLE_AVOIDANCE),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Feature files: magic | version u32 | id_len u32 | id | T u32 | D u32 | f32 data

@dataclass(frozen=True)
class FeatureClip:
    id: str
    data: np.ndarray  # T x D, float32

    @property
    def T(self) -> int:
        return self.data.shape[0]

    @property
    def D(self) -> int:
        return self.data.shape[1]


def write_features(clip: FeatureClip, path: str) -> None:
    data = np.ascontiguousarray(clip.data, dtype="<f4")
    if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
        raise ValueError("feature data must be T x D with T,D >= 1")
    if not np.isfinite(data).all():
        raise NonFiniteValue(f"clip {clip.id!r} contains non-finite features")
    id_bytes = clip.id.encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(id_bytes)))
        f.write(id_bytes)
        f.write(struct.pack("<II", data.shape[0], data.shape[1]))
        f.write(data.tobytes())


def read_features(path: str) -> FeatureClip:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise BadMagic(f"{path}: bad magic bytes")
    pos = 4

    def take(n):
        nonlocal pos
        if pos + n > len(blob):
            raise TruncatedFile(f"{path}: truncated at byte {pos}")
        chunk = blob[pos : pos + n]
        pos += n
        return chunk

    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise BadVersion(f"{path}: unsupported version {version}")
    (id_len,) = struct.unpack("<I", take(4))
    try:
        clip_id = take(id_len).decode("utf-8")
    except UnicodeDecodeError as e:
        raise InvalidConfig(f"{path}: clip id is not UTF-8") from e
    t, d = struct.unpack("<II", take(8))
    data = np.frombuffer(take(t * d * 4), dtype="<f4").reshape(t, d)
    if not np.isfinite(data).all():
        raise NonFiniteValue(f"{path}: non-finite feature values")
    return FeatureClip(id=clip_id, data=data.copy())


# ---------------------------------------------------------------------------
# Synthetic corpus

ACTORS = ("car", "truck", "cyclist")
ACTIONS = ("brakes suddenly", "turns across the lane", "merges into traffic")
CAUSES = (
    "the driver is speeding",
    "the driver gives no signal",
    "the driver ignores the right of way",
)
MEASURES = (
    "slow down and keep a safe distance",
    "signal early and check the mirrors",
    "yield and wait for a clear gap",
)


@dataclass(frozen=True)
class SynthConfig:
    n_clips: int = 500
    T: int = 8
    D: int = 16
    noise_std: float = 0.1
    seed: int = 0

    def validate(self):
        if self.n_clips < 1:
            raise ValueError("n_clips must be >= 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.D < len(ACTORS) + len(ACTIONS) + len(CAUSES):
            raise ValueError("D too small for the one-hot template encoding")


def template_caption(actor_i: int, action_i: int, cause_i: int) -> tuple[str, str]:
    desc = f"the {ACTORS[actor_i]} {ACTIONS[action_i]}; {CAUSES[cause_i]}"
    avoid = f"the {ACTORS[actor_i]} should {MEASURES[cause_i]}"
    return desc, avoid


def template_signal(actor_i: int, action_i: int, cause_i: int, d: int) -> np.ndarray:
    sig = np.zeros(d, dtype=np.float32)
    sig[actor_i] = 1.0
    sig[len(ACTORS) + action_i] = 1.0
    sig[len(ACTORS) + len(ACTIONS) + cause_i] = 1.0
    return sig


@dataclass
class SynthCorpus:
    samples: list
    clips: dict  # id -> FeatureClip
    split: dict  # {"train": [ids], "val": [ids], "test": [ids]}
    factors: dict = field(default_factory=dict)  # id -> (actor_i, action_i, cause_i)


def synth_corpus(config: SynthConfig) -> SynthCorpus:
    config.validate()
    rng = np.random.default_rng(config.seed)
    samples, clips, factors = [], {}, {}
    for i in range(config.n_clips):
        actor_i = int(rng.integers(len(ACTORS)))
        action_i = int(rng.integers(len(ACTIONS)))
        cause_i = int(rng.integers(len(CAUSES)))
        clip_id = f"clip{i:04d}"
        desc, avoid = template_caption(actor_i, action_i, cause_i)
        sig = template_signal(actor_i, action_i, cause_i, config.D)
        noise = rng.normal(0.0, config.noise_std, size=(config.T, config.D))
        data = (sig[None, :] + noise).astype(np.float32)
        samples.append(
            Sample(
                id=clip_id,
                description=Caption.make(desc, ROLE_DESCRIPTION),
                avoidance=Caption.make(avoid, ROLE_AVOIDANCE),
                features_path=f"features/{clip_id}.avdf",
            )
        )
        clips[clip_id] = FeatureClip(id=clip_id, data=data)
        factors[clip_id] = (actor_i, action_i, cause_i)
    order = rng.permutation(config.n_clips)
    n_train = int(0.8 * config.n_clips)
    n_val = int(0.1 * config.n_clips)
    ids = [samples[i].id for i in order]
    split = {
        "train": ids[:n_train],
        "val": ids[n_train : n_train + n_val],
        "test": ids[n_train + n_val :],
    }
    return SynthCorpus(samples=samples, clips=clips, split=split, factors=factors)


# ---------------------------------------------------------------------------
# JSONL helpers

def read_annotations_jsonl(path: str) -> list[RawAnnotation]:
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(RawAnnotation.from_dict(json.loads(line)))
    return out


def write_samples_jsonl(samples: list[Sample], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for s in samples:
            f.write(
                json.dumps(
                    {
                        "id": s.id,
                        "description": s.description.raw,
                        "avoidance": s.avoidance.raw,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


def read_samples_jsonl(path: str) -> list[Sample]:
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            out.append(
                Sample(
                    id=d["id"],
                    description=Caption.make(d["description"], ROLE_DESCRIPTION),
                    avoidance=Caption.make(d["avoidance"], ROLE_AVOIDANCE),
                    features_path=d.get("features_path", ""),
                )
            )
    return out
