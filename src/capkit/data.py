"""Dataset ingestion, binary feature files, and the synthetic accident corpus."""
from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CapkitError
from .textproc import ROLE_AVOIDANCE, ROLE_DESCRIPTION, ROLES, Caption

MAGIC = b"AVDF"
VERSION = 1

ANNOTATION_FIELDS = ("id", "texts", "causes", "measures")


@dataclass(frozen=True)
class Sample:
    id: str
    description: Caption
    avoidance: Caption


# ---------------------------------------------------------------------------
# Framed binary files (features here, checkpoints in seqmodel): 4-byte magic,
# u32 version, then the format's own fields, all little-endian.

def _write_frame(path: str, magic: bytes, version: int, parts) -> None:
    with open(path, "wb") as f:
        f.write(magic + struct.pack("<I", version))
        f.writelines(parts)


class _Frame:
    """The body of a framed file, read in order by `take` and `u32`.

    A strict prefix of the magic or a read past the end, other leading bytes,
    another version and bytes left over at `end` each raise CapkitError naming
    the path and the byte or version at fault.
    """

    def __init__(self, path: str, magic: bytes, version: int):
        with open(path, "rb") as f:
            self.blob = f.read()
        self.path, self.pos = path, len(magic)
        if self.blob[: len(magic)] != magic:
            if magic.startswith(self.blob):
                raise CapkitError(f"{path}: truncated at byte {len(self.blob)}")
            raise CapkitError(f"{path}: bad magic bytes")
        found = self.u32()
        if found != version:
            raise CapkitError(f"{path}: unsupported version {found}")

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CapkitError(f"{self.path}: truncated at byte {self.pos}")
        self.pos += n
        return self.blob[self.pos - n : self.pos]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def end(self) -> None:
        if self.pos != len(self.blob):
            raise CapkitError(f"{self.path}: header describes {self.pos} bytes, file has {len(self.blob)}")


# Feature files: magic | version u32 | id_len u32 | id | T u32 | D u32 | f32 data

@dataclass(frozen=True)
class FeatureClip:
    id: str
    data: np.ndarray  # T x D, float32

    @property
    def D(self) -> int:
        return self.data.shape[1]


def _check_shape(shape, where: str) -> None:
    if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
        raise CapkitError(f"{where}: feature data must be T x D with T, D >= 1, got shape {tuple(shape)}")


def write_features(clip: FeatureClip, path: str) -> None:
    data = np.ascontiguousarray(clip.data, dtype="<f4")
    _check_shape(data.shape, f"clip {clip.id!r}")
    if not np.isfinite(data).all():
        raise CapkitError(f"clip {clip.id!r} contains non-finite features")
    id_bytes = clip.id.encode("utf-8")
    head = struct.pack("<I", len(id_bytes)) + id_bytes + struct.pack("<II", *data.shape)
    _write_frame(path, MAGIC, VERSION, [head, data.tobytes()])


def read_features(path: str) -> FeatureClip:
    frame = _Frame(path, MAGIC, VERSION)
    try:
        clip_id = frame.take(frame.u32()).decode("utf-8")
    except UnicodeDecodeError as e:
        raise CapkitError(f"{path}: clip id is not UTF-8") from e
    t, d = frame.u32(), frame.u32()
    _check_shape((t, d), path)
    data = np.frombuffer(frame.take(t * d * 4), dtype="<f4").reshape(t, d)
    frame.end()
    if not np.isfinite(data).all():
        raise CapkitError(f"{path}: non-finite feature values")
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
SYNTH_FRAMES = 8  # frames per synthetic clip


@dataclass(frozen=True)
class SynthConfig:
    """The synthetic corpus's parameters; building one with an invalid field raises CapkitError."""

    n_clips: int = 500
    D: int = 16
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_clips < 1:
            raise CapkitError("n_clips must be >= 1")
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise CapkitError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.seed < 0:
            raise CapkitError("seed must be >= 0")
        if self.D < len(ACTORS) + len(ACTIONS) + len(CAUSES):
            raise CapkitError("D too small for the one-hot template encoding")


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
    """`n_clips` clips drawn from the 27 (actor, action, cause) templates.

    Per clip the generator draws, in this order, the actor, the action and the
    cause (one `integers` each) and then the (SYNTH_FRAMES, D) noise; the clip
    is float32(template signal + noise), and after the last clip one
    `permutation` splits the ids 80/10/10. The captions come from 27
    descriptions and 9 avoidances. Each template's `Caption` pair and signal
    row are built the first time a clip draws it, and its later clips share
    them (a `Caption` is immutable); the draws do not depend on that, so a
    seed gives the same corpus."""
    rng = np.random.default_rng(config.seed)
    sigma = abs(config.noise_std)  # numpy rejects -0.0
    templates = {}  # (actor_i, action_i, cause_i) -> (description, avoidance, signal)
    samples, clips, factors = [], {}, {}
    for i in range(config.n_clips):
        key = (int(rng.integers(len(ACTORS))), int(rng.integers(len(ACTIONS))), int(rng.integers(len(CAUSES))))
        if key not in templates:
            desc, avoid = template_caption(*key)
            templates[key] = (Caption.make(desc, ROLE_DESCRIPTION), Caption.make(avoid, ROLE_AVOIDANCE),
                              template_signal(*key, config.D))
        desc, avoid, sig = templates[key]
        clip_id = f"clip{i:04d}"
        noise = rng.normal(0.0, sigma, size=(SYNTH_FRAMES, config.D))
        samples.append(Sample(id=clip_id, description=desc, avoidance=avoid))
        clips[clip_id] = FeatureClip(id=clip_id, data=(sig + noise).astype(np.float32))
        factors[clip_id] = key
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
# JSON input: whole files, JSONL lines and the records they hold

def _is_text(value) -> bool:
    """A string without NUL or lone surrogates: JSON escapes can spell both,
    but no path or UTF-8 file can hold them."""
    return isinstance(value, str) and not re.search("[\x00\ud800-\udfff]", value)


def _json_object(blob: bytes, where: str) -> dict:
    try:
        obj = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as e:  # bad UTF-8 and bad JSON are ValueErrors
        raise CapkitError(f"{where}: not UTF-8 JSON: {e}") from e
    if not isinstance(obj, dict):
        raise CapkitError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    return obj


def read_json_object(path: str) -> dict:
    """The JSON object a whole file holds; a file that is not UTF-8, not JSON or
    not a JSON object raises CapkitError naming the path."""
    with open(path, "rb") as f:
        return _json_object(f.read(), path)


def _jsonl_objects(path: str):
    """Yield ("path:line", object) for each non-blank line, as `read_json_object`."""
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, 1):
            if line.strip():
                yield f"{path}:{lineno}", _json_object(line, f"{path}:{lineno}")


def _check_record(d: dict, where: str, fields) -> None:
    """The "id" and `fields` are present and text, and the id is not empty."""
    for f in ("id", *fields):
        if f not in d:
            raise CapkitError(f"{where}: missing field {f!r}")
        if not _is_text(d[f]):
            raise CapkitError(f"{where}: field {f!r} must be a string without NUL or lone surrogates")
    if not d["id"]:
        raise CapkitError(f"{where}: empty id")


def _caption(made: dict, text: str, role: str) -> Caption:
    """The Caption of (text, role), made once per `made`: each reader call keeps
    its own dict, so a text that repeats within a file is normalised once (a
    Caption is immutable, so its records share it)."""
    caption = made.get((text, role))
    if caption is None:
        caption = made[(text, role)] = Caption.make(text, role)
    return caption


def read_annotations_jsonl(path: str) -> list[Sample]:
    """One Sample per {"id","texts","causes","measures"} line, in file order:
    texts + "; " + causes is the description, measures the avoidance. The first
    bad line decides the error: an unknown field or a repeated id raises
    CapkitError naming `path:line`."""
    out, made = {}, {}
    for where, d in _jsonl_objects(path):
        _check_record(d, where, ANNOTATION_FIELDS[1:])
        extra = set(d) - set(ANNOTATION_FIELDS)
        if extra:
            raise CapkitError(f"{where}: unexpected annotation fields: {sorted(extra)}")
        if d["id"] in out:
            raise CapkitError(f"{where}: duplicate annotation id {d['id']!r}")
        out[d["id"]] = Sample(
            d["id"],
            _caption(made, d["texts"] + "; " + d["causes"], ROLE_DESCRIPTION),
            _caption(made, d["measures"], ROLE_AVOIDANCE),
        )
    return list(out.values())


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
    """One Sample per {"id","description","avoidance"} line, in file order; a
    repeated id raises CapkitError naming `path:line`."""
    out, made = {}, {}
    for where, d in _jsonl_objects(path):
        _check_record(d, where, ROLES)
        if d["id"] in out:
            raise CapkitError(f"{where}: duplicate sample id {d['id']!r}")
        out[d["id"]] = Sample(d["id"], *(_caption(made, d[r], r) for r in ROLES))
    return list(out.values())


def read_captions_jsonl(path: str) -> dict:
    """(id, role) -> Caption from {"id","role","text"} lines; any other line is a
    samples.jsonl line, which must hold both role fields and gives one entry per
    role. An unknown role or a repeat raises CapkitError naming `path:line`."""
    out, made = {}, {}
    for where, d in _jsonl_objects(path):
        caption = "role" in d or "text" in d
        _check_record(d, where, ("role", "text") if caption else ROLES)
        if caption and d["role"] not in ROLES:
            raise CapkitError(f"{where}: unknown caption role {d['role']!r}")
        texts = {d["role"]: d["text"]} if caption else {r: d[r] for r in ROLES}
        for role, text in texts.items():
            if (d["id"], role) in out:
                raise CapkitError(f"{where}: duplicate caption ({d['id']!r}, {role!r})")
            out[(d["id"], role)] = _caption(made, text, role)
    return out
