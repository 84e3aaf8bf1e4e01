import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capkit.data import (
    ACTORS,
    ACTIONS,
    CAUSES,
    MAGIC,
    MEASURES,
    VERSION,
    FeatureClip,
    Sample,
    SynthConfig,
    read_annotations_jsonl,
    read_features,
    read_samples_jsonl,
    synth_corpus,
    template_caption,
    template_signal,
    write_features,
    write_samples_jsonl,
)
from capkit.errors import (
    BadMagic,
    BadVersion,
    CapkitError,
    DimensionMismatch,
    DuplicateId,
    InvalidConfig,
    MissingField,
    NonFiniteValue,
    TruncatedFile,
    UnknownField,
)
from capkit.metrics import build_idf, cider_corpus
from capkit.textproc import ROLE_AVOIDANCE, ROLE_DESCRIPTION, Caption, normalize


# ---------------------------------------------------------------------------
# annotations: read_annotations_jsonl restructures each line into a Sample

def _ann(i="c1", texts="lead vehicle stops", causes="short braking distance", measures="keep distance"):
    return {"id": i, "texts": texts, "causes": causes, "measures": measures}


def _read_annotations(directory, *records):
    path = os.path.join(directory, "ann.jsonl")
    with open(path, "w") as f:
        f.writelines(json.dumps(r) + "\n" for r in records)
    return read_annotations_jsonl(path)


def test_restructure_merges_fields(tmp_path):
    (s,) = _read_annotations(tmp_path, _ann())
    assert s.description.raw == "lead vehicle stops; short braking distance"
    assert s.avoidance.raw == "keep distance"
    assert s.description.role == "description"
    assert s.avoidance.role == "avoidance"


def test_restructure_empty_measures_allowed(tmp_path):
    (s,) = _read_annotations(tmp_path, _ann(measures=""))
    assert s.avoidance.raw == ""
    assert s.avoidance.tokens == ()


def test_restructure_duplicate_id(tmp_path):
    """The repeat on line 2 is the first bad line, so it decides the error."""
    with pytest.raises(DuplicateId, match=r"ann\.jsonl:2: duplicate annotation id 'c1'"):
        _read_annotations(tmp_path, _ann(), _ann(), {"id": "x"})


def test_restructure_preserves_order(tmp_path):
    out = _read_annotations(tmp_path, _ann(i="b"), _ann(i="a"))
    assert [s.id for s in out] == ["b", "a"]


# Text a UTF-8 file can hold: no NUL and no lone surrogates
_FILE_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=20)


@given(_FILE_TEXT, _FILE_TEXT, _FILE_TEXT)
def test_restructure_lossless(texts, causes, measures):
    with tempfile.TemporaryDirectory() as tmp:
        (s,) = _read_annotations(tmp, _ann(texts=texts, causes=causes, measures=measures))
    assert s.description.raw == texts + "; " + causes
    assert s.avoidance.raw == measures


def test_annotation_missing_field(tmp_path):
    with pytest.raises(MissingField):
        _read_annotations(tmp_path, {"id": "x", "texts": "t", "causes": "c"})


def test_annotation_unknown_field(tmp_path):
    with pytest.raises(UnknownField):
        _read_annotations(tmp_path, {**_ann(), "Texts": "t"})


def test_annotation_empty_id(tmp_path):
    with pytest.raises(MissingField):
        _read_annotations(tmp_path, _ann(i=""))


# ---------------------------------------------------------------------------
# feature files

def _clip(data=None, cid="clip0"):
    if data is None:
        data = np.arange(12, dtype=np.float32).reshape(3, 4)
    return FeatureClip(id=cid, data=np.asarray(data, dtype=np.float32))


def test_feature_round_trip(tmp_path):
    path = os.path.join(tmp_path, "c.avdf")
    clip = _clip()
    write_features(clip, path)
    back = read_features(path)
    assert back.id == clip.id
    assert back.data.shape == (3, 4) and back.D == 4
    assert back.data.tobytes() == clip.data.tobytes()


def test_feature_round_trip_subnormals(tmp_path):
    tiny = np.float32(1e-45)  # smallest subnormal float32
    clip = _clip(np.full((2, 2), tiny))
    path = os.path.join(tmp_path, "c.avdf")
    write_features(clip, path)
    assert read_features(path).data.tobytes() == clip.data.tobytes()


def test_feature_bad_magic(tmp_path):
    path = os.path.join(tmp_path, "c.avdf")
    with open(path, "wb") as f:
        f.write(b"NOPE" + b"\x00" * 20)
    with pytest.raises(BadMagic):
        read_features(path)


def test_feature_bad_version(tmp_path):
    path = os.path.join(tmp_path, "c.avdf")
    write_features(_clip(), path)
    with open(path, "rb") as f:
        blob = bytearray(f.read())
    blob[4] = 9
    with open(path, "wb") as f:
        f.write(blob)
    with pytest.raises(BadVersion):
        read_features(path)


def test_feature_truncated(tmp_path):
    """Every strict prefix of a valid file, the empty file and the first bytes
    of the magic included."""
    path = os.path.join(tmp_path, "c.avdf")
    write_features(_clip(), path)
    with open(path, "rb") as f:
        blob = f.read()
    for n in range(len(blob)):
        with open(path, "wb") as f:
            f.write(blob[:n])
        with pytest.raises(TruncatedFile):
            read_features(path)


def test_feature_trailing_bytes(tmp_path):
    """Bytes past the T x D data the header describes are rejected."""
    path = os.path.join(tmp_path, "c.avdf")
    write_features(_clip(), path)
    size = os.path.getsize(path)
    with open(path, "ab") as f:
        f.write(b"\x00" * 4)
    with pytest.raises(DimensionMismatch, match=f"describes {size} bytes, file has {size + 4}"):
        read_features(path)


@pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0), (12,), (2, 3, 2)])
def test_feature_write_bad_shape(shape):
    with pytest.raises(DimensionMismatch):
        write_features(_clip(np.zeros(shape)), os.devnull)


@pytest.mark.parametrize("t,d", [(0, 4), (3, 0), (0, 0)])
def test_feature_read_empty_dimension(tmp_path, t, d):
    path = os.path.join(tmp_path, "c.avdf")
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<II", VERSION, 2) + b"ab" + struct.pack("<II", t, d))
    with pytest.raises(DimensionMismatch):
        read_features(path)


def test_feature_nonfinite_write():
    clip = _clip(np.array([[np.nan, 1.0]], dtype=np.float32))
    with pytest.raises(NonFiniteValue):
        write_features(clip, os.devnull)


def test_feature_nonfinite_read(tmp_path):
    path = os.path.join(tmp_path, "c.avdf")
    write_features(_clip(np.ones((1, 1))), path)
    with open(path, "rb") as f:
        blob = bytearray(f.read())
    blob[-4:] = np.array([np.inf], dtype="<f4").tobytes()
    with open(path, "wb") as f:
        f.write(blob)
    with pytest.raises(NonFiniteValue):
        read_features(path)


def test_feature_id_not_utf8(tmp_path):
    path = os.path.join(tmp_path, "c.avdf")
    write_features(_clip(cid="ab"), path)
    with open(path, "rb") as f:
        blob = bytearray(f.read())
    blob[12:14] = b"\xff\xfe"
    with open(path, "wb") as f:
        f.write(blob)
    with pytest.raises(InvalidConfig):
        read_features(path)


def _read_bytes_only_capkit_errors(tmp_path_factory, blob: bytes):
    path = os.path.join(tmp_path_factory.getbasetemp(), "fuzz.avdf")
    with open(path, "wb") as f:
        f.write(blob)
    try:
        read_features(path)
    except CapkitError:
        pass


@settings(max_examples=300)
@given(st.binary(max_size=64))
def test_feature_reader_fuzz_after_header(tmp_path_factory, tail):
    _read_bytes_only_capkit_errors(tmp_path_factory, MAGIC + struct.pack("<I", VERSION) + tail)


@settings(max_examples=300)
@given(st.binary(max_size=8), st.integers(0, 3), st.integers(0, 3), st.binary(max_size=48))
def test_feature_reader_fuzz_fields(tmp_path_factory, clip_id, t, d, data):
    """Well-framed files: any id bytes, small shapes, any (possibly short) data."""
    head = MAGIC + struct.pack("<II", VERSION, len(clip_id)) + clip_id
    _read_bytes_only_capkit_errors(tmp_path_factory, head + struct.pack("<II", t, d) + data)


@settings(max_examples=300)
@given(st.binary(max_size=64))
def test_feature_reader_fuzz_whole_file(tmp_path_factory, blob):
    _read_bytes_only_capkit_errors(tmp_path_factory, blob)


# ---------------------------------------------------------------------------
# synthetic corpus

def test_synth_noiseless_features_deterministic_by_template():
    corpus = synth_corpus(SynthConfig(n_clips=60, noise_std=0.0, seed=1))
    by_factors = {}
    for cid, fac in corpus.factors.items():
        key = fac
        data = corpus.clips[cid].data
        if key in by_factors:
            assert np.array_equal(by_factors[key], data)
        else:
            by_factors[key] = data


def test_synth_same_seed_identical():
    a = synth_corpus(SynthConfig(n_clips=30, seed=5))
    b = synth_corpus(SynthConfig(n_clips=30, seed=5))
    assert a.split == b.split
    assert [s.description.raw for s in a.samples] == [s.description.raw for s in b.samples]
    for cid in a.clips:
        assert np.array_equal(a.clips[cid].data, b.clips[cid].data)


def test_synth_caption_vocabulary_closed():
    allowed = set()
    for phrase in ACTORS + ACTIONS + CAUSES + MEASURES + ("the", "should"):
        allowed.update(normalize(phrase))
    corpus = synth_corpus(SynthConfig(n_clips=100, seed=2))
    for s in corpus.samples:
        assert set(s.description.tokens) <= allowed
        assert set(s.avoidance.tokens) <= allowed


def test_synth_split_disjoint_and_covering():
    corpus = synth_corpus(SynthConfig(n_clips=100, seed=3))
    tr, va, te = (set(corpus.split[k]) for k in ("train", "val", "test"))
    assert len(tr) == 80 and len(va) == 10 and len(te) == 10
    assert not (tr & va) and not (tr & te) and not (va & te)
    assert tr | va | te == {s.id for s in corpus.samples}


def test_synth_template_lookup_oracle_solves_noiseless_corpus():
    """Nearest one-hot template decoding reaches CIDEr-D >= 9.5 with no noise."""
    corpus = synth_corpus(SynthConfig(n_clips=120, noise_std=0.0, seed=4))
    refs = [s.description.tokens for s in corpus.samples]
    idf = build_idf(refs)
    templates = [
        (a, b, c)
        for a in range(len(ACTORS))
        for b in range(len(ACTIONS))
        for c in range(len(CAUSES))
    ]
    signals = np.array([template_signal(*t, 16) for t in templates])
    hyps = []
    for s in corpus.samples:
        pooled = corpus.clips[s.id].data.mean(axis=0)
        best = int(np.argmin(((signals - pooled) ** 2).sum(axis=1)))
        desc, _ = template_caption(*templates[best])
        hyps.append(tuple(normalize(desc)))
    assert cider_corpus(hyps, refs, idf) >= 9.5


# ---------------------------------------------------------------------------
# jsonl

def _write_corpus(tmp_path, n=5):
    corpus = synth_corpus(SynthConfig(n_clips=n, seed=0))
    os.makedirs(os.path.join(tmp_path, "features"), exist_ok=True)
    index = {}
    for cid, clip in corpus.clips.items():
        rel = f"features/{cid}.avdf"
        write_features(clip, os.path.join(tmp_path, rel))
        index[cid] = rel
    return corpus, index


def test_samples_jsonl_round_trip(tmp_path):
    corpus, _ = _write_corpus(tmp_path)
    path = os.path.join(tmp_path, "samples.jsonl")
    write_samples_jsonl(corpus.samples, path)
    back = read_samples_jsonl(path)
    assert [s.id for s in back] == [s.id for s in corpus.samples]
    assert [s.description.raw for s in back] == [s.description.raw for s in corpus.samples]


def test_annotations_jsonl(tmp_path):
    (s,) = _read_annotations(tmp_path, {"id": "a", "texts": "t", "causes": "c", "measures": "m"})
    assert s == Sample("a", Caption.make("t; c", ROLE_DESCRIPTION), Caption.make("m", ROLE_AVOIDANCE))
