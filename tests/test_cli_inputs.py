"""The CLI's error contract: exit 1 for I/O, 2 for validation, 3 for numerics,
and no traceback for any input in a documented format."""
import json
import os
import pathlib
import shutil
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from capkit.cli import build_parser, main
from capkit.data import FeatureClip, write_features
from capkit.textproc import ROLES

GOOD_ANNOTATION = {"id": "a1", "texts": "car stops", "causes": "wet road", "measures": "brake early"}
GOOD_CAPTION = {"id": "a1", "role": "description", "text": "the car stops"}
REPORT = {"b1": 0.3, "b2": 0.2, "b3": 0.1, "b4": 0.05, "rouge_l": 0.3, "meteor": 0.2, "cider_d": 1.0, "counts": 4}


def run(capsys, *argv):
    status = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def write(path, content):
    with open(path, "wb") as f:
        f.write(content if isinstance(content, bytes) else content.encode("utf-8"))
    return path


def jsonl(rows):
    return "".join(json.dumps(r) + "\n" for r in rows)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A 24-clip synthetic corpus and a one-epoch checkpoint trained on it."""
    root = str(tmp_path_factory.mktemp("corpus"))
    data = os.path.join(root, "data")
    ckpt = os.path.join(root, "mle.ckpt")
    assert main(["synth", "--out", data, "--n-clips", "24", "--seed", "7"]) == 0
    assert main([
        "train-mle", "--data", data, "--out", ckpt, "--epochs", "1",
        "--d-model", "8", "--n-heads", "1", "--max-len", "8",
    ]) == 0
    return {"root": root, "data": data, "ckpt": ckpt}


def corpus_copy(corpus, dst, name, content):
    """A copy of the corpus directory with one file replaced."""
    data = os.path.join(dst, "data")
    shutil.copytree(corpus["data"], data)
    write(os.path.join(data, name), content)
    return data


def assert_validation_error(status, err, message):
    """Exit status 2, and the last stderr line is "validation error: " and a
    message that holds `message`."""
    assert status == 2
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith("validation error: ") and message in last, last


# ---------------------------------------------------------------------------
# Inputs that escaped with a traceback, or were accepted, before the contract

def _config_case(content, argv):
    def make(tmp, corpus):
        return ["--config", write(os.path.join(tmp, "cfg.json"), content), *argv(tmp, corpus)]
    return make


def _synth(tmp, corpus):
    return ["synth", "--out", os.path.join(tmp, "out")]


def _train_mle(tmp, corpus):
    return ["train-mle", "--data", corpus["data"], "--out", os.path.join(tmp, "out"), "--epochs", "1"]


def _decode(tmp, corpus, data=None):
    return ["decode", "--data", data or corpus["data"], "--ckpt", corpus["ckpt"], "--out", os.path.join(tmp, "out")]


def _score(hyps, refs):
    """A score command line for hypothesis and reference lines."""
    def make(tmp, corpus):
        return ["score", "--hyps", write(os.path.join(tmp, "h.jsonl"), jsonl(hyps)),
                "--refs", write(os.path.join(tmp, "r.jsonl"), jsonl(refs)), "--out", os.path.join(tmp, "out")]
    return make


def _ckpt_with_unknown_config_key(corpus, tmp):
    """A copy of the corpus checkpoint whose header config also holds "bogus"."""
    with open(corpus["ckpt"], "rb") as f:
        blob = f.read()
    (n,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12 : 12 + n])
    header["config"]["bogus"] = 1
    head = json.dumps(header).encode("utf-8")
    return write(os.path.join(tmp, "bad.ckpt"), blob[:8] + struct.pack("<I", len(head)) + head + blob[12 + n :])


def _samples_with_first_line_twice(corpus, tmp):
    with open(os.path.join(corpus["data"], "samples.jsonl"), encoding="utf-8") as f:
        lines = f.readlines()
    return corpus_copy(corpus, tmp, "samples.jsonl", "".join([lines[0], *lines]))


REJECTED = {
    "config_not_an_object": (_config_case("5", _synth), "cfg.json: expected a JSON object, got int"),
    "config_not_json": (_config_case("{not", _synth), "cfg.json: not UTF-8 JSON: "),
    "config_float_for_int": (_config_case('{"n_clips": 2.5}', _synth), "cfg.json: --n-clips cannot take 2.5"),
    "config_bad_choice": (_config_case('{"roles": "narration"}', _train_mle), "cfg.json: --roles cannot take 'narration'"),
    "config_string_for_bool": (_config_case('{"sample": "false"}', _decode), "cfg.json: --sample cannot take 'false'"),
    "config_unknown_flag": (_config_case('{"bogus_flag": 3}', _synth), "cfg.json: unknown flag 'bogus_flag'"),
    "caption_id_not_a_string": (
        lambda tmp, corpus: ["score", "--hyps", write(os.path.join(tmp, "h.jsonl"), jsonl([{**GOOD_CAPTION, "id": [1]}])),
                             "--refs", os.path.join(corpus["data"], "samples.jsonl"),
                             "--out", os.path.join(tmp, "out")],
        "h.jsonl:1: field 'id' must be a string without NUL or lone surrogates",
    ),
    "annotation_texts_not_a_string": (
        lambda tmp, corpus: ["ingest", write(os.path.join(tmp, "a.jsonl"), jsonl([{**GOOD_ANNOTATION, "texts": 1}])),
                             "--out", os.path.join(tmp, "out")],
        "a.jsonl:1: field 'texts' must be a string",
    ),
    "index_not_an_object_decode": (
        lambda tmp, corpus: _decode(tmp, corpus, corpus_copy(corpus, tmp, "feature_index.json", "[1]")),
        "feature_index.json: expected a JSON object, got list",
    ),
    "index_not_an_object_fid": (
        lambda tmp, corpus: ["fid", write(os.path.join(tmp, "index.json"), "[1]"),
                             os.path.join(corpus["data"], "feature_index.json")],
        "index.json: expected a JSON object, got list",
    ),
    "index_empty_train_mle": (
        lambda tmp, corpus: ["train-mle", "--data", corpus_copy(corpus, tmp, "feature_index.json", "{}"),
                             "--out", os.path.join(tmp, "out")],
        "feature_index.json: expected a non-empty object mapping clip ids to paths",
    ),
    "report_not_an_object": (
        lambda tmp, corpus: ["report", write(os.path.join(tmp, "r.json"), "[5]")],
        "r.json: expected a JSON object, got list",
    ),
    "score_duplicate_hypothesis": (
        _score([GOOD_CAPTION, {**GOOD_CAPTION, "text": "rain"}], [GOOD_CAPTION]),
        "h.jsonl:2: duplicate caption ('a1', 'description')",
    ),
    "score_duplicate_reference": (
        _score([GOOD_CAPTION], [{"id": "a1", "description": "the car stops", "avoidance": "brake"}] * 2),
        "r.jsonl:2: duplicate caption ('a1', 'description')",
    ),
    "score_reference_samples_line_without_a_role": (
        _score([GOOD_CAPTION, {**GOOD_CAPTION, "role": "avoidance"}], [{"id": "a1", "description": "the car stops"}]),
        "r.jsonl:1: missing field 'avoidance'",
    ),
    "score_hypothesis_unknown_role": (
        _score([{**GOOD_CAPTION, "role": "narration"}], [GOOD_CAPTION]),
        "h.jsonl:1: unknown caption role 'narration'",
    ),
    "score_no_shared_pair": (
        _score([GOOD_CAPTION], [{**GOOD_CAPTION, "id": "b1"}]),
        "no (id, role) pairs shared by hypotheses and references",
    ),
    "checkpoint_unknown_config_key_decode": (
        lambda tmp, corpus: ["decode", "--data", corpus["data"], "--ckpt", _ckpt_with_unknown_config_key(corpus, tmp),
                             "--out", os.path.join(tmp, "out")],
        "bad.ckpt: checkpoint config unreadable: TypeError: ",
    ),
    "samples_duplicate_id_decode": (
        lambda tmp, corpus: _decode(tmp, corpus, _samples_with_first_line_twice(corpus, tmp)),
        "samples.jsonl:2: duplicate sample id 'clip",
    ),
    "samples_duplicate_id_train_mle": (
        lambda tmp, corpus: ["train-mle", "--data", _samples_with_first_line_twice(corpus, tmp),
                             "--out", os.path.join(tmp, "out"), "--epochs", "1"],
        "samples.jsonl:2: duplicate sample id 'clip",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_input_exits_2(tmp_path, capsys, corpus, case):
    make, message = REJECTED[case]
    status, _, err = run(capsys, *make(str(tmp_path), corpus))
    assert_validation_error(status, err, message)
    assert not os.path.exists(os.path.join(tmp_path, "out"))


@pytest.mark.parametrize("stage", ["train-mle", "train-scst"])
@pytest.mark.parametrize("flag, value", [
    ("--batch", "0"), ("--batch", "-1"), ("--epochs", "-1"),
    ("--lr", "nan"), ("--lr", "inf"), ("--lr", "0"), ("--lr", "-1"),
])
def test_training_rejects_batch_and_epochs(tmp_path, capsys, corpus, stage, flag, value):
    """A batch size, epoch count or learning rate out of range exits 2 and writes nothing."""
    out = os.path.join(tmp_path, "out")
    ckpt = ["--ckpt", corpus["ckpt"]] if stage == "train-scst" else []
    status, _, err = run(capsys, stage, "--data", corpus["data"], *ckpt, "--out", out, flag, value)
    why = "learning rate must be finite and > 0" if flag == "--lr" else "need batch_size >= 1 and epochs >= 0"
    assert_validation_error(status, err, why)
    assert not os.path.exists(out)


@pytest.mark.parametrize("d_model, numpy_error", [
    ("100000000", "Unable to allocate"),  # 1.6e17 parameters: numpy's MemoryError
    ("1000000000", "Maximum allowed dimension"),  # 1.6e19 parameters: numpy's ValueError
])
def test_train_mle_model_too_large_to_allocate(tmp_path, capsys, corpus, d_model, numpy_error):
    """A model whose parameter vector cannot be allocated exits 2 naming its
    parameter count. numpy refuses both sizes before it maps any page."""
    out = os.path.join(tmp_path, "out")
    status, _, err = run(capsys, "train-mle", "--data", corpus["data"], "--out", out, "--d-model", d_model)
    assert_validation_error(status, err, "parameters cannot be allocated")
    assert numpy_error in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("stage", ["train-mle", "train-scst"])
def test_training_on_empty_train_split(tmp_path, capsys, corpus, stage):
    splits = json.loads(pathlib.Path(corpus["data"], "splits.json").read_text())
    data = corpus_copy(corpus, str(tmp_path), "splits.json", json.dumps({**splits, "train": []}))
    ckpt = ["--ckpt", corpus["ckpt"]] if stage == "train-scst" else []
    status, _, err = run(capsys, stage, "--data", data, *ckpt, "--out", os.path.join(tmp_path, "out"))
    assert_validation_error(status, err, f"{data}: split 'train' has no samples")


@pytest.mark.parametrize("splits", [{"val": []}, {"train": "clip0000"}, {"train": ["no-such-clip"]}])
def test_split_must_list_ids_with_clips(tmp_path, capsys, corpus, splits):
    data = corpus_copy(corpus, str(tmp_path), "splits.json", json.dumps(splits))
    status, _, err = run(capsys, "train-mle", "--data", data, "--out", os.path.join(tmp_path, "out"))
    assert_validation_error(status, err, f"{data}: splits.json: split 'train' must list ids that each have a clip")


def test_index_path_with_nul_exits_2(tmp_path, capsys, corpus):
    index = write(os.path.join(tmp_path, "index.json"), json.dumps({"a": "x\u0000y"}))
    status, _, err = run(capsys, "fid", index, index)
    assert_validation_error(status, err, f"{index}: expected a non-empty object mapping clip ids to paths")


def test_fid_clips_of_different_dimension(tmp_path, capsys, corpus):
    index = json.loads(pathlib.Path(corpus["data"], "feature_index.json").read_text())
    index = {cid: os.path.join(corpus["data"], rel) for cid, rel in index.items()}
    index["odd"] = os.path.join(tmp_path, "odd.avdf")
    write_features(FeatureClip("odd", np.ones((2, 8), dtype=np.float32)), index["odd"])  # the corpus has D = 16
    path = write(os.path.join(tmp_path, "index.json"), json.dumps(index))
    status, _, err = run(capsys, "fid", path, path)
    assert_validation_error(status, err, f"{path}: clips differ in feature dimension")


def test_feature_file_must_hold_the_clip_of_its_index_id(tmp_path, capsys, corpus):
    """An index that swaps the files of a train clip and a val clip exits 2
    from every command that reads either clip, naming the file, the id it
    holds and the id the index lists it under."""
    data = pathlib.Path(corpus["data"])
    index = json.loads((data / "feature_index.json").read_text())
    splits = json.loads((data / "splits.json").read_text())
    a, b = splits["train"][0], splits["val"][0]
    index[a], index[b] = index[b], index[a]
    data = corpus_copy(corpus, str(tmp_path), "feature_index.json", json.dumps(index))
    index_path = os.path.join(data, "feature_index.json")
    out = os.path.join(tmp_path, "out")
    first = next(cid for cid in index if cid in (a, b))  # the one of the two that fid reads first
    for argv, held, listed in [
        (["train-mle", "--data", data, "--out", out, "--epochs", "1"], b, a),
        (["train-scst", "--data", data, "--ckpt", corpus["ckpt"], "--out", out, "--epochs", "1"], b, a),
        (["decode", "--data", data, "--ckpt", corpus["ckpt"], "--out", out], a, b),
        (["fid", index_path, index_path], a if first == b else b, first),
    ]:
        status, _, err = run(capsys, *argv)
        path = os.path.join(data, index[listed])
        assert_validation_error(status, err, f"{path}: holds clip {held!r}, but {index_path} lists it as {listed!r}")
        assert not os.path.exists(out)


def _tree_bytes(root):
    """Relative path -> bytes of every file under root."""
    return {str(p.relative_to(root)): p.read_bytes() for p in pathlib.Path(root).rglob("*") if p.is_file()}


def test_synth_negative_seed(tmp_path, capsys):
    """A clip count below 1, a negative seed or a non-finite noise_std exits 2
    before any output is written; a noise_std of -0.0, by flag or by
    --config, writes the bytes of 0.0."""

    def synth(name, *flags, config=None):
        out = os.path.join(tmp_path, name)
        pre = ["--config", write(os.path.join(tmp_path, f"{name}.json"), config)] if config else []
        status, _, err = run(capsys, *pre, "synth", "--out", out, "--n-clips", "10", *flags)
        return status, err, out

    for name, flags, config, why in [
        ("no_clips", ["--n-clips", "0"], None, "n_clips must be >= 1"),
        ("seed", ["--seed", "-1"], None, "seed must be >= 0"),
        ("nan", ["--noise-std", "nan"], None, "noise_std must be finite and >= 0, got nan"),
        ("inf", ["--noise-std", "inf"], None, "noise_std must be finite and >= 0, got inf"),
        ("nan_config", [], '{"noise_std": NaN}', "noise_std must be finite and >= 0, got nan"),
    ]:
        status, err, out = synth(name, *flags, config=config)
        assert_validation_error(status, err, why)
        assert not os.path.exists(out)
    trees = []
    for name, flags, config in [
        ("zero", ["--noise-std", "0.0"], None),
        ("minus_zero", ["--noise-std", "-0.0"], None),
        ("minus_zero_config", [], '{"noise_std": -0.0}'),
    ]:
        status, err, out = synth(name, *flags, config=config)
        assert status == 0, err
        trees.append(_tree_bytes(out))
    assert trees[0] and trees[1] == trees[0] and trees[2] == trees[0]


@pytest.mark.parametrize("temperature, status, message", [
    ("nan", 2, "validation error: temperature must be finite and > 0, got nan"),
    ("inf", 2, "validation error: temperature must be finite and > 0, got inf"),
])
def test_decode_sample_temperature(tmp_path, capsys, corpus, temperature, status, message):
    """The error is the one stderr line: no RuntimeWarning comes before it."""
    argv = _decode(str(tmp_path), corpus) + ["--sample", "--temperature", temperature]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, _, err = run(capsys, *argv)
    assert got == status
    assert err.strip().splitlines()[-1] == message
    assert not any(issubclass(w.category, RuntimeWarning) for w in caught)


def test_decode_sample_at_subnormal_temperature_is_greedy(tmp_path, capsys, corpus):
    """At T = 1e-310 every non-maximal logit's (z - max) / T overflows to -inf
    and its weight to 0: sampling returns the greedy captions, with no warning."""
    out = pathlib.Path(tmp_path, "out")  # where _decode writes
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status, _, err = run(capsys, *_decode(str(tmp_path), corpus), "--sample", "--temperature", "1e-310")
    assert status == 0, err
    assert not any(issubclass(w.category, RuntimeWarning) for w in caught)
    sampled = out.read_bytes()
    assert run(capsys, *_decode(str(tmp_path), corpus))[0] == 0
    assert sampled == out.read_bytes()


def test_score_long_shuffled_caption(tmp_path, capsys):
    """A hypothesis that shuffles a 1000-word reference of distinct words
    scores with exit 0: METEOR's chunk search over about 1000 one-word chunks
    keeps its depth on a list, not on Python's call stack."""
    words = [f"w{i}" for i in range(1000)]
    shuffled = list(np.random.default_rng(0).permutation(words))
    refs = write(os.path.join(tmp_path, "refs.jsonl"), jsonl([{"id": "c", "role": "description", "text": " ".join(words)}]))
    hyps = write(os.path.join(tmp_path, "hyps.jsonl"), jsonl([{"id": "c", "role": "description", "text": " ".join(shuffled)}]))
    out = os.path.join(tmp_path, "report.json")
    status, stdout, err = run(capsys, "score", "--hyps", hyps, "--refs", refs, "--out", out)
    assert status == 0, err
    report = json.loads(stdout)
    assert all(np.isfinite(report[k]) for k in ("b1", "b2", "b3", "b4", "rouge_l", "meteor", "cider_d"))
    assert report["b1"] == 1.0 and report["counts"] == 1
    assert 0.0 < report["meteor"] < 0.55  # every unigram matches, in about 1000 chunks


def test_config_accepts_values_of_the_flag_type(tmp_path, capsys, corpus):
    cfg = write(os.path.join(tmp_path, "cfg.json"), json.dumps({"sample": True, "temperature": 1, "split": "test"}))
    status, _, err = run(capsys, "--config", cfg, *_decode(str(tmp_path), corpus))
    assert status == 0
    assert '"sample": true' in err and '"split": "test"' in err
    report = write(os.path.join(tmp_path, "r.json"), json.dumps(REPORT))
    cfg = write(os.path.join(tmp_path, "cfg.json"), json.dumps({"labels": ["A/B"]}))
    status, stdout, _ = run(capsys, "--config", cfg, "report", report)
    assert status == 0
    assert stdout.splitlines()[1].split()[:2] == ["A", "B"]


def test_report_empty_labels_are_given_labels(tmp_path, capsys):
    """`--labels` with no values, by flag or by --config, is a label list of
    length 0: it does not fall back to the file names, so it exits 2 as any
    other wrong label count does."""
    report = write(os.path.join(tmp_path, "r.json"), json.dumps(REPORT))
    cfg = write(os.path.join(tmp_path, "cfg.json"), json.dumps({"labels": []}))
    for argv in (["report", report, "--labels"], ["--config", cfg, "report", report]):
        status, stdout, err = run(capsys, *argv)
        assert_validation_error(status, err, "label count does not match report count")
        assert stdout == ""


def test_config_defaults_do_not_reach_the_next_call(tmp_path, capsys):
    """main reuses one parser; a --config run's defaults stay with that run."""
    report = write(os.path.join(tmp_path, "r.json"), json.dumps(REPORT))
    cfg = write(os.path.join(tmp_path, "cfg.json"), json.dumps({"labels": ["A/B"]}))
    status, stdout, _ = run(capsys, "--config", cfg, "report", report)
    assert status == 0
    assert stdout.splitlines()[1].split()[:2] == ["A", "B"]
    status, stdout, _ = run(capsys, "report", report)
    assert status == 0
    assert stdout.splitlines()[1].split()[0] == "r.json"


def test_flags_sharing_a_dest_share_type_and_choices():
    """`cli._config_defaults` checks a value against one action per dest."""
    parser = build_parser()
    seen = {}
    for sp in (parser, *parser._command_parsers.values()):
        for a in sp._actions:
            if a.option_strings:
                seen.setdefault(a.dest, set()).add((a.type, a.nargs, tuple(a.choices or ())))
    assert all(len(kinds) == 1 for kinds in seen.values())


# ---------------------------------------------------------------------------
# Fuzz: any JSONL line or JSON file gives exit 0, 1 or 2, or argparse's exit

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
JSON_VALUES = st.recursive(
    SCALARS, lambda c: st.lists(c, max_size=3) | st.dictionaries(st.text(max_size=6), c, max_size=3), max_leaves=8
)
RECORD_KEYS = ["id", "role", "text", *ROLES, "texts", "causes", "measures"]
# Records that hold each field, or not, and most often a string in it.
RECORDS = st.fixed_dictionaries(
    {}, optional={k: st.text(max_size=8) | st.sampled_from(ROLES) | JSON_VALUES for k in RECORD_KEYS}
)
LINES = st.lists(st.one_of(JSON_VALUES.map(json.dumps), RECORDS.map(json.dumps), st.text(max_size=20)), max_size=3)
FILES = st.one_of(JSON_VALUES.map(json.dumps), st.binary(max_size=40), st.text(max_size=40))

FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def exit_status(argv) -> int:
    try:
        status = main([str(a) for a in argv])
    except SystemExit as e:  # argparse rejects the command line
        assert e.code == 2
        event("argparse exit 2")
        return 2
    assert status in (0, 1, 2)
    event(f"exit {status}")
    return status


@pytest.mark.parametrize("command", ["score", "ingest", "train-mle"])
@FUZZ
@given(lines=LINES)
def test_fuzz_jsonl_lines(corpus, command, lines):
    with tempfile.TemporaryDirectory(dir=corpus["root"]) as tmp:
        text = "\n".join(lines) + "\n"
        out = os.path.join(tmp, "out")
        if command == "score":
            hyps = write(os.path.join(tmp, "h.jsonl"), jsonl([GOOD_CAPTION]) + text)
            argv = ["score", "--hyps", hyps, "--refs", hyps, "--out", out]
        elif command == "ingest":
            ann = write(os.path.join(tmp, "a.jsonl"), jsonl([GOOD_ANNOTATION]) + text)
            argv = ["ingest", ann, "--out", out]
        else:
            samples = pathlib.Path(corpus["data"], "samples.jsonl").read_text(encoding="utf-8")
            data = corpus_copy(corpus, tmp, "samples.jsonl", samples + text)
            argv = ["train-mle", "--data", data, "--out", out, "--epochs", "1",
                    "--d-model", "8", "--n-heads", "1", "--max-len", "8"]
        exit_status(argv)


CONFIG_KEYS = sorted({a.dest for sp in build_parser()._command_parsers.values() for a in sp._actions})


@FUZZ
@given(content=FILES | st.dictionaries(st.sampled_from(CONFIG_KEYS) | st.text(max_size=6), JSON_VALUES, max_size=3)
       .map(json.dumps))
def test_fuzz_config_file(corpus, content):
    with tempfile.TemporaryDirectory(dir=corpus["root"]) as tmp:
        cfg = write(os.path.join(tmp, "cfg.json"), content)
        refs = os.path.join(corpus["data"], "samples.jsonl")
        exit_status(["--config", cfg, "score", "--hyps", refs, "--refs", refs, "--out", os.path.join(tmp, "out")])


@pytest.mark.parametrize("command", ["decode", "fid"])
@FUZZ
@given(data=st.data())
def test_fuzz_feature_index(corpus, command, data):
    index = json.loads(pathlib.Path(corpus["data"], "feature_index.json").read_text())
    paths = [os.path.join(corpus["data"], rel) for rel in index.values()]
    mapped = st.dictionaries(st.sampled_from(sorted(index)) | st.text(max_size=4),
                             st.sampled_from(paths) | JSON_VALUES, max_size=4)
    content = data.draw(FILES | mapped.map(json.dumps))
    with tempfile.TemporaryDirectory(dir=corpus["root"]) as tmp:
        if command == "decode":
            exit_status(_decode(tmp, corpus, corpus_copy(corpus, tmp, "feature_index.json", content)))
        else:
            exit_status(["fid", write(os.path.join(tmp, "index.json"), content),
                         os.path.join(corpus["data"], "feature_index.json")])


@FUZZ
@given(data=st.data())
def test_fuzz_splits(corpus, data):
    ids = sorted(json.loads(pathlib.Path(corpus["data"], "feature_index.json").read_text()))
    splits = st.dictionaries(st.sampled_from(["train", "val", "test"]) | st.text(max_size=4),
                             st.lists(st.sampled_from(ids) | SCALARS, max_size=4) | JSON_VALUES, max_size=3)
    content = data.draw(FILES | splits.map(json.dumps))
    with tempfile.TemporaryDirectory(dir=corpus["root"]) as tmp:
        exit_status(_decode(tmp, corpus, corpus_copy(corpus, tmp, "splits.json", content)))


@FUZZ
@given(content=FILES | st.dictionaries(st.sampled_from(sorted(REPORT)) | st.text(max_size=4),
                                       JSON_VALUES, max_size=9).map(json.dumps)
       | st.builds(lambda k, v: json.dumps({**REPORT, k: v}), st.sampled_from(sorted(REPORT)), JSON_VALUES))
def test_fuzz_report_file(corpus, content):
    with tempfile.TemporaryDirectory(dir=corpus["root"]) as tmp:
        exit_status(["report", write(os.path.join(tmp, "r.json"), content)])
