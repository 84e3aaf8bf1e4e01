import ast
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from capkit import data as dmod
from capkit.cli import build_parser, main, render_report_table
from capkit.metrics import ScoreReport
from capkit.seqmodel import ModelParams, load_checkpoint, save_checkpoint


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def read(path, mode="r"):
    with open(path, mode) as f:
        return f.read()


def load_json(path):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# ingest

def _write_annotations(path, rows):
    with open(path, "w") as f:
        for r in rows:
            f.write(json.dumps(r) + "\n")


GOOD_ROW = {"id": "a1", "texts": "car stops", "causes": "wet road", "measures": "brake early"}


def test_ingest_ok(tmp_path, capsys):
    src = os.path.join(tmp_path, "ann.jsonl")
    dst = os.path.join(tmp_path, "samples.jsonl")
    _write_annotations(src, [GOOD_ROW, {**GOOD_ROW, "id": "a2"}])
    status, _, _ = run(capsys, "ingest", src, "--out", dst)
    assert status == 0
    assert len(read(dst).strip().splitlines()) == 2


def test_ingest_duplicate_id(tmp_path, capsys):
    src = os.path.join(tmp_path, "ann.jsonl")
    _write_annotations(src, [GOOD_ROW, GOOD_ROW])
    status, _, err = run(capsys, "ingest", src, "--out", os.path.join(tmp_path, "o.jsonl"))
    assert status == 2
    assert f"validation error: {src}:2: duplicate annotation id 'a1'" in err


def test_ingest_missing_input(tmp_path, capsys):
    status, _, _ = run(capsys, "ingest", os.path.join(tmp_path, "nope.jsonl"), "--out", os.path.join(tmp_path, "o.jsonl"))
    assert status == 1


# ---------------------------------------------------------------------------
# fid

def test_fid_self_is_zero(tmp_path, capsys):
    data = os.path.join(tmp_path, "d")
    status, _, _ = run(capsys, "synth", "--out", data, "--n-clips", "20", "--seed", "3")
    assert status == 0
    index = os.path.join(data, "feature_index.json")
    status, out, _ = run(capsys, "fid", index, index)
    assert status == 0
    assert "FID 0.000000" in out
    assert "VID 0.000000" in out


# ---------------------------------------------------------------------------
# report

PAPER_ROW = {
    "b1": 0.304, "b2": 0.243, "b3": 0.203, "b4": 0.178,
    "rouge_l": 0.312, "meteor": 0.172, "cider_d": 9.81, "counts": 0,
}


def test_report_renders_published_row(tmp_path, capsys):
    path = os.path.join(tmp_path, "rep.json")
    with open(path, "w") as f:
        json.dump(PAPER_ROW, f)
    status, out, _ = run(capsys, "report", path, "--labels", "AVD2/EMM-AU")
    assert status == 0
    row = [ln for ln in out.splitlines() if ln.startswith("AVD2")][0]
    assert " ".join(row.split()[2:]) == "30.4 24.3 20.3 17.8 98.1 17.2 31.2"


def test_report_table_single_row():
    table = render_report_table([ScoreReport.from_dict(PAPER_ROW)], ["X/Y"])
    lines = table.splitlines()
    assert len(lines) == 2
    assert lines[0].split()[:2] == ["Framework", "Dataset"]


def test_report_missing_field(tmp_path, capsys):
    path = os.path.join(tmp_path, "rep.json")
    bad = dict(PAPER_ROW)
    del bad["meteor"]
    with open(path, "w") as f:
        json.dump(bad, f)
    status, _, err = run(capsys, "report", path, "--labels", "A/B")
    assert status == 2


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400], ids=["NaN", "Infinity", "-Infinity", "10**400"])
def test_report_non_finite_field(tmp_path, capsys, value):
    """Python's json reads NaN and +-Infinity as floats; an integer too large
    for a float is not finite either."""
    path = os.path.join(tmp_path, "rep.json")
    with open(path, "w") as f:
        f.write(json.dumps(PAPER_ROW).replace('"rouge_l": 0.312', f'"rouge_l": {value}'))
    status, out, err = run(capsys, "report", path, "--labels", "A/B")
    assert status == 2
    assert out == ""
    assert f"validation error: {path}: needs a finite number" in err


@pytest.mark.parametrize("field, value, why", [
    ("b1", 1e307, "b1 = 1e+307 lies outside [0, 1]"),
    ("b1", 10**307, f"b1 = {10**307} lies outside [0, 1]"),
    ("cider_d", 10.001, "cider_d = 10.001 lies outside [0, 10]"),
    ("meteor", -0.01, "meteor = -0.01 lies outside [0, 1]"),
    ("counts", -1, "counts = -1 is not an int >= 0"),
    ("counts", 1.5, "counts = 1.5 is not an int >= 0"),
], ids=["b1=1e307", "b1=10**307", "cider_d=10.001", "meteor=-0.01", "counts=-1", "counts=1.5"])
def test_report_field_out_of_range(tmp_path, capsys, field, value, why):
    """A finite score can still be no score: 1e307 used to print inf, and a
    308-digit integer escaped the table as an OverflowError."""
    path = os.path.join(tmp_path, "rep.json")
    with open(path, "w") as f:
        json.dump({**PAPER_ROW, field: value}, f)
    status, out, err = run(capsys, "report", path, "--labels", "A/B")
    assert status == 2
    assert out == ""
    assert f"validation error: {path}: {why}" in err


def test_report_accepts_the_range_ends(tmp_path, capsys):
    """With rounding past either end: an exact match scores CIDEr-D
    10.000000000000002, and a score in the slack below 0 prints 0.0, not -0.0."""
    path = os.path.join(tmp_path, "rep.json")
    with open(path, "w") as f:
        json.dump({**PAPER_ROW, "b1": 1, "b4": 0, "cider_d": 10.000000000000002, "meteor": -1e-12}, f)
    status, out, _ = run(capsys, "report", path, "--labels", "A/B")
    assert status == 0
    assert out.splitlines()[1].split()[2:] == ["100.0", "24.3", "20.3", "0.0", "100.0", "0.0", "31.2"]


# ---------------------------------------------------------------------------
# pipeline on a tiny corpus

@pytest.fixture(scope="module")
def tiny_pipeline(tmp_path_factory):
    """synth -> train-mle -> train-scst -> decode -> score on a 24-clip corpus."""
    root = str(tmp_path_factory.mktemp("pipe"))
    data = os.path.join(root, "data")
    ckpt = os.path.join(root, "mle.ckpt")
    ckpt2 = os.path.join(root, "scst.ckpt")
    hyps = os.path.join(root, "hyps.jsonl")
    report = os.path.join(root, "report.json")
    assert main(["synth", "--out", data, "--n-clips", "24", "--seed", "7"]) == 0
    assert main([
        "train-mle", "--data", data, "--out", ckpt,
        "--epochs", "8", "--batch", "4", "--seed", "1", "--lr", "0.01",
        "--d-model", "32", "--roles", "description",
    ]) == 0
    assert main([
        "train-scst", "--data", data, "--ckpt", ckpt, "--out", ckpt2,
        "--epochs", "2", "--batch", "4", "--seed", "1", "--roles", "description",
    ]) == 0
    assert main([
        "decode", "--data", data, "--ckpt", ckpt2, "--out", hyps,
        "--split", "train", "--role", "description",
    ]) == 0
    assert main([
        "score", "--hyps", hyps,
        "--refs", os.path.join(data, "samples.jsonl"), "--out", report,
    ]) == 0
    return {"root": root, "data": data, "ckpt": ckpt2, "hyps": hyps, "report": report}


def test_pipeline_outputs_exist(tiny_pipeline):
    assert os.path.exists(tiny_pipeline["hyps"])
    rep = load_json(tiny_pipeline["report"])
    for f in ("b1", "b2", "b3", "b4", "rouge_l", "meteor", "cider_d", "counts"):
        assert f in rep
    assert rep["counts"] > 0


def test_pipeline_scst_log_written(tiny_pipeline):
    log = tiny_pipeline["ckpt"] + ".log.jsonl"
    lines = [json.loads(l) for l in read(log).splitlines()]
    assert len(lines) == 2
    for entry in lines:
        assert abs(entry["mean_reward"] - (entry["mean_sample"] - entry["mean_baseline"])) < 1e-9


def test_score_identity_gives_b1_one(tmp_path, capsys, tiny_pipeline):
    refs = os.path.join(tiny_pipeline["data"], "samples.jsonl")
    out = os.path.join(tmp_path, "self.json")
    status, _, _ = run(capsys, "score", "--hyps", refs, "--refs", refs, "--out", out)
    assert status == 0
    rep = load_json(out)
    assert rep["b1"] == pytest.approx(1.0)
    assert rep["rouge_l"] == pytest.approx(1.0)


def test_score_counts_unmatched_hypotheses(tmp_path, capsys, tiny_pipeline):
    """A hypothesis whose (id, role) no reference has is left out of the
    scores and counted as unmatched."""
    hyps = os.path.join(tmp_path, "hyps.jsonl")
    with open(hyps, "w") as f:
        f.write(read(tiny_pipeline["hyps"]))
        f.write(json.dumps({"id": "no-such-clip", "role": "description", "text": "the car"}) + "\n")
    out = os.path.join(tmp_path, "report.json")
    status, stdout, _ = run(capsys, "score", "--hyps", hyps, "--refs", os.path.join(tiny_pipeline["data"], "samples.jsonl"), "--out", out)
    assert status == 0
    base, rep = load_json(tiny_pipeline["report"]), load_json(out)
    assert base["unmatched"] == 0 and rep["unmatched"] == 1
    assert json.loads(stdout) == rep
    assert {k: v for k, v in rep.items() if k != "unmatched"} == {k: v for k, v in base.items() if k != "unmatched"}


def test_decode_idempotent(tiny_pipeline):
    out2 = os.path.join(tiny_pipeline["root"], "hyps2.jsonl")
    assert main([
        "decode", "--data", tiny_pipeline["data"], "--ckpt", tiny_pipeline["ckpt"],
        "--out", out2, "--split", "train", "--role", "description",
    ]) == 0
    assert read(out2, "rb") == read(tiny_pipeline["hyps"], "rb")


def test_decode_sampled_seeded(tiny_pipeline):
    a = os.path.join(tiny_pipeline["root"], "s1.jsonl")
    b = os.path.join(tiny_pipeline["root"], "s2.jsonl")
    for out in (a, b):
        assert main([
            "decode", "--data", tiny_pipeline["data"], "--ckpt", tiny_pipeline["ckpt"],
            "--out", out, "--split", "val", "--role", "description",
            "--sample", "--seed", "9", "--temperature", "1.3",
        ]) == 0
    assert read(a, "rb") == read(b, "rb")


@pytest.mark.parametrize("vocab", ["short", "missing", "no_reserved", "not_strings"])
def test_decode_rejects_bad_checkpoint_vocab(tmp_path, capsys, tiny_pipeline, vocab):
    params, extra = load_checkpoint(tiny_pipeline["ckpt"])
    tokens = extra["vocab"]
    extra = {
        "short": {"vocab": tokens[:6]},
        "missing": {},
        "no_reserved": {"vocab": tokens[1:] + ["zz"]},
        "not_strings": {"vocab": tokens[:-1] + [7]},
    }[vocab]
    ckpt = os.path.join(tmp_path, "bad.ckpt")
    save_checkpoint(params, ckpt, extra=extra)
    status, _, err = run(
        capsys, "decode", "--data", tiny_pipeline["data"], "--ckpt", ckpt,
        "--out", os.path.join(tmp_path, "h.jsonl"), "--split", "val",
    )
    assert status == 2
    assert f"validation error: {ckpt}: checkpoint vocabulary is missing or does not match vocab_size" in err


def test_config_file_defaults(tmp_path, capsys):
    cfg = os.path.join(tmp_path, "cfg.json")
    with open(cfg, "w") as f:
        json.dump({"n_clips": 6, "seed": 11}, f)
    data = os.path.join(tmp_path, "d")
    status, _, err = run(capsys, "--config", cfg, "synth", "--out", data)
    assert status == 0
    index = load_json(os.path.join(data, "feature_index.json"))
    assert len(index) == 6
    assert '"seed": 11' in err  # effective config echoed to the log stream


@pytest.mark.parametrize("command", ["decode", "train-scst"])
def test_non_finite_checkpoint_exits_2(tmp_path, capsys, tiny_pipeline, command):
    params, extra = load_checkpoint(tiny_pipeline["ckpt"])
    params.tensors["ff_w2"][0, 0] = np.nan
    ckpt = os.path.join(tmp_path, "nan.ckpt")
    save_checkpoint(params, ckpt, extra=extra)
    out = os.path.join(tmp_path, "out")
    status, _, err = run(capsys, command, "--data", tiny_pipeline["data"], "--ckpt", ckpt, "--out", out)
    assert status == 2
    assert f"validation error: {ckpt}: non-finite parameter values" in err
    assert os.listdir(tmp_path) == ["nan.ckpt"]


@pytest.mark.parametrize("command", ["decode", "train-scst"])
def test_checkpoint_overflowing_float32_exits_2(tmp_path, capsys, tiny_pipeline, command):
    """A checkpoint value that is finite in its float64 payload but beyond
    float32's range is refused on load, naming the file, with no cast
    warning (warnings are errors in this suite) and no output."""
    params, extra = load_checkpoint(tiny_pipeline["ckpt"])
    wide = ModelParams(params.config, params.flat.astype(np.float64))
    wide.tensors["tok_emb"][...] = 1e308
    ckpt = os.path.join(tmp_path, "big.ckpt")
    save_checkpoint(wide, ckpt, extra=extra)
    out = os.path.join(tmp_path, "out")
    status, _, err = run(capsys, command, "--data", tiny_pipeline["data"], "--ckpt", ckpt, "--out", out)
    assert status == 2
    assert err.strip().splitlines()[-1] == f"validation error: {ckpt}: parameter values overflow float32"
    assert os.listdir(tmp_path) == ["big.ckpt"]


def test_greedy_decode_non_finite_logits_exits_3(tmp_path, capsys, tiny_pipeline):
    """A checkpoint that is finite in float32 but whose logits overflow fails
    greedy decoding as a numeric failure, as it fails sampled decoding, and
    writes no captions."""
    params, extra = load_checkpoint(tiny_pipeline["ckpt"])
    params.tensors["tok_emb"][...] = 1e37
    ckpt = os.path.join(tmp_path, "big.ckpt")
    save_checkpoint(params, ckpt, extra=extra)
    out = os.path.join(tmp_path, "out")
    with np.errstate(all="ignore"):
        status, _, err = run(capsys, "decode", "--data", tiny_pipeline["data"], "--ckpt", ckpt, "--out", out)
    assert status == 3
    assert "non-finite logits" in err
    assert not os.path.exists(out)


def test_split_commands_read_only_their_split_clips(tmp_path, monkeypatch, tiny_pipeline):
    data = tiny_pipeline["data"]
    splits = load_json(os.path.join(data, "splits.json"))
    read = []
    real = dmod.read_features

    def counting(path):
        clip = real(path)
        read.append(clip.id)
        return clip

    monkeypatch.setattr(dmod, "read_features", counting)
    assert main(["decode", "--data", data, "--ckpt", tiny_pipeline["ckpt"],
                 "--out", os.path.join(tmp_path, "h.jsonl"), "--split", "val"]) == 0
    assert sorted(read) == sorted(splits["val"])
    read.clear()
    assert main(["train-mle", "--data", data, "--out", os.path.join(tmp_path, "m.ckpt"),
                 "--epochs", "1", "--d-model", "8", "--n-heads", "1", "--max-len", "8"]) == 0
    assert sorted(read) == sorted(splits["train"])


# ---------------------------------------------------------------------------
# JSONL lines that are not objects, and caption text that is not a string

@pytest.mark.parametrize("line", ["5", "null", "[1, 2]", '"text"', "{not json"])
@pytest.mark.parametrize("command", ["ingest", "score", "train-mle"])
def test_jsonl_line_not_an_object_exits_2(tmp_path, capsys, command, line):
    out = os.path.join(tmp_path, "out")
    if command == "ingest":
        bad = os.path.join(tmp_path, "ann.jsonl")
        _write_annotations(bad, [GOOD_ROW])
        argv = ["ingest", bad, "--out", out]
    else:
        data = os.path.join(tmp_path, "d")
        assert main(["synth", "--out", data, "--n-clips", "1", "--seed", "3"]) == 0
        bad = os.path.join(data, "samples.jsonl")
        argv = {
            "score": ["score", "--hyps", bad, "--refs", bad, "--out", out],
            "train-mle": ["train-mle", "--data", data, "--out", out, "--epochs", "1"],
        }[command]
    with open(bad, "a") as f:
        f.write(line + "\n")
    status, _, err = run(capsys, *argv)
    assert status == 2
    why = "not UTF-8 JSON" if line == "{not json" else "expected a JSON object"
    assert f"validation error: {bad}:2: {why}" in err
    assert not os.path.exists(out)


def test_score_text_not_a_string_exits_2(tmp_path, capsys):
    hyps = os.path.join(tmp_path, "h.jsonl")
    _write_annotations(hyps, [{"id": "a", "role": "description", "text": 5}])
    status, _, err = run(capsys, "score", "--hyps", hyps, "--refs", hyps, "--out", os.path.join(tmp_path, "o"))
    assert status == 2
    assert "must be a string" in err


# ---------------------------------------------------------------------------
# pipeline digest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DIGEST = os.path.join(ROOT, "scripts", "pipeline_digest.py")
DIGEST_EXPECTED = os.path.join("tests", "data", "pipeline_digest.txt")


def test_pipeline_digest_runs_every_command():
    """The seeded pipeline's digest equals the committed one, line by line.
    `pipeline_digest.py --compare` compares the lines that BLAS computes
    (checkpoints, SCST log, decodes, scores, report, epoch losses, FID and
    VID) where the numpy, BLAS and machine lines match the committed ones;
    elsewhere the test is skipped after the other lines match, and names the
    lines that were left out."""
    # STEPS is read from the source, not imported: the script sets
    # OPENBLAS_NUM_THREADS at import, which would leak into this session.
    with open(DIGEST, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    steps = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "STEPS")
    assert {step[0] for step in steps} == set(build_parser()._command_parsers)
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run([sys.executable, DIGEST, "--compare", DIGEST_EXPECTED], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    left_out = [line for line in done.stdout.splitlines() if line.startswith("not compared")]
    if left_out:
        pytest.skip(left_out[0])
