#!/usr/bin/env python3
"""Print a digest of one small seeded pipeline run, to check that a change
keeps every output byte for byte.

In a temporary directory it runs every capkit command, in process through
`capkit.cli.main`: ingest of three fixed annotations, synth (60 clips, noise
1.0, seed 3), train-mle (3 epochs, seed 3), train-scst (2 epochs, seed 3), a
greedy and a sampled (seed 5) decode of the SCST checkpoint, score of the
greedy captions, report of that score, and fid of the corpus against a
second one (20 clips, seed 4). It prints the sha256 of every file the run
wrote, then the `epoch` lines of its stderr and the `FID`/`VID` lines of its
stdout, which name no path. OpenBLAS is pinned to one thread, so the digest
depends on the code and not on the thread count.

Compare two trees:  PYTHONPATH=<tree>/src python3 scripts/pipeline_digest.py
"""
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is first imported

import contextlib
import hashlib
import io
import sys
import tempfile

from capkit.cli import main as capkit

ANNOTATIONS = (
    '{"id": "a1", "texts": "a car stops", "causes": "the light is red", "measures": "slow down early"}\n'
    '{"id": "a2", "texts": "a truck turns left", "causes": "a bike crosses", "measures": "yield to the bike"}\n'
    '{"id": "a3", "texts": "two cars merge", "causes": "the lane ends", "measures": "keep a safe gap"}\n'
)

STEPS = (
    ["ingest", "annotations.jsonl", "--out", "ingested.jsonl"],
    ["synth", "--out", "data", "--n-clips", "60", "--noise-std", "1.0", "--seed", "3"],
    ["train-mle", "--data", "data", "--out", "mle.ckpt", "--epochs", "3", "--seed", "3"],
    ["train-scst", "--data", "data", "--ckpt", "mle.ckpt", "--out", "scst.ckpt", "--epochs", "2", "--seed", "3"],
    ["decode", "--data", "data", "--ckpt", "scst.ckpt", "--out", "greedy.jsonl"],
    ["decode", "--data", "data", "--ckpt", "scst.ckpt", "--out", "sampled.jsonl", "--sample", "--seed", "5"],
    ["score", "--hyps", "greedy.jsonl", "--refs", "data/samples.jsonl", "--out", "score.json"],
    ["report", "score.json", "--labels", "SCST/synth-val", "--out", "report.json"],
    # identical statistics would return 0.0 before any eigensolve
    ["synth", "--out", "other", "--n-clips", "20", "--noise-std", "1.0", "--seed", "4"],
    ["fid", "data/feature_index.json", "other/feature_index.json"],
)


def main():
    epochs, distances = [], []
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # every path in STEPS is relative, so no output names the directory
        with open("annotations.jsonl", "w", encoding="utf-8") as f:
            f.write(ANNOTATIONS)
        for step in STEPS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = capkit(step)
            if status != 0:
                sys.exit(f"capkit {' '.join(step)} exited with status {status}:\n{err.getvalue()}")
            epochs += [line for line in err.getvalue().splitlines() if line.startswith("epoch")]
            distances += [line for line in out.getvalue().splitlines() if line.startswith(("FID", "VID"))]
        for root, dirs, files in os.walk("."):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                with open(path, "rb") as f:
                    print(os.path.relpath(path), hashlib.sha256(f.read()).hexdigest())
    print(*epochs, *distances, sep="\n")


if __name__ == "__main__":
    main()
