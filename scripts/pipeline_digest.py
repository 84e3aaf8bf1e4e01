#!/usr/bin/env python3
"""Print a digest of one small seeded pipeline run, to check that a change
keeps every output byte for byte.

In a temporary directory it runs, in process through `capkit.cli.main`:
synth (60 clips, noise 1.0, seed 3), train-mle (3 epochs, seed 3),
train-scst (2 epochs, seed 3), a greedy and a sampled (seed 5) decode of the
SCST checkpoint, and score of the greedy captions. It prints the sha256 of
every file the run wrote, then the `epoch` lines of its stderr, which name
no path. OpenBLAS is pinned to one thread, so the digest depends on the code
and not on the thread count.

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

STEPS = (
    ["synth", "--out", "data", "--n-clips", "60", "--noise-std", "1.0", "--seed", "3"],
    ["train-mle", "--data", "data", "--out", "mle.ckpt", "--epochs", "3", "--seed", "3"],
    ["train-scst", "--data", "data", "--ckpt", "mle.ckpt", "--out", "scst.ckpt", "--epochs", "2", "--seed", "3"],
    ["decode", "--data", "data", "--ckpt", "scst.ckpt", "--out", "greedy.jsonl"],
    ["decode", "--data", "data", "--ckpt", "scst.ckpt", "--out", "sampled.jsonl", "--sample", "--seed", "5"],
    ["score", "--hyps", "greedy.jsonl", "--refs", "data/samples.jsonl", "--out", "score.json"],
)


def main():
    epochs = []
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # every path in STEPS is relative, so no output names the directory
        for step in STEPS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = capkit(step)
            if status != 0:
                sys.exit(f"capkit {' '.join(step)} exited with status {status}:\n{err.getvalue()}")
            epochs += [line for line in err.getvalue().splitlines() if line.startswith("epoch")]
        for root, dirs, files in os.walk("."):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                with open(path, "rb") as f:
                    print(os.path.relpath(path), hashlib.sha256(f.read()).hexdigest())
    print(*epochs, sep="\n")


if __name__ == "__main__":
    main()
