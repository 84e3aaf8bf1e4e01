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
depends on the code and not on the thread count. It does depend on the BLAS
and the processor, so it first prints, as lines that start with "#", the
numpy version, the BLAS name and version, the BLAS kernel set (the core that
OpenBLAS chose for this processor, where it can be read) and the machine.

Compare two trees:  PYTHONPATH=<tree>/src python3 scripts/pipeline_digest.py
With --compare FILE the script prints no digest. It compares its digest with
the one in FILE line by line, prints each line that moved as old and new, and
exits 1 if any compared line moved. The lines that start with BLAS_FREE no
BLAS call computes, so they are compared on every machine. The others are
compared only where the "#" lines of both digests match; elsewhere the script
names the lines it did not compare. The digest of this tree is kept in
tests/data/pipeline_digest.txt, which tests/test_cli.py passes to --compare;
after a change that moves a line, regenerate it with
    PYTHONPATH=src python3 scripts/pipeline_digest.py > tests/data/pipeline_digest.txt
"""
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is first imported

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import platform
import sys
import tempfile

import numpy as np

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
# Digest lines that no BLAS call produces: the annotations, their ingest, and
# the synthesized corpora (features, samples, splits and index).
BLAS_FREE = ("annotations.jsonl ", "ingested.jsonl ", "data/", "other/")


def blas_core():
    """The kernel set OpenBLAS chose for this processor, or None if no
    OpenBLAS bundled with numpy can say."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def environment():
    """What the digest's BLAS-computed lines depend on, one "#" line each."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 takes no mode
        blas = {}
    return [
        f"# numpy {np.__version__}",
        f"# blas {blas.get('name')} {blas.get('version')} core {blas_core()}",
        f"# machine {platform.machine()}",
    ]


def digest():
    """The digest's lines: the "#" environment lines, then the sha256 of each
    file the run wrote, then its epoch, FID and VID lines."""
    lines = environment()
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
                    lines.append(f"{os.path.relpath(path)} {hashlib.sha256(f.read()).hexdigest()}")
    return lines + epochs + distances


def compare(got, want, name):
    """Print each compared line of `want` (the digest in file `name`) that
    `got` moved, as old and new, and the lines left out; return the number
    of moved lines."""
    if [line.split()[0] for line in got] != [line.split()[0] for line in want]:
        sys.exit(f"the digest names other files or lines than {name}")
    same_env = [line for line in got if line.startswith("#")] == [line for line in want if line.startswith("#")]
    compared, moved, left_out = 0, 0, []
    for new, old in zip(got, want):
        if same_env or old.startswith(BLAS_FREE):
            compared += 1
            if new != old:
                moved += 1
                print(f"old: {old}\nnew: {new}")
        elif not old.startswith("#"):
            left_out.append(old.split()[0])
    if left_out:
        print(f"not compared, as numpy, BLAS or machine differ from {name}: {', '.join(left_out)}")
    print(f"{compared} lines compared, {moved} moved")
    return moved


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", metavar="FILE", help="compare with the digest in FILE instead of printing it")
    args = parser.parse_args()
    if args.compare is None:
        print(*digest(), sep="\n")
        return
    with open(args.compare, encoding="utf-8") as f:  # read before digest() leaves the working directory
        want = f.read().splitlines()
    sys.exit(1 if compare(digest(), want, args.compare) else 0)


if __name__ == "__main__":
    main()
