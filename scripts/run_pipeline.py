#!/usr/bin/env python3
"""Run the full pipeline on the synthetic corpus:
synth -> train-mle -> train-scst -> decode -> score -> report -> fid.

The closing FID/VID compares the corpus against a second one synthesized with
seed + 1, so the Frechet distance is computed rather than short-circuited.

Usage: python3 scripts/run_pipeline.py [workdir] [--seed N] [--n-clips N]
"""
import argparse
import os
import sys

from capkit.cli import main as capkit


def sh(args):
    print("+ capkit " + " ".join(args), file=sys.stderr)
    status = capkit(args)
    if status != 0:
        sys.exit(status)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workdir", nargs="?", default="runs/pipeline")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--n-clips", type=int, default=500)
    args = ap.parse_args()

    w = args.workdir
    os.makedirs(w, exist_ok=True)
    data = os.path.join(w, "data")
    mle = os.path.join(w, "mle.ckpt")
    scst = os.path.join(w, "scst.ckpt")

    sh(["synth", "--out", data, "--n-clips", str(args.n_clips), "--seed", str(args.seed)])
    sh(["train-mle", "--data", data, "--out", mle, "--epochs", "30", "--batch", "8",
        "--seed", str(args.seed)])
    sh(["train-scst", "--data", data, "--ckpt", mle, "--out", scst, "--epochs", "10",
        "--batch", "8", "--seed", str(args.seed)])

    reports = []
    for label, ckpt in (("MLE", mle), ("SCST", scst)):
        hyps = os.path.join(w, f"hyps_{label.lower()}.jsonl")
        rep = os.path.join(w, f"report_{label.lower()}.json")
        sh(["decode", "--data", data, "--ckpt", ckpt, "--out", hyps,
            "--split", "val", "--role", "description"])
        sh(["score", "--hyps", hyps, "--refs", os.path.join(data, "samples.jsonl"),
            "--out", rep])
        reports.append((label, rep))

    sh(["report", *[r for _, r in reports],
        "--labels", *[f"{label}/synth-val" for label, _ in reports]])

    other = os.path.join(w, "data_seed_plus_1")
    sh(["synth", "--out", other, "--n-clips", str(args.n_clips), "--seed", str(args.seed + 1)])
    sh(["fid", os.path.join(data, "feature_index.json"), os.path.join(other, "feature_index.json")])


if __name__ == "__main__":
    main()
