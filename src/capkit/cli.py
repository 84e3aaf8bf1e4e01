"""Command-line entry point: ingest, synth, train-mle, train-scst, decode,
score, fid, report.

Exit statuses: 0 success, 1 I/O error, 2 validation error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import data as dmod
from . import harness
from .errors import CapkitError, DimensionMismatch, EmptyDataset, InvalidConfig, MalformedReport, NumericFailure
from .metrics import (
    ScoreReport,
    build_idf,
    frechet_distance,
    gaussian_stats,
    score_all,
)
from .scst import derive_seed, scst_train
from .seqmodel import (
    ModelConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train_mle,
)
from .textproc import RESERVED, ROLES, Vocab, build_vocab

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

REPORT_COLUMNS = ("B1", "B2", "B3", "B4", "C", "M", "R")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _echo_config(args: argparse.Namespace) -> None:
    _log("config: " + json.dumps(vars(args), default=str, sort_keys=True))


# ---------------------------------------------------------------------------
# Dataset directory helpers

def _read_index(index_path: str) -> dict:
    """id -> feature file path of a non-empty feature_index.json."""
    index = dmod.read_json_object(index_path)
    if not index or not all(dmod._is_text(rel) for rel in index.values()):
        raise InvalidConfig(f"{index_path}: expected a non-empty object mapping clip ids to paths")
    base = os.path.dirname(index_path)
    return {cid: os.path.join(base, rel) for cid, rel in index.items()}


def _read_clips(paths: dict, where: str) -> dict:
    """id -> FeatureClip of each path; each file holds the clip of its id, and
    all clips share one D."""
    clips = {cid: dmod.read_features(path) for cid, path in paths.items()}
    for cid, clip in clips.items():
        if clip.id != cid:
            raise InvalidConfig(f"{paths[cid]}: holds clip {clip.id!r}, but {where} lists it as {cid!r}")
    if len({c.D for c in clips.values()}) > 1:
        raise DimensionMismatch(f"{where}: clips differ in feature dimension")
    return clips


def _load_rows(path: str, split: str, roles: str) -> list:
    """The (clip, role) rows of one split of a corpus directory, for one role
    or "both". Only the clips of the split's samples are read."""
    index_path = os.path.join(path, "feature_index.json")
    index = _read_index(index_path)
    ids = dmod.read_json_object(os.path.join(path, "splits.json")).get(split)
    if not (isinstance(ids, list) and all(isinstance(i, str) and i in index for i in ids)):
        raise InvalidConfig(f"{path}: splits.json: split {split!r} must list ids that each have a clip")
    wanted = set(ids)
    subset = [s for s in dmod.read_samples_jsonl(os.path.join(path, "samples.jsonl")) if s.id in wanted]
    if not subset:
        raise EmptyDataset(f"{path}: split {split!r} has no samples")
    clips = _read_clips({s.id: index[s.id] for s in subset}, index_path)
    return harness.rows(subset, clips, list(ROLES) if roles == "both" else [roles])


# ---------------------------------------------------------------------------
# Commands

def cmd_ingest(args) -> int:
    samples = dmod.read_annotations_jsonl(args.input)
    dmod.write_samples_jsonl(samples, args.out)
    empty = sum(1 for s in samples if not s.avoidance.tokens or not s.description.tokens)
    if empty:
        _log(f"warning: {empty} sample(s) with empty captions")
    _log(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = dmod.SynthConfig(
        n_clips=args.n_clips, noise_std=args.noise_std, seed=args.seed
    )
    corpus = dmod.synth_corpus(cfg)
    os.makedirs(os.path.join(args.out, "features"), exist_ok=True)
    index = {}
    for cid, clip in corpus.clips.items():
        rel = f"features/{cid}.avdf"
        dmod.write_features(clip, os.path.join(args.out, rel))
        index[cid] = rel
    dmod.write_samples_jsonl(corpus.samples, os.path.join(args.out, "samples.jsonl"))
    with open(os.path.join(args.out, "feature_index.json"), "w", encoding="utf-8") as f:
        json.dump(index, f, sort_keys=True)
    with open(os.path.join(args.out, "splits.json"), "w", encoding="utf-8") as f:
        json.dump(corpus.split, f)
    _log(f"synthesized {cfg.n_clips} clips into {args.out}")
    return EXIT_OK


def cmd_train_mle(args) -> int:
    rows = _load_rows(args.data, "train", args.roles)
    vocab = build_vocab([r.ref for r in rows])
    config = ModelConfig(
        vocab_size=len(vocab),
        feature_dim=rows[0].features.shape[1],
        d_model=args.d_model,
        n_heads=args.n_heads,
        max_len=args.max_len,
        seed=derive_seed(args.seed, "init", 0),
    )
    params = init_params(config)
    curve = train_mle(params, rows, args.epochs, args.batch, derive_seed(args.seed, "mle", 0), vocab, lr=args.lr)
    save_checkpoint(params, args.out, extra={"vocab": list(vocab.tokens)})
    _log("epoch losses: " + " ".join(f"{x:.4f}" for x in curve))
    _log(f"saved checkpoint to {args.out}")
    return EXIT_OK


def _load_model(path: str):
    """A checkpoint and its vocabulary, which must hold vocab_size strings
    starting with the reserved symbols."""
    params, extra = load_checkpoint(path)
    tokens = extra.get("vocab")
    if not (
        isinstance(tokens, list)
        and len(tokens) == params.config.vocab_size
        and tuple(tokens[: len(RESERVED)]) == RESERVED
        and all(isinstance(t, str) for t in tokens)
    ):
        raise InvalidConfig(f"{path}: checkpoint vocabulary is missing or does not match vocab_size")
    return params, Vocab(tokens=tuple(tokens))


def cmd_train_scst(args) -> int:
    rows = _load_rows(args.data, "train", args.roles)
    params, vocab = _load_model(args.ckpt)
    history = scst_train(
        params,
        rows,
        build_idf([r.ref.tokens for r in rows]),
        args.epochs,
        args.batch,
        derive_seed(args.seed, "scst", 0),
        vocab,
        lr=args.lr,
        temperature=args.temperature,
    )
    save_checkpoint(params, args.out, extra={"vocab": list(vocab.tokens)})
    with open(args.out + ".log.jsonl", "w", encoding="utf-8") as f:
        for h in history:
            f.write(json.dumps(asdict(h)) + "\n")
    for i, h in enumerate(history):
        _log(
            f"epoch {i}: baseline {h.mean_baseline:.4f} sample {h.mean_sample:.4f} "
            f"reward {h.mean_reward:+.4f} loss {h.loss:+.5f}"
        )
    _log(f"saved checkpoint to {args.out}")
    return EXIT_OK


def cmd_decode(args) -> int:
    rows = _load_rows(args.data, args.split, args.role)
    params, vocab = _load_model(args.ckpt)
    seed = args.seed if args.sample else None
    decoded = harness.decode_split(params, rows, vocab, seed, args.temperature)
    with open(args.out, "w", encoding="utf-8") as f:
        for r, cap in zip(rows, decoded):
            f.write(json.dumps({"id": r.sample_id, "role": cap.role, "text": cap.raw}) + "\n")
    _log(f"decoded {len(decoded)} captions to {args.out}")
    return EXIT_OK


def cmd_score(args) -> int:
    hyps = dmod.read_captions_jsonl(args.hyps)
    refs = dmod.read_captions_jsonl(args.refs)
    keys = [k for k in hyps if k in refs]
    if not keys:
        raise MalformedReport("no (id, role) pairs shared by hypotheses and references")
    keys.sort()
    h = [hyps[k] for k in keys]
    r = [refs[k] for k in keys]
    idf = build_idf([c.tokens for c in refs.values()])
    report = score_all(h, r, idf)
    report.unmatched = len(hyps) - len(keys)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(report.to_json() + "\n")
    print(report.to_json())
    return EXIT_OK


def _load_feature_matrixes(index_path: str):
    clips = _read_clips(_read_index(index_path), index_path)
    data = [clips[cid].data for cid in sorted(clips)]
    return np.vstack(data), np.vstack([d.mean(axis=0) for d in data])


def cmd_fid(args) -> int:
    frames_a, pooled_a = _load_feature_matrixes(args.index_a)
    frames_b, pooled_b = _load_feature_matrixes(args.index_b)
    fid = frechet_distance(gaussian_stats(frames_a), gaussian_stats(frames_b))
    vid = frechet_distance(gaussian_stats(pooled_a), gaussian_stats(pooled_b))
    print(f"FID {fid:.6f}")
    print(f"VID {vid:.6f}")
    return EXIT_OK


def render_report_row(report: ScoreReport) -> list[str]:
    """Fractions print x100, CIDEr-D x10, one decimal each. A score in the
    rounding slack below 0 that a report may hold prints as 0.0, not -0.0."""
    shown = (report.b1 * 100, report.b2 * 100, report.b3 * 100, report.b4 * 100,
             report.cider_d * 10, report.meteor * 100, report.rouge_l * 100)
    return [f"{max(0.0, v):.1f}" for v in shown]


def render_report_table(reports: list[ScoreReport], labels: list[str]) -> str:
    header = ["Framework", "Dataset", *REPORT_COLUMNS]
    rows = [header]
    for rep, label in zip(reports, labels):
        framework, _, dataset = label.partition("/")
        rows.append([framework, dataset, *render_report_row(rep)])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def cmd_report(args) -> int:
    reports = [ScoreReport.from_dict(dmod.read_json_object(p), p) for p in args.reports]
    labels = [os.path.basename(p) for p in args.reports] if args.labels is None else args.labels
    if len(labels) != len(reports):
        raise MalformedReport("label count does not match report count")
    print(render_report_table(reports, labels))
    if args.out:
        payload = [
            {"label": lbl, "values": dict(zip(REPORT_COLUMNS, render_report_row(r)))}
            for lbl, r in zip(labels, reports)
        ]
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="capkit", description=__doc__)
    p.add_argument("--config", help="JSON file of flag defaults; flags override")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="restructure raw annotations into samples")
    sp.add_argument("input")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("synth", help="generate the synthetic corpus")
    sp.add_argument("--out", required=True)
    sp.add_argument("--n-clips", type=int, default=500)
    sp.add_argument("--noise-std", type=float, default=0.1)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("train-mle", help="teacher-forced likelihood training")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--epochs", type=int, default=30)
    sp.add_argument("--batch", type=int, default=8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--lr", type=float, default=1e-3)
    sp.add_argument("--max-len", type=int, default=24)
    sp.add_argument("--d-model", type=int, default=64)
    sp.add_argument("--n-heads", type=int, default=2)
    sp.add_argument("--roles", choices=[*ROLES, "both"], default="both")

    sp = sub.add_parser("train-scst", help="self-critical sequence training")
    sp.add_argument("--data", required=True)
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--epochs", type=int, default=10)
    sp.add_argument("--batch", type=int, default=8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--lr", type=float, default=1e-4)
    sp.add_argument("--temperature", type=float, default=1.0)
    sp.add_argument("--roles", choices=[*ROLES, "both"], default="both")

    sp = sub.add_parser("decode", help="generate captions for a split")
    sp.add_argument("--data", required=True)
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--split", choices=["train", "val", "test"], default="val")
    sp.add_argument("--role", choices=[*ROLES, "both"], default="both")
    sp.add_argument("--sample", action="store_true")
    sp.add_argument("--temperature", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("score", help="score hypotheses against references")
    sp.add_argument("--hyps", required=True)
    sp.add_argument("--refs", required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("fid", help="Frechet distance between two feature sets")
    sp.add_argument("index_a")
    sp.add_argument("index_b")

    sp = sub.add_parser("report", help="render score reports as a table")
    sp.add_argument("reports", nargs="+")
    sp.add_argument("--labels", nargs="*", help='row labels as "Framework/Dataset"')
    sp.add_argument("--out", help="also write the table rows as JSON")

    p._command_parsers = sub.choices  # command name -> its parser
    return p


def _config_defaults(parser: argparse.ArgumentParser, path: str) -> dict:
    """The flag defaults a --config file sets. Each key must be a flag's dest,
    and each value one the command line could give that flag: JSON of its
    `type`, among its `choices`, a bool for --sample, a list for --labels."""
    takes = {int: lambda v: type(v) is int, float: lambda v: type(v) in (int, float), None: dmod._is_text}
    parsers = (parser, *parser._command_parsers.values())
    # Flags that share a dest share its type, nargs and choices (tested).
    flags = {a.dest: a for p in parsers for a in p._actions if a.option_strings}
    defaults = dmod.read_json_object(path)
    for key, value in defaults.items():
        a = flags.get(key)
        if a is None or key in ("help", "config"):
            raise InvalidConfig(f"{path}: unknown flag {key!r}")
        ok = (lambda v: type(v) is bool) if a.nargs == 0 else takes[a.type]  # nargs 0: store_true
        items = value if a.nargs == "*" else [value]
        if not isinstance(items, list) or not all(ok(v) and (a.choices is None or v in a.choices) for v in items):
            raise InvalidConfig(f"{path}: {a.option_strings[0]} cannot take {value!r}")
    return defaults


# The parser of every run without --config, built on the first call.
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command. The class of a CapkitError or OSError picks the exit
    status; any other exception is a bug and propagates with its traceback.

    A --config run sets its defaults on a parser of its own, so they do not
    reach later calls. The commands' functions are looked up at each call, so
    a module attribute replaced after the first call takes effect."""
    parser = _shared_parser()
    try:
        args, _ = parser.parse_known_args(argv)
        if args.config:
            defaults = _config_defaults(parser, args.config)
            parser = build_parser()
            for p in (parser, *parser._command_parsers.values()):
                p.set_defaults(**defaults)
        args = parser.parse_args(argv)
        _echo_config(args)
        commands = {"ingest": cmd_ingest, "synth": cmd_synth, "train-mle": cmd_train_mle, "train-scst": cmd_train_scst,
                    "decode": cmd_decode, "score": cmd_score, "fid": cmd_fid, "report": cmd_report}
        return commands[args.command](args)
    except NumericFailure as e:
        _log(f"numeric failure: {e}")
        return EXIT_NUMERIC
    except CapkitError as e:
        _log(f"validation error: {type(e).__name__}: {e}")
        return EXIT_VALIDATION
    except OSError as e:
        _log(f"I/O error: {e}")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
