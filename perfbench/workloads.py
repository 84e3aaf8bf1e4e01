"""The benchmark's two workloads.

Each workload is a closed loop with one client: it makes its inputs from the
workload seed, sets up, then runs rounds of a fixed job one after another.
Every call into capkit is one operation, timed here from outside the package
and checked for correct output. Inputs depend only on (seed, round index).
"""
from __future__ import annotations

import io
import json
import math
import os
import resource
import shutil
import signal
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import numpy as np
import oracles  # tests/oracles.py: the repository's numpy.linalg.eigh Frechet reference

from capkit import cli, data, metrics, seqmodel
from capkit.textproc import ROLES, Caption

SCORE_FRACTIONS = ("b1", "b2", "b3", "b4", "rouge_l", "meteor")
CIDER_MAX = 10.0
# Range checks allow rounding: an exact match scores CIDEr-D 10.000000000000002.
ROUNDING = 1e-9


class Tally:
    """Operations attempted, failed (error or wrong output) and timed out."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.timed_out = 0
        self.problems = []

    def op(self, what: str, problems=(), timed_out: bool = False) -> bool:
        self.attempted += 1
        if timed_out:
            self.timed_out += 1
        elif problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems and not timed_out


def cpu_times():
    """(user, system) CPU seconds used so far by this process."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime, r.ru_stime


class Pass:
    """One setup or round: the operations' time and named phase times.

    Operations are timed in user CPU time of this process; system time is kept
    apart in `sys_s`. The benchmark is one process with one thread, so user
    time is the time capkit itself computes. Wall time also holds waits capkit
    does not control (the vCPU descheduled by a shared host), and system time
    is mostly the kernel's file-system work, which on the VM this was built on
    took from 0.01 s to 0.2 s for the same `train` set-up, in alternation from
    one set-up to the next.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.op_s = 0.0
        self.sys_s = 0.0
        self.phases = {}

    @contextmanager
    def timing(self, phase: str):
        u0, s0 = cpu_times()
        try:
            yield
        finally:
            u1, s1 = cpu_times()
            self.op_s += u1 - u0
            self.sys_s += s1 - s0
            self.phases[phase] = self.phases.get(phase, 0.0) + (u1 - u0)

    @contextmanager
    def checking(self):
        """Output checks call capkit too; keep them out of the trace."""
        on = self.tracer is not None and self.tracer.on
        if on:
            self.tracer.on = False
        try:
            yield
        finally:
            if on:
                self.tracer.on = True


def capkit(p: Pass, phase: str, *argv):
    """Run one capkit command in-process; returns (status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with p.timing(phase), redirect_stdout(out), redirect_stderr(err):
        status = cli.main([str(a) for a in argv])
    return status, out.getvalue(), err.getvalue()


def status_problems(status: int, err: str) -> list:
    if status == 0:
        return []
    return [f"exit status {status}: {err.strip().splitlines()[-1] if err.strip() else ''}"]


def report_problems(report: dict, expected_count: int) -> list:
    bad = [f"{k}={report[k]!r} outside [0, 1]" for k in SCORE_FRACTIONS
           if not -ROUNDING <= report[k] <= 1.0 + ROUNDING]
    if not -ROUNDING <= report["cider_d"] <= CIDER_MAX + ROUNDING:
        bad.append(f"cider_d={report['cider_d']!r} outside [0, {CIDER_MAX}]")
    if report["counts"] != expected_count:
        bad.append(f"counts={report['counts']} != {expected_count} pairs")
    return bad


def setup_base(work: str, k: int) -> str:
    """Directory of the k-th set-up of a run."""
    return os.path.join(work, f"setup{k}")


def count_lines(path: str) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(1 for line in f if line.strip())


def read_split(data_dir: str):
    samples = data.read_samples_jsonl(os.path.join(data_dir, "samples.jsonl"))
    with open(os.path.join(data_dir, "splits.json"), encoding="utf-8") as f:
        splits = json.load(f)
    return samples, splits


def decode_and_score(p: Pass, data_dir: str, ckpt: str, split: str, n_clips: int, out: str, extra=()):
    """`capkit decode` one split for both roles, then `capkit score` it.
    Returns (score report or None, decode problems, score problems)."""
    status, _, err = capkit(p, "decode", "decode", "--data", data_dir, "--ckpt", ckpt, "--out", out,
                            "--split", split, "--role", "both", *extra)
    problems = status_problems(status, err)
    with p.checking():
        if not problems and count_lines(out) != n_clips * len(ROLES):
            problems.append(f"{count_lines(out)} lines, want one per (clip, role) = {n_clips * len(ROLES)}")
    decode_problems = problems
    if decode_problems:
        return None, decode_problems, ["no decoder output to score"]
    report_path = out + ".report.json"
    status, stdout, err = capkit(p, "score", "score", "--hyps", out,
                                 "--refs", os.path.join(data_dir, "samples.jsonl"), "--out", report_path)
    problems = status_problems(status, err)
    report = None
    if not problems:
        with p.checking():
            report = json.loads(stdout.strip().splitlines()[-1])
            problems = report_problems(report, n_clips * len(ROLES))
    return report, decode_problems, problems


# ---------------------------------------------------------------------------
# train: synth -> train-mle -> train-scst -> decode, score and FID on held-out data


class Train:
    name = "train"
    N_CLIPS = 200
    FID_CLIPS = 100
    # At the CLI default of 0.1, held-out CIDEr-D reaches its 10.0 ceiling after
    # three MLE epochs; at 1.0 it stays below it, so a quality loss can show.
    NOISE_STD = 1.0
    MLE_EPOCHS = 6
    SCST_EPOCHS = 1
    MAX_LEN = 24  # the train-mle default; decides how many target tokens an item has
    SPLITS = ("val", "test")
    SETUPS_PER_ROUND = 2  # set-ups timed after each round (see run.measure)

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work

    def sizes(self) -> dict:
        return {"n_clips": self.N_CLIPS, "noise_std": self.NOISE_STD, "T": 8, "D": 16,
                "mle_epochs": self.MLE_EPOCHS, "scst_epochs": self.SCST_EPOCHS,
                "held_out_splits": list(self.SPLITS), "decode_modes": ["greedy", "sample"],
                "fid": f"corpus vs a second {self.FID_CLIPS}-clip corpus made with seed + 1"}

    def setup(self, p: Pass, tally: Tally, k: int) -> None:
        base = setup_base(self.work, k)
        shutil.rmtree(base, ignore_errors=True)
        self.data = os.path.join(base, "data")
        # FID compares two distinct corpora: frechet_distance returns 0.0 early on
        # identical statistics, which would skip the Jacobi solver entirely.
        self.other = os.path.join(base, "other")
        for out, n, seed in ((self.data, self.N_CLIPS, self.seed), (self.other, self.FID_CLIPS, self.seed + 1)):
            status, _, err = capkit(p, "synth", "synth", "--out", out, "--n-clips", n,
                                    "--noise-std", self.NOISE_STD, "--seed", seed)
            tally.op("synth", status_problems(status, err))
        with p.checking():
            samples, splits = read_split(self.data)
        train = set(splits["train"])
        self.n_items = len(train) * len(ROLES)
        self.mle_tokens = sum(
            min(len(getattr(s, role).tokens), self.MAX_LEN - 2) + 1
            for s in samples if s.id in train for role in ROLES
        )
        self.held_out = {split: len(splits[split]) for split in self.SPLITS}

    def round(self, p: Pass, tally: Tally, i: int) -> dict:
        mle = os.path.join(self.work, "mle.ckpt")
        scst = os.path.join(self.work, "scst.ckpt")
        status, _, err = capkit(p, "mle", "train-mle", "--data", self.data, "--out", mle,
                                "--epochs", self.MLE_EPOCHS, "--batch", 8, "--seed", self.seed,
                                "--max-len", self.MAX_LEN)
        problems = status_problems(status, err)
        if not problems:
            problems = loss_curve_problems(err)
        tally.op("train-mle", problems)

        status, _, err = capkit(p, "scst", "train-scst", "--data", self.data, "--ckpt", mle, "--out", scst,
                                "--epochs", self.SCST_EPOCHS, "--batch", 8, "--seed", self.seed)
        problems = status_problems(status, err)
        if not problems:
            with p.checking():
                problems = checkpoint_problems(scst)
        tally.op("train-scst", problems)

        cider_sum, pairs, captions = 0.0, 0, 0
        for split, n in self.held_out.items():
            for mode in ("greedy", "sample"):
                extra = ("--sample", "--seed", self.seed) if mode == "sample" else ()
                report, dec, sc = decode_and_score(p, self.data, scst, split, n,
                                                   os.path.join(self.work, f"hyps_{split}_{mode}.jsonl"), extra)
                tally.op(f"decode {split} {mode}", dec)
                tally.op(f"score {split} {mode}", sc)
                captions += n * len(ROLES)
                if report and mode == "greedy":
                    cider_sum += report["cider_d"] * report["counts"]
                    pairs += report["counts"]

        status, stdout, err = capkit(p, "fid", "fid", os.path.join(self.data, "feature_index.json"),
                                     os.path.join(self.other, "feature_index.json"))
        problems = status_problems(status, err)
        if not problems:
            values = dict(line.split() for line in stdout.strip().splitlines())
            problems = [f"{k}={v}" for k, v in values.items() if not float(v) >= 0.0]
            if set(values) != {"FID", "VID"}:
                problems.append(f"fid printed {sorted(values)}, want FID and VID")
        tally.op("fid", problems)

        held_out_cider = cider_sum / pairs if pairs else float("nan")
        return {
            "cider_d": held_out_cider,
            "cider_n": pairs,
            "mle_tokens_per_s": self.mle_tokens * self.MLE_EPOCHS / p.phases["mle"],
            "scst_seqs_per_s": self.n_items * self.SCST_EPOCHS / p.phases["scst"],
            "val_cider_d": held_out_cider,
            "decode_captions_per_s": captions / p.phases["decode"],
            "score_pairs_per_s": captions / p.phases["score"],
            "fid_s": p.phases["fid"],
        }


def loss_curve_problems(stderr: str) -> list:
    """The CLI logs the per-epoch MLE losses as one stderr line."""
    lines = [ln for ln in stderr.splitlines() if ln.startswith("epoch losses:")]
    if not lines:
        return ["no 'epoch losses:' line in train-mle output"]
    curve = [float(x) for x in lines[-1].split(":", 1)[1].split()]
    if not curve or not all(math.isfinite(x) for x in curve):
        return [f"non-finite MLE loss curve {curve}"]
    if curve[-1] >= curve[0]:
        return [f"MLE loss did not fall: {curve}"]
    return []


def checkpoint_problems(path: str) -> list:
    try:
        params, extra = seqmodel.load_checkpoint(path)
    except (OSError, ValueError, KeyError) as e:
        return [f"checkpoint does not load: {type(e).__name__}: {e}"]
    bad = [n for n, t in params.tensors.items() if not np.isfinite(t).all()]
    problems = [f"non-finite tensors {bad}"] if bad else []
    if "vocab" not in extra:
        problems.append("checkpoint has no vocabulary")
    return problems



# ---------------------------------------------------------------------------
# metrics_adversarial: score_all on edited references under a deadline, and
# Frechet distance at D = 64


class DeadlineExceeded(Exception):
    pass


def _raise_deadline(signum, frame):
    raise DeadlineExceeded()


@contextmanager
def deadline_signal():
    """Install the SIGALRM handler for per-pair deadlines; restore the old one."""
    previous = signal.signal(signal.SIGALRM, _raise_deadline)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def edit_tokens(rng, tokens, n_edits: int) -> list:
    """Seeded local edits: adjacent swaps, duplications and deletions."""
    toks = list(tokens)
    for _ in range(n_edits):
        kind = int(rng.integers(3))
        i = int(rng.integers(len(toks)))
        if kind == 0 and len(toks) > 1:
            i = min(i, len(toks) - 2)
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
        elif kind == 1:
            toks.insert(i, toks[i])
        elif len(toks) > 1:
            del toks[i]
    return toks


class MetricsAdversarial:
    name = "metrics_adversarial"
    # Per-pair latency limit. A pair that passes it is stopped, counted as not
    # completed, and counted in metrics.meteor_lite.timeouts when METEOR was running.
    DEADLINE_S = 0.02
    PAIRS_PER_ROUND = 450
    MAX_EDITS = 4
    REF_CLIPS = 1000  # 2000 references: IDF statistics from a corpus of realistic size
    FID_CLIPS = 80
    FID_D = 64
    SETUPS_PER_ROUND = 1  # set-ups timed after each round (see run.measure)

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.pair_ms = []

    def sizes(self) -> dict:
        return {"deadline_s": self.DEADLINE_S, "pairs_per_round": self.PAIRS_PER_ROUND,
                "edits_per_pair": [1, self.MAX_EDITS], "reference_clips": self.REF_CLIPS,
                "fid_clips": self.FID_CLIPS, "fid_T": 8, "fid_D": self.FID_D}

    def setup(self, p: Pass, tally: Tally, k: int) -> None:
        base = setup_base(self.work, k)
        shutil.rmtree(base, ignore_errors=True)
        with p.timing("setup"):
            corpus = data.synth_corpus(data.SynthConfig(n_clips=self.REF_CLIPS, seed=self.seed))
            self.refs = [getattr(s, role) for s in corpus.samples for role in ROLES]
            self.idf = metrics.build_idf([r.tokens for r in self.refs])
            self.feature_sets = []
            for j in range(2):
                cfg = data.SynthConfig(n_clips=self.FID_CLIPS, D=self.FID_D, noise_std=1.0,
                                       seed=self.seed * 2 + 1 + j)
                paths = []
                for cid, clip in data.synth_corpus(cfg).clips.items():
                    path = os.path.join(base, f"set{j}", f"{cid}.avdf")
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                    data.write_features(clip, path)
                    paths.append(path)
                self.feature_sets.append(paths)
        tally.op("setup", [])

    def pairs(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        out = []
        for _ in range(self.PAIRS_PER_ROUND):
            ref = self.refs[int(rng.integers(len(self.refs)))]
            toks = edit_tokens(rng, ref.tokens, int(rng.integers(1, self.MAX_EDITS + 1)))
            out.append((Caption.make(" ".join(toks), ref.role), ref))
        return out

    def round(self, p: Pass, tally: Tally, i: int) -> dict:
        with p.checking():
            pairs = self.pairs(i)
        cider_sum, completed = 0.0, 0
        with deadline_signal():
            for hyp, ref in pairs:
                depth = p.tracer.depth() if p.tracer else 0
                t0 = time.perf_counter()
                with p.timing("pair"):
                    try:
                        signal.setitimer(signal.ITIMER_REAL, self.DEADLINE_S)
                        try:
                            report = metrics.score_all([hyp], [ref], self.idf)
                        finally:
                            signal.setitimer(signal.ITIMER_REAL, 0)
                    except DeadlineExceeded:
                        report = None
                        if p.tracer:
                            p.tracer.unwind(depth, "DeadlineExceeded")
                # The deadline is on wall time, so the pair's latency is too.
                self.pair_ms.append((time.perf_counter() - t0) * 1e3)
                if report is None:
                    tally.op("score_all", timed_out=True)
                    continue
                with p.checking():
                    problems = report_problems(vars(report), 1)
                if tally.op("score_all", problems):
                    cider_sum += report.cider_d
                    completed += 1

        with p.timing("fid"):
            frames, pooled = [], []
            for paths in self.feature_sets:
                clips = [data.read_features(path).data for path in paths]
                frames.append(np.vstack(clips))
                pooled.append(np.vstack([c.mean(axis=0) for c in clips]))
            fid = metrics.frechet_distance(metrics.gaussian_stats(frames[0]), metrics.gaussian_stats(frames[1]))
            vid = metrics.frechet_distance(metrics.gaussian_stats(pooled[0]), metrics.gaussian_stats(pooled[1]))
        with p.checking():
            problems = []
            for label, got, (a, b) in (("FID", fid, frames), ("VID", vid, pooled)):
                a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
                want = oracles.oracle_frechet(a.mean(axis=0), np.cov(a, rowvar=False),
                                              b.mean(axis=0), np.cov(b, rowvar=False))
                if not (got >= 0.0 and abs(got - want) <= 1e-6 * max(1.0, abs(want))):
                    problems.append(f"{label} {got!r} vs numpy.linalg.eigh reference {want!r}")
        tally.op("frechet", problems)
        return {
            "cider_d": cider_sum / completed if completed else float("nan"),
            "cider_n": completed,
            "fid_s": p.phases["fid"],
        }


WORKLOADS = {w.name: w for w in (Train, MetricsAdversarial)}
