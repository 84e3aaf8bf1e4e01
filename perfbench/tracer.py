"""Outside-in tracer for capkit.

capkit's modules import each other's functions by name (`from .seqmodel import
forward`) or call them through a module alias (`ad.matmul`, `dmod.read_features`).
So a function is wrapped at every place it is looked up: for each public function
defined in a capkit module, every capkit module attribute bound to it is replaced
by one wrapper. Two methods are wrapped on their class, `DecoderCache.__init__` and
`DecoderCache.step`, and `autodiff.Var.__init__` is counted, not timed.

Spans are kept in memory as `[name, parent, t0, t1, error, extra]` and written out
when the run ends. A span's self time is its duration minus the durations of its
children; the calls run on one thread, so children nest and never overlap.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import time
import types
from collections import defaultdict

from capkit.textproc import EOS

MODULES = ("autodiff", "seqmodel", "scst", "metrics", "textproc", "data", "harness", "cli")

# `autodiff.val` is one isinstance test that every op and the model call; a span
# around it would cost more than the function and tell nothing.
UNWRAPPED = {("autodiff", "val")}

# Per-call facts read from arguments or results, stored in the span's `extra` slot.


def _forward_positions(args, kwargs, out):
    train = kwargs.get("train", args[3] if len(args) > 3 else False)
    return len(args[2]) if train else 0


def _xent_targets(args, kwargs, out):
    mask = kwargs.get("mask", args[2] if len(args) > 2 else None)
    return float(sum(mask))


def _reward_is_zero(args, kwargs, out):
    return 1 if out.sample_score == out.baseline_score else 0


def _decode_shape(args, kwargs, out):
    return (len(out.ids) - 1, 0 if out.ids[-1] == EOS else 1)


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


def _mle_epochs(args, kwargs, out):
    return kwargs.get("epochs", args[2] if len(args) > 2 else 0)


HOOKS = {
    "seqmodel.forward": _forward_positions,
    "seqmodel.xent_loss": _xent_targets,
    "scst.compute_rewards": _reward_is_zero,
    "scst.decode_greedy": _decode_shape,
    "scst.decode_sample": _decode_shape,
    "data.read_features": _file_bytes,
    "seqmodel.train_mle": _mle_epochs,
}

# Spans that set the training phase of everything below them.
PHASES = {"seqmodel.train_mle": "mle", "scst.scst_train": "scst"}


def span_name(module: str, attr: str) -> str:
    if module == "cli" and attr.startswith("cmd_"):
        return "cli." + attr[4:].replace("_", "-")
    return f"{module}.{attr}"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.allocs = defaultdict(int)  # innermost open span id -> Var allocations
        self.on = False
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"capkit.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and (short, attr) not in UNWRAPPED
                ):
                    name = span_name(short, attr)
                    wrappers[obj] = self._wrap(name, obj, HOOKS.get(name))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

        cache = mods["seqmodel"].DecoderCache
        self._patch(cache, "__init__", self._wrap("seqmodel.decoder_cache_init", cache.__init__, None))
        self._patch(cache, "step", self._wrap("seqmodel.decoder_step", cache.step, None))

        var = mods["autodiff"].Var
        var_init = var.__init__
        allocs, stack, tracer = self.allocs, self.stack, self

        def counted_init(self_, value):
            if tracer.on:
                allocs[stack[-1] if stack else -1] += 1
            var_init(self_, value)

        self._patch(var, "__init__", counted_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.on = False

    def _patch(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, name, fn, hook):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                rec[4] = type(e).__name__
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                rec[5] = hook(args, kwargs, out)
            return out

        return traced

    # -- run control -------------------------------------------------------

    def depth(self) -> int:
        return len(self.stack)

    def unwind(self, depth: int, error: str) -> None:
        """Close the spans an asynchronous exception (a deadline signal) left
        open above `depth`; it may have fired inside a wrapper's own bookkeeping."""
        now = time.perf_counter()
        while len(self.stack) > depth:
            rec = self.spans[self.stack.pop()]
            if not rec[3]:
                rec[3] = now
            rec[4] = rec[4] or error

    # -- results -----------------------------------------------------------

    def summarize(self, t_start: float, t_end: float) -> dict:
        """Per-span-name aggregates and the derived per-layer metrics for the
        traced pass that ran from t_start to t_end."""
        spans = self.spans
        n = len(spans)
        dur = [max(0.0, (s[3] or s[2]) - s[2]) for s in spans]
        child = [0.0] * n
        phase = [None] * n
        for i, s in enumerate(spans):
            p = s[1]
            if p >= 0:
                child[p] += dur[i]
            phase[i] = PHASES.get(s[0]) or (phase[p] if p >= 0 else None)

        by_name = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        by_module = defaultdict(float)
        covered = 0.0
        for i, s in enumerate(spans):
            agg = by_name[s[0]]
            agg["calls"] += 1
            agg["total_s"] += dur[i]
            own = dur[i] - child[i]
            agg["self_s"] += own
            by_module[s[0].split(".", 1)[0]] += own
            if s[1] < 0:
                covered += dur[i]
        wall = t_end - t_start

        def total(name, ph):
            return float(sum(dur[i] for i, s in enumerate(spans) if s[0] == name and phase[i] == ph))

        def extras(name, ph=None):
            return [s[5] for i, s in enumerate(spans) if s[0] == name and (ph is None or phase[i] == ph) and s[5] is not None]

        def ratio(a, b):
            return a / b if b else 0.0

        forwards = {i for i, s in enumerate(spans) if s[0] == "seqmodel.forward" and s[5]}
        ops_in_forward = sum(1 for s in spans if s[1] in forwards and s[0].startswith("autodiff."))
        mle_allocs = sum(c for sid, c in self.allocs.items() if sid >= 0 and phase[sid] == "mle")
        mle_epochs = sum(extras("seqmodel.train_mle"))
        mle_positions = sum(extras("seqmodel.forward", "mle"))
        mle_targets = sum(extras("seqmodel.xent_loss", "mle"))
        rewards = extras("scst.compute_rewards")
        rollouts = extras("scst.decode_greedy", "scst") + extras("scst.decode_sample", "scst")
        samples = extras("scst.decode_sample", "scst")

        def self_s(name):
            return by_name[name]["self_s"] if name in by_name else 0.0

        def calls(name):
            return by_name[name]["calls"] if name in by_name else 0

        layer = {
            "seqmodel.forward.mle_s": (total("seqmodel.forward", "mle"), "s"),
            "seqmodel.backward.mle_s": (total("seqmodel.backward", "mle"), "s"),
            "seqmodel.xent_loss.s": (self_s("seqmodel.xent_loss"), "s"),
            "seqmodel.adam_step.s": (self_s("seqmodel.adam_step"), "s"),
            "autodiff.ops_per_forward": (ratio(ops_in_forward, len(forwards)), "count"),
            "autodiff.var_allocs": (ratio(mle_allocs, mle_epochs), "count"),
            "seqmodel.useful_token_frac": (ratio(mle_targets, mle_positions), "frac"),
            "seqmodel.forward.scst_s": (total("seqmodel.forward", "scst"), "s"),
            "seqmodel.backward.scst_s": (total("seqmodel.backward", "scst"), "s"),
            "scst.compute_rewards.s": (self_s("scst.compute_rewards"), "s"),
            "scst.zero_reward_frac": (ratio(sum(rewards), len(rewards)), "frac"),
            "scst.eos_truncation_frac": (ratio(sum(t for _, t in samples), len(samples)), "frac"),
            "scst.steps_per_rollout": (ratio(sum(k for k, _ in rollouts), len(rollouts)), "count"),
            "seqmodel.decoder_step.s": (self_s("seqmodel.decoder_step"), "s"),
            "seqmodel.decoder_step.calls": (calls("seqmodel.decoder_step"), "count"),
            "scst.decode_greedy.s": (self_s("scst.decode_greedy"), "s"),
            "scst.decode_sample.s": (self_s("scst.decode_sample"), "s"),
            "metrics.meteor_lite.s": (self_s("metrics.meteor_lite"), "s"),
            "metrics.rouge_l.s": (self_s("metrics.rouge_l"), "s"),
            "metrics.bleu_corpus.s": (self_s("metrics.bleu_corpus"), "s"),
            "metrics.cider_d.s": (self_s("metrics.cider_d"), "s"),
            "metrics.build_idf.s": (self_s("metrics.build_idf"), "s"),
            "textproc.ngrams.s": (self_s("textproc.ngrams"), "s"),
            "metrics.meteor_lite.timeouts": (
                sum(1 for s in spans if s[0] == "metrics.meteor_lite" and s[4] == "DeadlineExceeded"),
                "count",
            ),
            "metrics.jacobi_eigh.s": (self_s("metrics.jacobi_eigh"), "s"),
            "metrics.jacobi_eigh.calls": (calls("metrics.jacobi_eigh"), "count"),
            "metrics.gaussian_stats.s": (self_s("metrics.gaussian_stats"), "s"),
            "data.read_features.s": (self_s("data.read_features"), "s"),
            "data.read_features.bytes": (sum(extras("data.read_features")), "bytes"),
            "data.write_features.s": (self_s("data.write_features"), "s"),
            "data.synth_corpus.s": (self_s("data.synth_corpus"), "s"),
            "seqmodel.load_checkpoint.s": (self_s("seqmodel.load_checkpoint"), "s"),
            "seqmodel.save_checkpoint.s": (self_s("seqmodel.save_checkpoint"), "s"),
        }
        for cmd in ("synth", "train-mle", "train-scst", "decode", "score", "fid"):
            layer[f"cli.{cmd}.s"] = (self_s(f"cli.{cmd}"), "s")
        for mod in MODULES:
            layer[f"{mod}.self_s"] = (by_module.get(mod, 0.0), "s")
        layer["trace.remainder_s"] = (wall - covered, "s")
        layer["trace.wall_s"] = (wall, "s")
        return {"layer": layer, "by_name": dict(by_name), "spans": n}

    def write(self, path: str, t_start: float) -> None:
        """Write every span, times relative to the start of the traced pass."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump({"fields": ["name", "parent", "t0_s", "t1_s", "error", "extra"]}, f)
            f.write("\n")
            for s in self.spans:
                f.write(json.dumps([s[0], s[1], s[2] - t_start, (s[3] or s[2]) - t_start, s[4], s[5]]))
                f.write("\n")
