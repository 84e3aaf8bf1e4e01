#!/usr/bin/env python3
"""capkit benchmark: two workloads, timed from outside each module.

    python3 perfbench/run.py --workload train --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

`--trace 0` measures the end-to-end metrics with no tracing, in user CPU time
of this process (see workloads.Pass). `--trace 1` runs one set-up and one
round untraced and traced, in three alternating pairs, and reports the
per-layer metrics. `--workload all` runs each workload in a fresh process.
The last line of standard output is the result as one JSON object; the lines
before it give the run manifest and every metric by name and unit. Result files
and span dumps go to perfbench/out/. See perfbench/README.md.
"""
import os

# Pin BLAS to one thread before numpy is imported anywhere in this process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("train", "metrics_adversarial")
MIN_ROUNDS = 3
TRACE_PAIRS = 3


def percentile(xs, q):
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, int(-(-q * len(s) // 100)) - 1))]


# ---------------------------------------------------------------------------
# Manifest


def blas_info() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info = {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "pinned_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "threads": None,
    }
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def git_commit(root: str):
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head, encoding="utf-8") as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(root, ".git", ref)
    if os.path.exists(loose):
        with open(loose, encoding="utf-8") as f:
            return f.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed, encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "capkit", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def manifest(args, sizes: dict) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": sizes,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(ROOT),
        "capkit_source_sha256": source_digest(SRC),
    }


# ---------------------------------------------------------------------------
# Measurement


def measure(wl, seconds: float):
    """Untraced run: set up, then rounds until `seconds` pass, with the set-up
    repeated after every round. The host's speed drifts over the run, so
    set-ups spread over it give a steadier median than set-ups at its start."""
    from workloads import Pass, Tally, setup_base

    tally = Tally()
    setup_times, setup_sys = [], []

    def set_up():
        # Each set-up writes a fresh directory and the rounds switch to it;
        # the previous one is deleted, untimed.
        k = len(setup_times)
        p = Pass()
        wl.setup(p, tally, k)
        setup_times.append(p.op_s)
        setup_sys.append(p.sys_s)
        if k >= 1:
            shutil.rmtree(setup_base(wl.work, k - 1))

    set_up()
    rounds = []
    t_start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t_start < seconds:
        p = Pass()
        res = wl.round(p, tally, len(rounds))
        res["round_s"] = p.op_s
        res["round_sys_s"] = p.sys_s
        rounds.append(res)
        for _ in range(wl.SETUPS_PER_ROUND):
            set_up()

    cider_n = sum(r["cider_n"] for r in rounds)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "round_s": (statistics.median(r["round_s"] for r in rounds), "s"),
        "ok_frac": ((tally.attempted - tally.failed - tally.timed_out) / tally.attempted, "frac"),
        "cider_d": (sum(r["cider_d"] * r["cider_n"] for r in rounds) / cider_n if cider_n else float("nan"),
                    "score"),
    }
    detail = {
        "setup_s": metrics["setup_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
        "failed_frac": ((tally.failed + tally.timed_out) / tally.attempted, "failed ops/attempted ops"),
        "setup_sys_s": (statistics.median(setup_sys), "system CPU s"),
        "round_sys_s": (statistics.median(r["round_sys_s"] for r in rounds), "system CPU s"),
    }
    for key, unit in (("mle_tokens_per_s", "tokens/s"), ("scst_seqs_per_s", "rollouts/s"),
                      ("val_cider_d", "CIDEr-D"), ("decode_captions_per_s", "captions/s"),
                      ("score_pairs_per_s", "pairs/s"), ("fid_s", "s")):
        if key in rounds[0]:
            detail[key] = (statistics.median(r[key] for r in rounds), unit)
    pair_ms = getattr(wl, "pair_ms", None)
    if pair_ms:
        detail["score_pairs_per_s"] = (len(pair_ms) / (sum(pair_ms) / 1e3), "pairs/s")
        detail["score_pair_ms_p50"] = (percentile(pair_ms, 50), "ms")
        detail["score_pair_ms_p99"] = (percentile(pair_ms, 99), f"ms (n={len(pair_ms)})")
    details = {"rounds": len(rounds), "setups": setup_times, "setups_sys": setup_sys,
               "round_s": [r["round_s"] for r in rounds], "rounds_sys": [r["round_sys_s"] for r in rounds]}
    return tally, metrics, detail, details


def trace(wl_factory, tag: str):
    """Traced run: the same set-up and first round, untraced and traced in
    alternating pairs. The overhead is the median traced-minus-untraced wall
    time over the pairs; the per-layer metrics come from the last traced pass."""
    from tracer import MODULES, Tracer
    from workloads import Pass, Tally

    tally = Tally()

    def one_pass(tracer=None):
        wl = wl_factory()
        if tracer:
            tracer.on = True
        t0 = time.perf_counter()
        wl.setup(Pass(tracer), tally, 0)
        wl.round(Pass(tracer), tally, 0)
        t1 = time.perf_counter()
        if tracer:
            tracer.on = False
        return t0, t1

    untraced, traced = [], []
    for _ in range(TRACE_PAIRS):
        u0, u1 = one_pass()
        untraced.append(u1 - u0)
        tracer = Tracer()
        tracer.install()
        try:
            t0, t1 = one_pass(tracer)
        finally:
            tracer.uninstall()
        traced.append(t1 - t0)

    summary = tracer.summarize(t0, t1)
    layer = summary["layer"]
    layer["trace.overhead_s"] = (statistics.median(t - u for t, u in zip(traced, untraced)), "s")
    closure = sum(layer[f"{m}.self_s"][0] for m in MODULES) + layer["trace.remainder_s"][0]
    problems = []
    if abs(closure - (t1 - t0)) > 1e-6 * (t1 - t0):
        problems.append(f"self times + remainder = {closure} s, traced wall = {t1 - t0} s")
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{tag}.jsonl.gz"), t0)
    details = {"untraced_wall_s": untraced, "traced_wall_s": traced, "spans": summary["spans"],
               "self_plus_remainder_s": closure, "by_name": summary["by_name"]}
    return tally, layer, problems, details


def run_one(args) -> int:
    sys.path[:0] = [SRC, os.path.join(ROOT, "tests"), HERE]
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        info = manifest(args, cls(args.seed, work).sizes())
        print("manifest " + json.dumps(info, sort_keys=True))
        problems = []
        if args.trace:
            tally, metrics, problems, details = trace(lambda: cls(args.seed, work), tag)
            detail = {}
        else:
            tally, metrics, detail, details = measure(cls(args.seed, work), args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = tally.problems + problems
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:20s} {name:30s} {value:14.6f} {unit}")
    for name, (value, unit) in detail.items():
        print(f"{args.workload:20s} [detail] {name:21s} {value:14.6f} {unit}")
    if args.trace:
        print(f"{args.workload:20s} traced wall {metrics['trace.wall_s'][0]:.4f} s = module self times + "
              f"remainder {details['self_plus_remainder_s']:.4f} s; overhead "
              f"{metrics['trace.overhead_s'][0]:.4f} s (median traced - untraced over "
              f"{TRACE_PAIRS} pairs: traced {details['traced_wall_s']}, untraced {details['untraced_wall_s']})")

    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as f:
        json.dump({"manifest": info, "result": result, "timed_out": tally.timed_out,
                   "detail_metrics": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
                   "problems": problems, "details": details}, f, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS and set-up do not leak."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "capkit", "__init__.py")):
        print(f"capkit sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
