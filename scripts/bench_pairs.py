#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and write BENCH_<label>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --label tape-list
    python3 scripts/bench_pairs.py PARENT CHANGE --label try --workloads train --seeds 1 2 --seconds 10

PARENT and CHANGE are two checkouts of the repository. For each seed and
workload, the script runs `perfbench/run.py --trace 0` once from each
checkout's root: the parent first on odd seeds, the change first on even ones.
It reads each run's result from the last line of its standard output, and the
run manifest from the line that starts with "manifest ".

It writes BENCH_<label>.json at CHANGE's root, after every run:

- runs: each run's workload, seed, side, which side ran first, end-to-end
  metrics, `attempted`, `failed` and `correct`;
- manifest: each side's manifest of its first run (machine, Python, numpy,
  BLAS, commit and source digest);
- summary: per workload, each side's `failed` total and, per end-to-end
  metric, each side's median and quartiles, and the number of pairs in which
  the change is better than the parent (wins) and equal to it (ties), by the
  metric's `better` in CHANGE's BENCHMARK.json.

At the end it prints one markdown row per pair, then the summary as a second
table. It imports no capkit module; the runs write only what
`perfbench/run.py` writes, under each checkout's perfbench/out/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def parse_run(stdout: str) -> dict:
    """A run's result and manifest from `perfbench/run.py`'s standard output."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    manifest = next((json.loads(line[len("manifest "):]) for line in lines if line.startswith("manifest ")), None)
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "manifest": manifest,
    }


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    return parse_run(proc.stdout)


def quartiles(xs) -> dict | None:
    if not xs:
        return None
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return {"median": q2, "q1": q1, "q3": q3, "n": len(xs)}


def _pairs(runs, workload):
    """{seed: {side: run}} for the workload's seeds that ran on both sides."""
    by_seed = {}
    for r in runs:
        if r["workload"] == workload:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r
    return {seed: p for seed, p in by_seed.items() if len(p) == len(SIDES)}


def summarize(runs: list, better: dict) -> dict:
    """Per workload: each side's failed total and, for each metric named in
    `better` (name -> "lower" or "higher"), each side's median and quartiles
    and the change's wins and ties over the pairs."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = _pairs(runs, workload).values()
        metrics = {}
        for name, direction in better.items():
            entry = {side: quartiles([r["metrics"][name] for r in mine if r["side"] == side]) for side in SIDES}
            sign = 1.0 if direction == "higher" else -1.0
            diffs = [sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name]) for p in pairs]
            entry.update(better=direction, change_wins=sum(d > 0 for d in diffs), ties=sum(d == 0 for d in diffs))
            metrics[name] = entry
        out[workload] = {
            "pairs": len(pairs),
            "failed": {side: sum(r["failed"] for r in mine if r["side"] == side) for side in SIDES},
            "metrics": metrics,
        }
    return out


def tables(runs: list, summary: dict) -> str:
    """The pairs, one markdown row each, then the summary as a second table."""
    names = list(next(iter(summary.values()))["metrics"]) if summary else []
    rows = [
        "| workload | seed | first | " + " | ".join(f"{n} parent / change" for n in names) + " | failed |",
        "|---|---|---|" + "---|" * len(names) + "---|",
    ]
    for workload in summary:
        for seed, p in sorted(_pairs(runs, workload).items()):
            cells = [f"{p['parent']['metrics'][n]:.5f} / {p['change']['metrics'][n]:.5f}" for n in names]
            failed = f"{p['parent']['failed']} / {p['change']['failed']}"
            rows.append(f"| {workload} | {seed} | {p['parent']['first']} | " + " | ".join(cells) + f" | {failed} |")
    rows += ["", "| workload | metric | better | parent median [q1, q3] | change median [q1, q3] | change wins / ties / pairs |",
             "|---|---|---|---|---|---|"]

    def q(x):
        return "-" if x is None else f"{x['median']:.5f} [{x['q1']:.5f}, {x['q3']:.5f}]"

    for workload, s in summary.items():
        for name, e in s["metrics"].items():
            rows.append(f"| {workload} | {name} | {e['better']} | {q(e['parent'])} | {q(e['change'])} | "
                        f"{e['change_wins']} / {e['ties']} / {s['pairs']} |")
    return "\n".join(rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change; BENCH_<label>.json is written at its root")
    ap.add_argument("--label", required=True)
    ap.add_argument("--workloads", nargs="+", help="default: every workload in CHANGE's BENCHMARK.json")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=50.0)
    args = ap.parse_args()

    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    out_path = os.path.join(checkouts["change"], f"BENCH_{args.label}.json")

    runs, manifests = [], {}
    for seed in args.seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                run = run_once(checkouts[side], workload, seed, args.seconds)
                manifests.setdefault(side, run.pop("manifest"))
                runs.append({"workload": workload, "seed": seed, "side": side, "first": order[0], **run})
                print(f"{workload} seed {seed} {side}: {json.dumps(run['metrics'])}", file=sys.stderr)
                with open(out_path, "w", encoding="utf-8") as f:
                    json.dump({"label": args.label, "seconds": args.seconds, "manifest": manifests, "runs": runs,
                               "summary": summarize(runs, better)}, f, indent=1)
    print(tables(runs, summarize(runs, better)))


if __name__ == "__main__":
    main()
