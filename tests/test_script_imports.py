"""The scripts still run against capkit. They import inside their functions,
so a renamed or deleted name would otherwise break a script without failing
any test; the timing scripts also run once on their smallest input, so a
changed signature fails too. The benchmark pair runner, which imports no
capkit module, summarizes two fake results and reads each checkout's commit."""
import ast
import glob
import importlib
import importlib.util
import json
import os
import subprocess

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def _capkit_imports():
    """(script, module, name) for each `from capkit... import name` in scripts/*.py."""
    found = []
    for path in sorted(glob.glob(os.path.join(SCRIPTS, "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "capkit":
                found.extend((os.path.basename(path), node.module, alias.name) for alias in node.names)
    return found


def test_every_capkit_name_a_script_imports_exists():
    found = _capkit_imports()
    assert {script for script, _, _ in found} >= {"meteor_worst_case.py", "score_timing.py", "pipeline_digest.py"}
    missing = [
        f"{script}: from {module} import {name}"
        for script, module, name in found
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_meteor_worst_case_runs_on_its_smallest_input(capsys):
    """One block-family pair at 2 words: the script's calls into capkit run.
    How long they take is not checked."""
    _load_script("meteor_worst_case").report(0, (("block", range(2, 3), 1),))
    header, line = capsys.readouterr().out.splitlines()
    assert header.split() == ["family", "words", "pairs", "median_ms", "worst_ms", "over_20ms"]
    assert line.split()[:3] == ["block", "2", "1"]


def test_score_timing_runs_one_round(capsys, monkeypatch):
    """One round over both reference sets: the script's calls into capkit and
    into the benchmark's workload run. How long they take is not checked."""
    monkeypatch.syspath_prepend(os.path.join(SCRIPTS, ".."))  # for perfbench.workloads
    _load_script("score_timing").report(1)
    out = capsys.readouterr().out
    assert out.startswith("1 rounds of 450 pairs;")
    for name in ("workload", "unique"):
        assert f"\n{name}: 2000 references (" in out
    for part in ("build_idf_ms", "score_all_us_pair", "ngrams_us_pair", "reference_us_pair", "overlap_us_pair",
                 "rouge_l_us_pair", "meteor_us_pair"):
        assert out.count(f"  {part} ") == 2


def test_bench_pairs_summarizes_two_result_files(tmp_path):
    """Two fake `perfbench/run.py` outputs, one per side of one pair: the
    runner reads each last line, and its summary and tables judge each metric
    by its direction."""
    bench_pairs = _load_script("bench_pairs")
    runs = []
    for side, round_s, ok_frac in (("parent", 0.9, 1.0), ("change", 0.8, 0.5)):
        result = {"correct": True, "attempted": 4, "failed": 0 if side == "parent" else 2,
                  "metrics": {"round_s": {"value": round_s, "unit": "s"}, "ok_frac": {"value": ok_frac, "unit": "frac"}}}
        path = tmp_path / f"{side}.txt"
        path.write_text('manifest {"seed": 1}\ntrain round_s 0.9 s\n' + json.dumps(result) + "\n")
        run = bench_pairs.parse_run(path.read_text())
        assert run["manifest"] == {"seed": 1}
        runs.append({"workload": "train", "seed": 1, "side": side, "first": "parent", **run})
    summary = bench_pairs.summarize(runs, {"round_s": "lower", "ok_frac": "higher"})
    train = summary["train"]
    assert train["pairs"] == 1 and train["failed"] == {"parent": 0, "change": 2}
    assert train["metrics"]["round_s"]["change_wins"] == 1 and train["metrics"]["ok_frac"]["change_wins"] == 0
    assert train["metrics"]["round_s"]["change"] == {"median": 0.8, "q1": 0.8, "q3": 0.8, "n": 1}
    pair_row = bench_pairs.tables(runs, summary).splitlines()[2]
    assert pair_row == "| train | 1 | parent | 0.90000 / 0.80000 | 1.00000 / 0.50000 | 0 / 2 |"


def test_bench_pairs_checkout_commit(tmp_path):
    """A plain directory has no commit, nor does a directory inside a work
    tree; the top of a work tree has its HEAD."""
    bench_pairs = _load_script("bench_pairs")
    assert bench_pairs.checkout_commit(str(tmp_path)) is None
    repo = tmp_path / "repo"
    (repo / "sub").mkdir(parents=True)
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git[:3] + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "empty"], check=True)
    head = subprocess.run(git[:3] + ["rev-parse", "HEAD"], stdout=subprocess.PIPE, text=True, check=True).stdout
    assert bench_pairs.checkout_commit(str(repo)) == head.strip()
    assert bench_pairs.checkout_commit(str(repo / "sub")) is None
