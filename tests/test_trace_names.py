"""The names the benchmark's tracer (perfbench/tracer.py) reads must exist in
capkit. A function that is renamed or deleted sends the per-layer metric that
reads its span to 0 without failing the run, so this check fails instead."""
import ast
import importlib
import importlib.util
import inspect
import os
import types

from capkit import data, scst, seqmodel
from capkit.metrics import build_idf
from capkit.textproc import RESERVED, ROLE_DESCRIPTION, Caption, Vocab

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")

# Spans whose functions are gone; the benchmark still reads them and gets 0.
KNOWN_DEAD = {
    "seqmodel.xent_loss",
    "scst.decode_greedy",
    "scst.decode_sample",
    "metrics.meteor_lite",
    "metrics.bleu_corpus",
    "metrics.jacobi_eigh",
}

READERS = ("self_s", "total", "calls", "extras")  # Tracer.summarize's lookups by span name


def _literal(tree, name):
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in stmt.targets):
            return stmt.value
    raise AssertionError(f"tracer.py assigns no {name}")


def _span_names():
    """The module names and every span name tracer.py reads."""
    with open(TRACER) as f:
        tree = ast.parse(f.read(), TRACER)
    modules = ast.literal_eval(_literal(tree, "MODULES"))
    names = set()
    for table in ("HOOKS", "PHASES"):
        names.update(ast.literal_eval(k) for k in _literal(tree, table).keys)
    tracer_cls = next(s for s in tree.body if isinstance(s, ast.ClassDef) and s.name == "Tracer")
    summarize = next(s for s in tracer_cls.body if isinstance(s, ast.FunctionDef) and s.name == "summarize")
    commands = ()
    for node in ast.walk(summarize):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in READERS
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            names.add(node.args[0].value)
        elif isinstance(node, ast.For) and isinstance(node.target, ast.Name) and node.target.id == "cmd":
            commands = ast.literal_eval(node.iter)
    assert commands, "summarize has no loop over the CLI commands"
    names.update(f"cli.{cmd}" for cmd in commands)
    return modules, names


def _lookup(name):
    """What capkit binds at the place the tracer wraps for the span `name`."""
    module, attr = name.split(".", 1)
    mod = importlib.import_module(f"capkit.{module}")
    if name == "seqmodel.decoder_step":
        return mod.DecoderCache.step
    if module == "cli":
        attr = "cmd_" + attr.replace("-", "_")
    return getattr(mod, attr, None)


def _resolve(name):
    """The capkit function or method that opens the span `name`, or None."""
    obj = _lookup(name)
    if isinstance(obj, types.FunctionType) and obj.__module__ == f"capkit.{name.split('.', 1)[0]}":
        return obj
    return None


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_span_the_tracer_reads_exists():
    modules, names = _span_names()
    assert {n.split(".", 1)[0] for n in names} <= set(modules)
    unresolved = {n for n in names if _resolve(n) is None}
    assert unresolved <= KNOWN_DEAD, sorted(unresolved - KNOWN_DEAD)


def test_hooks_read_what_the_calls_pass():
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(seqmodel.forward)[3:4] == ["train"]  # autodiff.ops_per_forward counts train forwards
    assert params(seqmodel.train_mle)[2:3] == ["epochs"]  # autodiff.var_allocs divides by epochs
    assert params(data.read_features)[:1] == ["path"]  # data.read_features.bytes stats it

    vocab = Vocab(tokens=RESERVED + ("a", "b", "c"))
    ids = tuple(vocab.id_of(t) for t in ("a", "b"))
    ref = Caption.make("a b", ROLE_DESCRIPTION)
    out = scst.compute_rewards(ids, ids, ref, build_idf([("a", "b"), ("c",)]), vocab)
    assert _load_tracer().HOOKS["scst.compute_rewards"]((), {}, out) == 1  # scst.zero_reward_frac


def test_tracer_installs_and_uninstalls():
    tracer = _load_tracer()
    _, names = _span_names()
    live = {n: f for n in names if (f := _resolve(n)) is not None}
    t = tracer.Tracer()
    try:
        t.install()
        for name, fn in live.items():
            assert getattr(_lookup(name), "__wrapped__", None) is fn, name
    finally:
        t.uninstall()
    assert all(_lookup(n) is f for n, f in live.items())
