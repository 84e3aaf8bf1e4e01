"""The capkit names the scripts import must exist. The scripts import inside
`main()` and no test runs them, so a renamed or deleted name would otherwise
break a script without failing any test."""
import ast
import glob
import importlib
import os

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
