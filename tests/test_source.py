"""Checks on the package's source text."""
import ast
import glob
import os

import numpy as np

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "capkit")

# Attribute names that arrays, containers and strings also have: `x.copy()` on
# an array says nothing about a capkit method named `copy`.
SHARED = {a for t in (np.ndarray, dict, list, tuple, set, str, bytes) for a in dir(t)}


def _walk(node, module, path, refs):
    """Record each name and attribute under node as (name, receiver, module,
    path), where path is the chain of definitions that encloses it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name):
            refs.append((child.id, None, module, path))
        elif isinstance(child, ast.Attribute):
            refs.append((child.attr, child.value, module, path))
        defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        _walk(child, module, path + (child.name,) if defines else path, refs)


def _source():
    """The parsed modules of src/capkit and every reference in them."""
    trees, refs = {}, []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)
        with open(path) as f:
            trees[module] = ast.parse(f.read(), path)
        _walk(trees[module], module, (), refs)
    return trees, refs


def test_every_function_and_class_is_referenced():
    """Each module-level function and class of src/capkit, private ones
    included, is named, as a name or an attribute, somewhere in src/capkit
    outside its own definition. A name that only tests reach is dead code:
    a test may import a private helper, but cannot keep it alive."""
    trees, refs = _source()
    unreferenced = [
        f"{module}:{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not any(n == stmt.name and (m, p[:1]) != (module, (stmt.name,)) for n, _, m, p in refs)
    ]
    assert unreferenced == []


def test_every_public_method_is_referenced():
    """Each public method or property of a class in src/capkit is named as an
    attribute somewhere in src/capkit outside its own definition; dunders are
    exempt. A name that arrays, containers or strings also have counts only
    through `self` or `cls` in its class, or through the class's own name."""

    def names(cls, meth, module, n, receiver, m, p):
        if n != meth or receiver is None or (m, p[:2]) == (module, (cls, meth)):
            return False
        if meth not in SHARED:
            return True
        return isinstance(receiver, ast.Name) and (
            receiver.id == cls or (receiver.id in ("self", "cls") and (m, p[:1]) == (module, (cls,)))
        )

    trees, refs = _source()
    unreferenced = [
        f"{module}:{cls.name}.{f.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for f in cls.body
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not f.name.startswith("_")
        and not any(names(cls.name, f.name, module, *r) for r in refs)
    ]
    assert unreferenced == []
