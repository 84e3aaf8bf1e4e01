"""Checks on the package's source text."""
import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "capkit")


def test_every_public_function_and_class_is_referenced():
    """Each public module-level function and class of src/capkit is named,
    as a name or an attribute, somewhere in src/capkit outside its own
    definition. A name that only tests reach is dead code."""
    defined, refs = [], set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                if not owner.startswith("_"):
                    defined.append((module, owner))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.add((node.id, module, owner))
                elif isinstance(node, ast.Attribute):
                    refs.add((node.attr, module, owner))
    unreferenced = [
        f"{module}:{name}"
        for module, name in defined
        if not any(n == name and (m, o) != (module, name) for n, m, o in refs)
    ]
    assert unreferenced == []
