"""Design rules of the package, checked on its source text.

Every public top-level name in ``src/dstc`` must be used by the package, by
the benchmark harness in ``perfbench/`` or by ``pyproject.toml`` (the
console script): a name that only tests read is a test helper living in
the package.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "dstc").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def _public_names(tree):
    """Public names that a module binds at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def _references(tree):
    """Names that a module reads: bare, as an attribute, or in an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_every_public_name_is_used_outside_tests():
    referenced = set(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text()))
    for path in USERS:
        referenced.update(_references(ast.parse(path.read_text(), str(path))))
    unused = [
        f"{path.stem}.{name}"
        for path in PACKAGE
        for name in _public_names(ast.parse(path.read_text(), str(path)))
        if name not in referenced
    ]
    assert not unused, f"public names that only tests use: {unused}"
