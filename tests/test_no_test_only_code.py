"""No library code that only tests call.

Every top-level function, class and constant in `src/enfuse` must be
referenced somewhere in `src/` or `perfbench/` outside its own definition.
A package `__init__` re-export does not count as a reference, since it only
makes a name importable; `cmd_<stage>` functions are reached through
`cli.STAGES`, which `run_stage` looks them up by.
"""

import ast
from pathlib import Path

from enfuse.cli import STAGES

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "enfuse"

# shap_exact is the reference implementation the tests check shap_sampled against
ALLOWED = {"shap_exact"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(tree: ast.Module):
    """(name, node) for each top-level function, class and assigned constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _references(tree: ast.Module, is_init: bool) -> dict[str, list[ast.AST]]:
    """Each name loaded or imported in the module, with the nodes that mention it."""
    refs: dict[str, list[ast.AST]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.setdefault(node.id, []).append(node)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.setdefault(node.attr, []).append(node)
        elif isinstance(node, ast.ImportFrom) and not is_init:
            for alias in node.names:
                refs.setdefault(alias.name, []).append(node)
    return refs


def _unreached() -> list[str]:
    sources = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: _parse(path) for path in sources}
    refs = {path: _references(tree, path.name == "__init__.py")
            for path, tree in trees.items()}
    unreached = []
    for path, tree in trees.items():
        if not path.is_relative_to(PACKAGE):
            continue
        for name, definition in _definitions(tree):
            if name in ALLOWED or (name.startswith("__") and name.endswith("__")):
                continue
            if name.startswith("cmd_") and name[len("cmd_"):] in STAGES:
                continue
            inside = {id(node) for node in ast.walk(definition)}
            mentions = [node for other in trees for node in refs[other].get(name, ())
                        if other != path or id(node) not in inside]
            if not mentions:
                unreached.append(f"{path.relative_to(ROOT)}: {name}")
    return unreached


def test_every_library_name_is_reached_outside_tests():
    unreached = _unreached()
    assert not unreached, "referenced only by tests: " + ", ".join(unreached)
