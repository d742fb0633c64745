"""No library code that only tests call, and no default that only tests use.

Every top-level function, class and constant in `src/enfuse` must be
referenced somewhere in `src/` or `perfbench/` outside its own definition.
A package `__init__` re-export does not count as a reference, since it only
makes a name importable; `cmd_<stage>` functions are reached through
`cli.STAGES`, which `run_stage` looks them up by.

Every defaulted parameter of a function or method in `src/enfuse`, and every
defaulted field of a `@dataclass` there (a parameter of the `__init__` it
generates; a `field(init=False)` is state, not a parameter), must be
passed, by keyword or by position, by some call in `src/` or `perfbench/`
(a value nothing else passes is a constant) and left out by another (a
default every such call overrides is one only tests use). So a parameter
keeps a default only when two product callers need different values.

Every field of a `@dataclass` in `src/enfuse` must be read in `src/` or
`perfbench/` outside its own class: an attribute load of the field's name
on anything but a name an `import` statement binds (`sys.path` is no
read of a `path` field). A field no output reads is computed for nothing.

Every name that a module in `src/enfuse`, `perfbench/` or `tests/` imports
must be loaded in that module, or listed in its `__all__`. An import marked
`# noqa: F401`, a bench span hook's target, is exempt.
"""

import ast
from pathlib import Path

from enfuse.cli import STAGES

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "enfuse"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _product_trees() -> dict[Path, ast.Module]:
    """The parsed modules of src/enfuse and perfbench."""
    sources = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: _parse(path) for path in sources}


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
    trees = _product_trees()
    refs = {path: _references(tree, path.name == "__init__.py")
            for path, tree in trees.items()}
    unreached = []
    for path, tree in trees.items():
        if not path.is_relative_to(PACKAGE):
            continue
        for name, definition in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
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


# Defaulted parameters that no call in src/ or perfbench/ passes by name, each
# with the reason it stays.
UNPASSED_ALLOWED = {
    "EncoderModel.__init__ head": "EncoderModel.load calls it as `cls(backbone, head)`",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _dataclass_defaults(node: ast.ClassDef):
    """(position, name) of each defaulted parameter of a dataclass's generated
    `__init__`: a field with a value, unless the value is a `field(...)`
    without a default or with `init=False`."""
    position = 0
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
            continue
        value = stmt.value
        options = None
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            options = {k.arg: k.value for k in value.keywords}
            if getattr(options.get("init"), "value", True) is False:
                continue
        has_default = options is None or {"default", "default_factory"} & options.keys()
        if value is not None and has_default:
            yield position, stmt.target.id
        position += 1


def _defaulted_parameters(node: ast.AST, owner: str | None = None):
    """(function label, call name, call position or None, parameter) of each
    defaulted parameter; a method's position skips self, and `__init__`,
    a dataclass's generated one included, is called by its class's name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            if _is_dataclass(child):
                for position, name in _dataclass_defaults(child):
                    yield f"{child.name}.__init__", child.name, position, name
            yield from _defaulted_parameters(child, child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            label = f"{owner}.{child.name}" if owner else child.name
            called = owner if child.name == "__init__" else child.name
            args = child.args
            positional = args.posonlyargs + args.args
            skip = 1 if owner and not any(getattr(d, "id", None) == "staticmethod"
                                          for d in child.decorator_list) else 0
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield label, called, i - skip, arg.arg
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield label, called, None, arg.arg
            yield from _defaulted_parameters(child)
        else:
            yield from _defaulted_parameters(child, owner)


def _calls(tree: ast.Module):
    """(called name, positional count, keyword names) of each call of a plain
    or attribute name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None:
                positional = len([a for a in node.args if not isinstance(a, ast.Starred)])
                yield name, positional, {k.arg for k in node.keywords if k.arg}


def _default_uses() -> list[tuple[str, Path, list[bool]]]:
    """("function parameter", its file, whether each call of the function's
    name in src/ or perfbench/ passes it) of each defaulted parameter."""
    trees = _product_trees()
    calls: dict[str, list[tuple[int, set[str]]]] = {}
    for tree in trees.values():
        for name, positional, keywords in _calls(tree):
            calls.setdefault(name, []).append((positional, keywords))
    uses = []
    for path, tree in trees.items():
        if not path.is_relative_to(PACKAGE):
            continue
        for label, called, position, param in _defaulted_parameters(tree):
            passed = [param in keywords or (position is not None and position < positional)
                      for positional, keywords in calls.get(called, ())]
            uses.append((f"{label} {param}", path.relative_to(ROOT), passed))
    return uses


def test_every_default_is_passed_outside_tests():
    """A default that no call in src/ or perfbench/ overrides is a constant."""
    unpassed = [f"{path}: {name}" for name, path, passed in _default_uses()
                if not any(passed) and name not in UNPASSED_ALLOWED]
    assert not unpassed, "defaults no call passes: " + ", ".join(unpassed)


def test_every_default_is_used_outside_tests():
    """A default that every call in src/ or perfbench/ overrides serves only
    the tests; the parameter should be required."""
    overridden = [f"{path}: {name}" for name, path, passed in _default_uses()
                  if passed and all(passed)]
    assert not overridden, "defaults every call overrides: " + ", ".join(overridden)


def _field_reads(tree: ast.Module):
    """Each attribute load in the module but those on a name an `import` binds."""
    modules = {alias.asname or alias.name.partition(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and not (isinstance(node.value, ast.Name) and node.value.id in modules)):
            yield node


def test_every_dataclass_field_is_read_outside_tests():
    """A field that no product code reads outside its class is never output."""
    trees = _product_trees()
    reads: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in _field_reads(tree):
            reads.setdefault(node.attr, []).append(node)
    unread = []
    for path, tree in trees.items():
        if not path.is_relative_to(PACKAGE):
            continue
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            inside = {id(node) for node in ast.walk(cls)}
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and all(id(node) in inside for node in reads.get(stmt.target.id, ()))):
                    unread.append(f"{path.relative_to(ROOT)}: {cls.name}.{stmt.target.id}")
    assert not unread, "dataclass fields no product code reads: " + ", ".join(unread)


def _unused_imports(path: Path, tree: ast.Module) -> list[str]:
    """The names the module imports and neither loads nor lists in `__all__`."""
    lines = path.read_text().splitlines()
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                 for t in node.targets)):
            loaded |= {elt.value for elt in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.end_lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.partition(".")[0]
            if bound not in loaded:
                unused.append(f"{path.relative_to(ROOT)}: {bound}")
    return unused


def test_every_import_is_used():
    """An import that its module never uses is dead code."""
    tests = {path: _parse(path) for path in sorted((ROOT / "tests").glob("*.py"))}
    unused = [name for path, tree in {**_product_trees(), **tests}.items()
              for name in _unused_imports(path, tree)]
    assert not unused, "imported but unused: " + ", ".join(unused)
