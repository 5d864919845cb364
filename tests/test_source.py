"""Source rules the package keeps, read off syntax trees.

- No `assert` in the package: every exact check must raise, and an assert
  vanishes under `python -O`. The tree finds one anywhere, also after ";".
- No unused import: a name a module imports and never references is a
  leftover of a deletion. This rule also covers tests/ and tools/.
  `__init__.py` is skipped, as its imports are the surface it re-exports.
- No unreferenced private helper: a `_x` function, method or class (not a
  dunder) that no module of the package reads, as a load-context Name, an
  Attribute or a `from` import, is a leftover of a deletion too.
- No unread private constant: a module-level `_X = ...` or `_X: T = ...`
  (not a dunder) that no module of the package reads is one as well.

Each file is parsed once, at import. Each rule returns `path:line: name`
lines, and a planted violation in a copy of one module's tree must come
back as exactly its own line, so no rule can pass on every input.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse(*directories):
    """{path relative to the root: syntax tree} of each directory's *.py."""
    paths = sorted(path for d in directories for path in (ROOT / d).glob("*.py"))
    return {path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(), str(path))
            for path in paths}


PACKAGE = parse("src/quatsqrt")
SCRIPTS = parse("tests", "tools")


def asserts(trees):
    return [f"{path}:{node.lineno}: assert" for path, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def unused_imports(trees):
    found = []
    for path, tree in trees.items():
        if path.endswith("/__init__.py"):
            continue
        nodes = list(ast.walk(tree))
        used = {node.id for node in nodes if isinstance(node, ast.Name)}
        found += [f"{path}:{node.lineno}: {alias.asname or alias.name}" for node in nodes
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for alias in node.names
                  if (alias.asname or alias.name).split(".")[0] not in used]
    return found


def reads(trees):
    """The names the trees read: as a load-context Name, an Attribute or a `from` import."""
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    return ({node.id for node in nodes if isinstance(node, ast.Name)
             and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            | {alias.name for node in nodes if isinstance(node, ast.ImportFrom)
               for alias in node.names})


def private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unreferenced_private_helpers(trees):
    read = reads(trees)
    return [f"{path}:{node.lineno}: {node.name}" for path, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and private(node.name) and node.name not in read]


def unread_private_constants(trees):
    read = reads(trees)
    return [f"{path}:{node.lineno}: {target.id}" for path, tree in trees.items()
            for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and private(target.id) and target.id not in read]


def test_package_has_no_assert():
    found = asserts(PACKAGE)
    assert found == [], "\n".join(found)


def test_package_has_no_unused_import():
    found = unused_imports(PACKAGE)
    assert found == [], "\n".join(found)


def test_tests_and_tools_have_no_unused_import():
    found = unused_imports(SCRIPTS)
    assert found == [], "\n".join(found)


def test_package_has_no_unreferenced_private_helper():
    found = unreferenced_private_helpers(PACKAGE)
    assert found == [], "\n".join(found)


def test_package_has_no_unread_private_constant():
    found = unread_private_constants(PACKAGE)
    assert found == [], "\n".join(found)


def planted(line):
    """The package's trees with `line` appended to a copy of forms.py's
    source, and that line's `path:line` prefix."""
    path = "src/quatsqrt/forms.py"
    source = (ROOT / path).read_text()
    lineno = source.count("\n") + 1
    return {**PACKAGE, path: ast.parse(f"{source}{line}\n", path)}, f"{path}:{lineno}"


def test_planted_assert_is_reported():
    trees, where = planted("x = 1; assert x")
    assert asserts(trees) == [f"{where}: assert"]


def test_planted_unused_import_is_reported():
    trees, where = planted("import os.path")
    assert unused_imports(trees) == [f"{where}: os.path"]


def test_planted_private_helper_is_reported():
    trees, where = planted("def _orphan(): pass")
    assert unreferenced_private_helpers(trees) == [f"{where}: _orphan"]


def test_planted_private_constant_is_reported():
    trees, where = planted("_ORPHAN = 1")
    assert unread_private_constants(trees) == [f"{where}: _ORPHAN"]
