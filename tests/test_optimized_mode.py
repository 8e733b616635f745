"""Every other ``tests/test_*.py`` module under ``python -O``, and lints
that keep plain ``assert``, unused imports, private definitions and
constants nothing in the library reads, public definitions nothing in
the library, the demos or the benchmark reads, and error classes the
library never raises or catches out of the library.

``-O`` strips plain ``assert`` statements from the library, so an
invariant it kept with one would go unchecked; these tests show that the
library does not rely on them.  pytest still rewrites the asserts in the
test files, so the tests check as much as they do without ``-O``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(str(path.relative_to(ROOT))
               for path in (ROOT / "tests").glob("test_*.py")
               if path.name != Path(__file__).name)
# (module, function) -> number of plain asserts allowed there.
ALLOWED_ASSERTS = {}


def _asserts_by_function(tree):
    """{enclosing function name: number of Assert nodes} for one module;
    module-level asserts count under None."""
    counts = {}

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                counts[func] = counts.get(func, 0) + 1
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(tree, None)
    return counts


def test_the_library_has_no_plain_asserts():
    found = {}
    for path in sorted((ROOT / "src" / "algebroid").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, n in _asserts_by_function(tree).items():
            found[(path.stem, func)] = n
    assert found == ALLOWED_ASSERTS


def _unused_imports(tree):
    """Names a module imports but never reads."""
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.add("annotations")   # from __future__ import annotations
    return sorted(name for name in imported if name not in used)


def test_the_library_imports_nothing_it_does_not_use():
    found = {}
    for path in sorted((ROOT / "src" / "algebroid").glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = _unused_imports(ast.parse(path.read_text(),
                                           filename=str(path)))
        if unused:
            found[path.stem] = unused
    assert found == {}


def _definitions(tree):
    """The functions, classes and methods of one module."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]


def _private_definitions(tree):
    """The ``_name`` functions, classes and methods of one module, and its
    module-level ``_NAME = ...`` assignments, dunders aside."""
    names = _definitions(tree)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names
            if name.startswith("_") and not name.endswith("__")]


def _read_names(trees):
    """The names the modules read as a loaded Name, an Attribute or an
    import alias."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return read


def _library_trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted((ROOT / "src" / "algebroid").glob("*.py"))}


def _unread_private_definitions(trees):
    """(module, name) of each private definition that no module reads."""
    read = _read_names(trees.values())
    return sorted((stem, name) for stem, tree in trees.items()
                  for name in _private_definitions(tree) if name not in read)


def test_every_private_definition_has_a_reader_in_the_library():
    assert _unread_private_definitions(_library_trees()) == []


def test_every_public_definition_has_a_reader():
    """Each public function, method or class of the library is read in
    the library, the demos or the benchmark; the tests alone keep none."""
    trees = _library_trees()
    readers = [ast.parse(path.read_text(), filename=str(path))
               for folder in ("demos", "perfbench")
               for path in sorted((ROOT / folder).glob("*.py"))]
    read = _read_names([*trees.values(), *readers])
    assert sorted((stem, name) for stem, tree in trees.items()
                  for name in _definitions(tree)
                  if not name.startswith("_") and name not in read) == []


def _raised_or_caught(trees):
    """The names that a raise statement or an except clause of the
    modules mentions."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                target = node.exc
            elif isinstance(node, ast.ExceptHandler):
                target = node.type
            else:
                continue
            if target is not None:
                names |= {n.id for n in ast.walk(target)
                          if isinstance(n, ast.Name)}
    return names


def test_every_error_class_is_raised_or_caught_in_the_library():
    """An error class that no library code raises or catches is an
    orphan: nothing can ever surface it."""
    trees = _library_trees()
    classes = [node.name for node in trees["errors"].body
               if isinstance(node, ast.ClassDef)]
    assert classes
    used = _raised_or_caught(tree for stem, tree in trees.items()
                             if stem != "errors")
    assert sorted(set(classes) - used) == []


def test_the_decider_tests_pass_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *FILES],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
