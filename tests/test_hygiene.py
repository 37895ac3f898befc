"""Source hygiene: every name a package module imports from a sibling is used.

A name brought in by ``from .x import name`` must appear in the module's
code (annotations count) or be re-exported through ``__all__``; otherwise
the import is dead and only hides which layers really depend on which.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "peterschub"
MODULES = sorted(PACKAGE.glob("*.py"))


def exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_relative_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    keep = used | exported(tree)
    return sorted((line, name) for name, line in imported.items() if name not in keep)


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "weyl.py", "billey.py", "peterson.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_sibling_imports(path):
    unused = unused_relative_imports(path.read_text())
    assert not unused, f"{path.name}: unused imports (line, name): {unused}"


def test_library_modules_do_not_import_the_cli():
    # Under ``python -m peterschub.cli`` such an import would load a second
    # copy of the CLI module.
    importers = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                names = [node.module or ""] + [alias.name for alias in node.names]
                if "cli" in names:
                    importers.append(path.name)
    assert importers == []


def test_checker_flags_an_unused_import():
    source = "from .weyl import Word, act\n\nx: Word = ()\n"
    assert unused_relative_imports(source) == [(1, "act")]
    assert unused_relative_imports(source + "__all__ = ['act']\n") == []
