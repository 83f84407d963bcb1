"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

import preproj

SRC = Path(preproj.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements, and a cross-check must not be
    # switchable: the package raises AssertionError explicitly instead
    found = []
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "bare assert in the package: %s" % ", ".join(found)


def test_package_imports_only_the_standard_library():
    # the runtime is stdlib-only: every import is relative or names a
    # standard-library module
    found = []
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert not found, "non-stdlib import in the package: %s" % ", ".join(found)
