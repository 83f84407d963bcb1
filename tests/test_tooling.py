"""Checks on the package source itself."""

import ast
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
