"""The library imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import xorcode

ALLOWED = {"__future__", "xorcode"} | set(sys.stdlib_module_names)


def test_library_is_stdlib_only():
    sources = sorted(Path(xorcode.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in ALLOWED, f"{path.name} imports {name}"
