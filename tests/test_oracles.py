"""The dense oracles stay independent of the engine they check."""

import ast
import sys
from pathlib import Path


def test_oracles_import_only_the_standard_library():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in oracles.py"
            imported.add(node.module.split(".")[0])
    assert imported, "no import found"
    assert imported <= sys.stdlib_module_names, imported - sys.stdlib_module_names
