"""numpy is the package's only runtime dependency: every module of
``src/saddlebounds`` imports only the standard library, numpy and its own
modules."""

import ast
import glob
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_only_the_standard_library_and_numpy_are_imported():
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "saddlebounds", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or one of the package's own modules
            found += [f"{os.path.basename(path)}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in ALLOWED]
    assert found == []
