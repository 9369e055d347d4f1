"""The benchmark's tracer rebinds package functions by name; every name it
lists must still exist, or only a traced benchmark run would show it. It
counts the LAPACK routines it rebinds on numpy.linalg, which the package
calls through ``linalg.lapack`` alone."""

import ast
import glob
import importlib
import importlib.util
import os

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    missing = []
    for module_name, attr, _ in tracing.TRACED:
        owner = importlib.import_module(f"saddlebounds.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    missing += [f"numpy.linalg.{r}" for r in tracing.LAPACK_ROUTINES
                if not callable(getattr(np.linalg, r, None))]
    assert missing == []


def test_only_linalg_calls_a_lapack_routine():
    # every other module goes through linalg.lapack, which names the failed
    # step and looks the routine up at each call, as the tracer needs
    routines = set(_load_tracing().LAPACK_ROUTINES)
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "saddlebounds", "*.py"))):
        if os.path.basename(path) == "linalg.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in routines
                    and ast.unparse(node.value) in ("np.linalg", "numpy.linalg")):
                found.append(f"{os.path.basename(path)}:{node.lineno} np.linalg.{node.attr}")
    assert found == []
