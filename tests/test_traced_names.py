"""The benchmark's tracer rebinds package functions by name; every name it
lists must still exist, or only a traced benchmark run would show it."""

import importlib
import importlib.util
import os

import numpy as np

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


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
