"""Every function the benchmark tracer wraps still exists under its traced name.

A renamed or deleted target would otherwise fail only the benchmark's own
smoke test. `benchmarks/tracer.py` imports only the standard library.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("wlann_benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up here
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("target", TARGETS, ids=[t.span for t in TARGETS])
def test_traced_target_resolves(target):
    module = importlib.import_module(target.module)
    owner_name, _, method = target.attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        assert callable(owner.__dict__.get(method)), f"{target.attr} not defined on the class"
    else:
        assert callable(getattr(module, target.attr, None)), f"{target.attr} not in {target.module}"
