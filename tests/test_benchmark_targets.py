"""Every function the benchmark tracer wraps still exists under its traced name.

A renamed or deleted target would otherwise fail only the benchmark's own
smoke test. `benchmarks/tracer.py` imports only the standard library.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
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


def test_evaluate_looks_up_predict_scores_at_call_time(monkeypatch, tiny_corpus):
    """The eval workload replaces `network.predict_scores`; `evaluate` must call the replacement."""
    from conftest import small_train_config
    from wlann.dataio import NUM_CLASSES
    from wlann.model import WlannParams, network
    from wlann.scoring import evaluate

    corpus, _, intra, _ = tiny_corpus
    cfg = small_train_config()
    evaluate(WlannParams.create(cfg), cfg, intra, corpus, jobs=2)  # a lookup cached here misses the patch
    calls = []

    def recorder(waveform, spec, params, cfg, executor=None):
        calls.append(waveform.shape)
        return np.full(NUM_CLASSES, 0.5)

    monkeypatch.setattr(network, "predict_scores", recorder)
    evaluate(None, cfg, intra, corpus, jobs=2)
    assert calls == [(1, cfg.fixed_samples)] * len(intra.events)
