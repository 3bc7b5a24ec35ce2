"""Every function the benchmark tracer wraps still exists under its traced name, and
the package still calls what the workloads replace as they replace it.

A renamed or deleted target, or a changed call, would otherwise fail only
the benchmark's own smoke test or a benchmark run. `benchmarks/tracer.py`
imports only the standard library.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
TRACER = BENCHMARKS / "tracer.py"
WORKLOADS = BENCHMARKS / "workloads.py"


def _load_benchmark_module(path: Path):
    spec = importlib.util.spec_from_file_location(f"wlann_benchmark_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up here
    spec.loader.exec_module(module)
    return module


TARGETS = _load_benchmark_module(TRACER).TARGETS


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


def test_train_step_calls_the_checked_optimizer_once_per_step_without_arguments(tiny_corpus):
    """The train and fit workloads replace `state.optimizer.step` on the instance with a
    function of no arguments (`_checked_optimizer`); `train_step` must call it so."""
    from conftest import small_train_config
    from wlann.train import TrainState, prepare_split, train_step

    workloads = _load_benchmark_module(WORKLOADS)
    corpus, train, _, _ = tiny_corpus
    cfg = small_train_config()
    batch = prepare_split(train, corpus, cfg)[:2]
    state = TrainState.create(cfg)
    failures = []
    workloads._checked_optimizer(state, failures)
    checked = state.optimizer.step
    calls = []

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        checked(*args, **kwargs)

    state.optimizer.step = recorder
    for _ in range(2):
        train_step(batch, state)
    assert calls == [((), {})] * 2
    assert (failures, state.optimizer.step_count) == ([], 2)
