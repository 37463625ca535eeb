"""The benchmark tracer wraps cdgps functions by module attribute; every
name it wraps must still be bound where the pipeline looks it up."""

import importlib
from pathlib import Path

import cdgps.scenario
from cdgps.scenario import TRUTH_STEP, generate_truth, leo_preset

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("tracing")


def test_every_traced_name_resolves(monkeypatch):
    tracing = _tracing(monkeypatch)
    spans = tracing.SCENARIO_SPANS + tracing.IAR_SPANS
    assert spans
    for owner, attr, _name, _count in spans:
        assert callable(getattr(owner, attr, None)), (owner, attr)


def test_truth_propagation_is_traced_once_per_step(monkeypatch):
    tracing = _tracing(monkeypatch)
    cfg = leo_preset()
    cfg.duration = 300.0
    cfg.impulses = []
    original = cdgps.scenario.propagate
    tracer = tracing.Tracer()
    for owner, attr, name, count in tracing.SCENARIO_SPANS:
        tracer.wrap(owner, attr, name, count)
    try:
        generate_truth(cfg)
    finally:
        tracer.close()
    calls, _, _ = tracer.totals()
    assert calls["orbits.propagate"] == round(cfg.duration / TRUTH_STEP)
    assert cdgps.scenario.propagate is original
