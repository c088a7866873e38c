"""The package names the benchmark harness binds still exist.

``perfbench/layers.py`` wraps package functions at the module attributes
its consumers import them under, and ``perfbench/gate.py`` imports the
overlap oracles inside ``check_optima``.  A refactor that drops one of
those names would otherwise only show in a traced benchmark run.  These
tests import the harness modules and change nothing under ``perfbench/``.
"""

import importlib
import pathlib

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module


def test_layers_install_every_span(bench):
    from gausscollect import overlap_engine, waist_optimizer

    tracer = bench("spans").Tracer()
    try:
        bench("layers").install(tracer)
    finally:
        tracer.uninstall()
    assert waist_optimizer.compute_xi is overlap_engine.compute_xi


def test_gate_imports_resolve(bench):
    gate = bench("gate")
    tally = gate.Tally()
    gate.check_optima(tally, [], np.random.default_rng(0), None)
    assert (tally.attempted, tally.failed) == (0, 0)
