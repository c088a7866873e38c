"""Self-tests of the benchmark harness.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import calibrate  # noqa: E402
from calibrate import Speed  # noqa: E402
from spans import ROOT, Tracer  # noqa: E402
from workloads import (Client, plan_envelope_session,  # noqa: E402
                       plan_sweep_compensated, session_sweep_compensated)

from gausscollect import cli, waist_optimizer  # noqa: E402

SMALL_SWEEP = {"grid_perp": "2.0:30.0:2", "grid_z": "5.0:400.0:2"}


def small_session(client):
    """A few requests that cross every traced layer, in well under a second."""
    responses = session_sweep_compensated(client, SMALL_SWEEP)
    cloud = ["--sigma-perp-bar", "4.0", "--sigma-z-bar", "60.0"]
    for argv in (
        ["optimize", *cloud, "--phase", "uniform"],
        ["xi", *cloud, "--waist-bar", "8.0", "--phase", "uniform"],
        ["dynamics", *cloud, "--waist-bar", "8.0", "--phase", "gouy"],
        ["farfield", *cloud, "--waist-bar", "8.0", "--phase", "full", "--samples", "2000"],
        ["validate", "--suite", "overlap", "--trials", "1"],
    ):
        responses.append(client.request(argv[0], argv))
    return responses


def gate_failures(responses) -> gate.Tally:
    tally = gate.Tally()
    gate.check_repetition(tally, responses)
    gate.check_optima(tally, gate.optimum_rows(responses), gate.sample_rng(0), None)
    return tally


def test_gate_passes_true_optima():
    tally = gate_failures(session_sweep_compensated(Client(cli), SMALL_SWEEP))
    assert tally.attempted > 0
    assert tally.failed == 0, tally.failures


def test_gate_flags_a_wrong_optimum(monkeypatch):
    true_optimum = waist_optimizer.optimal_waist_numeric

    def shifted(cloud, profile, *args, **kwargs):
        record = true_optimum(cloud, profile, *args, **kwargs)
        return dataclasses.replace(record, w0_max_bar=record.w0_max_bar * 1.05)

    # sweep cells look the evaluator up in waist_optimizer
    monkeypatch.setattr(waist_optimizer, "optimal_waist_numeric", shifted)
    tally = gate_failures(session_sweep_compensated(Client(cli), SMALL_SWEEP))
    assert tally.failed / tally.attempted > 0
    assert any("brute force" in f for f in tally.failures)
    assert any("G(w0" in f for f in tally.failures)


def test_gate_flags_changed_output():
    client = Client(cli)
    first = session_sweep_compensated(client, SMALL_SWEEP)
    second = session_sweep_compensated(client, SMALL_SWEEP)
    second[0] = dataclasses.replace(second[0], stdout=second[0].stdout + "\r\n")
    tally = gate.Tally()
    gate.check_repetition(tally, second, first)
    assert tally.failed == 1


def traced_repetition(tracer):
    tracer.reset()
    layers.install(tracer)
    try:
        responses = tracer.call(ROOT, small_session, Client(cli))
    finally:
        tracer.uninstall()
    return responses


def test_self_times_sum_to_traced_wall():
    tracer = Tracer()
    outer = Tracer()
    # time the root span from outside with a second tracer
    outer.call("wall", traced_repetition, tracer)
    wall = outer.self_s["wall"]
    total = math.fsum(tracer.self_s.values())
    assert all(value >= 0.0 for value in tracer.self_s.values())
    assert total <= wall
    assert wall - total < 0.01 * wall
    # every boundary the per-layer metrics name was crossed
    for span in ("cli", "cli.parse_config", "waist_optimizer.optimal_waist_numeric",
                 "special_math.gauss_hermite", "overlap_engine.xi_brute_force",
                 "emission_dynamics.photon_number", "far_field.structure_factor",
                 "ensemble_model.sample_positions", "validation.validate_overlap"):
        assert tracer.calls[span] > 0, span
    # nothing stays patched after uninstall
    assert cli.main.__module__ == "gausscollect.cli"
    assert not hasattr(cli.main, "__wrapped__")


def test_counts_reproduce_across_traced_repetitions():
    tracer = Tracer()
    values = []
    for _ in range(2):
        responses = traced_repetition(tracer)
        values.append(layers.layer_values(tracer, sum(len(r.stdout) for r in responses)))
    for name in layers.COUNTS:
        assert values[0][name] == values[1][name], name
    assert values[0]["waist_optimizer.optima"] == 9
    assert values[0]["waist_optimizer.failed_cells"] == 0


def test_plans_depend_only_on_seed():
    assert plan_sweep_compensated(3) == plan_sweep_compensated(3)
    assert plan_envelope_session(3) == plan_envelope_session(3)
    assert plan_envelope_session(3) != plan_envelope_session(4)
    for cloud in plan_envelope_session(5)["clouds"]:
        assert 1.0 <= cloud["sp"] <= 50.0 and 1.0 <= cloud["sz"] <= 1000.0


def test_speed_scale_interpolates_kernel_samples():
    speed = Speed(interval=0.0)
    start = perf_counter()
    speed.maybe_sample()
    end = perf_counter()
    assert len(speed.kernel_s) == 2 and speed.spent > 0.0
    factor = speed.scale(start, end)
    bounds = sorted(calibrate.REFERENCE_S / k for k in speed.kernel_s)
    assert bounds[0] <= factor <= bounds[1]


@pytest.mark.parametrize("n, expected", [(1, (1, 100.0)), (12, (9, 75.0)),
                                         (40, (30, 75.0)), (100, (90, 90.0))])
def test_tail_keeps_ten_samples_beyond(n, expected):
    assert run.tail(list(range(1, n + 1))) == expected


def test_metric_names_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    design = json.loads((BENCH / "design.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(design["workloads"])
    assert set(design["per_layer_moves"]) == set(layers.PER_LAYER)


def test_missing_source_exits_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "sweep_uniform", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
