import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from gausscollect.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    PRESETS,
    ConfigError,
    main,
    parse_config,
)
from gausscollect.ensemble_model import GOUY_COMPENSATED, UNIFORM


def read_csv(path):
    """Split a written file into comment preamble and parsed CSV records."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        raw = fh.read()
    comments = [ln for ln in raw.splitlines() if ln.startswith("# ")]
    data = [ln for ln in raw.splitlines() if not ln.startswith("# ")]
    rows = list(csv.reader(data))
    return raw, comments, rows


def test_cli_import_leaves_out_scipy_optimize_and_integrate():
    # both cost about a third of a second of every CLI start, and no
    # production path needs them
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = ("import sys, gausscollect.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.optimize', 'scipy.integrate'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


class TestParseConfig:
    def test_basic_xi_flags(self):
        cfg = parse_config(
            "xi --sigma-perp-bar 5 --sigma-z-bar 100 --waist-bar 10 --phase uniform".split()
        )
        assert cfg.command == "xi"
        assert cfg.sigma_perp_bar == 5.0
        assert cfg.sigma_z_bar == 100.0
        assert cfg.waist_bar == 10.0
        assert cfg.phase == UNIFORM

    def test_phase_aliases(self):
        cfg = parse_config(
            "optimize --sigma-perp-bar 2 --sigma-z-bar 10 --phase gouy".split()
        )
        assert cfg.phase == GOUY_COMPENSATED

    def test_unit_conversion(self):
        cfg = parse_config(
            "optimize --wavelength-nm 780 --sigma-perp-um 1 --sigma-z-um 10".split()
        )
        assert cfg.sigma_perp_bar == pytest.approx(2.0 * math.pi * 1000.0 / 780.0, rel=1e-12)
        assert cfg.sigma_perp_bar == pytest.approx(8.0554, abs=2e-4)
        assert cfg.sigma_z_bar == pytest.approx(80.554, abs=2e-3)

    def test_unit_exclusivity(self):
        with pytest.raises(ConfigError):
            parse_config(
                "xi --sigma-perp-bar 5 --sigma-perp-um 1 --wavelength-nm 780 "
                "--sigma-z-um 1 --waist-bar 3".split()
            )

    def test_physical_units_require_wavelength(self):
        with pytest.raises(ConfigError):
            parse_config("optimize --sigma-perp-um 1 --sigma-z-um 10".split())

    def test_missing_field_named(self):
        with pytest.raises(ConfigError, match="waist_bar"):
            parse_config("xi --sigma-perp-bar 5 --sigma-z-bar 100".split())

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({
            "sigma-perp-bar": 5.0, "sigma_z_bar": 100.0, "waist_bar": 10.0,
            "phase": "uniform", "tol": 1e-8,
        }))
        cfg = parse_config(["xi", "--config", str(cfg_file), "--waist-bar", "12"])
        assert cfg.waist_bar == 12.0  # flag wins
        assert cfg.sigma_perp_bar == 5.0
        assert cfg.tol == 1e-8

    def test_config_file_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"sigma-perp-bars": 5.0}))
        with pytest.raises(ConfigError, match="unknown field"):
            parse_config(["optimize", "--config", str(cfg_file)])

    def test_grid_parsing(self):
        cfg = parse_config(
            "sweep --grid-perp 1:10:3 --grid-z 5:5:1 --phase uniform".split()
        )
        assert cfg.grid_perp.tolist() == pytest.approx([1.0, math.sqrt(10.0), 10.0])
        assert cfg.grid_z.tolist() == [5.0]

    def test_config_file_values_of_every_kind(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({
            "sigma_perp_bar": 5, "sigma_z_bar": 100.0, "n_atoms": 7, "verbose": False,
            "format": "json", "pulse": "gaussian", "preset": "fig2a1", "suite": "overlap",
            "seed": 0, "phase": "gouy", "out": "x.json",
        }))
        cfg = parse_config(["optimize", "--config", str(cfg_file)])
        assert cfg.sigma_perp_bar == 5.0 and isinstance(cfg.sigma_perp_bar, float)
        assert (cfg.n_atoms, cfg.verbose, cfg.format, cfg.pulse) == (7, False, "json", "gaussian")
        assert (cfg.preset, cfg.suite, cfg.seed, cfg.phase) == (
            "fig2a1", "overlap", 0, GOUY_COMPENSATED)

    # each value used to give a traceback, or to be silently misread
    _BAD_CONFIG_VALUES = [
        ({"sigma_perp_bar": "abc"}, "sigma_perp_bar must be a finite JSON number"),
        ({"sigma_z_bar": 10**400}, "sigma_z_bar must be a finite JSON number"),
        ({"phase": "bogus"}, "phase must be one of full, gouy, uniform"),
        ({"preset": "fig9"}, "preset must be one of fig2a1"),
        ({"suite": "bogus"}, "suite must be one of overlap"),
        ({"format": "xml"}, "format must be one of csv, json"),
        ({"pulse": "square"}, "pulse must be one of constant, gaussian"),
        ({"verbose": "false"}, "verbose must be true or false"),
        ({"n_atoms": 2.7}, "n_atoms must be a JSON integer"),
    ]

    @pytest.mark.parametrize("fields, message", _BAD_CONFIG_VALUES,
                             ids=[json.dumps(f)[:40] for f, _ in _BAD_CONFIG_VALUES])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, fields, message):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(fields))
        argv = "xi --sigma-perp-bar 5 --sigma-z-bar 100 --waist-bar 10 --config".split()
        assert main(argv + [str(cfg_file)]) == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_bad_grid(self):
        with pytest.raises(ConfigError):
            parse_config("sweep --grid-perp nope --grid-z 1:2:2".split())

    def test_repeated_calls_do_not_leak_values(self):
        first = parse_config(
            "optimize --sigma-perp-bar 2 --sigma-z-bar 10 --phase gouy --tol 1e-3".split()
        )
        second = parse_config("optimize --sigma-perp-bar 2 --sigma-z-bar 10".split())
        assert (first.phase, first.tol) == (GOUY_COMPENSATED, 1e-3)
        assert (second.phase, second.tol) == (UNIFORM, 1e-6)

    def test_presets_known(self):
        assert sorted(PRESETS) == [
            "fig2a1", "fig2a2", "fig2a3", "fig2b1", "fig2b2", "fig2b3",
        ]


class TestMainExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert main(["xi", "--sigma-perp-bar", "5"]) == EXIT_USAGE
        assert "missing required field" in capsys.readouterr().err

    def test_argparse_error_is_2(self, capsys):
        assert main(["xi", "--no-such-flag", "1"]) == EXIT_USAGE

    def test_unknown_units_conflict_is_2(self, capsys):
        code = main(
            "xi --sigma-perp-bar 5 --sigma-perp-um 1 --wavelength-nm 780 "
            "--sigma-z-um 1 --waist-bar 3".split()
        )
        assert code == EXIT_USAGE

    _USAGE_CASES = [
        ("xi --sigma-perp-bar 5 --sigma-z-bar 100 --waist-bar 10 --n-atoms 0", "must be >= 1"),
        ("optimize --sigma-perp-bar 5 --sigma-z-bar 100 --n-atoms -3", "must be >= 1"),
        ("sweep --grid-perp 2:5:2 --grid-z 50:100:2 --n-atoms 0", "must be >= 1"),
        ("farfield --sigma-perp-bar 5 --sigma-z-bar 50 --samples 0", "must be >= 1"),
        ("dynamics --sigma-perp-bar 5 --sigma-z-bar 100 --waist-bar 14.6 --t-steps 0",
         "must be >= 1"),
        ("validate --suite overlap --trials 0", "must be >= 1"),
        ("farfield --sigma-perp-bar 5 --sigma-z-bar 50 --n-theta 0", "must be >= 1"),
        ("farfield --sigma-perp-bar 5 --sigma-z-bar 50 --n-phi 0", "must be >= 1"),
        # the default waist bracket leaves the supported [0.5, 1e4]
        ("optimize --sigma-perp-bar 200 --sigma-z-bar 10", "outside the supported"),
        ("optimize --sigma-perp-bar 0.005 --sigma-z-bar 10", "outside the supported"),
        # physical inputs the domain classes or the unit conversion reject
        ("dynamics --sigma-perp-bar 5 --sigma-z-bar 100 --waist-bar 14.6 --rabi -1",
         "amplitude must be non-negative"),
        ("dynamics --sigma-perp-bar 5 --sigma-z-bar 100 --waist-bar 14.6 "
         "--pulse gaussian --pulse-width 0", "width must be positive"),
        ("dynamics --sigma-perp-bar 5 --sigma-z-bar 100 --waist-bar 14.6 --t-end 0",
         "strictly increasing"),
        ("optimize --wavelength-nm 0 --sigma-perp-um 1 --sigma-z-um 10",
         "wavelength_nm must be positive"),
        ("sweep --grid-perp 1:inf:3 --grid-z 1:10:2", "B < inf"),
        ("sweep --grid-perp 2:2:3 --grid-z 1:10:2", "points must be strictly increasing"),
        ("farfield --sigma-perp-bar 5 --sigma-z-bar 50 --seed -1", "seed must be >= 0"),
        ("validate --seed -3", "seed must be >= 0"),
        # non-finite float fields
        ("xi --sigma-perp-bar nan --sigma-z-bar 100 --waist-bar 10", "must be finite"),
        ("xi --sigma-perp-bar 5 --sigma-z-bar inf --waist-bar 10", "must be finite"),
        ("xi --sigma-perp-bar 5 --sigma-z-bar 100 --waist-bar inf", "must be finite"),
        ("validate --suite optimum --tol inf", "must be finite"),
    ]

    @pytest.mark.parametrize("argv, message", _USAGE_CASES,
                             ids=[argv for argv, _ in _USAGE_CASES])
    def test_nonpositive_count_is_usage_error(self, capsys, argv, message):
        assert main(argv.split()) == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_validate_exits_zero(self, capsys):
        assert main(["validate", "--suite", "dynamics"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "validation PASSED" in out

    def test_validate_overlap_suite(self, capsys):
        assert main(["validate", "--suite", "overlap", "--trials", "3", "--tol", "1e-6"]) == EXIT_OK


class TestOutputs:
    def test_optimize_pancake_values(self, tmp_path):
        out = tmp_path / "opt.csv"
        code = main([
            "optimize", "--phase", "uniform", "--sigma-perp-bar", "2",
            "--sigma-z-bar", "1e-3", "--out", str(out),
        ])
        assert code == EXIT_OK
        _, comments, rows = read_csv(out)
        assert rows[0][:4] == ["sigma_perp_bar", "sigma_z_bar", "phase", "w0_max_bar"]
        record = dict(zip(rows[0], rows[1]))
        assert float(record["w0_max_bar"]) == pytest.approx(2.8284, abs=2e-4)
        assert float(record["g_factor"]) == pytest.approx(0.1875, abs=2e-4)
        assert record["status"] == "ok"
        assert any("config" in c for c in comments)

    def test_tol_below_float_resolution_terminates(self, capsys):
        assert main("optimize --sigma-perp-bar 5 --sigma-z-bar 100 --tol 1e-20".split()) == EXIT_OK
        data = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("# ")]
        header, row = csv.reader(data)
        record = dict(zip(header, row))
        assert record["status"] == "ok"
        assert float(record["w0_max_bar"]) == pytest.approx(14.636061, rel=1e-6)
        argv = "sweep --grid-perp 2:5:2 --grid-z 50:100:2 --phase gouy --tol 1e-30".split()
        assert main(argv) == EXIT_OK
        assert '"failed_cells": 0' in capsys.readouterr().out

    def test_bracket_edge_flagged_not_failed(self, capsys):
        # the optimum (w0 = 0.2131, G = 52.45) lies below the bracket's
        # clamped lower end 0.5; the value there is reported, flagged
        argv = "optimize --sigma-perp-bar 0.1 --sigma-z-bar 0.01".split()
        assert main(argv) == EXIT_OK
        data = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("# ")]
        header, row = csv.reader(data)
        record = dict(zip(header, row))
        assert record["status"] == "edge"
        assert float(record["w0_max_bar"]) == pytest.approx(0.5, rel=1e-5)
        assert float(record["g_factor"]) == pytest.approx(20.35, abs=0.01)
        # a sweep of only that cell still succeeds, with no failed cell
        assert main("sweep --grid-perp 0.1:0.1:1 --grid-z 0.01:0.01:1".split()) == EXIT_OK
        assert '"failed_cells": 0' in capsys.readouterr().out

    def test_sweep_deterministic_bytes(self, tmp_path):
        args = [
            "sweep", "--grid-perp", "2:5:2", "--grid-z", "50:100:2",
            "--phase", "uniform", "--seed", "7",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_csv_shape(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main([
            "sweep", "--grid-perp", "2:5:2", "--grid-z", "50:100:2",
            "--phase", "full", "--out", str(out),
        ])
        raw, comments, rows = read_csv(out)
        assert rows[0] == [
            "sigma_perp_bar", "sigma_z_bar", "phase", "w0_max_bar", "w0_ratio",
            "xi_abs_sq", "g_factor", "g_times_n", "status",
        ]
        assert len(rows) == 5  # header + 2x2 cells
        assert all(len(r) == len(rows[0]) for r in rows)  # rectangular table
        assert "\r\n" in raw  # RFC-4180 line endings

    def test_csv_roundtrip_precision(self, tmp_path):
        out = tmp_path / "xi.csv"
        main([
            "xi", "--sigma-perp-bar", "5", "--sigma-z-bar", "100",
            "--waist-bar", "10", "--out", str(out),
        ])
        _, _, rows = read_csv(out)
        record = dict(zip(rows[0], rows[1]))
        from gausscollect import CloudGeometry, compute_xi

        expect = compute_xi(CloudGeometry(5.0, 100.0), 10.0, UNIFORM)
        # repr round-trip: parsed value is bit-identical
        assert float(record["xi_abs_sq"]) == expect.xi_abs_sq
        assert float(record["xi_im"]) == expect.xi.imag

    def test_json_output_roundtrip(self, tmp_path):
        out = tmp_path / "xi.json"
        main([
            "xi", "--sigma-perp-bar", "5", "--sigma-z-bar", "100",
            "--waist-bar", "10", "--format", "json", "--out", str(out),
        ])
        payload = json.loads(out.read_text())
        assert payload["metadata"]["version"]
        assert payload["metadata"]["config"]["seed"] == 1234
        row = payload["rows"][0]
        from gausscollect import CloudGeometry, compute_xi

        expect = compute_xi(CloudGeometry(5.0, 100.0), 10.0, UNIFORM)
        assert row["xi_abs_sq"] == expect.xi_abs_sq

    def test_dynamics_metadata_flags_saturation(self, tmp_path):
        out = tmp_path / "dyn.json"
        main([
            "dynamics", "--sigma-perp-bar", "5", "--sigma-z-bar", "100",
            "--waist-bar", "14.6", "--phase", "uniform", "--n-atoms", "1000",
            "--t-end", "100", "--t-steps", "50", "--format", "json",
            "--out", str(out),
        ])
        payload = json.loads(out.read_text())
        meta = payload["metadata"]["config"]
        assert meta["n_infinity"] > 1.0
        assert meta["n_exceeds_single_excitation"] is True
        assert payload["rows"][0]["n"] == 0.0

    def test_farfield_csv(self, tmp_path):
        out = tmp_path / "ff.csv"
        code = main([
            "farfield", "--sigma-perp-bar", "5", "--sigma-z-bar", "50",
            "--samples", "2000", "--n-theta", "4", "--out", str(out),
        ])
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        assert rows[0] == ["theta", "phi", "s", "s_stderr"]
        assert float(rows[1][2]) == 1.0  # forward cell

    def test_farfield_compensated_requires_waist(self):
        assert main([
            "farfield", "--sigma-perp-bar", "5", "--sigma-z-bar", "50",
            "--phase", "gouy",
        ]) == EXIT_USAGE

    def test_stdout_default(self, capsys):
        assert main([
            "xi", "--sigma-perp-bar", "5", "--sigma-z-bar", "100",
            "--waist-bar", "10",
        ]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("# gausscollect")
        assert "xi_abs_sq" in out

    def test_verbose_prints_resolved_config(self, capsys):
        main([
            "xi", "--sigma-perp-bar", "5", "--sigma-z-bar", "100",
            "--waist-bar", "10", "--verbose",
        ])
        assert "resolved config" in capsys.readouterr().err
