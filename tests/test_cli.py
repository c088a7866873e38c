import argparse
import csv
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from gausscollect.cli import (
    _FLAGS,
    _PRESET_AXES,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    PRESETS,
    ConfigError,
    _build_parser,
    main,
    parse_config,
    run,
)
from gausscollect.ensemble_model import GOUY_COMPENSATED, UNIFORM
from gausscollect.paraxial_beam import ParaxialValidityWarning

ROOT = pathlib.Path(__file__).resolve().parents[1]
MAIN = "import sys; from gausscollect.cli import main; sys.exit(main())"


def read_csv(path):
    """Split a written file into comment preamble and parsed CSV records."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        raw = fh.read()
    comments = [ln for ln in raw.splitlines() if ln.startswith("# ")]
    data = [ln for ln in raw.splitlines() if not ln.startswith("# ")]
    rows = list(csv.reader(data))
    return raw, comments, rows


def python_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_cli_import_leaves_out_scipy_optimize_and_integrate():
    # both cost about a third of a second of every CLI start, and no
    # production path needs them
    code = ("import sys, gausscollect.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.optimize', 'scipy.integrate'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=python_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_closed_stdout_gives_no_traceback():
    # 20001 rows overflow the pipe buffer, so the write fails after the
    # reader has gone
    argv = "dynamics --sigma-perp-bar 5 --sigma-z-bar 100 --waist-bar 14.6 --t-steps 20000"
    with subprocess.Popen([sys.executable, "-c", MAIN, *argv.split()], env=python_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline().startswith("# gausscollect")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == EXIT_NUMERICAL
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def subcommand_parsers():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_each_command_takes_only_its_flags():
    counts = {
        name: sum(1 for a in p._actions if a.option_strings and a.dest != "help")
        for name, p in subcommand_parsers().items()
    }
    assert counts == {"xi": 11, "optimize": 12, "sweep": 10, "dynamics": 18, "farfield": 16,
                      "validate": 6}
    assert sum(counts.values()) == 73
    # farfield's atom count sets the incoherent floor; it samples nothing
    farfield = {a.dest for a in subcommand_parsers()["farfield"]._actions}
    assert "n_atoms" in farfield and "samples" not in farfield
    assert "samples" not in _FLAGS


def test_readme_cli_block_matches_the_parser():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    examples = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("gausscollect ")]
    parsers = subcommand_parsers()
    assert {argv[0] for argv in examples} == set(parsers)
    for argv in examples:
        parse_config(argv)
    # the table of the flags each command takes
    cloud = {"--sigma-perp-bar", "--sigma-z-bar", "--sigma-perp-um", "--sigma-z-um",
             "--wavelength-nm"}
    common = {"--config", "--verbose"}
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", section, flags=re.MULTILINE))
    assert sorted(rows) == sorted(parsers)
    for name, text in rows.items():
        documented = set(re.findall(r"--[a-z-]+", text)) | common
        if name != "validate":  # the text report goes to stdout
            documented |= {"--out", "--format"}
        if "cloud" in text:
            documented |= cloud
        taken = {flag for a in parsers[name]._actions for flag in a.option_strings}
        assert documented == taken - {"-h", "--help"}, name


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
            "phase": "uniform",
        }))
        cfg = parse_config(["xi", "--config", str(cfg_file), "--waist-bar", "12"])
        assert cfg.waist_bar == 12.0  # flag wins
        assert cfg.sigma_perp_bar == 5.0
        cfg_file.write_text(json.dumps({"sigma_perp_bar": 5.0, "sigma_z_bar": 100.0, "tol": 1e-8}))
        assert parse_config(["optimize", "--config", str(cfg_file)]).tol == 1e-8

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
        def parse(command, fields):
            cfg_file = tmp_path / f"{command}.json"
            cfg_file.write_text(json.dumps(fields))
            return parse_config([command, "--config", str(cfg_file)])

        cfg = parse("dynamics", {
            "sigma_perp_bar": 5, "sigma_z_bar": 100.0, "waist_bar": 14.6, "n_atoms": 7,
            "verbose": False, "format": "json", "pulse": "gaussian", "phase": "gouy",
            "out": "x.json",
        })
        assert cfg.sigma_perp_bar == 5.0 and isinstance(cfg.sigma_perp_bar, float)
        assert (cfg.n_atoms, cfg.verbose, cfg.format, cfg.pulse) == (7, False, "json", "gaussian")
        assert cfg.phase == GOUY_COMPENSATED
        assert parse("sweep", {"preset": "fig2a1"}).preset == "fig2a1"
        cfg = parse("validate", {"suite": "overlap", "seed": 0})
        assert (cfg.suite, cfg.seed) == ("overlap", 0)

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

    def test_preset_resolves_to_what_it_runs(self, tmp_path, capsys):
        cfg = parse_config(["sweep", "--preset", "fig2a2"])
        assert cfg.phase == cfg.resolved["phase"] == GOUY_COMPENSATED
        assert cfg.resolved["grid_perp"] == _PRESET_AXES[0].tolist()
        assert cfg.resolved["grid_z"] == _PRESET_AXES[1].tolist()
        for extra in (["--phase", "gouy"], ["--grid-perp", "1:2:2"], ["--grid-z", "1:2:2"]):
            assert main(["sweep", "--preset", "fig2a1", *extra]) == EXIT_USAGE
            assert "--preset fixes" in capsys.readouterr().err
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"phase": "gouy"}))
        assert main(["sweep", "--preset", "fig2a1", "--config", str(cfg_file)]) == EXIT_USAGE

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
        ("dynamics --sigma-perp-bar 5 --sigma-z-bar 100 --waist-bar 10 --n-atoms 0",
         "must be >= 1"),
        ("optimize --sigma-perp-bar 5 --sigma-z-bar 100 --n-atoms -3", "must be >= 1"),
        ("sweep --grid-perp 2:5:2 --grid-z 50:100:2 --n-atoms 0", "must be >= 1"),
        ("farfield --sigma-perp-bar 5 --sigma-z-bar 50 --n-atoms 0", "must be >= 1"),
        ("dynamics --sigma-perp-bar 5 --sigma-z-bar 100 --waist-bar 14.6 --t-steps 0",
         "must be >= 1"),
        ("validate --suite overlap --trials 0", "must be >= 1"),
        ("farfield --sigma-perp-bar 5 --sigma-z-bar 50 --n-theta 0", "must be >= 1"),
        ("farfield --sigma-perp-bar 5 --sigma-z-bar 50 --n-phi 0", "must be >= 1"),
        # the default waist bracket leaves the supported [0.5, 1e4], or is empty
        ("optimize --sigma-perp-bar 200 --sigma-z-bar 10", "outside the supported"),
        ("optimize --sigma-perp-bar 0.005 --sigma-z-bar 10", "is empty"),
        # polar angles outside (0, pi]
        ("farfield --sigma-perp-bar 1 --sigma-z-bar 1 --theta-max 1e300", "theta_max"),
        ("farfield --sigma-perp-bar 1 --sigma-z-bar 1 --theta-max -3", "theta_max"),
        ("farfield --sigma-perp-bar 1 --sigma-z-bar 1 --theta-max 0", "theta_max"),
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
        ("sweep --grid-perp 1:50:1 --grid-z 1:10:1", "(N = 1) needs A == B"),
        ("farfield --sigma-perp-bar 5 --sigma-z-bar 50 --seed -1", "seed must be >= 0"),
        ("validate --seed -3", "seed must be >= 0"),
        # non-finite float fields
        ("xi --sigma-perp-bar nan --sigma-z-bar 100 --waist-bar 10", "must be finite"),
        ("xi --sigma-perp-bar 5 --sigma-z-bar inf --waist-bar 10", "must be finite"),
        ("xi --sigma-perp-bar 5 --sigma-z-bar 100 --waist-bar inf", "must be finite"),
        ("validate --suite optimum --tol inf", "must be finite"),
        # a cloud width whose square overflows, a drive whose pump integral
        # overflows, a waist whose Rayleigh length w0^2 / 2 underflows
        ("xi --sigma-perp-bar 1e200 --sigma-z-bar 1 --waist-bar 3", "square overflows"),
        ("xi --sigma-perp-um 1 --sigma-z-um 1 --wavelength-nm 1e-300 --waist-bar 3",
         "square overflows"),
        ("dynamics --sigma-perp-bar 1 --sigma-z-bar 1 --waist-bar 3 --rabi 1e200",
         "pump integral overflows"),
        ("dynamics --sigma-perp-bar 1 --sigma-z-bar 1 --waist-bar 3 --rabi 1e154 "
         "--pulse gaussian", "pump integral overflows"),
        ("xi --sigma-perp-bar 1 --sigma-z-bar 1 --waist-bar 1e-200 --phase gouy",
         "Rayleigh length w0^2 / 2 underflows"),
        ("dynamics --sigma-perp-bar 1 --sigma-z-bar 1 --waist-bar 1e-200 --phase full",
         "Rayleigh length w0^2 / 2 underflows"),
        ("farfield --sigma-perp-bar 1 --sigma-z-bar 1 --waist-bar 1e-154 --phase gouy",
         "Rayleigh length w0^2 / 2 underflows"),
        # an atom count that no float holds
        ("optimize --sigma-perp-bar 2 --sigma-z-bar 10 --n-atoms 1" + "0" * 400,
         "n_atoms is beyond the float range"),
        ("farfield --sigma-perp-bar 2 --sigma-z-bar 10 --n-atoms 1" + "0" * 400,
         "n_atoms is beyond the float range"),
    ]

    @pytest.mark.parametrize("argv, message", _USAGE_CASES,
                             ids=[argv for argv, _ in _USAGE_CASES])
    def test_nonpositive_count_is_usage_error(self, capsys, argv, message):
        assert main(argv.split()) == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "xi --sigma-perp-bar 1 --sigma-z-bar 1e300 --waist-bar 3 --phase gouy",
        "xi --sigma-perp-bar 1 --sigma-z-bar 1 --waist-bar 1e200 --phase gouy",
        "dynamics --sigma-perp-bar 1 --sigma-z-bar 1 --waist-bar 1e200 --t-steps 3",
    ])
    def test_non_finite_overlap_is_numerical_failure(self, capsys, argv):
        with np.errstate(all="ignore"):
            assert main(argv.split()) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert "numerical failure: non-finite overlap" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, code", [
        # a Rayleigh length below 1e-600 cloud lengths: the first axial
        # breakpoint would underflow to zero
        ("--sigma-perp-bar 1 --sigma-z-bar 1e300 --waist-bar 1e-150 --phase gouy", EXIT_OK),
        # a full-phase waist 1e-300 times the cloud width needs too many panels
        ("--sigma-perp-bar 1e150 --sigma-z-bar 1e300 --waist-bar 1e-150 --phase full",
         EXIT_NUMERICAL),
        ("--sigma-perp-bar 1 --sigma-z-bar 5e-324 --waist-bar 1e150 --phase gouy",
         EXIT_NUMERICAL),
    ])
    def test_farfield_extreme_geometry(self, capsys, argv, code):
        with np.errstate(all="ignore"):
            assert main(["farfield", *argv.split(), "--n-theta", "4"]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and "nan" not in captured.out
        if code == EXIT_NUMERICAL:
            assert "numerical failure" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv, category", [
        ("farfield --sigma-perp-bar 5 --sigma-z-bar 50 --waist-bar 1.5 --phase gouy "
         "--n-theta 4", ParaxialValidityWarning),
        ("dynamics --sigma-perp-bar 5 --sigma-z-bar 100 --waist-bar 14.6 --rabi 0.3 "
         "--t-steps 20", UserWarning),
    ], ids=["farfield_waist", "dynamics_rabi"])
    def test_model_warnings_name_the_command_line(self, capsys, argv, category):
        with pytest.warns(category) as record:
            assert main(argv.split()) == EXIT_OK
        # the line of cli.py that built the profile or pulse, not the model's
        assert pathlib.Path(record[0].filename).name == "cli.py"

    def test_validate_exits_zero(self, capsys):
        assert main(["validate", "--suite", "dynamics"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "validation PASSED" in out

    def test_validate_overlap_suite(self, capsys):
        assert main(["validate", "--suite", "overlap", "--trials", "3", "--tol", "1e-6"]) == EXIT_OK

    @pytest.mark.parametrize("seed", ["0", "1234", "99"])
    def test_validate_far_field_suite(self, capsys, seed):
        assert main(["validate", "--suite", "farfield", "--seed", seed]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4 and all(line.startswith("farfield: [ok]") for line in lines[:3])
        assert lines[-1] == "validation PASSED"


# each command with its inputs, the fields it records besides command,
# format and verbose, the metadata it adds (None: it writes no table) and
# a field of another command
_COMMAND_FIELDS = [
    ("xi --sigma-perp-bar 5 --sigma-z-bar 100 --waist-bar 10",
     "sigma_perp_bar sigma_z_bar waist_bar phase", "", ("n_atoms", 5)),
    ("optimize --sigma-perp-bar 2 --sigma-z-bar 10",
     "sigma_perp_bar sigma_z_bar phase n_atoms tol", "", ("waist_bar", 10.0)),
    ("sweep --preset fig2a1", "preset phase grid_perp grid_z n_atoms tol", "failed_cells",
     ("seed", 7)),
    ("dynamics --sigma-perp-bar 5 --sigma-z-bar 100 --waist-bar 14.6 --t-end 100 --t-steps 50",
     "sigma_perp_bar sigma_z_bar waist_bar phase n_atoms rabi pulse pulse_center pulse_width "
     "t_end t_steps", "g_factor n_infinity n_exceeds_single_excitation", ("n_theta", 3)),
    # farfield takes --seed but does not read it, so does not record it
    ("farfield --sigma-perp-um 1 --sigma-z-um 5 --wavelength-nm 780 --phase gouy --waist-bar 10 "
     "--n-atoms 500 --n-theta 3 --seed 5", "sigma_perp_bar sigma_z_bar waist_bar phase n_atoms "
     "n_theta theta_max n_phi", "forward_value", ("tol", 0.001)),
    ("validate --suite dynamics", "suite trials tol seed", None, ("out", "v.json")),
]


@pytest.mark.parametrize("argv, fields, extra, foreign", _COMMAND_FIELDS,
                         ids=[argv.split()[0] for argv, *_ in _COMMAND_FIELDS])
def test_preamble_records_exactly_the_command_fields(tmp_path, capsys, argv, fields, extra,
                                                     foreign):
    argv = argv.split()
    resolved = parse_config(argv).resolved
    output = {"verbose"} if extra is None else {"format", "verbose"}
    assert set(resolved) == {"command", *output, *fields.split()}
    given = {arg[2:].replace("-", "_") for arg in argv if arg.startswith("--")}
    for name in set(resolved) - given - {"command", "phase"}:
        if _FLAGS[name][1] is not None:  # the others are inputs or resolved from them
            assert resolved[name] == _FLAGS[name][1], name  # defaults are recorded
    if extra is not None:
        for fmt in ("csv", "json"):
            out = tmp_path / f"out.{fmt}"
            assert main(argv + ["--format", fmt, "--out", str(out)]) == EXIT_OK
            if fmt == "csv":
                line = next(c for c in read_csv(out)[1] if c.startswith("# config: "))
                meta = json.loads(line[len("# config: "):])
            else:
                meta = json.loads(out.read_text())["metadata"]["config"]
            assert meta == {**resolved, "format": fmt, **{k: meta[k] for k in extra.split()}}
    name, value = foreign
    assert main(argv + ["--" + name.replace("_", "-"), str(value)]) == EXIT_USAGE
    err = capsys.readouterr().err
    # reported with the command's own usage line
    assert "unrecognized arguments" in err and f"usage: gausscollect {argv[0]} " in err
    cfg_file = tmp_path / "foreign.json"
    cfg_file.write_text(json.dumps({name: value}))
    assert main(argv + ["--config", str(cfg_file)]) == EXIT_USAGE
    assert f"does not take {name!r}" in capsys.readouterr().err


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
            "--phase", "uniform",
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
        assert payload["metadata"]["config"]["phase"] == UNIFORM  # a default is recorded
        row = payload["rows"][0]
        from gausscollect import CloudGeometry, compute_xi

        expect = compute_xi(CloudGeometry(5.0, 100.0), 10.0, UNIFORM)
        assert row["xi_abs_sq"] == expect.xi_abs_sq

    def test_json_failed_cells_are_null(self, tmp_path):
        # sigma_perp = 200 puts the waist bracket outside [0.5, 1e4]
        out = tmp_path / "sweep.json"
        argv = "sweep --grid-perp 100:200:2 --grid-z 1:10:2 --format json --out".split()
        assert main(argv + [str(out)]) == EXIT_OK

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(out.read_text(), parse_constant=reject)
        failed = [row for row in payload["rows"] if row["status"].startswith("failed")]
        assert len(failed) == 2 == payload["metadata"]["config"]["failed_cells"]
        for row in failed:
            for name in ("w0_max_bar", "w0_ratio", "xi_abs_sq", "g_factor", "g_times_n"):
                assert row[name] is None
        ok = [row for row in payload["rows"] if row["status"] == "ok"]
        assert ok and all(isinstance(row["g_factor"], float) for row in ok)

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        argv = "xi --sigma-perp-bar 3 --sigma-z-bar 10 --waist-bar 5 --out".split()
        assert main(argv + [str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: --out")
        assert main(argv + [str(tmp_path)]) == EXIT_USAGE  # a directory
        assert not out.parent.exists()

    def test_bad_out_is_usage_error_before_computing(self, tmp_path, monkeypatch, capsys):
        import gausscollect.cli as cli_module

        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before --out was checked")

        monkeypatch.setattr(cli_module, "sweep", no_sweep)
        missing = tmp_path / "missing" / "x.csv"
        for out in (missing, tmp_path):
            assert main(["sweep", "--preset", "fig2a2", "--out", str(out)]) == EXIT_USAGE
            assert capsys.readouterr().err.startswith(f"error: --out {out}: ")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"out": str(missing)}))
        assert main(["sweep", "--preset", "fig2a2", "--config", str(config)]) == EXIT_USAGE
        assert not missing.parent.exists()
        # the check neither creates nor truncates the file
        kept = tmp_path / "kept.csv"
        kept.write_text("earlier output")
        parse_config(["sweep", "--preset", "fig2a2", "--out", str(kept)])
        assert kept.read_text() == "earlier output"
        parse_config(["sweep", "--preset", "fig2a2", "--out", str(tmp_path / "new.csv")])
        assert not (tmp_path / "new.csv").exists()

    def test_out_failing_at_open_is_usage_error(self, tmp_path, capsys):
        # a directory removed between parsing and writing: only opening sees it
        gone = tmp_path / "gone"
        gone.mkdir()
        config = parse_config("xi --sigma-perp-bar 3 --sigma-z-bar 10 --waist-bar 5 --out".split()
                              + [str(gone / "x.csv")])
        gone.rmdir()
        assert run(config) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: --out {gone / 'x.csv'}: ")

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
            "--n-atoms", "2000", "--n-theta", "4", "--out", str(out),
        ])
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        assert rows[0] == ["theta", "phi", "s"]
        assert float(rows[1][2]) == 1.0  # forward cell
        # the backward cell sits on the incoherent floor 1 / N
        assert float(rows[-1][2]) == pytest.approx(1.0 / 2000, rel=1e-12)

    def test_farfield_ignores_the_seed(self, capsys):
        outputs = []
        for seed in ("1", "987654"):
            assert main(["farfield", "--sigma-perp-bar", "3", "--sigma-z-bar", "40",
                         "--phase", "full", "--waist-bar", "6", "--seed", seed]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("phase", ["gouy", "full"])
    def test_farfield_work_is_bounded_in_cloud_length(self, capsys, phase):
        # a mesh resolving exp(i q_z z) would need about 1e9 nodes here
        assert main(["farfield", "--sigma-perp-bar", "5", "--sigma-z-bar", "1e8",
                     "--phase", phase, "--waist-bar", "10"]) == EXIT_OK
        s = [float(line.split(",")[2]) for line in capsys.readouterr().out.splitlines()[3:]]
        assert len(s) == 25 and all(math.isfinite(v) for v in s)

    def test_csv_holds_no_numpy_reprs(self, capsys):
        for argv in (
            "sweep --grid-perp 2:5:2 --grid-z 50:100:2 --phase gouy",
            "dynamics --sigma-perp-bar 5 --sigma-z-bar 100 --waist-bar 14.6 --pulse gaussian "
            "--t-end 100 --t-steps 50",
            "farfield --sigma-perp-bar 5 --sigma-z-bar 50 --n-atoms 500 --n-theta 3 --n-phi 2",
        ):
            assert main(argv.split()) == EXIT_OK
            assert "np." not in capsys.readouterr().out

    def test_farfield_accepts_theta_max_pi(self, capsys):
        assert main(["farfield", "--sigma-perp-bar", "1", "--sigma-z-bar", "1",
                     "--n-atoms", "10", "--n-theta", "2", "--theta-max", repr(math.pi)]) == EXIT_OK
        last_row = capsys.readouterr().out.splitlines()[-1]
        assert float(last_row.split(",")[0]) == math.pi

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
