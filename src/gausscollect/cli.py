"""Command line interface: overlap, optimization, sweeps, dynamics, far field.

The interface is dimensionless-first (wavenumber-scaled sigmas and
waists); physical cloud sizes in micrometers plus a wavelength in
nanometers may be given instead and are converted at this boundary and
nowhere else.  Every emitted file embeds a metadata preamble (tool
version, and each field the command reads with its resolved value)
sufficient to reproduce the run byte for byte; no timestamps are written.

Each command takes only the flags it reads: ``_FLAGS`` gives every flag's
type and default, ``_COMMANDS`` each command's handler and fields.

Exit codes: 0 success, 1 numerical failure (non-convergence) or a
closed stdout, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .emission_dynamics import PulseShape, check_time_grid, photon_number
from .ensemble_model import (
    FULL_GAUSSIAN,
    GOUY_COMPENSATED,
    UNIFORM,
    CloudGeometry,
    make_profile,
)
from .far_field import DirectionGrid, structure_factor
from .overlap_engine import check_waists, compute_xi
from .special_math import QuadratureError
from .validation import run_suite
from .waist_optimizer import (
    OptimizationError,
    default_bracket,
    optimal_waist_numeric,
    sweep,
)

__all__ = ["ConfigError", "parse_config", "run", "main", "PRESETS"]

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

PHASE_ALIASES = {"uniform": UNIFORM, "gouy": GOUY_COMPENSATED, "full": FULL_GAUSSIAN}

# one preset per panel of the optimal-waist / efficiency figure pair;
# the a/b panels of one column share the same sweep data
_PRESET_AXES = (np.geomspace(1.0, 50.0, 50), np.geomspace(1.0, 1000.0, 60))
PRESETS = {
    "fig2a1": "uniform", "fig2b1": "uniform",
    "fig2a2": "gouy", "fig2b2": "gouy",
    "fig2a3": "full", "fig2b3": "full",
}


class ConfigError(Exception):
    """Invalid or inconsistent command-line/config-file input."""


# every flag, and config-file field: its type or its tuple of choices, and its default
_FLAGS = {
    "sigma_perp_bar": (float, None), "sigma_z_bar": (float, None),
    "sigma_perp_um": (float, None), "sigma_z_um": (float, None),
    "wavelength_nm": (float, None), "waist_bar": (float, None),
    "phase": (tuple(sorted(PHASE_ALIASES)), "uniform"), "n_atoms": (int, 1000),
    "rabi": (float, 0.05), "pulse": (("constant", "gaussian"), "constant"),
    "pulse_center": (float, 50.0), "pulse_width": (float, 10.0),
    "t_end": (float, 2000.0), "t_steps": (int, 2000),
    "grid_perp": (str, None), "grid_z": (str, None), "preset": (tuple(sorted(PRESETS)), None),
    "out": (str, None), "format": (("csv", "json"), "csv"), "verbose": (bool, False),
    "tol": (float, 1e-6), "seed": (int, 1234),
    "suite": (("overlap", "optimum", "dynamics", "farfield", "all"), "all"),
    "trials": (int, 10), "n_theta": (int, 25), "theta_max": (float, math.pi),
    "n_phi": (int, 1),
}

# the cloud in either description, and the output fields of the commands
# that write a table
_PHYSICAL = ("sigma_perp_um", "sigma_z_um", "wavelength_nm")
_CLOUD = ("sigma_perp_bar", "sigma_z_bar", *_PHYSICAL)
_OUTPUT = ("out", "format", "verbose")
# inputs the resolved configuration leaves out: the output path is not
# part of the computation, and physical sizes resolve into dimensionless ones
_UNRECORDED = ("out", *_PHYSICAL)
# flags a command accepts and checks but does not read, nor record:
# farfield's --seed, from when its pattern was sampled
_UNREAD = {"farfield": ("seed",)}

# lower bounds of the numeric fields
_POSITIVE = ("sigma_perp_bar", "waist_bar", "tol")
_AT_LEAST = {"sigma_z_bar": 0, "seed": 0, **dict.fromkeys(
    ("n_atoms", "t_steps", "trials", "n_theta", "n_phi"), 1)}

_JSON_KINDS = {
    float: "a finite JSON number", int: "a JSON integer", str: "a JSON string",
    bool: "true or false",
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: construction costs far more than parsing,
    # and parse_args keeps no state between calls
    parser = argparse.ArgumentParser(
        prog="gausscollect",
        description="Photon collection from trapped atomic ensembles into Gaussian modes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _, fields, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.set_defaults(subparser=p)
        p.add_argument("--config", help="JSON file mirroring the flag names")
        for name in fields:
            kind = _FLAGS[name][0]
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_const", const=True)
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind)
            else:
                p.add_argument(flag, type=kind, metavar="A:B:N" if name.startswith("grid") else None)
    return parser


def _parse_grid(spec: str, name: str) -> np.ndarray:
    """'a:b:n' -> n log-spaced points on [a, b]."""
    try:
        a_str, b_str, n_str = spec.split(":")
        a, b, n = float(a_str), float(b_str), int(n_str)
    except ValueError as exc:
        raise ConfigError(f"{name}: expected A:B:N, got {spec!r}") from exc
    if not (0.0 < a <= b < math.inf) or n < 1:
        raise ConfigError(f"{name}: need 0 < A <= B < inf and N >= 1, got {spec!r}")
    if n == 1 and a != b:
        raise ConfigError(f"{name}: a single point (N = 1) needs A == B, got {spec!r}")
    points = np.geomspace(a, b, n) if n > 1 else np.array([a])
    if np.any(np.diff(points) <= 0.0):
        raise ConfigError(f"{name}: the N points must be strictly increasing, got {spec!r}")
    return points


def _config_value(key: str, kind, value):
    """A config-file value, held to the type or the choices of its flag."""
    if isinstance(kind, tuple):
        ok = value in kind
    elif kind is float:
        # an integer beyond the float range would overflow in float()
        ok = type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)
    else:
        ok = type(value) is kind
    if not ok:
        expected = "one of " + ", ".join(kind) if isinstance(kind, tuple) else _JSON_KINDS[kind]
        raise ConfigError(f"config file: {key} must be {expected}, got {value!r}")
    return float(value) if kind is float else value


def parse_config(argv) -> argparse.Namespace:
    """Resolve flags plus optional config file into the command's fields.

    The namespace holds ``command``, ``resolved`` and exactly the fields
    the command takes, defaults filled in; ``resolved`` leaves out those
    it takes but does not read (``_UNREAD``).  Flags override config-file
    values; a config-file field of another command is a usage error.
    Exactly one of the physical (micrometer + wavelength) and
    dimensionless cloud descriptions may be supplied.
    """
    args, unknown = _build_parser().parse_known_args(argv)
    if unknown:
        # the command's own usage line lists the flags it does take
        args.subparser.error("unrecognized arguments: " + " ".join(unknown))
    command = args.command
    _, _, fields, required = _COMMANDS[command]
    values: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or encoding
            raise ConfigError(f"config file {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, val in raw.items():
            norm = key.replace("-", "_")
            if norm not in _FLAGS:
                raise ConfigError(f"config file: unknown field {key!r}")
            values[norm] = _config_value(key, _FLAGS[norm][0], val)
            if norm not in fields:
                raise ConfigError(f"config file: {command} does not take {key!r}")
    for name in fields:
        flag_val = getattr(args, name)
        if flag_val is not None:
            values[name] = flag_val

    has_physical = any(k in values for k in _PHYSICAL)
    if has_physical and ("sigma_perp_bar" in values or "sigma_z_bar" in values):
        raise ConfigError(
            "give either dimensionless --sigma-*-bar or physical --sigma-*-um "
            "with --wavelength-nm, not both"
        )
    if has_physical:
        for key in ("wavelength_nm", "sigma_perp_um", "sigma_z_um"):
            if key not in values:
                raise ConfigError(f"physical units: missing {key.replace('_', '-')}")
        if not values["wavelength_nm"] > 0.0:
            raise ConfigError("physical units: wavelength_nm must be positive")
        k_e = 2.0 * math.pi / values["wavelength_nm"]
        values["sigma_perp_bar"] = k_e * values["sigma_perp_um"] * 1000.0
        values["sigma_z_bar"] = k_e * values["sigma_z_um"] * 1000.0

    for name in ("grid_perp", "grid_z"):
        if name in values:
            values[name] = _parse_grid(values[name], "--" + name.replace("_", "-"))
    if "preset" in values:
        given = [name for name in ("phase", "grid_perp", "grid_z") if name in values]
        if given:
            raise ConfigError(f"sweep: --preset fixes {', '.join(given)}; give one or the other")
        values["phase"] = PRESETS[values["preset"]]
        values["grid_perp"], values["grid_z"] = _PRESET_AXES
    config = argparse.Namespace(
        command=command, **{name: values.get(name, _FLAGS[name][1]) for name in fields})
    if "phase" in fields:
        config.phase = PHASE_ALIASES[config.phase]
    _validate_command_inputs(config, required)
    config.resolved = _resolved_dict(config)
    if config.verbose:
        print("resolved config: " + json.dumps(config.resolved, sort_keys=True),
              file=sys.stderr)
    return config


def _validate_command_inputs(config: argparse.Namespace, required):
    cmd, fields = config.command, vars(config)
    for name, value in fields.items():
        if value is None or name not in _FLAGS:
            continue
        if _FLAGS[name][0] is float and not math.isfinite(value):
            raise ConfigError(f"{cmd}: {name} must be finite, got {value}")
        # counts meet floats in the output (g_times_n) and the pattern (1 / N)
        if _FLAGS[name][0] is int and abs(value) > sys.float_info.max:
            raise ConfigError(f"{cmd}: {name} is beyond the float range")
        if name in _POSITIVE and value <= 0.0:
            raise ConfigError(f"{cmd}: {name} must be positive, got {value}")
        if name in _AT_LEAST and value < _AT_LEAST[name]:
            raise ConfigError(f"{cmd}: {name} must be >= {_AT_LEAST[name]}, got {value}")
    for name in required:
        if fields[name] is None:
            raise ConfigError(f"{cmd}: missing required field {name}")
    # the model squares the cloud width
    sp = fields.get("sigma_perp_bar")
    if sp is not None and math.isinf(sp * sp):
        raise ConfigError(f"{cmd}: sigma_perp_bar {sp} is too large: its square overflows")
    if fields.get("waist_bar") is not None:
        try:
            check_waists(config.waist_bar)
        except ValueError as exc:
            raise ConfigError(f"{cmd}: {exc}") from exc
    if cmd == "sweep":
        for name in ("grid_perp", "grid_z"):
            if fields[name] is None:
                raise ConfigError(f"sweep: missing required field {name} (or --preset)")
    elif cmd == "farfield":
        if config.sigma_z_bar == 0.0:
            raise ConfigError("farfield: sigma_z_bar must be positive")
        if not 0.0 < config.theta_max <= math.pi:
            raise ConfigError(f"farfield: theta_max must lie in (0, pi], got {config.theta_max}")
        if config.phase != UNIFORM and config.waist_bar is None:
            raise ConfigError("farfield: missing required field waist_bar "
                              "(compensated phases reference the collection beam)")
    if fields.get("out") is not None:
        _check_out_path(config.out)
    if cmd == "dynamics":
        _dynamics_drive(config)
    elif cmd == "optimize":
        cloud = CloudGeometry(config.sigma_perp_bar, config.sigma_z_bar)
        try:
            default_bracket(cloud)
        except ValueError as exc:
            raise ConfigError(f"optimize: sigma_perp_bar {config.sigma_perp_bar}: {exc}") from exc


def _check_out_path(path: str):
    """Reject an ``--out`` that cannot be a file, before anything runs.

    Only looks: the file is neither created nor truncated here, and the
    cases this cannot see (permissions, say) still fail when the output
    is opened.
    """
    if os.path.isdir(path):
        raise ConfigError(f"--out {path}: Is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"--out {path}: No such directory {parent}")


def _dynamics_drive(config: argparse.Namespace):
    """The drive pulse and time grid of ``dynamics``, checked by their own rules."""
    try:
        if config.pulse == "constant":
            pulse = PulseShape.constant(config.rabi)
        else:
            pulse = PulseShape.gaussian(config.rabi, config.pulse_center, config.pulse_width)
        t_grid = check_time_grid(np.linspace(0.0, config.t_end, config.t_steps + 1))
    except ValueError as exc:
        raise ConfigError(f"dynamics: {exc}") from exc
    return pulse, t_grid


def _resolved_dict(config: argparse.Namespace) -> dict:
    out = {}
    unread = _UNREAD.get(config.command, ())
    for name, value in vars(config).items():
        if name in _UNRECORDED or name in unread or value is None:
            continue
        if isinstance(value, np.ndarray):
            value = [float(v) for v in value]
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _write_csv(stream, header, rows, metadata):
    # every row holds Python floats, ints and strs: csv writes a float as its repr
    stream.write(f"# gausscollect {__version__}\r\n")
    stream.write("# config: " + json.dumps(metadata, sort_keys=True) + "\r\n")
    writer = csv.writer(stream, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)


def _json_value(value):
    # JSON has no NaN or infinity: a failed cell's numbers become null
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(stream, header, rows, metadata):
    payload = {
        "metadata": {"tool": "gausscollect", "version": __version__, **{"config": metadata}},
        "columns": list(header),
        "rows": [{k: _json_value(v) for k, v in zip(header, row)} for row in rows],
    }
    json.dump(payload, stream, indent=2, sort_keys=True, allow_nan=False)
    stream.write("\n")


def _emit(config: argparse.Namespace, header, rows, extra_meta=None):
    metadata = dict(config.resolved)
    if extra_meta:
        metadata.update(extra_meta)
    writer = _write_csv if config.format == "csv" else _write_json
    if config.out is None:
        writer(sys.stdout, header, rows, metadata)
        return
    try:
        fh = open(config.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"--out {config.out}: {exc.strerror or exc}") from exc
    with fh:
        writer(fh, header, rows, metadata)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

_SWEEP_HEADER = [
    "sigma_perp_bar", "sigma_z_bar", "phase", "w0_max_bar", "w0_ratio",
    "xi_abs_sq", "g_factor", "g_times_n", "status",
]


def _optimum_row(record, n_atoms: int):
    ratio = record.w0_max_bar / (math.sqrt(2.0) * record.cloud.sigma_perp_bar)
    return [
        float(record.cloud.sigma_perp_bar), float(record.cloud.sigma_z_bar),
        record.profile, float(record.w0_max_bar), float(ratio),
        float(record.xi_abs_sq_at_max), float(record.g_max),
        float(record.g_max * n_atoms), record.status,
    ]


def _cmd_xi(config: argparse.Namespace) -> int:
    cloud = CloudGeometry(config.sigma_perp_bar, config.sigma_z_bar)
    result = compute_xi(cloud, config.waist_bar, config.phase)
    header = [
        "sigma_perp_bar", "sigma_z_bar", "phase", "w0_bar",
        "xi_re", "xi_im", "xi_abs_sq", "g_factor", "method",
    ]
    row = [
        cloud.sigma_perp_bar, cloud.sigma_z_bar, config.phase, config.waist_bar,
        result.xi.real, result.xi.imag, result.xi_abs_sq,
        result.geometric_factor, result.method,
    ]
    _emit(config, header, [row])
    return EXIT_OK


def _cmd_optimize(config: argparse.Namespace) -> int:
    cloud = CloudGeometry(config.sigma_perp_bar, config.sigma_z_bar)
    record = optimal_waist_numeric(cloud, config.phase, tol=config.tol)
    _emit(config, _SWEEP_HEADER, [_optimum_row(record, config.n_atoms)])
    return EXIT_OK


def _cmd_sweep(config: argparse.Namespace) -> int:
    rows = [
        _optimum_row(record, config.n_atoms)
        for row in sweep(config.grid_perp, config.grid_z, config.phase, config.tol)
        for record in row
    ]
    # "edge" cells carry a value and do not count as failures
    failures = sum(1 for row in rows if row[-1].startswith("failed"))
    _emit(config, _SWEEP_HEADER, rows, {"failed_cells": failures})
    return EXIT_NUMERICAL if failures == len(rows) else EXIT_OK


def _cmd_dynamics(config: argparse.Namespace) -> int:
    cloud = CloudGeometry(config.sigma_perp_bar, config.sigma_z_bar, config.n_atoms)
    pulse, t_grid = _dynamics_drive(config)
    curve = photon_number(cloud, config.phase, config.waist_bar, pulse, t_grid)
    header = ["t", "beta", "big_b", "n"]
    rows = [
        [float(t), float(b), float(bb), float(n)]
        for t, b, bb, n in zip(curve.times, curve.beta, curve.big_b, curve.n)
    ]
    n_inf = curve.g_factor * cloud.n_atoms
    extra = {
        "g_factor": curve.g_factor,
        "n_infinity": n_inf,
        # a single stored excitation cannot yield more than one photon;
        # values above 1 are a collection figure of merit only
        "n_exceeds_single_excitation": bool(n_inf > 1.0),
    }
    _emit(config, header, rows, extra)
    return EXIT_OK


def _cmd_farfield(config: argparse.Namespace) -> int:
    cloud = CloudGeometry(config.sigma_perp_bar, config.sigma_z_bar)
    profile = make_profile(config.phase, config.waist_bar)
    thetas = np.linspace(0.0, config.theta_max, config.n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, config.n_phi, endpoint=False)
    grid = structure_factor(cloud, profile, config.n_atoms, DirectionGrid(thetas, phis))
    header = ["theta", "phi", "s"]
    rows = [
        [float(th), float(ph), float(grid.intensity[i, j])]
        for i, th in enumerate(grid.theta_values)
        for j, ph in enumerate(grid.phi_values)
    ]
    _emit(config, header, rows, {"forward_value": grid.forward_value})
    return EXIT_OK


def _cmd_validate(config: argparse.Namespace) -> int:
    reports = run_suite(config.suite, config.trials, config.tol, config.seed)
    ok = True
    for report in reports:
        for line in report.lines:
            print(f"{report.suite}: {line}")
        ok &= report.passed
    print("validation " + ("PASSED" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_NUMERICAL


_CLOUD_REQUIRED = ("sigma_perp_bar", "sigma_z_bar")

# command: help text, handler, the fields it reads, the fields it requires;
# validate prints a text report and so takes no --out or --format
_COMMANDS = {
    "xi": ("overlap of the phased emission with one Gaussian mode", _cmd_xi,
           (*_CLOUD, "waist_bar", "phase", *_OUTPUT), (*_CLOUD_REQUIRED, "waist_bar")),
    "optimize": ("waist maximizing the collection efficiency for one cloud", _cmd_optimize,
                 (*_CLOUD, "phase", "n_atoms", "tol", *_OUTPUT), _CLOUD_REQUIRED),
    "sweep": ("optimal waist and efficiency on a cloud-geometry grid", _cmd_sweep,
              ("phase", "n_atoms", "tol", "grid_perp", "grid_z", "preset", *_OUTPUT), ()),
    "dynamics": ("emission envelope and collected photon number vs time", _cmd_dynamics,
                 (*_CLOUD, "waist_bar", "phase", "n_atoms", "rabi", "pulse", "pulse_center",
                  "pulse_width", "t_end", "t_steps", *_OUTPUT),
                 (*_CLOUD_REQUIRED, "waist_bar")),
    "farfield": ("ensemble-mean angular emission pattern", _cmd_farfield,
                 (*_CLOUD, "waist_bar", "phase", "n_atoms", "seed", "n_theta", "theta_max",
                  "n_phi", *_OUTPUT), _CLOUD_REQUIRED),
    "validate": ("cross-check closed forms against independent oracles", _cmd_validate,
                 ("suite", "trials", "tol", "seed", "verbose"), ()),
}


def run(config: argparse.Namespace) -> int:
    """Execute a resolved configuration; map numerical failure to exit 1."""
    try:
        return _COMMANDS[config.command][1](config)
    except (QuadratureError, OptimizationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConfigError as exc:  # an output file that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse reports its own usage errors with code 2
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        code = run(config)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): point it at devnull
        # so that the flush at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_NUMERICAL
    return code


if __name__ == "__main__":
    sys.exit(main())
