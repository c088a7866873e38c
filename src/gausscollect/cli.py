"""Command line interface: overlap, optimization, sweeps, dynamics, far field.

The interface is dimensionless-first (wavenumber-scaled sigmas and
waists); physical cloud sizes in micrometers plus a wavelength in
nanometers may be given instead and are converted at this boundary and
nowhere else.  Every emitted file embeds a metadata preamble (tool
version, resolved configuration, seed) sufficient to reproduce the run
byte for byte; no timestamps are written.

Exit codes: 0 success, 1 numerical failure (non-convergence), 2 usage
or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, field

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
from .far_field import direction_grid, structure_factor
from .overlap_engine import compute_xi
from .special_math import QuadratureError
from .validation import run_suite
from .waist_optimizer import (
    OptimizationError,
    check_bracket,
    default_bracket,
    optimal_waist_numeric,
    sweep,
)

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main", "PRESETS"]

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


@dataclass
class RunConfig:
    command: str
    sigma_perp_bar: float | None = None
    sigma_z_bar: float | None = None
    waist_bar: float | None = None
    phase: str = UNIFORM
    n_atoms: int = 1000
    rabi: float = 0.05
    pulse: str = "constant"
    pulse_center: float = 50.0
    pulse_width: float = 10.0
    t_end: float = 2000.0
    t_steps: int = 2000
    grid_perp: np.ndarray | None = None
    grid_z: np.ndarray | None = None
    preset: str | None = None
    out: str | None = None
    format: str = "csv"
    tol: float = 1e-6
    seed: int = 1234
    verbose: bool = False
    suite: str = "all"
    trials: int = 10
    samples: int = 100_000
    n_theta: int = 25
    theta_max: float = math.pi
    n_phi: int = 1
    resolved: dict = field(default_factory=dict)


# every flag, and config-file field, with its type or its tuple of choices
_FLAG_FIELDS = {
    "sigma_perp_bar": float, "sigma_z_bar": float,
    "sigma_perp_um": float, "sigma_z_um": float, "wavelength_nm": float,
    "waist_bar": float, "phase": tuple(sorted(PHASE_ALIASES)), "n_atoms": int,
    "rabi": float, "pulse": ("constant", "gaussian"), "pulse_center": float,
    "pulse_width": float, "t_end": float, "t_steps": int,
    "grid_perp": str, "grid_z": str, "preset": tuple(sorted(PRESETS)),
    "out": str, "format": ("csv", "json"), "tol": float, "seed": int,
    "verbose": bool, "suite": ("overlap", "optimum", "dynamics", "all"), "trials": int,
    "samples": int, "n_theta": int, "theta_max": float, "n_phi": int,
}

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
    for name, text in (
        ("xi", "overlap of the phased emission with one Gaussian mode"),
        ("optimize", "waist maximizing the collection efficiency for one cloud"),
        ("sweep", "optimal waist and efficiency on a cloud-geometry grid"),
        ("dynamics", "emission envelope and collected photon number vs time"),
        ("farfield", "Monte-Carlo angular emission pattern"),
        ("validate", "cross-check closed forms against independent oracles"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON file mirroring the flag names")
        for name, kind in _FLAG_FIELDS.items():
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


def parse_config(argv) -> RunConfig:
    """Resolve flags plus optional config file into a :class:`RunConfig`.

    Flags override config-file values.  Exactly one of the physical
    (micrometer + wavelength) and dimensionless cloud descriptions may
    be supplied.
    """
    args = _build_parser().parse_args(argv)
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
            if norm not in _FLAG_FIELDS:
                raise ConfigError(f"config file: unknown field {key!r}")
            values[norm] = _config_value(key, _FLAG_FIELDS[norm], val)
    for name in _FLAG_FIELDS:
        flag_val = getattr(args, name, None)
        if flag_val is not None:
            values[name] = flag_val

    physical = {k: values.get(k) for k in ("sigma_perp_um", "sigma_z_um", "wavelength_nm")}
    has_physical = any(v is not None for v in physical.values())
    has_bar_sigma = values.get("sigma_perp_bar") is not None or values.get("sigma_z_bar") is not None
    if has_physical and has_bar_sigma:
        raise ConfigError(
            "give either dimensionless --sigma-*-bar or physical --sigma-*-um "
            "with --wavelength-nm, not both"
        )
    if has_physical:
        for key in ("wavelength_nm", "sigma_perp_um", "sigma_z_um"):
            if physical[key] is None:
                raise ConfigError(f"physical units: missing {key.replace('_', '-')}")
        if not physical["wavelength_nm"] > 0.0:
            raise ConfigError("physical units: wavelength_nm must be positive")
        k_e = 2.0 * math.pi / physical["wavelength_nm"]
        values["sigma_perp_bar"] = k_e * physical["sigma_perp_um"] * 1000.0
        values["sigma_z_bar"] = k_e * physical["sigma_z_um"] * 1000.0

    config = RunConfig(command=args.command)
    for name, value in values.items():
        if name in ("sigma_perp_um", "sigma_z_um", "wavelength_nm"):
            continue
        if name == "phase":
            value = PHASE_ALIASES[value]
        elif name == "grid_perp":
            value = _parse_grid(value, "--grid-perp")
        elif name == "grid_z":
            value = _parse_grid(value, "--grid-z")
        setattr(config, name, value)

    _validate_command_inputs(config)
    config.resolved = _resolved_dict(config)
    if config.verbose:
        print("resolved config: " + json.dumps(config.resolved, sort_keys=True),
              file=sys.stderr)
    return config


def _require(config: RunConfig, *names: str):
    for name in names:
        if getattr(config, name) is None:
            raise ConfigError(f"{config.command}: missing required field {name}")


def _validate_command_inputs(config: RunConfig):
    cmd = config.command
    for name, kind in _FLAG_FIELDS.items():
        value = getattr(config, name, None)
        if kind is float and value is not None and not math.isfinite(value):
            raise ConfigError(f"{cmd}: {name} must be finite, got {value}")
    if cmd == "xi":
        _require(config, "sigma_perp_bar", "sigma_z_bar", "waist_bar")
    elif cmd == "optimize":
        _require(config, "sigma_perp_bar", "sigma_z_bar")
    elif cmd == "sweep":
        if config.preset is None and (config.grid_perp is None or config.grid_z is None):
            raise ConfigError("sweep: missing required field grid_perp (or --preset)")
    elif cmd == "dynamics":
        _require(config, "sigma_perp_bar", "sigma_z_bar", "waist_bar")
    elif cmd == "farfield":
        _require(config, "sigma_perp_bar", "sigma_z_bar")
        if config.sigma_z_bar == 0.0:
            raise ConfigError("farfield: sigma_z_bar must be positive")
        if config.phase != UNIFORM and config.waist_bar is None:
            raise ConfigError("farfield: missing required field waist_bar "
                              "(compensated phases reference the collection beam)")
    for name in ("sigma_perp_bar", "waist_bar"):
        value = getattr(config, name)
        if value is not None and value <= 0.0:
            raise ConfigError(f"{cmd}: {name} must be positive, got {value}")
    if config.sigma_z_bar is not None and config.sigma_z_bar < 0.0:
        raise ConfigError(f"{cmd}: sigma_z_bar must be non-negative")
    if config.tol <= 0.0:
        raise ConfigError(f"{cmd}: tol must be positive")
    for name in ("n_atoms", "samples", "t_steps", "trials", "n_theta", "n_phi"):
        value = getattr(config, name)
        if value < 1:
            raise ConfigError(f"{cmd}: {name} must be >= 1, got {value}")
    if config.seed < 0:
        raise ConfigError(f"{cmd}: seed must be >= 0, got {config.seed}")
    if cmd == "dynamics":
        _dynamics_drive(config)
    elif cmd == "optimize":
        cloud = CloudGeometry(config.sigma_perp_bar, config.sigma_z_bar)
        try:
            check_bracket(*default_bracket(cloud))
        except ValueError as exc:
            raise ConfigError(
                f"optimize: sigma_perp_bar {config.sigma_perp_bar} puts the waist search {exc}"
            ) from exc


def _dynamics_drive(config: RunConfig):
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


def _resolved_dict(config: RunConfig) -> dict:
    out = {}
    for name, value in vars(config).items():
        # the output path is not part of the computation; leaving it out
        # keeps runs to different destinations byte-comparable
        if name in ("resolved", "out") or value is None:
            continue
        if isinstance(value, np.ndarray):
            value = [float(v) for v in value]
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(stream, header, rows, metadata):
    stream.write(f"# gausscollect {__version__}\r\n")
    stream.write("# config: " + json.dumps(metadata, sort_keys=True) + "\r\n")
    writer = csv.writer(stream, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


def _write_json(stream, header, rows, metadata):
    payload = {
        "metadata": {"tool": "gausscollect", "version": __version__, **{"config": metadata}},
        "columns": list(header),
        "rows": [dict(zip(header, row)) for row in rows],
    }
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _emit(config: RunConfig, header, rows, extra_meta=None):
    metadata = dict(config.resolved)
    if extra_meta:
        metadata.update(extra_meta)
    writer = _write_csv if config.format == "csv" else _write_json
    if config.out is None:
        writer(sys.stdout, header, rows, metadata)
    else:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
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


def _cmd_xi(config: RunConfig) -> int:
    cloud = CloudGeometry(config.sigma_perp_bar, config.sigma_z_bar, config.n_atoms)
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


def _cmd_optimize(config: RunConfig) -> int:
    cloud = CloudGeometry(config.sigma_perp_bar, config.sigma_z_bar, config.n_atoms)
    record = optimal_waist_numeric(cloud, config.phase, tol=config.tol)
    _emit(config, _SWEEP_HEADER, [_optimum_row(record, config.n_atoms)])
    return EXIT_OK


def _cmd_sweep(config: RunConfig) -> int:
    if config.preset is not None:
        phase = PHASE_ALIASES[PRESETS[config.preset]]
        sp_values, sz_values = _PRESET_AXES
    else:
        phase = config.phase
        sp_values, sz_values = config.grid_perp, config.grid_z
    grid = sweep(sp_values, sz_values, phase, config.tol, n_atoms=config.n_atoms)
    rows = [
        _optimum_row(record, config.n_atoms)
        for row in grid.records
        for record in row
    ]
    # "edge" cells carry a value and do not count as failures
    failures = sum(1 for row in rows if row[-1].startswith("failed"))
    _emit(config, _SWEEP_HEADER, rows, {"failed_cells": failures})
    return EXIT_NUMERICAL if failures == len(rows) else EXIT_OK


def _cmd_dynamics(config: RunConfig) -> int:
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


def _cmd_farfield(config: RunConfig) -> int:
    cloud = CloudGeometry(config.sigma_perp_bar, config.sigma_z_bar, config.n_atoms)
    profile = make_profile(config.phase, config.waist_bar)
    thetas = np.linspace(0.0, config.theta_max, config.n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, config.n_phi, endpoint=False)
    grid = structure_factor(cloud, profile, config.samples, config.seed,
                            direction_grid(thetas, phis))
    header = ["theta", "phi", "s", "s_stderr"]
    rows = [
        [float(th), float(ph), float(grid.intensity[i, j]), float(grid.stderr[i, j])]
        for i, th in enumerate(grid.theta_values)
        for j, ph in enumerate(grid.phi_values)
    ]
    _emit(config, header, rows, {"forward_value": grid.forward_value})
    return EXIT_OK


def _cmd_validate(config: RunConfig) -> int:
    reports = run_suite(config.suite, config.trials, config.tol, config.seed)
    ok = True
    for report in reports:
        for line in report.lines:
            print(f"{report.suite}: {line}")
        ok &= report.passed
    print("validation " + ("PASSED" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_NUMERICAL


_COMMANDS = {
    "xi": _cmd_xi,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "dynamics": _cmd_dynamics,
    "farfield": _cmd_farfield,
    "validate": _cmd_validate,
}


def run(config: RunConfig) -> int:
    """Execute a resolved configuration; map numerical failure to exit 1."""
    try:
        return _COMMANDS[config.command](config)
    except (QuadratureError, OptimizationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse reports its own usage errors with code 2
        return int(exc.code) if exc.code is not None else EXIT_OK
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
