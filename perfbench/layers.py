"""Per-layer spans and the metrics derived from them.

Each span wraps a public function at the name its consumer module
imported it under.  All ``.s`` and ``.self_s`` values are self times
(span time minus enclosed spans), so they never count the same
interval twice.  Functions not wrapped here are charged to the span
that calls them; ``paraxial_beam`` builds one ``BeamGeometry`` per
profile on production paths, below timer resolution, and is left
unmeasured.
"""

from __future__ import annotations

from spans import Tracer

SHORT = {"uniform": "uniform", "gouy_compensated": "gouy", "full_gaussian": "full"}

PER_LAYER = {
    "special_math.integrate_adaptive.calls": "count",
    "special_math.integrate_adaptive.s": "s",
    "special_math.integrate_adaptive.points": "count",
    "special_math.gh_wasted_frac": "ratio",
    "special_math.erfcx.calls": "count",
    "special_math.erfcx.s": "s",
    **{f"overlap_engine.compute_xi.calls.{v}": "count" for v in SHORT.values()},
    **{f"overlap_engine.compute_xi.self_s.{v}": "s" for v in SHORT.values()},
    "overlap_engine.xi_brute_force.calls": "count",
    "overlap_engine.xi_brute_force.s": "s",
    "waist_optimizer.optima": "count",
    "waist_optimizer.evals_per_optimum": "count",
    "waist_optimizer.self_s": "s",
    "waist_optimizer.failed_cells": "count",
    "emission_dynamics.integrate_amplitudes.s": "s",
    "emission_dynamics.integrate_amplitudes.steps": "count",
    "emission_dynamics.adiabatic_beta.s": "s",
    "emission_dynamics.photon_number.s": "s",
    "far_field.structure_factor.s": "s",
    "far_field.phasors": "count",
    "ensemble_model.sample_positions.s": "s",
    "ensemble_model.phase_at_points.s": "s",
    "validation.validate_overlap.s": "s",
    "validation.validate_optimum.s": "s",
    "validation.validate_dynamics.s": "s",
    "cli.parse_config.s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "count",
    "trace.overhead_s": "s",
}

# exact counts (and ratios of counts): a second traced repetition must
# reproduce each of them
COUNTS = [name for name, unit in PER_LAYER.items() if unit != "s"]


def _xi_span(cloud, w0_bar, variant):
    return f"overlap_engine.compute_xi.{SHORT.get(variant, variant)}"


def _count(name, amount=lambda args, result: 1):
    def on_result(counts, args, kwargs, result):
        counts[name] += amount(args, result)
    return on_result


def install(tracer: Tracer):
    """Wrap every traced boundary of the package in ``tracer``."""
    from gausscollect import (cli, emission_dynamics, far_field, overlap_engine,
                              validation, waist_optimizer)

    tracer.install(cli, "main", "cli")
    tracer.install(cli, "parse_config", "cli.parse_config")
    tracer.install(cli, "compute_xi", _xi_span)
    tracer.install(emission_dynamics, "compute_xi", _xi_span)
    tracer.install(waist_optimizer, "compute_xi", _xi_span,
                   _count("waist_optimizer.evals"))

    # optimal_waist_numeric is looked up in waist_optimizer by every sweep cell
    for module in (cli, waist_optimizer):
        tracer.install(module, "optimal_waist_numeric", "waist_optimizer.optimal_waist_numeric",
                       _count("waist_optimizer.optima"))
    tracer.install(cli, "sweep", "waist_optimizer.sweep")

    tracer.install(overlap_engine, "integrate_adaptive", "special_math.integrate_adaptive",
                   _count("special_math.integrate_adaptive.points",
                          lambda args, result: result.nevals))
    # each axial integral asks for the 128- and then the 256-point rule
    tracer.install(overlap_engine, "gauss_hermite", "special_math.gauss_hermite",
                   _count("special_math.axial_integrals", lambda args, result: int(args[0] == 128)))
    tracer.install(overlap_engine, "erfcx", "special_math.erfcx")

    tracer.install(validation, "xi_brute_force", "overlap_engine.xi_brute_force")
    for name in ("validate_overlap", "validate_optimum", "validate_dynamics"):
        tracer.install(validation, name, f"validation.{name}")

    tracer.install(validation, "integrate_amplitudes", "emission_dynamics.integrate_amplitudes",
                   _count("emission_dynamics.integrate_amplitudes.steps",
                          lambda args, result: result.times.size - 1))
    for module in (validation, emission_dynamics):
        tracer.install(module, "adiabatic_beta", "emission_dynamics.adiabatic_beta")
    tracer.install(cli, "photon_number", "emission_dynamics.photon_number")

    tracer.install(cli, "structure_factor", "far_field.structure_factor",
                   _count("far_field.phasors", lambda args, result:
                          args[2] * result.theta_values.size * result.phi_values.size))
    tracer.install(far_field, "sample_positions", "ensemble_model.sample_positions")
    tracer.install(far_field, "phase_at_points", "ensemble_model.phase_at_points")


def layer_values(tracer: Tracer, bytes_out: int) -> dict:
    """Per-layer values of one traced repetition (``trace.overhead_s`` excluded)."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    optimizer_calls = calls["waist_optimizer.optimal_waist_numeric"]
    axial = counts["special_math.axial_integrals"]
    values = {
        "special_math.integrate_adaptive.calls": calls["special_math.integrate_adaptive"],
        "special_math.integrate_adaptive.s": self_s["special_math.integrate_adaptive"],
        "special_math.integrate_adaptive.points": counts["special_math.integrate_adaptive.points"],
        "special_math.gh_wasted_frac":
            calls["special_math.integrate_adaptive"] / axial if axial else 0.0,
        "special_math.erfcx.calls": calls["special_math.erfcx"],
        "special_math.erfcx.s": self_s["special_math.erfcx"],
        "overlap_engine.xi_brute_force.calls": calls["overlap_engine.xi_brute_force"],
        "overlap_engine.xi_brute_force.s": self_s["overlap_engine.xi_brute_force"],
        "waist_optimizer.optima": counts["waist_optimizer.optima"],
        "waist_optimizer.evals_per_optimum":
            counts["waist_optimizer.evals"] / optimizer_calls if optimizer_calls else 0.0,
        "waist_optimizer.self_s": self_s["waist_optimizer.optimal_waist_numeric"]
                                  + self_s["waist_optimizer.sweep"],
        "waist_optimizer.failed_cells": optimizer_calls - counts["waist_optimizer.optima"],
        "emission_dynamics.integrate_amplitudes.s":
            self_s["emission_dynamics.integrate_amplitudes"],
        "emission_dynamics.integrate_amplitudes.steps":
            counts["emission_dynamics.integrate_amplitudes.steps"],
        "emission_dynamics.adiabatic_beta.s": self_s["emission_dynamics.adiabatic_beta"],
        "emission_dynamics.photon_number.s": self_s["emission_dynamics.photon_number"],
        "far_field.structure_factor.s": self_s["far_field.structure_factor"],
        "far_field.phasors": counts["far_field.phasors"],
        "ensemble_model.sample_positions.s": self_s["ensemble_model.sample_positions"],
        "ensemble_model.phase_at_points.s": self_s["ensemble_model.phase_at_points"],
        "validation.validate_overlap.s": self_s["validation.validate_overlap"],
        "validation.validate_optimum.s": self_s["validation.validate_optimum"],
        "validation.validate_dynamics.s": self_s["validation.validate_dynamics"],
        "cli.parse_config.s": self_s["cli.parse_config"],
        "cli.self_s": self_s["cli"],
        "cli.bytes_out": bytes_out,
    }
    for variant in SHORT.values():
        span = f"overlap_engine.compute_xi.{variant}"
        values[f"overlap_engine.compute_xi.calls.{variant}"] = calls[span]
        values[f"overlap_engine.compute_xi.self_s.{variant}"] = self_s[span]
    return values
