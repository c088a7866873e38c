"""Oracle cross-check suites, runnable from the CLI and the test suite.

Each suite pits an independent evaluation route against the production
one: closed forms and axial quadratures against the brute-force overlap
integral, the closed-form optimal waist against the numeric optimizer,
and the exact amplitude equations against the adiabatic envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .emission_dynamics import PulseShape, adiabatic_beta, integrate_amplitudes
from .ensemble_model import (
    FULL_GAUSSIAN,
    GOUY_COMPENSATED,
    UNIFORM,
    CloudGeometry,
    make_profile,
)
from .overlap_engine import (
    xi_brute_force,
    xi_full_compensation,
    xi_gouy_compensated,
    xi_uniform,
)
from .waist_optimizer import optimal_waist_analytic, optimal_waist_numeric

__all__ = [
    "ValidationReport",
    "sample_overlap_triples",
    "sample_small_cloud_points",
    "small_cloud_factors",
    "validate_overlap",
    "validate_optimum",
    "validate_dynamics",
    "run_suite",
]


@dataclass
class ValidationReport:
    suite: str
    passed: bool = True
    lines: list = field(default_factory=list)

    def check(self, label: str, ok: bool, detail: str = ""):
        self.passed &= bool(ok)
        status = "ok" if ok else "FAIL"
        self.lines.append(f"[{status}] {label}" + (f" ({detail})" if detail else ""))


def sample_overlap_triples(n: int, seed: int = 20240817) -> np.ndarray:
    """(sigma_perp, sigma_z, w0) triples covering the sweep parameter box."""
    rng = np.random.default_rng(seed)
    sp = rng.uniform(1.0, 30.0, n)
    sz = rng.uniform(1.0, 500.0, n)
    w0 = rng.uniform(2.0, 60.0, n)
    return np.column_stack([sp, sz, w0])


def sample_small_cloud_points(n: int, seed: int = 20240818) -> np.ndarray:
    """(sigma_perp, sigma_z) pairs; at least a fifth of them land in the
    negative-discriminant branch of the closed-form optimum."""
    rng = np.random.default_rng(seed)
    n_neg = max(1, n // 5)
    sp_a = rng.uniform(0.5, 20.0, n - n_neg)
    sz_a = rng.uniform(0.0, 100.0, n - n_neg)
    sp_b = rng.uniform(0.5, 3.0, n_neg)
    # discriminant sp^8 + 22 sp^4 sz^2 - 4 sz^4 < 0 needs sz > 2.355 sp^2
    sz_b = np.array([rng.uniform(3.0 * s * s, 100.0) for s in sp_b])
    return np.column_stack([
        np.concatenate([sp_a, sp_b]),
        np.concatenate([sz_a, sz_b]),
    ])


def small_cloud_factors(cloud: CloudGeometry, w0_bars: np.ndarray) -> np.ndarray:
    """Small-cloud geometric factor at every waist of ``w0_bars``.

    The batched form of ``xi_small_cloud(cloud, w).geometric_factor``,
    which the optimum suite maximizes.
    """
    sp, sz = cloud.sigma_perp_bar, cloud.sigma_z_bar
    w0_sq = w0_bars * w0_bars
    xi_abs = w0_sq / (w0_sq + 2.0 * sp * sp) * np.exp(-2.0 * sz * sz / (w0_sq * w0_sq))
    return 6.0 * xi_abs * xi_abs / w0_sq


def _discriminant(sp: float, sz: float) -> float:
    return sp ** 8 + 22.0 * sp ** 4 * sz ** 2 - 4.0 * sz ** 4


def validate_overlap(trials: int = 10, tol: float = 1e-6, seed: int = 20240817) -> ValidationReport:
    """Closed forms and 1-d quadratures vs the brute-force overlap oracle."""
    report = ValidationReport("overlap")
    evaluators = (
        (UNIFORM, xi_uniform),
        (GOUY_COMPENSATED, xi_gouy_compensated),
        (FULL_GAUSSIAN, xi_full_compensation),
    )
    worst = {name: 0.0 for name, _ in evaluators}
    for sp, sz, w0 in sample_overlap_triples(trials, seed):
        cloud = CloudGeometry(sp, sz)
        for name, evaluate in evaluators:
            fast = evaluate(cloud, w0)
            oracle = xi_brute_force(cloud, w0, make_profile(name, w0))
            rel = abs(fast.xi_abs_sq - oracle.xi_abs_sq) / oracle.xi_abs_sq
            worst[name] = max(worst[name], rel)
    for name, _ in evaluators:
        report.check(
            f"{name} |xi|^2 vs brute force on {trials} triples",
            worst[name] <= tol,
            f"worst rel dev {worst[name]:.2e}, tol {tol:g}",
        )
    return report


def validate_optimum(trials: int = 20, tol: float = 1e-6, seed: int = 20240818) -> ValidationReport:
    """Closed-form optimal waist vs the numeric optimizer on its own model."""
    report = ValidationReport("optimum")
    points = sample_small_cloud_points(trials, seed)
    worst = 0.0
    n_neg = 0
    for sp, sz in points:
        cloud = CloudGeometry(sp, sz)
        if _discriminant(sp, sz) < 0.0:
            n_neg += 1
        analytic = optimal_waist_analytic(cloud)
        numeric = optimal_waist_numeric(
            cloud, UNIFORM, tol=1e-10,
            objective=lambda ws, c=cloud: small_cloud_factors(c, ws),
        )
        worst = max(worst, abs(analytic.w0_max_bar - numeric.w0_max_bar) / analytic.w0_max_bar)
    report.check(
        f"analytic vs numeric optimum on {trials} points ({n_neg} complex-branch)",
        worst <= tol,
        f"worst rel dev {worst:.2e}, tol {tol:g}",
    )
    return report


def validate_dynamics(tol: float = 1e-6) -> ValidationReport:
    """Exact amplitude equations vs the adiabatic envelope and pure decay."""
    report = ValidationReport("dynamics")

    pulse = PulseShape.constant(0.05)
    t = np.linspace(0.0, 2000.0, 2001)
    curve = adiabatic_beta(pulse, t)
    report.check(
        "complete-transfer normalization B(end) = 1",
        abs(curve.big_b[-1] - 1.0) <= max(tol, 1e-6),
        f"B(end) = {curve.big_b[-1]:.9f}",
    )

    traj = integrate_amplitudes(pulse, 0.0, 500.0, 0.01)
    beta_ref = 2.0 * 0.05 * np.exp(-2.0 * 0.05 ** 2 * traj.times)
    mask = traj.times >= 10.0
    rel = np.max(
        np.abs(np.abs(traj.b_values[mask]) - beta_ref[mask]) / beta_ref[mask]
    )
    report.check(
        "adiabatic envelope vs amplitude equations within 5% (past turn-on)",
        rel <= 0.05,
        f"max rel dev {rel:.4f}",
    )

    decay = integrate_amplitudes(PulseShape.constant(0.0), 0.0, 20.0, 0.01, c0=0.0, b0=1.0)
    dev = np.max(np.abs(np.abs(decay.b_values) ** 2 - np.exp(-decay.times)))
    report.check(
        "pure decay reproduces exp(-t) within 1e-8",
        dev <= 1e-8,
        f"max abs dev {dev:.2e}",
    )
    return report


def run_suite(suite: str, trials: int, tol: float, seed: int) -> list[ValidationReport]:
    """Run one named suite, or all of them."""
    if suite == "overlap":
        return [validate_overlap(trials, tol, seed)]
    if suite == "optimum":
        return [validate_optimum(trials, tol, seed)]
    if suite == "dynamics":
        return [validate_dynamics(tol)]
    if suite == "all":
        return [
            validate_overlap(trials, tol, seed),
            validate_optimum(trials, tol, seed),
            validate_dynamics(tol),
        ]
    raise ValueError(f"unknown validation suite {suite!r}")
