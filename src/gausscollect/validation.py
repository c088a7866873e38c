"""Oracle cross-check suites, runnable from the CLI and the test suite.

Each suite pits an independent evaluation route against the production
one: closed forms and axial quadratures against the brute-force overlap
integral, the closed-form optimal waist against the numeric optimizer,
the exact amplitude equations against the adiabatic envelope, and the
exact ensemble-mean far field against its Monte-Carlo estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .emission_dynamics import PulseShape, adiabatic_beta, integrate_amplitudes
from .ensemble_model import PHASE_VARIANTS, UNIFORM, CloudGeometry, make_profile
from .far_field import direction_grid, sampled_structure_factor, structure_factor
from .overlap_engine import compute_xi, small_cloud_factors, xi_brute_force
from .waist_optimizer import optimal_waist_analytic, optimal_waist_numeric

__all__ = [
    "ValidationReport",
    "sample_overlap_triples",
    "sample_small_cloud_points",
    "validate_overlap",
    "validate_optimum",
    "validate_dynamics",
    "validate_far_field",
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


def _discriminant(sp: float, sz: float) -> float:
    return sp ** 8 + 22.0 * sp ** 4 * sz ** 2 - 4.0 * sz ** 4


def validate_overlap(trials: int = 10, tol: float = 1e-6, seed: int = 20240817) -> ValidationReport:
    """Closed forms and 1-d quadratures vs the brute-force overlap oracle."""
    report = ValidationReport("overlap")
    worst = dict.fromkeys(PHASE_VARIANTS, 0.0)
    for sp, sz, w0 in sample_overlap_triples(trials, seed):
        cloud = CloudGeometry(sp, sz)
        for name in PHASE_VARIANTS:
            fast = compute_xi(cloud, w0, name)
            oracle = xi_brute_force(cloud, w0, make_profile(name, w0))
            rel = abs(fast.xi_abs_sq - oracle.xi_abs_sq) / oracle.xi_abs_sq
            worst[name] = max(worst[name], rel)
    for name in PHASE_VARIANTS:
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


def _lobe_angles(sp: float, sz: float, exponents) -> np.ndarray:
    """Polar angles where the uniform pattern ``exp(-q_perp^2 sp^2 - q_z^2 sz^2)``
    falls to ``exp(-c)``, one per ``c`` of ``exponents``, in the small-angle
    form ``theta^2 sp^2 + theta^4 sz^2 / 4 = c``."""
    c = np.asarray(exponents, dtype=float)
    return np.sqrt(2.0 * c / (sp * sp + np.sqrt(sp ** 4 + c * sz * sz)))


# atoms per Monte-Carlo pattern of the far-field check: 3 patterns x 4
# directions x 4000 atoms = 5e4 phasors keep it under 10 ms
_FAR_FIELD_ATOMS = 4000


def validate_far_field(seed: int = 20240819) -> ValidationReport:
    """Exact ensemble-mean pattern vs the Monte-Carlo pattern of
    ``_FAR_FIELD_ATOMS`` atoms.

    One seeded cloud of the preset box per phase, with a waist within a
    factor 2 of ``sqrt(2) sigma_perp``, and four directions inside the
    coherent lobe, where the pattern stands well above the incoherent
    floor.  The sampled ``S`` must lie within 4 standard errors of the
    exact ``|E|^2 + (1 - |E|^2) / N``.
    """
    report = ValidationReport("farfield")
    rng = np.random.default_rng(seed)
    n = len(PHASE_VARIANTS)
    clouds = zip(50.0 ** rng.random(n), 1000.0 ** rng.random(n), rng.uniform(-1.0, 1.0, n))
    for name, (sp, sz, stretch) in zip(PHASE_VARIANTS, clouds):
        cloud = CloudGeometry(sp, sz)
        w0 = max(2.0, 2.0 ** stretch * np.sqrt(2.0) * sp)
        profile = make_profile(name, w0)
        # no forward direction: both patterns stay unnormalized
        directions = direction_grid(_lobe_angles(sp, sz, (0.1, 0.5, 1.5, 3.0)), [0.0])
        exact = structure_factor(cloud, profile, _FAR_FIELD_ATOMS, directions).intensity
        sampled = sampled_structure_factor(cloud, profile, _FAR_FIELD_ATOMS, seed, directions)
        worst = float(np.max(np.abs(sampled.intensity - exact) / sampled.stderr))
        report.check(
            f"{name} S vs {_FAR_FIELD_ATOMS}-atom Monte Carlo at 4 directions",
            worst <= 4.0,
            f"worst |z| {worst:.2f}, bound 4; sp={sp:.3g} sz={sz:.3g} w0={w0:.3g}",
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
    if suite == "farfield":
        return [validate_far_field(seed)]
    if suite == "all":
        return [
            validate_overlap(trials, tol, seed),
            validate_optimum(trials, tol, seed),
            validate_dynamics(tol),
            validate_far_field(seed),
        ]
    raise ValueError(f"unknown validation suite {suite!r}")
