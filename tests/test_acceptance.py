"""End-to-end acceptance criteria.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest -s`` to see them on success) and enforces the stated tolerance
and runtime budget.
"""

import math
import time

import numpy as np
import pytest

from gausscollect.emission_dynamics import (
    PulseShape,
    adiabatic_beta,
    integrate_amplitudes,
    photon_number,
    single_atom_collected,
)
from gausscollect.ensemble_model import (
    FULL_GAUSSIAN,
    GOUY_COMPENSATED,
    UNIFORM,
    CloudGeometry,
    make_profile,
)
from gausscollect.far_field import DirectionGrid, sampled_structure_factor
from gausscollect.overlap_engine import compute_xi, small_cloud_factors, xi_brute_force
from gausscollect.cli import main
from gausscollect.validation import sample_overlap_triples, sample_small_cloud_points
from gausscollect.waist_optimizer import (
    default_bracket,
    maximize_rows,
    optimal_waist_analytic,
    optimal_waist_numeric,
)


def _report(number: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)


def test_criterion_1_pancake_limit_optimum():
    t0 = time.monotonic()
    failures = []
    for sp in (1.0, 2.0, 5.0, 10.0):
        cloud = CloudGeometry(sp, 1e-3)
        w_ref = math.sqrt(2.0) * sp
        g_ref = 3.0 / (4.0 * sp * sp)
        for variant in (UNIFORM, GOUY_COMPENSATED, FULL_GAUSSIAN):
            rec = optimal_waist_numeric(cloud, variant, tol=1e-8)
            dw = abs(rec.w0_max_bar - w_ref) / w_ref
            dg = abs(rec.g_max - g_ref) / g_ref
            if dw > 1e-3 or dg > 1e-3:
                failures.append(f"sp={sp} {variant}: dw={dw:.2e} dg={dg:.2e}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 10.0
    _report(1, "pancake-limit optimum", ok, f"{elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 10.0


def test_criterion_2_closed_form_oracle_equivalence():
    t0 = time.monotonic()
    triples = sample_overlap_triples(50)
    worst = {UNIFORM: 0.0, GOUY_COMPENSATED: 0.0, FULL_GAUSSIAN: 0.0}
    for sp, sz, w0 in triples:
        cloud = CloudGeometry(sp, sz)
        for variant in worst:
            fast = compute_xi(cloud, w0, variant)
            oracle = xi_brute_force(cloud, w0, make_profile(variant, w0))
            rel = abs(fast.xi_abs_sq - oracle.xi_abs_sq) / oracle.xi_abs_sq
            worst[variant] = max(worst[variant], rel)
    elapsed = time.monotonic() - t0
    ok = all(v <= 1e-6 for v in worst.values()) and elapsed < 300.0
    detail = ", ".join(f"{k}: {v:.2e}" for k, v in worst.items())
    _report(2, "closed form vs brute-force oracle", ok, f"{detail}; {elapsed:.1f}s")
    assert all(v <= 1e-6 for v in worst.values()), worst
    assert elapsed < 300.0


def test_criterion_3_analytic_optimum():
    t0 = time.monotonic()
    points = sample_small_cloud_points(50)
    n_negative = 0
    worst = 0.0
    for sp, sz in points:
        if sp**8 + 22.0 * sp**4 * sz**2 - 4.0 * sz**4 < 0.0:
            n_negative += 1
        cloud = CloudGeometry(sp, sz)
        analytic = optimal_waist_analytic(cloud)
        lo, hi = default_bracket(cloud)
        (numeric,), _, _, (exc,) = maximize_rows(
            lambda W, cells: small_cloud_factors(cloud, W), [lo], [hi], tol=1e-10)
        assert exc is None
        worst = max(worst, abs(analytic.w0_max_bar - numeric) / analytic.w0_max_bar)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and n_negative >= 10 and elapsed < 30.0
    _report(3, "closed-form optimal waist", ok,
            f"worst {worst:.2e}, {n_negative} complex-branch points; {elapsed:.1f}s")
    assert worst <= 1e-6
    assert n_negative >= 10
    assert elapsed < 30.0


def test_criterion_4_efficiency_thresholds():
    t0 = time.monotonic()
    n_atoms = 1000
    failures = []

    gn_5_100 = n_atoms * optimal_waist_numeric(CloudGeometry(5.0, 100.0), UNIFORM).g_max
    if not gn_5_100 >= 5.0:
        failures.append(f"uniform (5,100): G*N={gn_5_100:.2f} < 5")

    gn_10_200 = n_atoms * optimal_waist_numeric(CloudGeometry(10.0, 200.0), UNIFORM).g_max
    if not 2.5 <= gn_10_200 <= 10.0:
        failures.append(f"uniform (10,200): G*N={gn_10_200:.2f} outside [2.5, 10]")

    gn_gouy = n_atoms * optimal_waist_numeric(CloudGeometry(5.0, 300.0), GOUY_COMPENSATED).g_max
    if not gn_gouy >= 5.0:
        failures.append(f"gouy (5,300): G*N={gn_gouy:.2f} < 5")

    # constructive interference: for clouds much longer than the Rayleigh
    # range of the width-matched collection beam (sz >= 10 zeta with
    # zeta = sp^2), the Gouy-compensated overlap beats the uniform one in
    # that same mode.  At any profile's own optimal waist the Rayleigh
    # range tracks the cloud length, so the elongation qualifier can only
    # refer to the width-matched beam.
    compared = 0
    for sp in (2.0, 5.0):
        w_star = math.sqrt(2.0) * sp
        for sz in (100.0, 200.0, 300.0, 500.0):
            if sz < 10.0 * sp * sp:
                continue
            compared += 1
            cloud = CloudGeometry(sp, sz)
            gouy = compute_xi(cloud, w_star, GOUY_COMPENSATED).xi_abs_sq
            uni = compute_xi(cloud, w_star, UNIFORM).xi_abs_sq
            if not gouy >= uni:
                failures.append(f"(sp={sp}, sz={sz}) w={w_star:.2f}: gouy {gouy:.4f} < uniform {uni:.4f}")
    if compared == 0:
        failures.append("no elongated cells qualified for the interference check")

    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    _report(4, "collection-efficiency thresholds", ok,
            f"G*N(5,100)={gn_5_100:.1f}, G*N(10,200)={gn_10_200:.1f}, "
            f"gouy G*N(5,300)={gn_gouy:.1f}, {compared} interference cells; {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 120.0


def test_criterion_5_waist_ratio_plateau():
    failures = []
    for sp in (20.0, 30.0, 50.0):
        for sz in (10.0, 100.0, 1000.0):
            rec = optimal_waist_numeric(CloudGeometry(sp, sz), UNIFORM)
            ratio = rec.w0_max_bar / (math.sqrt(2.0) * sp)
            if abs(ratio - 1.0) > 0.05:
                failures.append(f"(sp={sp:g}, sz={sz:g}): ratio={ratio:.4f}")
    _report(5, "waist-ratio plateau within 5%", not failures,
            "; ".join(failures) if failures else "all 9 cells within 5%")
    assert not failures, (
        "these cells genuinely optimize away from the width-matched waist "
        "(optimum verified against an exhaustive scan of the oracle-validated "
        "closed form, see notes/decisions ledger): " + "; ".join(failures)
    )


def test_criterion_6_emission_normalization():
    t0 = time.monotonic()
    pulse = PulseShape.constant(0.05)
    t = np.linspace(0.0, 2000.0, 2001)
    curve = adiabatic_beta(pulse, t)
    b_end_dev = abs(curve.big_b[-1] - 1.0)

    n_atoms = 1000
    emission = photon_number(CloudGeometry(5.0, 100.0), UNIFORM, 10.0, pulse, t, n_atoms)
    g_n = emission.g_factor * n_atoms
    n_dev = abs(emission.n[-1] - g_n) / g_n

    traj = integrate_amplitudes(pulse, 0.0, 500.0, 0.01)
    beta_ref = 2.0 * 0.05 * np.exp(-2.0 * 0.05**2 * traj.times)
    mask = traj.times >= 10.0
    ode_dev = float(np.max(
        np.abs(np.abs(traj.b_values[mask]) - beta_ref[mask]) / beta_ref[mask]
    ))

    decay = integrate_amplitudes(PulseShape.constant(0.0), 0.0, 20.0, 0.01, c0=0.0, b0=1.0)
    decay_dev = float(np.max(np.abs(np.abs(decay.b_values) ** 2 - np.exp(-decay.times))))

    elapsed = time.monotonic() - t0
    ok = (b_end_dev <= 1e-6 and n_dev <= 1e-6 and ode_dev <= 0.05
          and decay_dev <= 1e-8 and elapsed < 10.0)
    _report(6, "emission normalization", ok,
            f"|B-1|={b_end_dev:.1e}, n/GN dev={n_dev:.1e}, ode dev={ode_dev:.3f}, "
            f"decay dev={decay_dev:.1e}; {elapsed:.1f}s")
    assert b_end_dev <= 1e-6
    assert n_dev <= 1e-6
    assert ode_dev <= 0.05
    assert decay_dev <= 1e-8
    assert elapsed < 10.0


def test_criterion_7_single_emitter_collection():
    t = np.linspace(0.0, 40.0, 8001)
    from gausscollect.emission_dynamics import AmplitudeTrajectory

    analytic = AmplitudeTrajectory(
        times=t,
        c_values=np.zeros_like(t, dtype=complex),
        b_values=np.exp(-0.5 * t).astype(complex),
    )
    formula = single_atom_collected(10.0, analytic)
    numeric = single_atom_collected(
        10.0,
        integrate_amplitudes(PulseShape.constant(0.0), 0.0, 40.0, 0.005, c0=0.0, b0=1.0),
    )
    f_dev = abs(formula - 0.06) / 0.06
    n_dev = abs(numeric - 0.06) / 0.06
    ok = f_dev <= 1e-6 and n_dev <= 1e-4
    _report(7, "single-emitter collected fraction", ok,
            f"formula dev {f_dev:.1e}, numeric dev {n_dev:.1e}")
    assert f_dev <= 1e-6
    assert n_dev <= 1e-4


def test_criterion_8_far_field_coherence():
    t0 = time.monotonic()
    sp, sz = 5.0, 50.0
    theta_star = 0.5 / sp
    grid = sampled_structure_factor(
        CloudGeometry(sp, sz), make_profile(UNIFORM), 100_000, 42,
        DirectionGrid([0.0, theta_star], [0.0]),
    )
    forward_exact = grid.intensity[0, 0] == 1.0
    oracle = math.exp(-(math.sin(theta_star) * sp) ** 2 - ((1 - math.cos(theta_star)) * sz) ** 2)
    z_score = abs(grid.intensity[1, 0] - oracle) / grid.stderr[1, 0]

    backward = sampled_structure_factor(
        CloudGeometry(5.0, 100.0), make_profile(UNIFORM), 100_000, 11,
        DirectionGrid([0.0, math.pi], [0.0]),
    ).intensity[1, 0]

    elapsed = time.monotonic() - t0
    ok = forward_exact and z_score <= 3.0 and backward < 1e-3 and elapsed < 60.0
    _report(8, "far-field coherence", ok,
            f"S(0)={grid.intensity[0, 0]}, z={z_score:.2f}, S(pi)={backward:.1e}; {elapsed:.1f}s")
    assert forward_exact
    assert z_score <= 3.0
    assert backward < 1e-3
    assert elapsed < 60.0


def test_criterion_9_deterministic_outputs(tmp_path):
    args = [
        "sweep", "--grid-perp", "2:8:3", "--grid-z", "20:200:3",
        "--phase", "gouy",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    _report(9, "byte-identical repeated runs", identical)
    assert identical
