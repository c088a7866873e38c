import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gausscollect.emission_dynamics import (
    AmplitudeTrajectory,
    EmissionCurve,
    PulseShape,
    adiabatic_beta,
    integrate_amplitudes,
    photon_number,
    single_atom_collected,
)
from gausscollect.ensemble_model import CloudGeometry, UNIFORM
from gausscollect.overlap_engine import compute_xi


@pytest.fixture
def weak_pulse():
    return PulseShape.constant(0.05)


@pytest.fixture
def long_grid():
    return np.linspace(0.0, 2000.0, 2001)


class TestPulseShape:
    def test_validation(self):
        with pytest.raises(ValueError):
            PulseShape("constant", -1.0)
        with pytest.raises(ValueError):
            PulseShape.gaussian(0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            PulseShape("chirped", 0.1)

    def test_rejects_overflowing_pump_integral(self):
        # amplitude^2 (times the width of a Gaussian pulse) would overflow
        # into an infinite or NaN pump integral
        with pytest.raises(ValueError, match="too large"):
            PulseShape.constant(1e200)
        with pytest.raises(ValueError, match="too large"):
            PulseShape.gaussian(1e154, 50.0, 10.0)
        pump = PulseShape.constant(1e154).pump_integral(np.array([0.0, 1.0]))
        assert np.isfinite(pump).all()

    def test_strong_drive_warns(self):
        with pytest.warns(UserWarning) as record:
            PulseShape.constant(0.5)
            PulseShape.gaussian(0.3, 50.0, 10.0)
            PulseShape("constant", 0.3)
        # each warning names the constructing line, not the generated
        # __init__ or the factory
        assert [w.filename for w in record] == [__file__] * 3

    def test_constant_pump_integral(self):
        pulse = PulseShape.constant(0.1)
        assert pulse.pump_integral(30.0) == pytest.approx(0.3, rel=1e-14)

    def test_gaussian_pump_integral_against_quadrature(self):
        pulse = PulseShape.gaussian(0.08, 40.0, 12.0)
        t = np.linspace(0.0, 100.0, 20001)
        num = np.trapezoid(pulse.rabi(t) ** 2, t)
        assert pulse.pump_integral(100.0) == pytest.approx(num, rel=1e-7)

    def test_gaussian_pump_integral_before_the_pulse(self):
        # at t = 1 the pulse (center 50, width 10) has barely begun: the
        # erf form cancelled two terms near -1 and +1 there (1.7e-5 off)
        from scipy.integrate import quad

        pulse = PulseShape.gaussian(0.05, 50.0, 10.0)
        ref, _ = quad(lambda t: float(pulse.rabi(t)) ** 2, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)
        assert pulse.pump_integral(1.0) == pytest.approx(ref, rel=1e-12)
        assert pulse.pump_integral(0.0) == 0.0


class TestAdiabaticBeta:
    def test_initial_value(self, weak_pulse, long_grid):
        curve = adiabatic_beta(weak_pulse, long_grid)
        assert curve.beta[0] == pytest.approx(2.0 * 0.05, rel=1e-14)

    def test_complete_transfer_normalization(self, weak_pulse, long_grid):
        curve = adiabatic_beta(weak_pulse, long_grid)
        expect = 1.0 - math.exp(-4.0 * 0.05**2 * 2000.0)
        assert curve.big_b[-1] == pytest.approx(expect, abs=1e-8)
        assert curve.big_b[-1] == pytest.approx(1.0, abs=1e-6)

    def test_strong_gaussian_pulse_transfers_fully(self):
        with pytest.warns(UserWarning):
            pulse = PulseShape.gaussian(0.3, 100.0, 40.0)
        # total pumping integral ~ 2 * 0.09 * 71 >> 1
        curve = adiabatic_beta(pulse, np.linspace(0.0, 400.0, 2001))
        assert curve.big_b[-1] == pytest.approx(1.0, abs=1e-4)

    def test_big_b_monotone(self, weak_pulse, long_grid):
        curve = adiabatic_beta(weak_pulse, long_grid)
        assert np.all(np.diff(curve.big_b) >= 0.0)

    def test_rejects_bad_grid(self, weak_pulse):
        with pytest.raises(ValueError):
            adiabatic_beta(weak_pulse, [0.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            adiabatic_beta(weak_pulse, [-1.0, 1.0])

    @given(
        st.floats(min_value=0.02, max_value=0.15),
        st.floats(min_value=20.0, max_value=80.0),
        st.floats(min_value=5.0, max_value=30.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_big_b_bounded_and_monotone(self, amp, center, width):
        curve = adiabatic_beta(
            PulseShape.gaussian(amp, center, width), np.linspace(0.0, 300.0, 601)
        )
        assert np.all(np.diff(curve.big_b) >= -1e-15)
        assert curve.big_b[-1] <= 1.0 + 1e-9


def simpson_big_b_reference(pulse, t):
    """``B`` by refining composite Simpson, the quadrature the closed form
    replaced: ``m`` subintervals per grid interval, doubled from 2 to 64
    until the whole curve changes by at most 1e-8 of its end value."""

    def beta_sq(x):
        b = 2.0 * pulse.rabi(x) * np.exp(-2.0 * pulse.pump_integral(x))
        return b * b

    prev = None
    for m in (2, 4, 8, 16, 32, 64):
        frac = np.linspace(0.0, 1.0, m + 1)
        sub = t[:-1, None] + np.diff(t)[:, None] * frac[None, :]
        vals = beta_sq(sub.ravel()).reshape(sub.shape)
        h = np.diff(t) / m
        weights = np.ones(m + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        per_interval = (vals * weights[None, :]).sum(axis=1) * h / 3.0
        big_b = np.concatenate(([0.0], np.cumsum(per_interval)))
        if prev is not None:
            scale = max(abs(big_b[-1]), 1e-30)
            if np.max(np.abs(big_b - prev)) <= 1e-8 * scale:
                break
        prev = big_b
    return big_b


@given(
    st.booleans(),
    st.floats(min_value=0.01, max_value=0.15),
    st.floats(min_value=0.0, max_value=150.0),
    st.floats(min_value=5.0, max_value=40.0),
    st.floats(min_value=0.0, max_value=30.0),
    st.integers(min_value=100, max_value=2000),
)
@settings(max_examples=40, deadline=None)
def test_closed_form_big_b_matches_simpson(gaussian, amp, center, width, t0, n):
    # grids of at least 100 steps across the pumping time (20 / Omega^2
    # for a constant drive, up to 8 widths past a Gaussian pulse's
    # center), where the Simpson reference is itself accurate; grids may
    # start after t = 0, as B accumulates from the grid's first time
    if gaussian:
        pulse = PulseShape.gaussian(amp, center, width)
        t = np.linspace(t0, center + 8.0 * width, n + 1)
    else:
        pulse = PulseShape.constant(amp)
        t = np.linspace(t0, t0 + 20.0 / amp**2, n + 1)
    big_b = adiabatic_beta(pulse, t).big_b
    assert big_b[0] == 0.0
    assert np.max(np.abs(big_b - simpson_big_b_reference(pulse, t))) <= 1e-9
    assert np.all(np.diff(big_b) >= 0.0)
    assert big_b[-1] <= 1.0


class TestAmplitudeEquations:
    def test_pure_decay(self):
        traj = integrate_amplitudes(PulseShape.constant(0.0), 0.0, 20.0, 0.01, c0=0.0, b0=1.0)
        assert np.max(np.abs(np.abs(traj.b_values) ** 2 - np.exp(-traj.times))) < 1e-8

    def test_adiabatic_envelope_agreement(self, weak_pulse):
        traj = integrate_amplitudes(weak_pulse, 0.0, 500.0, 0.01)
        beta = 2.0 * 0.05 * np.exp(-2.0 * 0.05**2 * traj.times)
        mask = traj.times >= 10.0
        rel = np.abs(np.abs(traj.b_values[mask]) - beta[mask]) / beta[mask]
        assert np.max(rel) < 0.05

    def test_adiabatic_error_shrinks_with_drive(self):
        def max_rel(amp):
            pulse = PulseShape("constant", amp)
            traj = integrate_amplitudes(pulse, 0.0, 200.0, 0.01)
            beta = 2.0 * amp * np.exp(-2.0 * amp**2 * traj.times)
            mask = traj.times >= 10.0
            return np.max(np.abs(np.abs(traj.b_values[mask]) - beta[mask]) / beta[mask])

        assert max_rel(0.02) < max_rel(0.1)

    def test_norm_never_increases(self, weak_pulse):
        traj = integrate_amplitudes(weak_pulse, 0.0, 100.0, 0.01)
        norm = np.abs(traj.c_values) ** 2 + np.abs(traj.b_values) ** 2
        assert np.all(np.diff(norm) <= 1e-12)

    def test_conservative_limit(self, weak_pulse):
        traj = integrate_amplitudes(weak_pulse, 0.0, 100.0, 0.01, gamma=0.0)
        norm = np.abs(traj.c_values) ** 2 + np.abs(traj.b_values) ** 2
        assert np.max(np.abs(norm - 1.0)) < 1e-10

    def test_step_halving_converged(self, weak_pulse):
        a = integrate_amplitudes(weak_pulse, 0.0, 50.0, 0.02)
        b = integrate_amplitudes(weak_pulse, 0.0, 50.0, 0.01)
        assert abs(a.b_values[-1] - b.b_values[-1]) < 1e-8
        assert abs(a.c_values[-1] - b.c_values[-1]) < 1e-8

    def test_detuning_slows_transfer(self):
        on = integrate_amplitudes(PulseShape.constant(0.05), 0.0, 100.0, 0.01)
        off = integrate_amplitudes(PulseShape.constant(0.05), 2.0, 100.0, 0.01)
        assert abs(off.c_values[-1]) > abs(on.c_values[-1])

    def test_step_rejection(self, weak_pulse):
        with pytest.raises(ValueError):
            integrate_amplitudes(weak_pulse, 0.0, 10.0, 2.0)

    @pytest.mark.parametrize("name, args, kwargs", [
        ("t_end", (0.0, math.inf, 0.01), {}),
        ("t_end", (0.0, math.nan, 0.01), {}),
        ("step", (0.0, 10.0, math.nan), {}),
        ("step", (0.0, 10.0, -math.inf), {}),
        ("detuning", (math.nan, 10.0, 0.01), {}),
        ("detuning", (-math.inf, 10.0, 0.01), {}),
        ("gamma", (0.0, 10.0, 0.01), {"gamma": math.nan}),
        ("gamma", (0.0, 10.0, 0.01), {"gamma": math.inf}),
    ])
    def test_rejects_non_finite_inputs(self, weak_pulse, name, args, kwargs):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            integrate_amplitudes(weak_pulse, *args, **kwargs)

    @pytest.mark.parametrize("t_end, step", [(1e300, 1e-300), (1.7e308, 1e-10)])
    def test_rejects_an_overflowing_step_count(self, t_end, step):
        # both finite, but their ratio is not: no step count exists
        with pytest.raises(ValueError, match=r"t_end / step overflows: t_end = .*, step = "):
            integrate_amplitudes(PulseShape.constant(0.05), 0.0, t_end, step)


def propagator_loop_reference(pulse, detuning, t_end, step, c0=1.0, b0=0.0, gamma=1.0):
    """The stacked-propagator integrator the blocked scan replaced: every
    ``M_k`` from ``(n, 2, 2)`` matrix products, applied to the state one
    step at a time over Python complex scalars."""
    n_steps = int(math.ceil(t_end / step))
    h = t_end / n_steps
    times = np.linspace(0.0, t_end, n_steps + 1)
    t = times[:-1]

    def generator(s):
        omega = pulse.rabi(s)
        phase = np.exp(1j * detuning * s)
        a = np.zeros((s.size, 2, 2), dtype=complex)
        a[:, 0, 1] = 1j * omega * phase
        a[:, 1, 0] = 1j * omega / phase
        a[:, 1, 1] = -0.5 * gamma
        return a

    eye = np.eye(2)
    k1 = generator(t)
    a_mid = generator(t + 0.5 * h)
    k2 = a_mid @ (eye + 0.5 * h * k1)
    k3 = a_mid @ (eye + 0.5 * h * k2)
    k4 = generator(t + h) @ (eye + h * k3)
    propagators = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    y_c, y_b = complex(c0), complex(b0)
    c, b = [y_c], [y_b]
    for m00, m01, m10, m11 in zip(*propagators.reshape(n_steps, 4).T.tolist()):
        y_c, y_b = m00 * y_c + m01 * y_b, m10 * y_c + m11 * y_b
        c.append(y_c)
        b.append(y_b)
    return times, np.array(c), np.array(b)


@pytest.mark.parametrize("pulse, detuning, t_end, step, kwargs", [
    # the two grids of validate --suite dynamics
    (PulseShape.constant(0.05), 0.0, 500.0, 0.01, {}),
    (PulseShape.constant(0.0), 0.0, 20.0, 0.01, {"c0": 0.0, "b0": 1.0}),
    # block edges: isqrt(n) blocks of isqrt(n) steps plus a padded block,
    # a perfect square, and padding of one to isqrt(n) - 1 steps
    (PulseShape.constant(0.05), 0.3, 1.0, 0.1, {}),
    (PulseShape.gaussian(0.1, 0.5, 0.3), 0.3, 1.1, 0.1, {"c0": 0.6, "b0": 0.8j}),
    (PulseShape.gaussian(0.1, 10.0, 5.0), 0.5, 25.0, 0.01, {}),
    (PulseShape.gaussian(0.1, 10.0, 5.0), 0.5, 25.03, 0.01, {"c0": 0.6, "b0": 0.8j}),
    (PulseShape.constant(0.05), 2.0, 100.07, 0.01, {}),
    (PulseShape.constant(0.05), 0.0, 200.0, 0.01, {"gamma": 0.0}),
], ids=["validate_envelope", "validate_decay", "steps_10", "steps_11", "steps_2500",
        "steps_2503", "steps_10007", "conservative_20000"])
def test_blocked_scan_matches_propagator_loop(pulse, detuning, t_end, step, kwargs):
    traj = integrate_amplitudes(pulse, detuning, t_end, step, **kwargs)
    times, c, b = propagator_loop_reference(pulse, detuning, t_end, step, **kwargs)
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.c_values - c)) <= 1e-12
    assert np.max(np.abs(traj.b_values - b)) <= 1e-12


def rk4_loop_reference(pulse, detuning, t_end, step, c0=1.0, b0=0.0, gamma=1.0):
    """Per-step RK4 on the state vector, one scalar pulse call per stage."""
    n_steps = int(math.ceil(t_end / step))
    h = t_end / n_steps
    times = np.linspace(0.0, t_end, n_steps + 1)
    c = np.empty(n_steps + 1, dtype=complex)
    b = np.empty(n_steps + 1, dtype=complex)
    c[0], b[0] = complex(c0), complex(b0)

    def deriv(t, y):
        omega = float(pulse.rabi(t))
        phase = np.exp(1j * detuning * t)
        dc = 1j * omega * y[1] * phase
        db = -0.5 * gamma * y[1] + 1j * omega * y[0] / phase
        return np.array([dc, db])

    y = np.array([c[0], b[0]])
    for k in range(n_steps):
        t = times[k]
        k1 = deriv(t, y)
        k2 = deriv(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = deriv(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = deriv(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        c[k + 1], b[k + 1] = y
    return times, c, b


@pytest.mark.parametrize("pulse, detuning, t_end, step, kwargs", [
    (PulseShape.constant(0.05), 0.0, 200.0, 0.01, {}),
    (PulseShape.gaussian(0.05, 50.0, 10.0), 2.0, 150.0, 0.01, {}),
    (PulseShape.gaussian(0.1, 40.0, 15.0), 0.5, 100.0, 0.01, {"c0": 0.6, "b0": 0.8j}),
    (PulseShape.constant(0.05), 0.0, 100.0, 0.01, {"gamma": 0.0}),
    (PulseShape.constant(0.05), 0.3, 10.0, 0.03, {}),
], ids=["constant", "gaussian_detuned", "gaussian_mixed_start", "conservative",
        "non_integer_steps"])
def test_propagators_match_per_step_loop(pulse, detuning, t_end, step, kwargs):
    traj = integrate_amplitudes(pulse, detuning, t_end, step, **kwargs)
    times, c, b = rk4_loop_reference(pulse, detuning, t_end, step, **kwargs)
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.c_values - c)) <= 1e-12
    assert np.max(np.abs(traj.b_values - b)) <= 1e-12


class TestPhotonNumber:
    def test_starts_at_zero_and_monotone(self, weak_pulse, long_grid):
        cloud = CloudGeometry(5.0, 100.0)
        curve = photon_number(cloud, UNIFORM, 10.0, weak_pulse, long_grid, 50)
        assert curve.n[0] == 0.0
        assert np.all(np.diff(curve.n) >= 0.0)

    def test_pointwise_product_identity(self, weak_pulse, long_grid):
        cloud = CloudGeometry(5.0, 100.0)
        curve = photon_number(cloud, UNIFORM, 10.0, weak_pulse, long_grid, 50)
        expect = curve.g_factor * 50 * curve.big_b
        assert np.max(np.abs(curve.n - expect)) < 1e-12

    def test_saturation_value(self, weak_pulse, long_grid):
        cloud = CloudGeometry(5.0, 100.0)
        curve = photon_number(cloud, UNIFORM, 10.0, weak_pulse, long_grid, 1000)
        g = compute_xi(cloud, 10.0, UNIFORM).geometric_factor
        assert curve.n[-1] == pytest.approx(g * 1000.0, rel=2e-6)

    def test_threshold_example(self, weak_pulse, long_grid):
        from gausscollect.waist_optimizer import optimal_waist_numeric

        cloud = CloudGeometry(10.0, 200.0)
        rec = optimal_waist_numeric(cloud, UNIFORM)
        curve = photon_number(cloud, UNIFORM, rec.w0_max_bar, weak_pulse, long_grid, 1000)
        assert 2.5 <= curve.n[-1] <= 10.0

    def test_rejects_an_empty_cloud(self, weak_pulse, long_grid):
        with pytest.raises(ValueError, match="n_atoms"):
            photon_number(CloudGeometry(5.0, 100.0), UNIFORM, 10.0, weak_pulse, long_grid, 0)


class TestSingleAtomCollected:
    def test_formula_path(self):
        t = np.linspace(0.0, 40.0, 8001)
        traj = AmplitudeTrajectory(
            times=t,
            c_values=np.zeros_like(t, dtype=complex),
            b_values=np.exp(-0.5 * t).astype(complex),
        )
        assert single_atom_collected(10.0, traj) == pytest.approx(0.06, rel=1e-6)

    def test_numeric_path(self):
        traj = integrate_amplitudes(PulseShape.constant(0.0), 0.0, 40.0, 0.005, c0=0.0, b0=1.0)
        assert single_atom_collected(10.0, traj) == pytest.approx(0.06, rel=1e-4)

    def test_dark_trajectory(self):
        t = np.linspace(0.0, 5.0, 100)
        traj = AmplitudeTrajectory(t, np.ones_like(t, dtype=complex), np.zeros_like(t, dtype=complex))
        assert single_atom_collected(4.0, traj) == 0.0

    def test_cross_module_consistency(self, weak_pulse):
        # weak drive, point emitter: exact amplitudes vs adiabatic envelope
        traj = integrate_amplitudes(weak_pulse, 0.0, 1500.0, 0.01)
        collected = single_atom_collected(10.0, traj)
        adiabatic = (6.0 / 100.0) * adiabatic_beta(
            weak_pulse, np.linspace(0.0, 1500.0, 1501)
        ).big_b[-1]
        assert collected == pytest.approx(adiabatic, rel=0.10)

    def test_rejects_bad_waist(self):
        t = np.linspace(0.0, 5.0, 50)
        traj = AmplitudeTrajectory(t, np.zeros_like(t, dtype=complex), np.zeros_like(t, dtype=complex))
        with pytest.raises(ValueError):
            single_atom_collected(0.0, traj)
