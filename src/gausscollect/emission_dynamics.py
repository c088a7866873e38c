"""Temporal envelope of the stimulated Raman photon emission.

Times are in units of the inverse spontaneous decay rate and Rabi
frequencies in units of the decay rate, so the dynamics depend only on
those ratios.  The weak-drive envelope ``beta(t) = 2 Omega(t) *
exp(-2 integral |Omega|^2 dt')`` comes from adiabatically eliminating
the fast-decaying excited state; its accumulated square ``B(t)`` carries
the photon-number time dependence, and the emitted photon number is
``n(t) = G * N * B(t)`` with the per-atom collection efficiency ``G``.

The exact two-amplitude equations are linear, ``y' = A(t) y``, so one
classical RK4 step is a 2x2 propagator ``y <- M_k y``.  All propagators
are built at once from vectorized pulse evaluations and then applied in
order; this integrator validates the adiabatic envelope and feeds the
single-emitter collected fraction ``(6 / w0^2) integral |b|^2 dt``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ensemble_model import CloudGeometry
from .overlap_engine import OverlapResult, compute_xi

__all__ = [
    "PulseShape",
    "AmplitudeTrajectory",
    "EmissionCurve",
    "adiabatic_beta",
    "check_time_grid",
    "integrate_amplitudes",
    "photon_number",
    "single_atom_collected",
]


@dataclass(frozen=True)
class PulseShape:
    """Drive pulse Omega(t); amplitude in decay-rate units."""

    variant: str
    amplitude: float = 0.0
    center: float = 0.0
    width: float = 1.0
    samples: tuple | None = None

    def __post_init__(self):
        if self.variant not in ("constant", "gaussian_pulse", "sampled"):
            raise ValueError(f"unknown pulse variant {self.variant!r}")
        if self.amplitude < 0.0:
            raise ValueError("pulse amplitude must be non-negative")
        if self.variant == "gaussian_pulse" and self.width <= 0.0:
            raise ValueError("gaussian pulse width must be positive")
        if self.variant == "sampled":
            if self.samples is None:
                raise ValueError("sampled pulse needs (times, values)")
            t, v = (np.asarray(a, dtype=float) for a in self.samples)
            if t.ndim != 1 or t.shape != v.shape or t.size < 2:
                raise ValueError("sampled pulse needs matching 1-d times/values")
            if np.any(np.diff(t) <= 0.0):
                raise ValueError("sampled pulse grid must be strictly increasing")
            t.setflags(write=False)
            v.setflags(write=False)
            object.__setattr__(self, "samples", (t, v))
        if self.amplitude > 0.2:
            warnings.warn(
                f"Rabi amplitude {self.amplitude} is not small against the decay "
                "rate; the adiabatic envelope is only qualitative there",
                UserWarning,
                stacklevel=2,
            )

    @classmethod
    def constant(cls, amplitude: float) -> "PulseShape":
        return cls("constant", amplitude)

    @classmethod
    def gaussian(cls, amplitude: float, center: float, width: float) -> "PulseShape":
        return cls("gaussian_pulse", amplitude, center, width)

    @classmethod
    def sampled(cls, times, values) -> "PulseShape":
        return cls("sampled", 0.0, samples=(times, values))

    def rabi(self, t):
        """Omega(t), vectorized."""
        t = np.asarray(t, dtype=float)
        if self.variant == "constant":
            return np.full_like(t, self.amplitude)
        if self.variant == "gaussian_pulse":
            u = (t - self.center) / self.width
            return self.amplitude * np.exp(-0.5 * u * u)
        times, values = self.samples
        return np.interp(t, times, values, left=0.0, right=0.0)

    def pump_integral(self, t):
        """``integral_0^t |Omega|^2 dt'``, vectorized.

        Closed forms for the constant and Gaussian variants; cumulative
        trapezoid on a dense grid for sampled pulses.
        """
        t = np.asarray(t, dtype=float)
        if self.variant == "constant":
            return self.amplitude ** 2 * t
        if self.variant == "gaussian_pulse":
            from scipy.special import erf
            # |Omega|^2 is Gaussian with std width/sqrt(2)
            amp2 = self.amplitude ** 2
            tau = self.width
            pref = amp2 * tau * math.sqrt(math.pi) / 2.0
            return pref * (erf((t - self.center) / tau) + erf(self.center / tau))
        times, values = self.samples
        dense = np.linspace(times[0], times[-1], 8 * times.size)
        v2 = np.interp(dense, times, values) ** 2
        cumulative = np.concatenate(
            ([0.0], np.cumsum(0.5 * (v2[1:] + v2[:-1]) * np.diff(dense)))
        )
        return np.interp(t, dense, cumulative, left=0.0, right=cumulative[-1])


@dataclass(frozen=True)
class AmplitudeTrajectory:
    """Storage- and excited-state amplitudes on a uniform time grid."""

    times: np.ndarray
    c_values: np.ndarray
    b_values: np.ndarray


@dataclass(frozen=True)
class EmissionCurve:
    """Emission envelope samples: beta, its accumulated square, photon number."""

    times: np.ndarray
    beta: np.ndarray
    big_b: np.ndarray
    n: np.ndarray | None = None
    g_factor: float | None = None
    n_atoms: int | None = None
    overlap: OverlapResult | None = None


def check_time_grid(t_grid) -> np.ndarray:
    """``t_grid`` as a float array; ``ValueError`` unless it is 1-d, strictly
    increasing from ``t >= 0`` and has at least two points."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("time grid must be 1-d with at least two points")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("time grid must be strictly increasing")
    if t[0] < 0.0:
        raise ValueError("time grid must start at t >= 0")
    return t


def adiabatic_beta(pulse: PulseShape, t_grid) -> EmissionCurve:
    """Weak-drive emission envelope and its accumulated square.

    ``beta`` is evaluated pointwise from the pulse's pump integral;
    ``B(t) = integral_0^t beta^2`` is accumulated by composite Simpson
    between grid points, with the per-interval subdivision refined until
    the endpoint value is stable to 1e-8 relative.
    """
    t = check_time_grid(t_grid)

    def beta_sq(x):
        b = 2.0 * pulse.rabi(x) * np.exp(-2.0 * pulse.pump_integral(x))
        return b * b

    beta = 2.0 * pulse.rabi(t) * np.exp(-2.0 * pulse.pump_integral(t))

    prev = None
    for m in (2, 4, 8, 16, 32, 64):
        # m Simpson subintervals per grid interval, all intervals at once
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
    return EmissionCurve(times=t, beta=beta, big_b=big_b)


def integrate_amplitudes(
    pulse: PulseShape,
    detuning: float,
    t_end: float,
    step: float,
    *,
    c0: complex = 1.0,
    b0: complex = 0.0,
    gamma: float = 1.0,
) -> AmplitudeTrajectory:
    """Fixed-step RK4 integration of the two-amplitude equations.

    ``dc/dt = i Omega* b e^{+i detuning t}``,
    ``db/dt = -gamma/2 b + i Omega c e^{-i detuning t}``; ``gamma`` is 1
    in decay-rate units and exists so the conservative limit can be
    integrated for validation.  Halving the step must change results
    below 1e-8 for the step to be trusted (property checked in tests).

    The equations are linear, ``y' = A(t) y``, so the RK4 step from
    ``t_k`` is ``y <- M_k y`` with ``K1 = A(t_k)``,
    ``K2 = A(t_k + h/2) (I + h/2 K1)``, ``K3 = A(t_k + h/2) (I + h/2 K2)``,
    ``K4 = A(t_k + h) (I + h K3)`` and
    ``M_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4)``.  Every ``M_k`` is built
    from three vectorized pulse evaluations; only the ordered product
    with the state runs step by step, over Python complex scalars.  The
    grid takes ``ceil(t_end / step)`` equal steps ending at ``t_end``.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if step <= 0.0:
        raise ValueError("step must be positive")
    if step > t_end / 10.0:
        raise ValueError(f"step {step} too coarse for t_end {t_end} (need <= t_end/10)")

    n_steps = int(math.ceil(t_end / step))
    h = t_end / n_steps
    times = np.linspace(0.0, t_end, n_steps + 1)
    t = times[:-1]

    def generator(s):
        # A(s) for every time in s, shape (s.size, 2, 2)
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
    return AmplitudeTrajectory(
        times=times, c_values=np.array(c, dtype=complex), b_values=np.array(b, dtype=complex)
    )


def photon_number(
    cloud: CloudGeometry,
    profile: str,
    w0_bar: float,
    pulse: PulseShape,
    t_grid,
) -> EmissionCurve:
    """Photon number collected into the forward Gaussian modes vs time.

    ``n(t) = G N B(t)``: the overlap evaluator selected by the phase
    variant supplies ``G``, the adiabatic envelope supplies ``B``.  The
    value saturates at ``G N`` once the drive has fully pumped out the
    stored excitation; it is reported as-is even above 1 (it is a
    collection figure of merit, not a probability).
    """
    overlap = compute_xi(cloud, w0_bar, profile)
    curve = adiabatic_beta(pulse, t_grid)
    n = overlap.geometric_factor * cloud.n_atoms * curve.big_b
    return EmissionCurve(
        times=curve.times,
        beta=curve.beta,
        big_b=curve.big_b,
        n=n,
        g_factor=overlap.geometric_factor,
        n_atoms=cloud.n_atoms,
        overlap=overlap,
    )


def single_atom_collected(w0_bar: float, trajectory: AmplitudeTrajectory) -> float:
    """Collected fraction ``(6 / w0^2) integral |b|^2 dt`` for one emitter.

    The prefactor is the resonant absorption cross-section over the
    focal-spot area in wavenumber-scaled units.
    """
    # imported here: no CLI path calls this, and importing scipy.integrate
    # at module level would slow every CLI start
    from scipy.integrate import simpson

    if w0_bar <= 0.0:
        raise ValueError(f"w0_bar must be positive, got {w0_bar!r}")
    emitted = simpson(np.abs(trajectory.b_values) ** 2, x=trajectory.times)
    return 6.0 / (w0_bar * w0_bar) * float(emitted)
