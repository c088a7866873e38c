"""Temporal envelope of the stimulated Raman photon emission.

Times are in units of the inverse spontaneous decay rate and Rabi
frequencies in units of the decay rate, so the dynamics depend only on
those ratios.  The weak-drive envelope ``beta(t) = 2 Omega(t) *
exp(-2 integral |Omega|^2 dt')`` comes from adiabatically eliminating
the fast-decaying excited state; its accumulated square
``B(t) = 1 - exp(-4 integral |Omega|^2 dt')``, exact from the pump
integral, carries the photon-number time dependence, and the emitted
photon number is ``n(t) = G * N * B(t)`` with the per-atom collection
efficiency ``G``.

The exact two-amplitude equations are linear, ``y' = A(t) y``, so one
classical RK4 step is a 2x2 propagator ``y <- M_k y``.  All propagators
are built at once, componentwise, from vectorized pulse evaluations and
then applied by a two-level blocked scan over ``sqrt(n)``-step blocks;
this integrator validates the adiabatic envelope and feeds the
single-emitter collected fraction ``(6 / w0^2) integral |b|^2 dt``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ensemble_model import CloudGeometry
from .overlap_engine import compute_xi
from .paraxial_beam import stacklevel_outside

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
    """Drive pulse Omega(t), constant or Gaussian; amplitude in decay-rate units."""

    variant: str
    amplitude: float = 0.0
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if self.variant not in ("constant", "gaussian_pulse"):
            raise ValueError(f"unknown pulse variant {self.variant!r}")
        if self.amplitude < 0.0:
            raise ValueError("pulse amplitude must be non-negative")
        if self.variant == "gaussian_pulse" and self.width <= 0.0:
            raise ValueError("gaussian pulse width must be positive")
        # the pump integral scales as amplitude^2, times the width of a Gaussian pulse
        span = self.width if self.variant == "gaussian_pulse" else 1.0
        if math.isinf(self.amplitude * self.amplitude * span):
            raise ValueError(f"pulse amplitude {self.amplitude} is too large: "
                             "its pump integral overflows")
        if self.amplitude > 0.2:
            warnings.warn(
                f"Rabi amplitude {self.amplitude} is not small against the decay "
                "rate; the adiabatic envelope is only qualitative there",
                UserWarning,
                # past the generated __init__ and the constant/gaussian factories
                stacklevel=stacklevel_outside(__name__),
            )

    @classmethod
    def constant(cls, amplitude: float) -> "PulseShape":
        return cls("constant", amplitude)

    @classmethod
    def gaussian(cls, amplitude: float, center: float, width: float) -> "PulseShape":
        return cls("gaussian_pulse", amplitude, center, width)

    def rabi(self, t):
        """Omega(t), vectorized."""
        t = np.asarray(t, dtype=float)
        if self.variant == "constant":
            return np.full_like(t, self.amplitude)
        u = (t - self.center) / self.width
        return self.amplitude * np.exp(-0.5 * u * u)

    def pump_integral(self, t):
        """``integral_0^t |Omega|^2 dt'``, vectorized, in closed form."""
        t = np.asarray(t, dtype=float)
        if self.variant == "constant":
            return self.amplitude ** 2 * t
        from scipy.special import erfc
        # |Omega|^2 is Gaussian with std width/sqrt(2); the integral
        # pref * (erf(u) + erf(c / tau)) is written with erfc so that
        # its two terms do not cancel before the pulse arrives
        amp2 = self.amplitude ** 2
        tau = self.width
        pref = amp2 * tau * math.sqrt(math.pi) / 2.0
        u = (t - self.center) / tau
        return pref * (erfc(-u) - erfc(self.center / tau))


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

    With ``P(t)`` the pulse's pump integral, ``beta = 2 Omega exp(-2P)``
    and ``beta^2 = 4 Omega^2 exp(-4P) = d/dt[-exp(-4P)]``, so ``B``,
    accumulated from the grid's first time ``t0``, is exact:
    ``B(t) = exp(-4P(t0)) - exp(-4P(t))``, which is ``1 - exp(-4P(t))``
    on a grid starting at ``t0 = 0`` where ``P(0) = 0``.
    """
    t = check_time_grid(t_grid)
    pump = pulse.pump_integral(t)
    beta = 2.0 * pulse.rabi(t) * np.exp(-2.0 * pump)
    big_b = np.expm1(-4.0 * pump[0]) - np.expm1(-4.0 * pump)
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
    componentwise from three vectorized pulse evaluations.  They are
    applied by a two-level scan: the steps fall into blocks of
    ``L = isqrt(n_steps)``, the prefix products inside every block are
    formed at once (``L`` array steps), the block-start states follow in
    sequence, and every state is one prefix product times its block's
    start state.  That is O(n) work in O(sqrt n) array operations.  The
    grid takes ``ceil(t_end / step)`` equal steps ending at ``t_end``.
    """
    for name, value in (("t_end", t_end), ("step", step), ("detuning", detuning),
                        ("gamma", gamma)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if step <= 0.0:
        raise ValueError("step must be positive")
    if step > t_end / 10.0:
        raise ValueError(f"step {step} too coarse for t_end {t_end} (need <= t_end/10)")

    ratio = t_end / step
    if not math.isfinite(ratio):
        raise ValueError(f"t_end / step overflows: t_end = {t_end!r}, step = {step!r}")
    n_steps = int(math.ceil(ratio))
    h = t_end / n_steps
    times = np.linspace(0.0, t_end, n_steps + 1)
    t = times[:-1]

    def generator(s):
        # A(s) = [[0, u], [v, -gamma/2]] for every time in s, as components
        omega = pulse.rabi(s)
        phase = np.exp(1j * detuning * s)
        return 0.0, 1j * omega * phase, 1j * omega / phase, -0.5 * gamma

    def step_from(scale, k):
        # I + scale K
        return 1.0 + scale * k[0], scale * k[1], scale * k[2], 1.0 + scale * k[3]

    k1 = generator(t)
    a_mid = generator(t + 0.5 * h)
    k2 = _mat_mul(a_mid, step_from(0.5 * h, k1))
    k3 = _mat_mul(a_mid, step_from(0.5 * h, k2))
    k4 = _mat_mul(generator(t + h), step_from(h, k3))
    propagators = step_from(h / 6.0, [a + 2.0 * b + 2.0 * c + d
                                      for a, b, c, d in zip(k1, k2, k3, k4)])

    # blocks of L steps, padded to B whole blocks (the padded steps come
    # after the last state and are dropped) and laid out (L, B), so that
    # step j of every block is one row; row j is then overwritten, in
    # order, by the product of the block's first j + 1 propagators
    size = math.isqrt(n_steps)
    blocks = -(-n_steps // size)
    pad = blocks * size - n_steps
    prefix = [
        np.concatenate((m, np.zeros(pad))).reshape(blocks, size).T.copy()
        for m in propagators
    ]
    for j in range(1, size):
        product = _mat_mul([p[j] for p in prefix], [p[j - 1] for p in prefix])
        for p, value in zip(prefix, product):
            p[j] = value

    y_c, y_b = complex(c0), complex(b0)
    start_c, start_b = [y_c], [y_b]
    for m00, m01, m10, m11 in zip(*(p[-1, :-1].tolist() for p in prefix)):
        y_c, y_b = m00 * y_c + m01 * y_b, m10 * y_c + m11 * y_b
        start_c.append(y_c)
        start_b.append(y_b)
    start_c, start_b = np.array(start_c), np.array(start_b)
    c = prefix[0] * start_c + prefix[1] * start_b
    b = prefix[2] * start_c + prefix[3] * start_b
    return AmplitudeTrajectory(
        times=times,
        c_values=np.concatenate((start_c[:1], c.T.ravel()[:n_steps])),
        b_values=np.concatenate((start_b[:1], b.T.ravel()[:n_steps])),
    )


def _mat_mul(p, q):
    """2x2 product ``p q`` of matrices given as (00, 01, 10, 11) components."""
    return (p[0] * q[0] + p[1] * q[2], p[0] * q[1] + p[1] * q[3],
            p[2] * q[0] + p[3] * q[2], p[2] * q[1] + p[3] * q[3])


def photon_number(
    cloud: CloudGeometry,
    profile: str,
    w0_bar: float,
    pulse: PulseShape,
    t_grid,
    n_atoms: int,
) -> EmissionCurve:
    """Photon number collected from ``n_atoms`` atoms into the forward
    Gaussian modes vs time.

    ``n(t) = G N B(t)``: the overlap evaluator selected by the phase
    variant supplies ``G``, the adiabatic envelope supplies ``B``.  The
    value saturates at ``G N`` once the drive has fully pumped out the
    stored excitation; it is reported as-is even above 1 (it is a
    collection figure of merit, not a probability).
    """
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    overlap = compute_xi(cloud, w0_bar, profile)
    curve = adiabatic_beta(pulse, t_grid)
    n = overlap.geometric_factor * n_atoms * curve.big_b
    return EmissionCurve(
        times=curve.times,
        beta=curve.beta,
        big_b=curve.big_b,
        n=n,
        g_factor=overlap.geometric_factor,
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
