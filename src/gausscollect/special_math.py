"""Quadrature primitives: graded Gauss-Legendre panels, and scipy rules
for the oracles and the tests.

:func:`graded_edges`, :func:`legendre_rule` and :func:`panel_nodes`
build the panel meshes on which the overlap engine's axial rule and
brute-force oracle and the far field's Filon rule integrate, each on
Gaussian-weighted domains truncated at ``CUT_SIGMAS`` standard
deviations.

:func:`integrate_adaptive` wraps ``scipy.integrate.quad`` (QUADPACK) for
complex integrands, raising :class:`QuadratureError` where QUADPACK
reports non-convergence; the curvature-form oracle of ``overlap_engine``
integrates on it alone.  :func:`gauss_hermite` serves the rules of
``scipy.special.roots_hermite`` as cached, read-only
:class:`QuadratureRule` objects, which only the tests and the benchmark
harness use.  Production overlaps use neither: they take the panel
rule and ``scipy.special.erfcx``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import roots_hermite

__all__ = [
    "CUT_SIGMAS",
    "SQRT_2PI",
    "QuadratureError",
    "QuadratureRule",
    "AdaptiveResult",
    "gauss_hermite",
    "graded_edges",
    "integrate_adaptive",
    "legendre_rule",
    "panel_nodes",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)

# truncation half-width of Gaussian-weighted domains, in standard deviations;
# the neglected tail is below exp(-8.5^2/2) ~ 2e-16 of the envelope
CUT_SIGMAS = 8.5

# points per panel of QUADPACK's 21-point Gauss-Kronrod rule
_QUADPACK_PANEL_POINTS = 21


class QuadratureError(RuntimeError):
    """An integration routine could not reach the requested tolerance."""


def graded_edges(h0: float, limit: float, ratio: float) -> list[float]:
    """Symmetric breakpoints growing geometrically from the origin to +-limit."""
    if not h0 > 0.0:
        raise ValueError(f"the first breakpoint must be positive, got {h0!r}")
    pts = [0.0, limit]
    x = h0
    while x < limit:
        pts.append(x)
        x *= ratio
    return sorted({-p for p in pts} | set(pts))


@lru_cache(maxsize=64)
def legendre_rule(n: int):
    """Read-only nodes and weights of the ``n``-point Gauss-Legendre rule on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def panel_nodes(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights tiled over consecutive panels."""
    base_x, base_w = legendre_rule(order)
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for ``integral e^{-x^2} f(x) dx ~ sum w_i f(x_i)``."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size < 1:
            raise ValueError("nodes and weights must be equal-length 1-d arrays")
        if np.any(weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def gauss_hermite(n: int) -> QuadratureRule:
    """Gauss-Hermite rule with ``n`` points, exact to polynomial degree 2n-1.

    Nodes and weights come from ``scipy.special.roots_hermite``; rules
    are cached per ``n``.
    """
    n = int(n)
    if not 1 <= n <= 512:
        raise ValueError(f"gauss_hermite order must be in [1, 512], got {n}")
    return _hermite_rule(n)


@lru_cache(maxsize=None)
def _hermite_rule(n: int) -> QuadratureRule:
    nodes, weights = roots_hermite(n)
    # the extreme weights of large rules underflow to zero; the subnormal
    # floor keeps them positive and moves integrals by well under one ulp
    # of the total mass sqrt(pi)
    return QuadratureRule(nodes, np.maximum(weights, 5e-324))


class AdaptiveResult(NamedTuple):
    value: complex
    error: float
    nevals: int


def integrate_adaptive(
    f: Callable,
    a: float,
    b: float,
    tol: float = 1e-10,
    *,
    breakpoints=None,
    max_evals: int = 1_000_000,
) -> AdaptiveResult:
    """Adaptively integrate a (possibly complex) function on ``[a, b]``.

    ``f`` must accept a 1-d ndarray of abscissae and return values of
    the same shape; it is called with one abscissa at a time.  The real
    and imaginary parts are integrated by ``scipy.integrate.quad`` with
    absolute and relative tolerance ``tol``, split at the optional
    ``breakpoints``; ``error`` is the sum of the two parts' estimates
    and ``nevals`` their evaluation count.  ``max_evals`` bounds the subdivisions at
    ``max_evals / 21`` panels; :class:`QuadratureError` is raised when
    QUADPACK reports that either part did not converge.
    """
    # imported here: only the oracle integrates adaptively, and importing
    # scipy.integrate at module level would slow every CLI start
    from scipy.integrate import quad

    if not (a < b):
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    value, error, info = quad(
        lambda x: complex(f(np.array([x]))[0]), a, b,
        epsabs=tol, epsrel=tol,
        limit=max(1, max_evals // _QUADPACK_PANEL_POINTS),
        points=breakpoints, complex_func=True, full_output=True,
    )
    error = float(error.real + error.imag)
    nevals = sum(info[part][0]["neval"] for part in ("real", "imag"))
    for part in ("real", "imag"):
        # quad appends QUADPACK's message to the info dict on failure
        if len(info[part]) > 1:
            raise QuadratureError(
                f"adaptive integration of the {part} part did not converge "
                f"(error estimate {error:.3e}): {info[part][1]}")
    return AdaptiveResult(value, error, nevals)
