"""Scale-optimized Gaussian upper bound for the Woods-Saxon Salpeter problem.

A normalized Gaussian trial state of scale s turns the expectation of
sqrt(p^2 + m^2) - v / (1 + exp((r-a)/b)) into four one-dimensional integrals
against the density rho(t) = (4/sqrt(pi)) t^2 exp(-t^2):

    E_g(s) = J1(s) - v J2(s),

and stationarity in s happens exactly at v = J3(s)/J4(s) because
J3 = -dJ1/ds and J4 = -dJ2/ds.  Sweeping s therefore yields the parametric
curve {v(s), E_g(v)} of best Gaussian bounds; the curve's physical branch is
the one where v(s) decreases (tighter wave functions for stronger coupling).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .potentials import CouplingOutOfRange, brentq

SQRT_PI = math.sqrt(math.pi)

_T_MAX = 8.0          # exp(-t^2) tail beyond is ~1e-28 relative
_BASE_PANELS = 24
_GL_NODES = 16
# extra panel edges packed around the Fermi radius t = a/s in units of the
# layer width b/s, so a thin surface is always resolved
_LAYER_OFFSETS = (-32.0, -16.0, -8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
_BASE_EDGES = tuple(np.linspace(0.0, _T_MAX, _BASE_PANELS + 1))

_GL_X, _GL_W = leggauss(_GL_NODES)

# absolute tolerance on the optimal scale s, the root of J3/J4 = v
SCALE_XTOL = 1e-10


@dataclass(frozen=True)
class GaussianBoundPoint:
    """One point of the parametric curve; E_g = J1 - v*J2 and v = J3/J4."""

    s: float
    v: float
    E_g: float
    J1: float
    J2: float
    J3: float
    J4: float


def rho(t):
    """Radial probability density (4/sqrt(pi)) t^2 exp(-t^2) of the trial state."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("rho is defined for t >= 0")
    out = 4.0 / SQRT_PI * t_arr * t_arr * np.exp(-t_arr * t_arr)
    return out if out.ndim else float(out)


def _mesh(a: float, b: float, s: float):
    edges = set(_BASE_EDGES)
    t_fermi = a / s
    width = b / s
    if 0.0 < t_fermi < _T_MAX:
        for c in _LAYER_OFFSETS:
            x = t_fermi + c * width
            if 0.0 < x < _T_MAX:
                edges.add(x)
    edges = np.array(sorted(edges))
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    wt = (half[:, None] * _GL_W[None, :]).ravel()
    return t, wt


def j_integrals(m: float, a: float, b: float, s: float) -> tuple[float, float, float, float]:
    """The four quadratures (J1, J2, J3, J4) at Gaussian scale s.

    Fixed-panel Gauss-Legendre on [0, 8]: the base layout is uniform, with
    extra edges packed deterministically around the Fermi radius a/s so the
    surface layer stays resolved for any thickness b.  The Fermi factor and
    its derivative kernel f(1-f) are evaluated in overflow-safe form.
    """
    for name, val in (("m", m), ("a", a), ("b", b), ("s", s)):
        if not (math.isfinite(val) and val > 0):
            raise ValueError(f"{name} must be positive and finite, got {val}")
    t, wt = _mesh(a, b, s)
    dens = rho(t)
    root = np.sqrt(m * m * s * s + t * t)
    x = (t * s - a) / b
    # 1/(1 + e^x) and f(1-f) = e^x/(1+e^x)^2 from e^{-|x|}, which cannot
    # overflow
    ex = np.exp(-np.abs(x))
    f_small = ex / (1.0 + ex)
    f = np.where(x > 0, f_small, 1.0 / (1.0 + ex))
    kernel = f_small * (1.0 - f_small)
    j1 = float(np.dot(wt, dens * root)) / s
    j2 = float(np.dot(wt, dens * f))
    j3 = float(np.dot(wt, dens * t * t / root)) / (s * s)
    j4 = float(np.dot(wt, dens * t * kernel)) / b
    return j1, j2, j3, j4


def eg_at(m: float, a: float, b: float, v: float, s: float) -> float:
    """Gaussian expectation value J1(s) - v*J2(s); an upper bound for any s."""
    if not (np.isfinite(v) and v > 0):
        raise ValueError(f"coupling v must be positive, got {v}")
    j1, j2, _, _ = j_integrals(m, a, b, s)
    return j1 - v * j2


def default_s_grid() -> np.ndarray:
    """200 logarithmically spaced scales on [0.05, 10]."""
    return np.geomspace(0.05, 10.0, 200)


def optimal_curve(m: float, a: float, b: float) -> list[GaussianBoundPoint]:
    """Parametric best-Gaussian curve: at each s of default_s_grid, v = J3/J4
    and E_g = J1 - vJ2.

    Raises ValueError where J4 = 0 at a scale: the quadrature does not see
    the surface layer there, so no coupling is stationary at that s.
    """
    points = []
    for s in default_s_grid():
        j1, j2, j3, j4 = j_integrals(m, a, b, float(s))
        if not j4 > 0:
            raise ValueError(f"J4 = 0 at s = {s:.6g}: the Woods-Saxon surface (a = {a:g}, b = {b:g}) is out "
                             "of the Gaussian quadrature's reach")
        v = j3 / j4
        points.append(GaussianBoundPoint(s=float(s), v=v, E_g=j1 - v * j2, J1=j1, J2=j2, J3=j3, J4=j4))
    return points


@functools.lru_cache(maxsize=16)
def _default_curve(m: float, a: float, b: float) -> tuple[GaussianBoundPoint, ...]:
    """optimal_curve, built once per (m, a, b) in a process, so that a
    sweep's rows share it; the last 16 are kept."""
    return tuple(optimal_curve(m, a, b))


def eg_optimized(m: float, a: float, b: float, v: float) -> float:
    """min_s E_g(s) at fixed coupling, seeded from the parametric curve,
    which is built once per (m, a, b) in a process.

    dE_g/ds = J4 (v - J3/J4), so minima sit where v(s) = J3/J4 crosses the
    target coupling on its decreasing branch.  In each such grid crossing
    the stationarity root J3/J4 = v is found by brentq, and E_g there is a
    local minimum; the best minimum wins.  Raises
    CouplingOutOfRange when no decreasing-branch crossing exists (for the
    Woods-Saxon family v(s) has a positive minimum below which a Gaussian
    captures no binding: E_g(s) then just drifts down to m as s -> infinity).
    """
    points = _default_curve(m, a, b)
    s_vals = [p.s for p in points]
    v_vals = [p.v for p in points]

    def stationarity(s: float) -> float:
        _, _, j3, j4 = j_integrals(m, a, b, s)
        return j3 / j4 - v

    best = None
    for i in range(len(points) - 1):
        if v_vals[i] >= v >= v_vals[i + 1] and v_vals[i] > v_vals[i + 1]:
            s_root = brentq(stationarity, s_vals[i], s_vals[i + 1], xtol=SCALE_XTOL)
            candidate = eg_at(m, a, b, v, s_root)
            if best is None or candidate < best:
                best = candidate
    if best is None:
        raise CouplingOutOfRange(
            f"v = {v} is outside the parametric span [{min(v_vals):.6g}, {max(v_vals):.6g}]"
        )
    return best


def curve_csv_rows(points: list[GaussianBoundPoint]) -> list[str]:
    """Rows "s,v,E_g,J1,J2,J3,J4" with 12 significant digits."""
    return [
        f"{p.s:.12g},{p.v:.12g},{p.E_g:.12g},{p.J1:.12g},{p.J2:.12g},{p.J3:.12g},{p.J4:.12g}"
        for p in points
    ]
