"""Reference values computed apart from the package under test.

Only numpy and scipy are used here; nothing is imported from
`salpeterbounds`, so a fault in the program cannot leak into its own check.

- `kg_energy`: Klein-Gordon ground energy by shooting `solve_ivp` on
  -u'' + (m^2 - (e - V)^2) u = 0 and matching the free decay exp(-kappa r).
- `threshold`: binding (e = m) and supercritical (e = -m) couplings from the
  zero-energy ODE: past the potential's range u is linear, and the coupling
  where u'(R) first reaches 0 is the threshold.
- `coulomb_kg_energy` and `schrodinger_ceiling`: closed forms bracketing the
  Coulomb semirelativistic energy from below and above.
- `GaussianOracle`: the scale-optimized Gaussian bound by `quad` and
  `minimize_scalar`, including the coupling below which it is empty.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq, minimize_scalar
from scipy.special import expit

_RTOL = 1e-12
_V_NEGLIGIBLE = 1e-14


def shape(kind: str, r, a: float = 1.0, b: float = 0.2):
    """f(r) with V = -v f(r)."""
    if kind == "exponential":
        return np.exp(-r)
    if kind == "woods-saxon":
        return expit(-(r - a) / b)
    raise ValueError(f"no shooting shape for {kind!r}")


def _range(kind: str, v: float, a: float, b: float) -> float:
    """Radius past which v f(r) < 1e-14, so the free solution is exact."""
    if kind == "exponential":
        return max(1.0, math.log(v / _V_NEGLIGIBLE))
    return a + b * math.log(v / _V_NEGLIGIBLE)


def _shoot(kind: str, v: float, a: float, b: float, e: float, m: float, r_end: float):
    """(u, u') at r_end for u(0) = 0, u'(0) = 1."""
    def rhs(r, y):
        w = e + v * shape(kind, r, a, b)
        return (y[1], (m * m - w * w) * y[0])
    sol = solve_ivp(rhs, (0.0, r_end), [0.0, 1.0], method="DOP853", rtol=_RTOL, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"shooting failed: {sol.message}")
    return sol.y[0, -1], sol.y[1, -1]


def _first_down_crossing(fun, grid):
    """Leftmost bracket where fun goes from > 0 to <= 0 along grid."""
    prev_x, prev_f = grid[0], fun(grid[0])
    for x in grid[1:]:
        fx = fun(x)
        if prev_f > 0.0 >= fx:
            return prev_x, x
        prev_x, prev_f = x, fx
    return None


def kg_energy(kind: str, v: float, m: float, a: float = 1.0, b: float = 0.2) -> float | None:
    """Smallest e in (-m, m) with a Klein-Gordon s-wave bound state.

    For e below the ground energy the solution is nodeless and grows, so
    u' + kappa u > 0 at the range; just above it the sign flips.  Returns
    None when no e in the window binds (no binding or supercritical).
    """
    r_end = _range(kind, v, a, b)

    def mismatch(e):
        kappa = math.sqrt(m * m - e * e)
        u, du = _shoot(kind, v, a, b, e, m, r_end)
        return (du + kappa * u) / math.hypot(u, du)

    edge = m * (1.0 - 1e-9)
    bracket = _first_down_crossing(mismatch, np.linspace(-edge, edge, 25))
    if bracket is None:
        return None
    return brentq(mismatch, *bracket, xtol=1e-14, rtol=4 * np.finfo(float).eps)


def threshold(kind: str, m: float, side: str, a: float = 1.0, b: float = 0.2) -> float:
    """Binding ("lower", e = m) or supercritical ("upper", e = -m) coupling."""
    e = m if side == "lower" else -m

    def slope(v):
        u, du = _shoot(kind, v, a, b, e, m, _range(kind, v, a, b))
        return du / math.hypot(u, du)

    bracket = _first_down_crossing(slope, np.geomspace(0.05, 50.0, 48))
    if bracket is None:
        raise RuntimeError(f"no {side} threshold found for {kind}")
    return brentq(slope, *bracket, xtol=1e-12, rtol=4 * np.finfo(float).eps)


def coulomb_kg_energy(v: float, m: float) -> float:
    """Closed-form Klein-Gordon ground energy for -v/r: m / sqrt(1 + v^2/gamma^2)."""
    gamma = 0.5 + math.sqrt(0.25 - v * v)
    return m / math.sqrt(1.0 + (v / gamma) ** 2)


def schrodinger_ceiling(v: float, m: float) -> float:
    """m (1 - v^2/2): sqrt(p^2 + m^2) <= m + p^2/(2m) bounds E from above."""
    return m * (1.0 - 0.5 * v * v)


class GaussianOracle:
    """Gaussian trial state of scale s for the Woods-Saxon well.

    With the radial density rho(t) = (4/sqrt(pi)) t^2 exp(-t^2), momentum
    p = t/s and radius r = t s, so

        E(s) = <sqrt(p^2 + m^2)> - v <f(r)>,

    and dE/ds = K'(s) - v P'(s) vanishes where v = K'(s)/P'(s).  That ratio
    has a positive minimum v_min: below it no scale is stationary and the
    bound is empty.
    """

    _T_END = 12.0

    def __init__(self, m: float, a: float, b: float):
        self.m, self.a, self.b = m, a, b
        res = minimize_scalar(self.stationary_v, bounds=(0.05, 10.0), method="bounded",
                              options={"xatol": 1e-10})
        self.s_vmin = float(res.x)
        self.v_min = float(res.fun)

    @staticmethod
    def _rho(t):
        return 4.0 / math.sqrt(math.pi) * t * t * math.exp(-t * t)

    def _quad(self, g, s):
        val, _ = quad(g, 0.0, self._T_END, points=[min(self.a / s, self._T_END / 2)],
                      limit=400, epsabs=1e-15, epsrel=1e-13)
        return val

    def energy(self, v: float, s: float) -> float:
        m, a, b = self.m, self.a, self.b
        kin = self._quad(lambda t: self._rho(t) * math.sqrt(m * m + (t / s) ** 2), s)
        pot = self._quad(lambda t: self._rho(t) * float(expit(-(t * s - a) / b)), s)
        return kin - v * pot

    def stationary_v(self, s: float) -> float:
        m, a, b = self.m, self.a, self.b
        dkin = self._quad(lambda t: self._rho(t) * (-(t * t) / s**3) / math.sqrt(m * m + (t / s) ** 2), s)

        def dpot_integrand(t):
            f = float(expit(-(t * s - a) / b))
            return self._rho(t) * (-f * (1.0 - f) * t / b)

        dpot = self._quad(dpot_integrand, s)
        return dkin / dpot

    def bound(self, v: float) -> float | None:
        """min over the decreasing branch of E(s); None when v < v_min."""
        if v < self.v_min:
            return None
        res = minimize_scalar(lambda s: self.energy(v, s), bounds=(0.05, self.s_vmin),
                              method="bounded", options={"xatol": 1e-9})
        return float(res.fun)
