"""Independent oracles used to freeze expected values.

Everything here avoids the package's own numerical paths: plain bisection,
closed forms, scipy.integrate.quad, and solve_ivp shooting with brentq.
"""

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq
from scipy.special import jv


def bessel_ground_eigenvalue(v: float) -> tuple[float, float]:
    """Exact ground state of -u'' - v e^{-r} u = lam u on the half line.

    The substitution x = 2 sqrt(v) e^{-r/2} maps decaying solutions onto
    J_{2k}(x) with lam = -k^2, and u(0) = 0 forces J_{2k}(2 sqrt(v)) = 0.
    Returns (k, -k^2) for the smallest positive root k, found by a scan
    plus plain bisection.
    """
    z = 2.0 * math.sqrt(v)
    ks = np.linspace(1e-9, z / 2.0, 20001)
    vals = jv(2.0 * ks, z)
    for i in range(len(ks) - 1):
        if vals[i] == 0.0:
            k = float(ks[i])
            return k, -k * k
        if vals[i] * vals[i + 1] < 0:
            lo, hi = float(ks[i]), float(ks[i + 1])
            flo = jv(2.0 * lo, z)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fmid = jv(2.0 * mid, z)
                if flo * fmid <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            k = 0.5 * (lo + hi)
            return k, -k * k
    raise ValueError(f"no bound state for v = {v}")


# frozen from bessel_ground_eigenvalue, kept literal so a regression in the
# oracle itself cannot silently shift the tests
EXP_WELL_EIGENVALUE = {
    2.5: -0.06620309803074714,
    4.5: -0.42803825771316334,
}


def kratzer_ground(A: float, B: float) -> float:
    """Ground eigenvalue of -u'' + (-A/r + B/r^2) u: -A^2 / (4 gamma^2)."""
    gamma = 0.5 + math.sqrt(0.25 + B)
    return -(A / (2.0 * gamma)) ** 2


def coulomb_kg_energy(v: float, m: float) -> float:
    """Closed-form Klein-Gordon ground energy for -v/r: m / sqrt(1 + v^2/gamma^2)."""
    gamma = 0.5 + math.sqrt(0.25 - v * v)
    return m / math.sqrt(1.0 + (v / gamma) ** 2)


def cosine_moment(f, r_max: float, n: int) -> float:
    """int_0^R f(r) (cos(n pi r / R) - 1) dr by quad, with QAWO for the cosine.

    The cosine and plain integrals are taken separately, so f must be
    integrable on [0, R]; the bare Coulomb -v/r is not.
    """
    if n == 0:
        return 0.0
    opts = {"epsabs": 1e-13, "epsrel": 0.0, "limit": 200}
    wave = quad(f, 0.0, r_max, weight="cos", wvar=n * math.pi / r_max, **opts)[0]
    return wave - quad(f, 0.0, r_max, **opts)[0]


def zero_energy_slope(f, v: float, e: float, r_end: float) -> float:
    """u'(r_end) / |(u, u')| for -u'' + (2eV - V^2) u = 0, V = -v f(r).

    u(0) = 0, u'(0) = 1.  With V set to zero beyond r_end the solution is
    linear there, so h(e) = p^2 + 2eV - V^2 binds exactly when this slope
    has turned negative (before u has a node).
    """
    def rhs(r, y):
        big_v = -v * f(r)
        return (y[1], (2.0 * e * big_v - big_v * big_v) * y[0])

    sol = solve_ivp(rhs, (0.0, r_end), [0.0, 1.0], method="DOP853", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"shooting failed: {sol.message}")
    u, du = sol.y[0, -1], sol.y[1, -1]
    return du / math.hypot(u, du)


def zero_energy_root(slope, grid) -> float:
    """Root of slope(x) at its first down-crossing along grid, by brentq."""
    prev_x, prev_s = grid[0], slope(grid[0])
    for x in grid[1:]:
        s = slope(x)
        if prev_s > 0.0 >= s:
            return brentq(slope, prev_x, x, xtol=1e-13, rtol=4 * np.finfo(float).eps)
        prev_x, prev_s = x, s
    raise ValueError("no down-crossing on the grid")


def zero_energy_threshold(f, m: float, side: str, r_end: float) -> float:
    """Binding ("lower", e = m) or supercritical ("upper", e = -m) coupling:
    the smallest v where h(e) binds on the half-line."""
    e = m if side == "lower" else -m
    return zero_energy_root(lambda v: zero_energy_slope(f, v, e, r_end), np.geomspace(0.1, 20.0, 24))



def kg_energy(f, v: float, m: float, r_end: float, grid=None) -> float | None:
    """Smallest e in (-m, m) with a nodeless Klein-Gordon s-wave bound state
    in V = -v f(r), by shooting -u'' + (m^2 - (e - V)^2) u = 0.

    u(0) = 0, u'(0) = 1.  With V set to zero beyond r_end the bound state
    decays as e^{-kappa r}, kappa = sqrt(m^2 - e^2).  By Sturm oscillation
    h(e) = p^2 + 2eV - V^2 has no eigenvalue below -kappa^2 = e^2 - m^2
    exactly when u has no node in (0, r_end) and the mismatch
    (u' + kappa u) / |(u, u')| at r_end is positive; the energies are where
    that indicator changes sign.  The first sign change along grid (by
    default 25 points across the window) is refined by brentq.  Returns None
    when there is none (no binding or supercritical).
    """
    def indicator(e):
        kappa = math.sqrt(m * m - e * e)

        def rhs(r, y):
            w = e + v * f(r)
            return (y[1], (m * m - w * w) * y[0])

        sol = solve_ivp(rhs, (0.0, r_end), [0.0, 1.0], method="DOP853", rtol=1e-12, atol=1e-14)
        if not sol.success:
            raise RuntimeError(f"shooting failed: {sol.message}")
        if np.any(sol.y[0, 1:] <= 0.0):
            return -1.0
        u, du = sol.y[0, -1], sol.y[1, -1]
        return (du + kappa * u) / math.hypot(u, du)

    if grid is None:
        edge = m * (1.0 - 1e-9)
        grid = np.linspace(-edge, edge, 25)
    prev_x, prev_s = grid[0], indicator(grid[0])
    for x in grid[1:]:
        s = indicator(x)
        if (prev_s > 0.0) != (s > 0.0):
            return brentq(indicator, prev_x, x, xtol=1e-14, rtol=4 * np.finfo(float).eps)
        prev_x, prev_s = x, s
    return None
