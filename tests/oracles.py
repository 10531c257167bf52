"""Independent oracles used to freeze expected values.

Everything here avoids the package's own numerical paths: plain bisection,
closed forms (among them the square well, the thin-surface limit of
Woods-Saxon), scipy.integrate.quad, solve_ivp shooting with brentq, and
the e^{-r} series of the exponential curve summed in float64 and in mpmath.
"""

import math

import mpmath
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


def exp_series(kappa: float, e: float, v: float) -> tuple[float, float]:
    """S(kappa; e, v) = sum c_n and sum |c_n| in float64, for the exponential
    h(e) = p^2 - 2ev t - v^2 t^2, t = e^{-r}.

    u = sum c_n t^(n + kappa), c_0 = 1, n (n + 2 kappa) c_n = -2ev c_{n-1}
    - v^2 c_{n-2}, solves h(e) u = -kappa^2 u and decays like e^{-kappa r},
    so the roots kappa > 0 of S (u(0) = 0) are the bound states.  Summed to
    a fixed 200 terms, far past where they underflow for v <= 30.
    """
    a, b = -2.0 * e * v, -v * v
    c_prev, c = 0.0, 1.0
    total = total_abs = 1.0
    for n in range(1, 200):
        c_prev, c = c, (a * c + b * c_prev) / (n * (n + 2.0 * kappa))
        total += c
        total_abs += abs(c)
    return total, total_abs


def exp_series_mp(kappa, e, v, dps: int = 50):
    """exp_series' S in mpmath at dps digits (an mpf), summed until the terms
    past the peak fall below 10^-dps of sum |c_n|.

    Past the peak, n (n + 2 kappa) exceeds |2ev| + v^2, so every later term
    is smaller than the larger of the two before it.
    """
    with mpmath.workdps(dps):
        kappa, e, v = (mpmath.mpf(x) for x in (kappa, e, v))
        a, b = -2 * e * v, -v * v
        c_prev, c = mpmath.mpf(0), mpmath.mpf(1)
        total = total_abs = mpmath.mpf(1)
        cutoff = mpmath.mpf(10) ** -dps
        n = 0
        while True:
            n += 1
            d = n * (n + 2 * kappa)
            c_prev, c = c, (a * c + b * c_prev) / d
            total += c
            total_abs += abs(c)
            if abs(d) > abs(a) + abs(b) and abs(c) + abs(c_prev) <= cutoff * total_abs:
                return +total


def exp_series_roots(e: float, v: float, steps: int = 400) -> list[float]:
    """Every root kappa of exp_series in (0, sqrt(v^2 + 2ev)), largest
    first, by a uniform scan plus plain bisection; F(e) = -kappa^2 for the
    first."""
    top_sq = v * (v + 2.0 * e)
    if top_sq <= 0:
        return []
    ks = np.linspace(0.0, math.sqrt(top_sq), steps + 1)[::-1]
    vals = [exp_series(float(k), e, v)[0] for k in ks]
    roots = [bisect(lambda k: exp_series(k, e, v)[0], float(ks[i + 1]), float(ks[i]))
             for i in range(len(ks) - 1) if (vals[i] < 0) != (vals[i + 1] < 0)]
    return [k for k in roots if k > 1e-12]


def bisect(f, lo: float, hi: float, steps: int = 200) -> float:
    """Plain bisection of a sign change of f on [lo, hi]."""
    flo = f(lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# frozen from bessel_ground_eigenvalue, kept literal so a regression in the
# oracle itself cannot silently shift the tests
EXP_WELL_EIGENVALUE = {
    2.5: -0.06620309803074714,
    4.5: -0.42803825771316334,
}


def square_well_curve(v: float, e: float, a: float) -> float | None:
    """F(e) for the square well V = -v on r < a, or None where h(e) does
    not bind.

    Inside, W = 2eV - V^2 = -(v^2 + 2ev) = -q, so u = sin(kr) with
    k^2 = q - kappa^2, and u'/u = -kappa outside: k cot(ka) = -kappa.  The
    ground state is the smallest such k, in (pi/2a, pi/a), found by brentq
    on k cos(ka) + kappa sin(ka); F = -kappa^2 = k^2 - q.
    """
    q = v * v + 2.0 * e * v
    if q <= (0.5 * math.pi / a) ** 2:
        return None
    hi = min(math.pi / a, math.sqrt(q))
    k = brentq(lambda k: k * math.cos(k * a) + math.sqrt(q - k * k) * math.sin(k * a), 0.5 * math.pi / a, hi,
               xtol=1e-15, rtol=4 * np.finfo(float).eps)
    return k * k - q


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


def coulomb_cosine_moment(v: float, n: int) -> float:
    """int_0^R (-v/r) (cos(n pi r / R) - 1) dr = v int_0^{n pi} (1 - cos x) / x dx,
    by quad over each half-period [j pi, (j + 1) pi]; independent of R.

    1 - cos x is written 2 sin^2(x/2) so that nothing cancels near x = 0.
    """
    def integrand(x):
        return 2.0 * math.sin(0.5 * x) ** 2 / x

    opts = {"epsabs": 1e-13, "epsrel": 0.0}
    return v * sum(quad(integrand, j * math.pi, (j + 1) * math.pi, **opts)[0] for j in range(n))


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



def states_below(f, v: float, e: float, kappa: float, r_end: float) -> int:
    """The number of eigenvalues of h(e) = p^2 + 2eV - V^2, V = -v f(r),
    below -kappa^2: by Sturm oscillation, the zeros of the solution with
    u(0) = 0 in (0, r_end), from its Prufer angle theta (u = rho sin theta,
    u' = rho cos theta), which passes each multiple of pi once, upward.
    r_end must lie past the last point where -W > kappa^2.
    """
    def rhs(r, theta):
        big_v = -v * f(r)
        q = kappa * kappa + 2.0 * e * big_v - big_v * big_v
        return [math.cos(theta[0]) ** 2 - q * math.sin(theta[0]) ** 2]

    sol = solve_ivp(rhs, (0.0, r_end), [0.0], method="DOP853", rtol=1e-10, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"Prufer integration failed: {sol.message}")
    return math.floor(sol.y[0, -1] / math.pi)


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
