"""Independent oracles used to freeze expected values.

Everything here avoids the package's own numerical paths: plain bisection,
closed forms (among them the square well, the thin-surface limit of
Woods-Saxon), scipy.integrate.quad, solve_ivp shooting with brentq, the
e^{-r} series of the exponential curve summed in float64 and in mpmath, and
that curve's closed form, Kummer's function, evaluated by mpmath.hyp1f1.
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


def bessel_top_order_zero(x: float, dps: int = 30) -> float | None:
    """The largest order nu > 0 with J_nu(x) = 0, or None where there is
    none (x below j_{0,1}).

    J_nu(x) > 0 for nu >= x, so a scan of jv down from nu = x finds the
    top sign change; mpmath's bisection-safe Anderson step refines it at
    dps digits.
    """
    nus = np.linspace(x, 0.0, 4001)
    vals = jv(nus, x)
    for i in range(len(nus) - 1):
        if (vals[i] < 0) != (vals[i + 1] < 0):
            with mpmath.workdps(dps):
                bracket = (mpmath.mpf(float(nus[i + 1])), mpmath.mpf(float(nus[i])))
                return float(mpmath.findroot(lambda nu: mpmath.besselj(nu, x), bracket, solver="anderson"))
    return None


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


def exp_nodes(kappa: float, e: float, v: float) -> int:
    """The zeros in r > 0 of u = sum c_n t^(n + kappa) of exp_series, the
    solution that decays like e^{-kappa r}: by Sturm oscillation, the number
    of levels of h(e) below -kappa^2.  u / t^kappa is sampled by numpy's
    polyval at 4000 points r in [0, 60), far finer than the least spacing
    pi / sqrt(v^2 + 2ev) of two zeros, for v <= 30."""
    a, b = -2.0 * e * v, -v * v
    coeffs = [0.0, 1.0]
    for n in range(1, 200):
        coeffs.append((a * coeffs[-1] + b * coeffs[-2]) / (n * (n + 2.0 * kappa)))
    values = np.polyval(coeffs[:0:-1], np.exp(-np.linspace(0.0, 60.0, 4000, endpoint=False)))
    return int(np.count_nonzero(np.diff(np.sign(values))))


def exp_kg_energy(v: float, m: float, steps: int = 200) -> float | None:
    """The exponential particle root from exp_series alone: the e where the
    number N of levels of h(e) below e^2 - m^2 goes from 0 to 1 as e rises.
    By Sturm oscillation T(e) = S(sqrt(m^2 - e^2); e, v) has the sign
    (-1)^N, so the root is a sign change of T from positive to negative
    whose positive side has N = 0 (exp_nodes; N = 2 there is an excited
    level crossing).  The scan runs over steps uniform points across the
    window (1e-9 m inside each end) and a geometric cluster near -m, where
    past the supercritical coupling the antiparticle root sits close below
    it; plain bisection refines the change.  None where there is none."""
    def kappa(e):
        return math.sqrt((m - e) * (m + e))

    def t(e):
        return exp_series(kappa(e), e, v)[0]

    edge = m * (1.0 - 1e-9)
    grid = np.union1d(np.linspace(-edge, edge, steps), -m + m * np.geomspace(1e-9, 0.2, 24))
    signs = [t(float(e)) > 0 for e in grid]
    for i in range(len(grid) - 1):
        if signs[i] and not signs[i + 1] and exp_nodes(kappa(grid[i]), float(grid[i]), v) == 0:
            return bisect(t, float(grid[i]), float(grid[i + 1]))
    return None


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


def exp_kummer(kappa, e, v, dps: int = 30):
    """S(kappa; e, v) of exp_series in closed form, as an mpf: the decaying
    solution u = t^kappa e^{-ivt} M(1/2 + kappa + ie, 1 + 2 kappa, 2ivt),
    t = e^{-r}, at t = 1 (DLMF 13.2 and 13.14, Whittaker's equation at an
    imaginary argument), by mpmath's hypergeometric function at dps digits.
    Kummer's transformation M(a, b, z) = e^z M(b - a, b, -z) makes it real.
    """
    with mpmath.workdps(dps):
        kappa, e, v = (mpmath.mpf(x) for x in (kappa, e, v))
        return mpmath.re(mpmath.exp(-1j * v) * mpmath.hyp1f1(0.5 + kappa + 1j * e, 1 + 2 * kappa, 2j * v))


def exp_kummer_top_root(e: float, v: float, steps: int = 200, dps: int = 30) -> float | None:
    """The largest root kappa of exp_kummer in (0, sqrt(v^2 + 2ev)), where
    F(e) = -kappa^2, or None where there is none: a uniform scan down from
    the top, then mpmath's bisection-safe Anderson step at dps digits."""
    top_sq = v * (v + 2.0 * e)
    if top_sq <= 0:
        return None
    ks = np.linspace(math.sqrt(top_sq), 0.0, steps + 1)
    vals = [exp_kummer(float(k), e, v, dps) for k in ks]
    for i in range(steps):
        if (vals[i] < 0) != (vals[i + 1] < 0):
            with mpmath.workdps(dps):
                bracket = (mpmath.mpf(float(ks[i + 1])), mpmath.mpf(float(ks[i])))
                return float(mpmath.findroot(lambda k: exp_kummer(k, e, v, dps), bracket, solver="anderson"))
    return None


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
    """The particle root: the e in (-m, m) of the nodeless Klein-Gordon
    s-wave bound state in V = -v f(r) whose level, as e rises, crosses the
    parabola from above, by shooting -u'' + (m^2 - (e - V)^2) u = 0.

    u(0) = 0, u'(0) = 1.  With V set to zero beyond r_end the bound state
    decays as e^{-kappa r}, kappa = sqrt(m^2 - e^2).  By Sturm oscillation
    h(e) = p^2 + 2eV - V^2 has no eigenvalue below -kappa^2 = e^2 - m^2
    exactly when u has no node in (0, r_end) and the mismatch
    (u' + kappa u) / |(u, u')| at r_end is positive; the energies are where
    that indicator changes sign.  The particle root is where it turns from
    positive to negative; where it turns from negative to positive (past
    the supercritical coupling, near -m) is the antiparticle root, which
    is skipped.  The first positive-to-negative change along grid (by
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
        if prev_s > 0.0 >= s:
            return brentq(indicator, prev_x, x, xtol=1e-14, rtol=4 * np.finfo(float).eps)
        prev_x, prev_s = x, s
    return None


def inward_ground_state(f, v: float, e: float, r_end: float, steps: int = 24) -> tuple[float, float]:
    """kappa and 2 <V> of the ground state of h(e) = p^2 + 2eV - V^2,
    V = -v f(r), by shooting inward: F(e) = -kappa^2, and 2 <V> is dF/de by
    Hellmann-Feynman, as dh/de = 2V.

    With V set to zero beyond r_end, u = e^{-kappa r} there; integrated in
    from r_end, where it is the growing solution and so stable, the
    decaying solution vanishes at r = 0 exactly at the eigenvalues, and by
    Sturm oscillation u(0) > 0 for every kappa above the ground state's.
    A scan of u(0) / |(u, u')| down from the top sqrt(max -W) finds its
    first sign change, which brentq refines; the norm and <V> integrals
    ride along, the norm starting from the tail's 1 / (2 kappa).
    """
    def inward(kappa):
        def rhs(r, y):
            big_v = -v * f(r)
            w = 2.0 * e * big_v - big_v * big_v
            return (y[1], (w + kappa * kappa) * y[0], -y[0] * y[0], -2.0 * big_v * y[0] * y[0])

        sol = solve_ivp(rhs, (r_end, 0.0), [1.0, -kappa, 0.5 / kappa, 0.0], method="DOP853", rtol=1e-12,
                        atol=1e-14)
        if not sol.success:
            raise RuntimeError(f"shooting failed: {sol.message}")
        return sol.y[:, -1]

    def at_origin(kappa):
        u, du, _, _ = inward(kappa)
        return u / math.hypot(u, du)

    big_v = -v * f(np.linspace(0.0, r_end, 2001))
    top = math.sqrt(max(0.0, float(np.max(-(2.0 * e * big_v - big_v * big_v)))))
    ks = np.linspace(top, 0.0, steps + 1)[:-1]
    prev = at_origin(ks[0])
    for hi, lo in zip(ks, ks[1:]):
        cur = at_origin(lo)
        if (prev > 0) != (cur > 0):
            kappa = brentq(at_origin, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)
            _, _, norm, two_v = inward(kappa)
            return kappa, two_v / norm
        prev = cur
    raise ValueError(f"no bound state for v = {v}, e = {e}")
