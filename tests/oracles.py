"""Independent oracles used to freeze expected values.

Everything here avoids the package's own numerical paths: plain bisection,
closed forms, and scipy.integrate.quad only.
"""

import math

import numpy as np
from scipy.integrate import quad
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
