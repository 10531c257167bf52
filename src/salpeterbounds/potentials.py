"""Attractive central potentials V(r) = v*f(r) and their validity windows.

All shapes are nonpositive, nondecreasing in r, and vanish at infinity.
Units: hbar = c = 1, so the coupling v carries energy units and radii
carry length units.  The pieces the solvers share live here too, in a
module that loads only the standard library (numpy is imported inside
`evaluate`, whose callers load it anyway): their exceptions, which a
caller can catch without loading a solver, and brentq, the one root finder
of every 1-D search, scipy's Brent method ported step for step so that no
command imports scipy's optimization package.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import math
import sys
from typing import Callable

COULOMB_MIN_RADIUS = 1e-12

# Coulomb coupling windows for a discrete ground state at m = 1
SALPETER_COULOMB_MAX = 2.0 / math.pi
KLEINGORDON_COULOMB_MAX = 0.5


class NoBoundState(Exception):
    """The operator has no negative eigenvalue on the half-line."""


class NonConvergence(Exception):
    """Grid refinement, basis enlargement or a root search failed to settle."""


class NonBindingSearchError(Exception):
    """Coupling bracketing failed; the configured search range is exhausted."""


class CouplingOutOfRange(Exception):
    """Requested coupling is outside the parametric span of the Gaussian bound's curve."""


def brentq(f: Callable[[float], float], xa: float, xb: float, xtol: float, maxiter: int = 100) -> float:
    """A root of f in [xa, xb] by Brent's method, step for step as scipy's
    brentq.c: the same evaluation points, the same root.

    Each step interpolates (secant, or inverse quadratic through three
    points) when that moves less than half the previous step and stays
    well inside the bracket, and bisects otherwise; it stops when the
    bracket half-width is below delta = (xtol + 4 eps |x|) / 2, with
    scipy's default relative tolerance 4 eps, or f is 0.  Raises
    ValueError when f(xa) and f(xb) have the same sign or f returns NaN,
    and NonConvergence after maxiter steps.
    """
    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return float(fx)

    xpre, xcur, xtol = float(xa), float(xb), float(xtol)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 4 * sys.float_info.epsilon * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic extrapolation; where the denominator
                # underflows to 0, C's division gives inf or NaN, and so a
                # bisection
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise NonConvergence(f"brentq did not converge in {maxiter} iterations; last x = {xcur!r}")


class Kind(Enum):
    """Potential shape family."""

    EXPONENTIAL = "exponential"
    WOODS_SAXON = "woods-saxon"
    COULOMB = "coulomb"


class Theory(Enum):
    """Which eigenproblem the potential is fed into."""

    KLEIN_GORDON = "klein-gordon"
    SALPETER = "salpeter"


@dataclass(frozen=True)
class PotentialSpec:
    """Shape kind plus parameters.

    v is the coupling strength (> 0).  a and b are the Woods-Saxon radius
    and surface thickness; they are ignored for the other kinds.
    """

    kind: Kind
    v: float
    a: float = 1.0
    b: float = 0.2

    def __post_init__(self):
        if not (math.isfinite(self.v) and self.v > 0):
            raise ValueError(f"coupling v must be positive and finite, got {self.v}")
        if self.kind is Kind.WOODS_SAXON:
            if not (math.isfinite(self.a) and self.a > 0):
                raise ValueError(f"Woods-Saxon radius a must be positive, got {self.a}")
            if not (math.isfinite(self.b) and self.b > 0):
                raise ValueError(f"Woods-Saxon thickness b must be positive, got {self.b}")


def exponential(v: float) -> PotentialSpec:
    return PotentialSpec(Kind.EXPONENTIAL, v)


def woods_saxon(v: float, a: float = 1.0, b: float = 0.2) -> PotentialSpec:
    return PotentialSpec(Kind.WOODS_SAXON, v, a, b)


def coulomb(v: float) -> PotentialSpec:
    return PotentialSpec(Kind.COULOMB, v)


def evaluate(spec: PotentialSpec, r):
    """V(r) = v*f(r) at radius r (scalar or array), always <= 0.

    Raises ValueError for nonpositive or non-finite radii; the Coulomb
    kind additionally rejects r below COULOMB_MIN_RADIUS, where -v/r nears
    overflow.  No solver samples the Coulomb kind: its Klein-Gordon curve
    and its sine-basis moments are closed forms.
    """
    import numpy as np

    r_arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r_arr)):
        raise ValueError("radius must be finite")
    if np.any(r_arr <= 0):
        raise ValueError("radius must be positive")
    if spec.kind is Kind.EXPONENTIAL:
        out = -spec.v * np.exp(-r_arr)
    elif spec.kind is Kind.WOODS_SAXON:
        # 1/(1+e^x) written via e^{-|x|} so large (r-a)/b cannot overflow
        x = (r_arr - spec.a) / spec.b
        ex = np.exp(-np.abs(x))
        out = np.where(x > 0, -spec.v * ex / (1.0 + ex), -spec.v / (1.0 + ex))
    elif spec.kind is Kind.COULOMB:
        if np.any(r_arr < COULOMB_MIN_RADIUS):
            raise ValueError(f"Coulomb evaluation requires r >= {COULOMB_MIN_RADIUS}")
        out = -spec.v / r_arr
    else:  # pragma: no cover
        raise ValueError(f"unknown kind {spec.kind}")
    return out if out.ndim else float(out)


def validate(spec: PotentialSpec, theory: Theory) -> None:
    """Raise ValueError, with the reason, unless (spec, theory) is admissible.

    The Coulomb shape only has a discrete ground state below a critical
    coupling (2/pi for the semirelativistic kinetic term, 1/2 for the
    Klein-Gordon reduction, at m = 1).  Past validate_shape, the short-range
    shapes are structurally valid; whether a given coupling actually binds
    is decided by the solvers.
    """
    validate_shape(spec, theory)
    if spec.kind is Kind.COULOMB:
        if theory is Theory.KLEIN_GORDON and spec.v >= KLEINGORDON_COULOMB_MAX:
            raise ValueError(f"Coulomb coupling {spec.v} >= 1/2 has no Klein-Gordon ground state")
        if theory is Theory.SALPETER and spec.v >= SALPETER_COULOMB_MAX:
            raise ValueError(f"Coulomb coupling {spec.v} >= 2/pi is beyond the semirelativistic critical coupling")


def validate_shape(spec: PotentialSpec, theory: Theory) -> None:
    """Raise ValueError, with the reason, where the shape's parameters other
    than v put it out of the theory's reach at every coupling: the
    Klein-Gordon Woods-Saxon series scale every coefficient by b^2, so a b
    whose square underflows float64 would read as no well at all."""
    if spec.kind is Kind.WOODS_SAXON and theory is Theory.KLEIN_GORDON and spec.b * spec.b < sys.float_info.min:
        raise ValueError(f"Woods-Saxon thickness b = {spec.b:g} is too thin for the Klein-Gordon series: "
                         "b^2 underflows")


def check_mass(m: float) -> None:
    """Raise ValueError unless the mass m is positive and finite."""
    if not (math.isfinite(m) and m > 0):
        raise ValueError(f"mass must be positive, got {m}")


# The solvers truncate the domain where |V| first falls to this.
TAIL_EPS = 1e-12


def tail_radius(spec: PotentialSpec, epsilon: float) -> float:
    """Smallest convenient R with |V(R)| <= epsilon, for domain truncation.

    Exponential and Coulomb have closed forms; Woods-Saxon is searched on
    the geometric grid r = 2^k * r0, r0 = max(a, 1), so the result can
    overshoot by up to a factor 2.  A degenerate epsilon >= |V(r0)| just
    returns r0: any truncation radius is then adequate.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    r0 = max(spec.a, 1.0) if spec.kind is Kind.WOODS_SAXON else 1.0
    if spec.kind is Kind.EXPONENTIAL:
        return max(r0, math.log(spec.v / epsilon)) if epsilon < spec.v else r0
    if spec.kind is Kind.COULOMB:
        return max(r0, spec.v / epsilon) if epsilon < spec.v else r0
    r = r0
    for _ in range(61):
        if abs(evaluate(spec, r)) <= epsilon:
            return r
        r *= 2.0
    return r
