"""Attractive central potentials V(r) = v*f(r) and their validity windows.

All shapes are nonpositive, nondecreasing in r, and vanish at infinity.
Units: hbar = c = 1, so the coupling v carries energy units and radii
carry length units.  The solvers' exceptions live here too, in the one
module that needs only numpy, so a caller can catch them without loading
a solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import math

import numpy as np

COULOMB_MIN_RADIUS = 1e-12

# Coulomb coupling windows for a discrete ground state at m = 1
SALPETER_COULOMB_MAX = 2.0 / math.pi
KLEINGORDON_COULOMB_MAX = 0.5


class NoBoundState(Exception):
    """The operator has no negative eigenvalue on the half-line."""

    def __init__(self, message: str, lowest: float | None = None):
        super().__init__(message)
        self.lowest = lowest


class NonConvergence(Exception):
    """Grid refinement, basis enlargement or a root search failed to settle."""


class NonBindingSearchError(Exception):
    """Coupling bracketing failed; the configured search range is exhausted."""


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
        if not (np.isfinite(self.v) and self.v > 0):
            raise ValueError(f"coupling v must be positive and finite, got {self.v}")
        if self.kind is Kind.WOODS_SAXON:
            if not (np.isfinite(self.a) and self.a > 0):
                raise ValueError(f"Woods-Saxon radius a must be positive, got {self.a}")
            if not (np.isfinite(self.b) and self.b > 0):
                raise ValueError(f"Woods-Saxon thickness b must be positive, got {self.b}")


def exponential(v: float) -> PotentialSpec:
    return PotentialSpec(Kind.EXPONENTIAL, v)


def woods_saxon(v: float, a: float = 1.0, b: float = 0.2) -> PotentialSpec:
    return PotentialSpec(Kind.WOODS_SAXON, v, a, b)


def coulomb(v: float) -> PotentialSpec:
    return PotentialSpec(Kind.COULOMB, v)


@dataclass(frozen=True)
class ValidityReport:
    accepted: bool
    reason: str = ""


def evaluate(spec: PotentialSpec, r):
    """V(r) = v*f(r) at radius r (scalar or array), always <= 0.

    Raises ValueError for nonpositive or non-finite radii; the Coulomb
    kind additionally rejects r below COULOMB_MIN_RADIUS, where -v/r nears
    overflow.  No solver samples the Coulomb kind: its Klein-Gordon curve
    and its sine-basis moments are closed forms.
    """
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


def validate(spec: PotentialSpec, theory: Theory) -> ValidityReport:
    """Structural admissibility of (spec, theory).

    The Coulomb shape only has a discrete ground state below a critical
    coupling (2/pi for the semirelativistic kinetic term, 1/2 for the
    Klein-Gordon reduction, at m = 1).  The short-range shapes are always
    structurally valid; whether a given coupling actually binds is decided
    by the solvers.
    """
    if spec.kind is Kind.COULOMB:
        if theory is Theory.KLEIN_GORDON and spec.v >= KLEINGORDON_COULOMB_MAX:
            return ValidityReport(False, f"Coulomb coupling {spec.v} >= 1/2 has no Klein-Gordon ground state")
        if theory is Theory.SALPETER and spec.v >= SALPETER_COULOMB_MAX:
            return ValidityReport(False, f"Coulomb coupling {spec.v} >= 2/pi is beyond the semirelativistic critical coupling")
    return ValidityReport(True)


# The solvers truncate the domain where |V| first falls to this.
TAIL_EPS = 1e-12


def tail_radius(spec: PotentialSpec, epsilon: float) -> float:
    """Smallest convenient R with |V(R)| <= epsilon, for domain truncation.

    Exponential and Coulomb have closed forms; Woods-Saxon is searched on
    the geometric grid r = 2^k * r0, r0 = max(a, 1), so the result can
    overshoot by up to a factor 2.  A degenerate epsilon >= |V(r0)| just
    returns r0: any truncation radius is then adequate.
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
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
