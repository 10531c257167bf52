"""Spectral curve F(e) of h(e) = p^2 + 2eV - V^2 and its intersection with
the parabola g(e) = e^2 - m^2.

F(e) is the lowest eigenvalue of the Schrodinger operator h(e); wherever it
exists it is negative, decreasing and concave, and its slope satisfies
F'(e) = 2 <V>.  A mass-m ground energy is the smallest e in (-m, m) with
F(e) = e^2 - m^2.  Because dW/de = 2V <= 0, the set of e where h(e) binds
is an interval stretching up from an existence edge e0 (where F -> 0).
Every e is solved in one box that covers the range of V, closed by the
exact exterior matching of radial_schrodinger.  Its signed Neumann
eigenvalue is the binding test: the no-binding verdict is its sign, and
the edge and both critical couplings are its roots, found by
potentials.brentq (a port of scipy's Brent method).

h(e) is affine in e, so F (taken as the continuum edge 0 below e0) is a
minimum of affine functions and G(e) = F(e) - e^2 + m^2 is concave.  solve
brackets the roots of G without a scan: from e0 when the edge is in the
window, where G(e0) > 0, and otherwise on both sides of G's maximum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from . import potentials
from .potentials import Kind, NoBoundState, NonBindingSearchError, PotentialSpec, Theory, brentq, check_mass
from .radial_schrodinger import GridConfig, expectation, lowest_eigenvalue, neumann_eigenvalue

WINDOW_MARGIN = 1e-6   # relative margin keeping the search inside the open window
ROOT_XTOL = 1e-10      # intersections and the existence edge
COUPLING_XTOL = 1e-9   # critical couplings

_H_FULL = 0.025        # coarsest spacing of the default three-level grid


class KgStatus(Enum):
    BOUND = "bound"
    NO_BINDING = "no-binding"
    SUPERCRITICAL = "supercritical"


@dataclass(frozen=True)
class SpectralCurvePoint:
    """One sample of the curve: F, its slope 2<V>, and delta = e - F'/2."""

    e: float
    F: float
    F_prime: float
    delta: float


@dataclass
class KgSolution:
    """Ground energy with classification.

    status BOUND carries the smallest intersection e in (-m, m); a second
    intersection, when present, is kept in secondary_e.  e0 is the zero of
    F (the existence edge) when it falls inside the window.
    """

    e: float | None
    m: float
    status: KgStatus
    e0: float | None
    delta_at_e: float | None
    secondary_e: float | None = None


class _CoulombCurve:
    """The Coulomb curve in closed form.

    h(e) = p^2 - 2ev/r - v^2/r^2 is exactly solvable (the -A/r + B/r^2
    form with A = 2ev, B = -v^2); it binds only for e > 0, where the ground
    eigenvalue is -(e v / gamma)^2, gamma = 1/2 + sqrt(1/4 - v^2).  So the
    existence edge is exactly 0.
    """

    def __init__(self, spec: PotentialSpec):
        self.ratio = spec.v / (0.5 + math.sqrt(0.25 - spec.v * spec.v))

    def point(self, e: float) -> SpectralCurvePoint:
        if e <= 0:
            raise NoBoundState(f"Coulomb h(e) has no bound state for e = {e} <= 0")
        f_val = -((e * self.ratio) ** 2)
        f_prime = -2.0 * e * self.ratio * self.ratio
        return SpectralCurvePoint(e=e, F=f_val, F_prime=f_prime, delta=e - 0.5 * f_prime)


class _CurveEngine:
    """Per-solve evaluator for one potential, with one grid for every e:
    the caller's, or by default the box [0, tail_radius(spec, TAIL_EPS)] on
    the three-level grid."""

    def __init__(self, spec: PotentialSpec, grid: GridConfig | None = None):
        self.spec = spec
        if grid is None:
            r_max = potentials.tail_radius(spec, potentials.TAIL_EPS)
            # 64 is the fewest points GridConfig accepts
            grid = GridConfig(r_max, max(64, math.ceil(r_max / _H_FULL)))
        self.full = grid
        self.binding = functools.cache(self._binding)

    def _w(self, e: float) -> Callable:
        spec = self.spec
        def W(r):
            V = potentials.evaluate(spec, r)
            return 2.0 * e * V - V * V
        return W

    def _binding(self, e: float) -> float:
        """Signed binding test of h(e): negative exactly when it binds."""
        return neumann_eigenvalue(self._w(e), self.full)

    def point(self, e: float) -> SpectralCurvePoint:
        res = lowest_eigenvalue(self._w(e), self.full)
        spec = self.spec
        f_prime = 2.0 * expectation(res, lambda r: potentials.evaluate(spec, r))
        return SpectralCurvePoint(e=e, F=res.eigenvalue, F_prime=f_prime, delta=e - 0.5 * f_prime)


def _engine(spec: PotentialSpec, grid: GridConfig | None) -> _CurveEngine | _CoulombCurve:
    """The curve of an admissible spec: closed form for the Coulomb kind,
    which ignores grid, else on the grid.  Raises ValueError otherwise."""
    potentials.validate(spec, Theory.KLEIN_GORDON)
    return _CoulombCurve(spec) if spec.kind is Kind.COULOMB else _CurveEngine(spec, grid)


def F(spec: PotentialSpec, e: float, grid: GridConfig | None = None) -> SpectralCurvePoint:
    """Lowest eigenvalue of h(e) = p^2 + 2eV - V^2 plus slope data.

    The Coulomb kind is in closed form and bypasses the grid.  Raises
    NoBoundState where the curve does not exist.
    """
    return _engine(spec, grid).point(e)


def curve(spec: PotentialSpec, e_values, grid: GridConfig | None = None) -> list[SpectralCurvePoint]:
    """Sample the spectral curve at the given e values, in increasing e,
    leaving out the part of the axis where h(e) has no bound state.

    Existence is monotone in e, so the walk runs from the largest e down and
    stops at the first e where h(e) does not bind: no e below it binds
    either, and no edge search is needed.
    """
    engine = _engine(spec, grid)
    points = []
    for e in sorted((float(e) for e in e_values), reverse=True):
        try:
            points.append(engine.point(e))
        except NoBoundState:
            break
    return points[::-1]


def _continuum_point(e: float) -> SpectralCurvePoint:
    return SpectralCurvePoint(e=e, F=0.0, F_prime=0.0, delta=e)


def _solve_coulomb(curve: _CoulombCurve, m: float) -> KgSolution:
    # F(e) = -(e v / gamma)^2 meets e^2 - m^2 in closed form
    e = m / math.sqrt(1.0 + curve.ratio ** 2)
    pt = curve.point(e)
    return KgSolution(e=e, m=m, status=KgStatus.BOUND, e0=0.0, delta_at_e=pt.delta)


def solve(spec: PotentialSpec, m: float, grid: GridConfig | None = None) -> KgSolution:
    """Smallest root of F(e) = e^2 - m^2 in (-m, m), with classification.

    G(e) = F(e) - e^2 + m^2 is concave, so root searches find every root.
    With the existence edge e0 (the root of the binding test) inside the
    window, G(e0) = m^2 - e0^2 > 0: one root in (e0, m) when G < 0 at the
    right end, else no binding.  Otherwise e0 < -m (past
    critical_coupling_upper), G < 0 at both ends, and the maximum of G,
    where G' = F' - 2e vanishes, has a root on each side if it is positive;
    if not, G < 0 across the whole window: supercritical.
    """
    check_mass(m)
    engine = _engine(spec, grid)
    if isinstance(engine, _CoulombCurve):
        return _solve_coulomb(engine, m)

    eps = WINDOW_MARGIN * m
    hi = m - eps
    lo = -m + eps
    if engine.binding(hi) >= 0:
        return KgSolution(e=None, m=m, status=KgStatus.NO_BINDING, e0=None, delta_at_e=None)

    e0 = None if engine.binding(lo) < 0 else float(brentq(engine.binding, lo, hi, xtol=ROOT_XTOL))
    # where h(e) does not bind, F is the continuum edge 0, as at e0 itself
    points = {} if e0 is None else {e0: _continuum_point(e0)}

    def at(e: float) -> SpectralCurvePoint:
        if e not in points:
            try:
                points[e] = engine.point(e)
            except NoBoundState:
                # brentq may step within roundoff of the existence edge
                points[e] = _continuum_point(e)
        return points[e]

    def g(e: float) -> float:
        return at(e).F - e * e + m * m

    def g_prime(e: float) -> float:
        return at(e).F_prime - 2.0 * e

    left = lo if e0 is None else e0
    if max(g(left), g(hi)) < 0:
        # G' falls through 0 at the maximum of G; without a sign change the
        # maximum is at an end, where G < 0
        peak = float(brentq(g_prime, lo, hi, xtol=ROOT_XTOL)) if g_prime(lo) > 0 > g_prime(hi) else lo
        if g(peak) <= 0:
            return KgSolution(e=None, m=m, status=KgStatus.SUPERCRITICAL, e0=None, delta_at_e=None)
        roots = [float(brentq(g, lo, peak, xtol=ROOT_XTOL)), float(brentq(g, peak, hi, xtol=ROOT_XTOL))]
    elif g(left) * g(hi) < 0:
        roots = [float(brentq(g, left, hi, xtol=ROOT_XTOL))]
    else:
        # G >= 0 at both ends, so throughout
        return KgSolution(e=None, m=m, status=KgStatus.NO_BINDING, e0=e0, delta_at_e=None)

    e_star = roots[0]
    pt = at(e_star)
    return KgSolution(
        e=e_star,
        m=m,
        status=KgStatus.BOUND,
        e0=e0,
        delta_at_e=pt.delta,
        secondary_e=roots[1] if len(roots) > 1 else None,
    )


def _binding_at(spec: PotentialSpec, e: float, grid: GridConfig, v: float) -> float:
    return _CurveEngine(PotentialSpec(spec.kind, v, spec.a, spec.b), grid).binding(e)


def _critical_coupling(spec: PotentialSpec, m: float, e_probe: float, grid: GridConfig | None) -> float:
    """The v where the binding test of h(e_probe) changes sign, by brentq.

    Every v is probed on one grid, the caller's or the default grid of the
    bracket's upper v, whose box covers the range of V for every smaller v;
    on a fixed grid the test is smooth in v.
    """
    if spec.kind is Kind.COULOMB:
        raise ValueError("critical couplings are defined for the short-range kinds only")
    check_mass(m)

    hi = max(2.0 * m, 4.0)
    for _ in range(40):
        box = grid or _CurveEngine(PotentialSpec(spec.kind, hi, spec.a, spec.b)).full
        probe = functools.cache(functools.partial(_binding_at, spec, e_probe, box))
        if probe(hi) < 0:
            break
        hi *= 2.0
    else:
        raise NonBindingSearchError(f"no binding found up to v = {hi}")
    lo = min(1e-2, hi / 2.0)
    while probe(lo) < 0:
        lo /= 4.0
        if lo < 1e-9:
            raise NonBindingSearchError("binding persists at arbitrarily small coupling")
    return float(brentq(probe, lo, hi, xtol=COUPLING_XTOL))


def critical_coupling_lower(spec: PotentialSpec, m: float, grid: GridConfig | None = None) -> float:
    """Binding threshold: smallest v whose curve meets the parabola.

    At threshold the intersection sits at e -> m with F(m) -> 0, so the
    transition coincides with h(m) first acquiring a negative eigenvalue.
    """
    return _critical_coupling(spec, m, m, grid)


def critical_coupling_upper(spec: PotentialSpec, m: float, grid: GridConfig | None = None) -> float:
    """Supercritical threshold: the v where h(-m) first binds, F(-m; v) = 0.

    Past it the existence edge e0 lies below -m, but G can still have roots
    in the window, so solve may still return bound (Woods-Saxon a = 1,
    b = 0.2, m = 1: this v is 3.761477, and at v = 3.765 solve returns
    e = -0.999904 with delta < 0); it reports supercritical only where G
    stays negative across the whole window.
    """
    return _critical_coupling(spec, m, -m, grid)


def curve_csv_rows(points: list[SpectralCurvePoint]) -> list[str]:
    """Rows "e,F,F_prime,delta" with 12 significant digits."""
    return [f"{p.e:.12g},{p.F:.12g},{p.F_prime:.12g},{p.delta:.12g}" for p in points]
