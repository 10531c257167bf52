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
the edge and both critical couplings are its roots, found by brentq.

h(e) is affine in e, so F (taken as the continuum edge 0 below e0) is a
minimum of affine functions and G(e) = F(e) - e^2 + m^2 is concave.  solve
brackets the roots of G without a scan: from e0 when the edge is in the
window, where G(e0) > 0, and otherwise on both sides of G's maximum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from . import potentials
from .potentials import Kind, PotentialSpec, Theory
from .radial_schrodinger import (
    GridConfig,
    NoBoundState,
    expectation,
    lowest_eigenvalue,
    neumann_eigenvalue,
)

WINDOW_MARGIN = 1e-6   # relative margin keeping the search inside the open window
ROOT_XTOL = 1e-10      # intersections and the existence edge
COUPLING_XTOL = 1e-9   # critical couplings

_H_FULL = 0.025        # coarsest spacing of the default three-level grid
_TAIL_EPS = 1e-12      # the box ends where |V| <= this


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
    mean_V: float
    delta: float


@dataclass
class KgSolution:
    """Ground energy with classification.

    status BOUND carries the smallest intersection e in (-m, m); a second
    intersection, when present, is kept in secondary_e.  e0 is the zero of
    F (the existence edge) when it falls inside the window.  curve_samples
    are the points of F that the root searches evaluated, sorted by e; they
    include e itself and so bracket it.
    """

    e: float | None
    m: float
    status: KgStatus
    e0: float | None
    delta_at_e: float | None
    curve_samples: list[SpectralCurvePoint] = field(default_factory=list)
    secondary_e: float | None = None


def _kratzer_gamma(v: float) -> float:
    if v >= 0.5:
        raise ValueError(f"Coulomb coupling {v} >= 1/2: no Klein-Gordon ground state")
    return 0.5 + math.sqrt(0.25 - v * v)


def _coulomb_point(spec: PotentialSpec, e: float) -> SpectralCurvePoint:
    # h(e) = p^2 - 2ev/r - v^2/r^2 is exactly solvable; it binds only for
    # e > 0, where the ground eigenvalue is -(e v / gamma)^2.
    gamma = _kratzer_gamma(spec.v)
    if e <= 0:
        raise NoBoundState(f"Coulomb h(e) has no bound state for e = {e} <= 0")
    ratio = spec.v / gamma
    f_val = -((e * ratio) ** 2)
    f_prime = -2.0 * e * ratio * ratio
    return SpectralCurvePoint(e=e, F=f_val, F_prime=f_prime, mean_V=0.5 * f_prime, delta=e - 0.5 * f_prime)


class _CurveEngine:
    """Per-solve evaluator for one potential, with one grid for every e:
    the caller's, or by default the box [0, tail_radius(spec, 1e-12)] on a
    three-level grid."""

    def __init__(self, spec: PotentialSpec, grid: GridConfig | None = None):
        self.spec = spec
        if grid is None:
            r_max = potentials.tail_radius(spec, _TAIL_EPS)
            # 64 is the fewest points GridConfig accepts
            grid = GridConfig(r_max, max(64, math.ceil(r_max / _H_FULL)), refinement_levels=3)
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

    def edge(self, lo: float, hi: float) -> float | None:
        """Existence edge e0 in (lo, hi), or None when h(lo) binds already.

        h(hi) must bind.
        """
        if self.binding(lo) < 0:
            return None
        return float(brentq(self.binding, lo, hi, xtol=ROOT_XTOL))

    def point(self, e: float) -> SpectralCurvePoint:
        res = lowest_eigenvalue(self._w(e), self.full)
        spec = self.spec
        mean_v = expectation(res, lambda r: potentials.evaluate(spec, r))
        f_prime = 2.0 * mean_v
        return SpectralCurvePoint(e=e, F=res.eigenvalue, F_prime=f_prime, mean_V=mean_v, delta=e - 0.5 * f_prime)


def _sample(point: Callable[[float], SpectralCurvePoint], e_values) -> list[SpectralCurvePoint]:
    """point(e) for each e, skipping those where h(e) has no bound state."""
    points = []
    for e in e_values:
        try:
            points.append(point(e))
        except NoBoundState:
            continue
    return points


def F(spec: PotentialSpec, e: float, grid: GridConfig | None = None) -> SpectralCurvePoint:
    """Lowest eigenvalue of h(e) = p^2 + 2eV - V^2 plus slope data.

    The Coulomb kind bypasses the grid: its h(e) reduces to the exactly
    solvable -A/r + B/r^2 form with A = 2ev, B = -v^2.  Raises NoBoundState
    where the curve does not exist.
    """
    report = potentials.validate(spec, Theory.KLEIN_GORDON)
    if not report.accepted:
        raise ValueError(report.reason)
    if spec.kind is Kind.COULOMB:
        return _coulomb_point(spec, e)
    return _CurveEngine(spec, grid).point(e)


def curve(spec: PotentialSpec, e_values, grid: GridConfig | None = None) -> list[SpectralCurvePoint]:
    """Sample the spectral curve at the given e values, skipping the part
    of the axis where h(e) has no bound state.

    Existence is monotone in e, so one root search for the edge e0 (the
    zero of the signed binding test) replaces a per-point probe when part
    of the range is undefined.
    """
    report = potentials.validate(spec, Theory.KLEIN_GORDON)
    if not report.accepted:
        raise ValueError(report.reason)
    e_values = sorted(float(e) for e in e_values)
    if spec.kind is Kind.COULOMB:
        return _sample(lambda e: _coulomb_point(spec, e), e_values)
    engine = _CurveEngine(spec, grid)
    if engine.binding(e_values[-1]) >= 0:
        return []
    e0 = engine.edge(e_values[0], e_values[-1])
    return _sample(engine.point, [e for e in e_values if e0 is None or e > e0])


def _continuum_point(e: float) -> SpectralCurvePoint:
    return SpectralCurvePoint(e=e, F=0.0, F_prime=0.0, mean_V=0.0, delta=e)


def _solve_coulomb(spec: PotentialSpec, m: float) -> KgSolution:
    gamma = _kratzer_gamma(spec.v)
    e = m / math.sqrt(1.0 + (spec.v / gamma) ** 2)
    pt = _coulomb_point(spec, e)
    es = np.linspace(e / 8.0, m * (1.0 - WINDOW_MARGIN), 33)
    samples = [_coulomb_point(spec, float(x)) for x in es]
    return KgSolution(e=e, m=m, status=KgStatus.BOUND, e0=0.0, delta_at_e=pt.delta, curve_samples=samples)


def solve(spec: PotentialSpec, m: float, grid: GridConfig | None = None) -> KgSolution:
    """Smallest root of F(e) = e^2 - m^2 in (-m, m), with classification.

    G(e) = F(e) - e^2 + m^2 is concave, so root searches find every root.
    With the existence edge e0 (the root of the binding test) inside the
    window, G(e0) = m^2 - e0^2 > 0: one root in (e0, m) when G < 0 at the
    right end, else no binding.  Otherwise G < 0 at both ends, and the
    maximum of G, where G' = F' - 2e vanishes, has a root on each side if it
    is positive; if not, the intersection slipped below -m: supercritical.
    """
    if not (np.isfinite(m) and m > 0):
        raise ValueError(f"mass must be positive, got {m}")
    report = potentials.validate(spec, Theory.KLEIN_GORDON)
    if not report.accepted:
        raise ValueError(report.reason)
    if spec.kind is Kind.COULOMB:
        return _solve_coulomb(spec, m)

    engine = _CurveEngine(spec, grid)
    eps = WINDOW_MARGIN * m
    hi = m - eps
    lo = -m + eps
    if engine.binding(hi) >= 0:
        return KgSolution(e=None, m=m, status=KgStatus.NO_BINDING, e0=None, delta_at_e=None)

    e0 = engine.edge(lo, hi)
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
        curve_samples=sorted((p for p in points.values() if p.F < 0), key=lambda p: p.e),
        secondary_e=roots[1] if len(roots) > 1 else None,
    )


class NonBindingSearchError(Exception):
    """Coupling bracketing failed; the configured search range is exhausted."""


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
    """Supercritical threshold: v with F(-m; v) = 0.

    Beyond it the intersection would need e < -m and the ground state stops
    being a bound state; located as the v where h(-m) first binds.
    """
    return _critical_coupling(spec, m, -m, grid)


@dataclass
class ConcavityReport:
    """Concavity / slope diagnostics of F on an e-grid."""

    points: list[SpectralCurvePoint]
    midpoint_violations: list[tuple[float, float]]
    tangent_violations: list[tuple[float, float, float]]
    delta_prime: list[tuple[float, float]]
    tol: float

    @property
    def ok(self) -> bool:
        return not self.midpoint_violations and not self.tangent_violations


def concavity_scan(
    spec: PotentialSpec,
    e_grid,
    grid: GridConfig | None = None,
    tol: float = 1e-8,
) -> ConcavityReport:
    """Sample F on e_grid and check midpoint concavity plus tangent bounds.

    Midpoint checks use consecutive uniformly spaced triples; the tangent
    check F(e) <= F(e1) + (e - e1) F'(e1) + tol runs over all sample pairs.
    delta_prime holds the finite-difference values of 1 - F''/2 at interior
    points (concavity makes them exceed 1).  Violations are reported, never
    raised.
    """
    e_grid = [float(e) for e in e_grid]
    if len(e_grid) < 3:
        raise ValueError("e_grid needs at least 3 points")
    if spec.kind is Kind.COULOMB:
        pts = _sample(lambda e: _coulomb_point(spec, e), e_grid)
    else:
        pts = _sample(_CurveEngine(spec, grid).point, e_grid)
    mid_viol: list[tuple[float, float]] = []
    dprime: list[tuple[float, float]] = []
    for left, center, right in zip(pts, pts[1:], pts[2:]):
        d1 = center.e - left.e
        d2 = right.e - center.e
        if abs(d1 - d2) > 1e-10 * max(abs(d1), abs(d2)):
            continue
        gap = center.F - 0.5 * (left.F + right.F)
        if gap < -tol:
            mid_viol.append((center.e, gap))
        second = (right.F - 2.0 * center.F + left.F) / (d1 * d1)
        dprime.append((center.e, 1.0 - 0.5 * second))
    tan_viol: list[tuple[float, float, float]] = []
    for anchor in pts:
        for other in pts:
            excess = other.F - (anchor.F + (other.e - anchor.e) * anchor.F_prime)
            if excess > tol:
                tan_viol.append((other.e, anchor.e, excess))
    return ConcavityReport(
        points=pts,
        midpoint_violations=mid_viol,
        tangent_violations=tan_viol,
        delta_prime=dprime,
        tol=tol,
    )


def curve_csv_rows(points: list[SpectralCurvePoint]) -> list[str]:
    """Rows "e,F,F_prime,delta" with 12 significant digits."""
    return [f"{p.e:.12g},{p.F:.12g},{p.F_prime:.12g},{p.delta:.12g}" for p in points]
