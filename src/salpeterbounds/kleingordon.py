"""Spectral curve F(e) of h(e) = p^2 + 2eV - V^2 and its intersection with
the parabola g(e) = e^2 - m^2.

F(e) is the lowest eigenvalue of the Schrodinger operator h(e); wherever it
exists it is negative, decreasing and concave, and its slope satisfies
F'(e) = 2 <V>.  A mass-m ground energy is the smallest e in (-m, m) with
F(e) = e^2 - m^2.  Because dW/de = 2V <= 0, the set of e where h(e) binds
is an interval stretching up from an existence edge e0 (where F -> 0).

Each shape has one backend.  The Coulomb curve is a closed form.  The
exponential curve, its edge and its critical couplings come from the
e^{-r} series of _ExponentialCurve at every coupling.  Woods-Saxon runs on
the finite-difference engine, the one importer of radial_schrodinger and
scipy's LAPACK extension: one box covering the range of V, closed by exact
exterior matching, whose signed Neumann eigenvalue is the binding test.
Each binding test is negative exactly when h(e) binds; the edge and both
critical couplings are its roots, found by potentials.brentq.

h(e) is affine in e, so F (taken as the continuum edge 0 below e0) is a
minimum of affine functions and G(e) = F(e) - e^2 + m^2 is concave.  solve
brackets the roots of G without a scan: from e0 when the edge is in the
window, where G(e0) > 0, and otherwise on both sides of G's maximum.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from . import potentials
from .potentials import Kind, NoBoundState, NonBindingSearchError, PotentialSpec, Theory, brentq, check_mass

WINDOW_MARGIN = 1e-6   # relative margin keeping the search inside the open window
ROOT_XTOL = 1e-10      # intersections and the existence edge
COUPLING_XTOL = 1e-9   # critical couplings

_H_FULL = 0.025        # coarsest spacing of the default three-level grid

_KAPPA_SCAN = 24       # steps of the downward kappa scan for the largest root of S
_KAPPA_XTOL = 1e-14    # kappa root tolerance; a root below it is the continuum edge


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


def _kummer_sum(kappa, e, v, one, cutoff):
    """S(kappa; e, v) = sum c_n, sum |c_n| and the number of terms, in one's
    number type, until the terms past the peak are below cutoff * sum |c_n|."""
    a, b = -2 * e * v, -v * v
    c_prev, c = 0 * one, one
    total = total_abs = one
    n = 0
    while True:
        n += 1
        d = n * (n + 2 * kappa)
        c_prev, c = c, (a * c + b * c_prev) / d
        total += c
        total_abs += abs(c)
        if d > abs(a) + abs(b) and abs(c) + abs(c_prev) <= cutoff * total_abs:
            return total, total_abs, n


def _kummer_slopes(kappa, e, v, one, cutoff):
    """dS/de and dS/dkappa, each carried through the recurrence, with the
    sum of every |term| and the number of terms, as _kummer_sum."""
    a, b = -2 * e * v, -v * v
    c_prev, c = 0 * one, one
    ce_prev = ce = ck_prev = ck = s_e = s_k = 0 * one
    total_abs = one
    n = 0
    while True:
        n += 1
        d = n * (n + 2 * kappa)
        c_new = (a * c + b * c_prev) / d
        ce_prev, ce = ce, (-2 * v * c + a * ce + b * ce_prev) / d
        ck_prev, ck = ck, (-2 * n * c_new + a * ck + b * ck_prev) / d
        c_prev, c = c, c_new
        s_e += ce
        s_k += ck
        total_abs += abs(c) + abs(ce) + abs(ck)
        tail = abs(c) + abs(c_prev) + abs(ce) + abs(ce_prev) + abs(ck) + abs(ck_prev)
        if d > abs(a) + abs(b) and tail <= cutoff * total_abs:
            return s_e, s_k, total_abs, n


def _in_decimal(series, kappa: float, e: float, v: float, size: float, digits: int) -> list[float]:
    """The sums of series in decimal, each good to digits digits (its sign
    if digits = 0): the precision doubles until each exceeds 10^digits times
    the rounding bound n 10^(1 - prec) sum |terms| of n terms, or until that
    bound is below 1e-325, under half the smallest float64 subnormal, where
    no more digits can change the floats returned."""
    import decimal  # only the sums that float64 cannot certify load it

    prec = 20 + digits + math.ceil(math.log10(size))
    while True:
        with decimal.localcontext(decimal.Context(prec=prec)):
            one = decimal.Decimal(1)
            *sums, total_abs, n = series(*map(decimal.Decimal, (kappa, e, v)), one, one.scaleb(-prec))
            bound = n * total_abs.scaleb(1 - prec)
            if all(abs(x) > bound.scaleb(digits) for x in sums) or bound.adjusted() < -325:
                return [float(x) for x in sums]
        prec *= 2


class _ExponentialCurve:
    """The exponential curve from its e^{-r} series.

    With t = e^{-r}, h(e) = p^2 - 2ev t - v^2 t^2, and u = sum c_n t^(n + kappa)
    with c_0 = 1 and n (n + 2 kappa) c_n = -2ev c_{n-1} - v^2 c_{n-2} solves
    -u'' + W u = -kappa^2 u and decays like e^{-kappa r}: it is Kummer's
    function e^{-iv} M(1/2 + kappa + ie, 1 + 2 kappa, 2iv) (DLMF 13.2),
    which is real.  u(0) = 0 reads S(kappa) = sum c_n = 0, so every root
    kappa > 0 of S is a bound state, and F(e) = -kappa^2 for the largest.
    As -W < v^2 + 2ev, the roots lie below sqrt(v^2 + 2ev), where S > 0.

    S(0) is the zero-energy solution that is flat at infinity, taken at
    r = 0; by Sturm oscillation its sign is (-1)^N for N bound states.
    That alone is not the binding test (at v = 4.5, e = 1, h(e) holds two
    bound states and S(0) > 0), so binding falls back to the kappa scan
    where S(0) >= 0.  Near the edge it is S(0) on both sides, so the edge
    and the critical couplings are roots of the kappa = 0 sum.

    A float64 sum carries the rounding bound eps * sum |c_n|, which grows
    like e^v.  The root searches read only signs, so S is summed again in
    decimal only where the bound exceeds tol and |S|: the sign is in doubt.
    """

    def __init__(self, spec: PotentialSpec, tol: float = ROOT_XTOL):
        self.v = spec.v
        self.tol = tol
        self.binding = functools.cache(self._binding)

    def _float_sum(self, kappa: float, e: float) -> tuple[float, float, bool]:
        """S and sum |c_n| in float64, and whether the sign of S is in doubt."""
        total, size, _ = _kummer_sum(kappa, e, self.v, 1.0, 1e-18)
        bound = sys.float_info.epsilon * size
        return total, size, bound > self.tol and not abs(total) > bound

    def _sum(self, kappa: float, e: float) -> float:
        total, size, doubtful = self._float_sum(kappa, e)
        return _in_decimal(_kummer_sum, kappa, e, self.v, size, 0)[0] if doubtful else total

    def _ground_kappa(self, e: float) -> float | None:
        """The largest root of S, by a downward scan from sqrt(v^2 + 2ev)
        and brentq; None where there is none above _KAPPA_XTOL."""
        top_sq = self.v * (self.v + 2.0 * e)
        if top_sq <= 0:
            return None
        step = math.sqrt(top_sq) / _KAPPA_SCAN
        s = functools.cache(lambda kappa: self._sum(kappa, e))
        for j in range(_KAPPA_SCAN - 1, -1, -1):
            if s(j * step) <= 0:
                kappa = float(brentq(s, j * step, (j + 1) * step, xtol=_KAPPA_XTOL))
                return kappa if kappa > _KAPPA_XTOL else None
        return None

    def _binding(self, e: float) -> float:
        """Negative exactly when h(e) binds: S(0) where it is negative (an
        odd number of bound states) or h(e) does not bind, else -kappa^2 of
        the ground state (an even number)."""
        s0 = self._sum(0.0, e)
        if s0 < 0:
            return s0
        kappa = self._ground_kappa(e)
        return s0 if kappa is None else -kappa * kappa

    def point(self, e: float) -> SpectralCurvePoint:
        kappa = self._ground_kappa(e)
        if kappa is None:
            raise NoBoundState(f"the exponential h(e) has no bound state at e = {e}")
        s_e, s_k, size, _ = _kummer_slopes(kappa, e, self.v, 1.0, 1e-18)
        if self._float_sum(kappa, e)[2]:
            # where float64 cannot sign S at its root, it cannot give S's
            # slopes there either
            s_e, s_k = _in_decimal(_kummer_slopes, kappa, e, self.v, size, 17)
        # F = -kappa^2 with dkappa/de = -S_e / S_kappa along S = 0
        f_prime = 2.0 * kappa * s_e / s_k
        return SpectralCurvePoint(e=e, F=-kappa * kappa, F_prime=f_prime, delta=e - 0.5 * f_prime)


class _CurveEngine:
    """Per-solve finite-difference evaluator, the Woods-Saxon backend, with
    one grid for every e: the box [0, r_max] on the three-level grid, where
    r_max is tail_radius(spec, TAIL_EPS) unless given."""

    def __init__(self, spec: PotentialSpec, r_max: float | None = None):
        # the one import of the FD solver, and so of scipy's LAPACK extension
        from . import radial_schrodinger

        self.fd = radial_schrodinger
        self.spec = spec
        if r_max is None:
            r_max = potentials.tail_radius(spec, potentials.TAIL_EPS)
        # 64 is the fewest points GridConfig accepts
        self.full = radial_schrodinger.GridConfig(r_max, max(64, math.ceil(r_max / _H_FULL)))
        self.binding = functools.cache(self._binding)

    def _w(self, e: float) -> Callable:
        spec = self.spec
        def W(r):
            V = potentials.evaluate(spec, r)
            return 2.0 * e * V - V * V
        return W

    def _binding(self, e: float) -> float:
        """Signed binding test of h(e): negative exactly when it binds."""
        return self.fd.neumann_eigenvalue(self._w(e), self.full)

    def point(self, e: float) -> SpectralCurvePoint:
        res = self.fd.lowest_eigenvalue(self._w(e), self.full)
        spec = self.spec
        f_prime = 2.0 * self.fd.expectation(res, lambda r: potentials.evaluate(spec, r))
        return SpectralCurvePoint(e=e, F=res.eigenvalue, F_prime=f_prime, delta=e - 0.5 * f_prime)


def _on_curve(spec: PotentialSpec):
    """The curve of an admissible spec, one backend per kind: the Coulomb
    closed form, the exponential series, Woods-Saxon on FD.  Raises
    ValueError for an inadmissible spec."""
    potentials.validate(spec, Theory.KLEIN_GORDON)
    if spec.kind is Kind.COULOMB:
        return _CoulombCurve(spec)
    if spec.kind is Kind.EXPONENTIAL:
        return _ExponentialCurve(spec)
    return _CurveEngine(spec)


def F(spec: PotentialSpec, e: float) -> SpectralCurvePoint:
    """Lowest eigenvalue of h(e) = p^2 + 2eV - V^2 plus slope data.

    The Coulomb and exponential kinds are exact and need no grid.  Raises
    NoBoundState where the curve does not exist.
    """
    return _on_curve(spec).point(e)


def curve(spec: PotentialSpec, e_values) -> list[SpectralCurvePoint]:
    """Sample the spectral curve at the given e values, in increasing e,
    leaving out the part of the axis where h(e) has no bound state.

    Existence is monotone in e, so the walk runs from the largest e down and
    stops at the first e where h(e) does not bind: no e below it binds
    either, and no edge search is needed.
    """
    engine = _on_curve(spec)
    points = []
    for e in sorted((float(e) for e in e_values), reverse=True):
        try:
            points.append(engine.point(e))
        except NoBoundState:
            break
    return points[::-1]


def _continuum_point(e: float) -> SpectralCurvePoint:
    return SpectralCurvePoint(e=e, F=0.0, F_prime=0.0, delta=e)


def solve(spec: PotentialSpec, m: float) -> KgSolution:
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
    return _solve(_on_curve(spec), m)


def _solve(engine, m: float) -> KgSolution:
    if isinstance(engine, _CoulombCurve):
        # F(e) = -(e v / gamma)^2 meets e^2 - m^2 in closed form
        e = m / math.sqrt(1.0 + engine.ratio ** 2)
        return KgSolution(e=e, m=m, status=KgStatus.BOUND, e0=0.0, delta_at_e=engine.point(e).delta)

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


def _critical_coupling(spec: PotentialSpec, m: float, e_probe: float) -> float:
    """The v where the binding test of h(e_probe) changes sign, by brentq.

    The exponential kind probes its series, whose signs are certain at
    every v (_in_decimal).  FD (Woods-Saxon) probes every v in one box,
    the default box of the bracket's upper v, which covers the range of V
    for every smaller v; in a fixed box the test is smooth in v.
    """
    if spec.kind is Kind.COULOMB:
        raise ValueError("critical couplings are defined for the short-range kinds only")
    check_mass(m)
    if spec.kind is Kind.EXPONENTIAL:
        @functools.cache
        def series(v: float) -> float:
            return _ExponentialCurve(potentials.exponential(v), COUPLING_XTOL).binding(e_probe)

        return _coupling_root(lambda hi: series, m)

    def at(v: float) -> PotentialSpec:
        return PotentialSpec(spec.kind, v, spec.a, spec.b)

    def fd_probe(hi: float) -> Callable[[float], float]:
        r_max = potentials.tail_radius(at(hi), potentials.TAIL_EPS)
        return functools.cache(lambda v: _CurveEngine(at(v), r_max).binding(e_probe))

    return _coupling_root(fd_probe, m)


def _coupling_root(probe_for: Callable[[float], Callable[[float], float]], m: float) -> float:
    """brentq on probe_for(hi), the binding test as a function of v, over
    [lo, hi]: hi doubles from max(2m, 4) until it binds, then lo quarters
    from 1e-2 until it does not."""
    hi = max(2.0 * m, 4.0)
    for _ in range(40):
        probe = probe_for(hi)
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


def critical_coupling_lower(spec: PotentialSpec, m: float) -> float:
    """Binding threshold: smallest v whose curve meets the parabola.

    At threshold the intersection sits at e -> m with F(m) -> 0, so the
    transition coincides with h(m) first acquiring a negative eigenvalue.
    """
    return _critical_coupling(spec, m, m)


def critical_coupling_upper(spec: PotentialSpec, m: float) -> float:
    """Supercritical threshold: the v where h(-m) first binds, F(-m; v) = 0.

    Past it the existence edge e0 lies below -m, but G can still have roots
    in the window, so solve may still return bound (Woods-Saxon a = 1,
    b = 0.2, m = 1: this v is 3.761477, and at v = 3.765 solve returns
    e = -0.999904 with delta < 0); it reports supercritical only where G
    stays negative across the whole window.
    """
    return _critical_coupling(spec, m, -m)


def curve_csv_rows(points: list[SpectralCurvePoint]) -> list[str]:
    """Rows "e,F,F_prime,delta" with 12 significant digits."""
    return [f"{p.e:.12g},{p.F:.12g},{p.F_prime:.12g},{p.delta:.12g}" for p in points]
