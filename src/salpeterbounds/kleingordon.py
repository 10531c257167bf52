"""Spectral curve F(e) of h(e) = p^2 + 2eV - V^2 and its intersection with
the parabola g(e) = e^2 - m^2.

F(e) is the lowest eigenvalue of the Schrodinger operator h(e); wherever it
exists it is negative, decreasing and concave, and its slope satisfies
F'(e) = 2 <V>.  A mass-m ground energy is the smallest e in (-m, m) with
F(e) = e^2 - m^2.  Because dW/de = 2V <= 0, the set of e where h(e) binds
is an interval stretching up from an existence edge e0 (where F -> 0).

Each shape has one backend, and none needs a grid or numpy.  The Coulomb
curve is a closed form.  The exponential curve comes from its e^{-r}
series (_ExponentialCurve), the Woods-Saxon curve from two hypergeometric
series matched at r = a (_WoodsSaxonCurve); both share _SeriesCurve's
binding test, negative exactly when h(e) binds, whose roots, found by
potentials.brentq, are the edge and both critical couplings.

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
from .potentials import (Kind, NoBoundState, NonBindingSearchError, NonConvergence, PotentialSpec, Theory, brentq,
                         check_mass)

WINDOW_MARGIN = 1e-6   # relative margin keeping the search inside the open window
ROOT_XTOL = 1e-10      # intersections and the existence edge
COUPLING_XTOL = 1e-9   # critical couplings

_KAPPA_XTOL = 1e-14    # kappa root tolerance; a root below it is the continuum edge
_MAX_TERMS = 100_000   # terms after which a series past its peak has failed to settle


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


def _unsettled(kappa, e, v) -> NonConvergence:
    """The error of a series that runs to _MAX_TERMS: past its peak the
    terms shrink, so it has not settled where it should have."""
    return NonConvergence(f"the series at (kappa, e, v) = ({float(kappa.real):.12g}, {float(e.real):.12g}, "
                          f"{float(v):.12g}) did not settle in {_MAX_TERMS} terms")


def _kummer_terms(kappa, e, v, one, cutoff):
    """The terms c_n of _ExponentialCurve, S(kappa; e, v) = sum c_n and
    sum |c_n|, in one's number type, until the terms past the peak are below
    cutoff * sum |c_n|; kappa or e may be complex (_SeriesCurve._slopes)."""
    a, b = -2 * e * v, -v * v
    peak = abs(a) + abs(b)
    c_prev, c = 0 * one, one
    total = total_abs = one
    terms = [c]
    for n in range(1, _MAX_TERMS + 1):
        d = n * (n + 2 * kappa)
        c_prev, c = c, (a * c + b * c_prev) / d
        terms.append(c)
        total += c
        total_abs += abs(c)
        # past the peak; written so that a sum that overflowed float64 stops too
        if abs(d) > peak and not abs(c) + abs(c_prev) > cutoff * total_abs:
            return terms, total, total_abs
    raise _unsettled(kappa, e, v)


def _kummer_sum(kappa, e, v, one, cutoff):
    """S(kappa; e, v), sum |c_n| and the number of terms of _kummer_terms."""
    terms, total, total_abs = _kummer_terms(kappa, e, v, one, cutoff)
    return total, total_abs, len(terms) - 1


def _kummer_nodes(kappa, e, v, one, cutoff):
    """u / t^kappa = sum c_n t^n of _ExponentialCurve on _node_grid's grid
    from t = 1 (r = 0) to f_turn, then sum |c_n| and the number of terms."""
    terms, _, total_abs = _kummer_terms(kappa, e, v, one, cutoff)
    k_max, f_turn = _node_grid(kappa, e, v)
    cells = int(-math.log(f_turn) * k_max / math.pi) + 2
    values = [_horner(terms, _exp(type(one)(math.log(f_turn) * j / cells)), one) for j in range(cells + 1)]
    return (*values, total_abs, len(terms) - 1)


def _node_grid(kappa, e, v) -> tuple[float, float]:
    """k_max = sqrt(max(0, v^2 + 2ev - kappa^2)), with pi / k_max below the
    gap of two zeros of a solution at -kappa^2 (Sturm comparison), and
    f_turn = (sqrt(e^2 + kappa^2) - e) / v, the f below which -W = 2ev f +
    v^2 f^2 < kappa^2, where the decaying solution has no zero."""
    kf, ef, vf = float(kappa), float(e), float(v)
    root = math.sqrt(ef * ef + kf * kf)
    return math.sqrt(max(0.0, float(v * (v + 2 * e)) - kf * kf)), (kf * kf / (root + ef) if ef > 0 else root - ef) / vf


def _horner(terms, w, one):
    """sum terms[n] w^n, by Horner's rule."""
    total = 0 * one
    for term in reversed(terms):
        total = total * w + term
    return total


def _exp(x):
    """e^x for a float or a decimal."""
    return x.exp() if hasattr(x, "exp") else math.exp(x)


class _Complex:
    """x + iy in decimal, which has no complex type: the arithmetic of the
    series and nothing more.  abs() is |x| + |y|, a norm within sqrt(2) of
    the modulus, which is all a size needs."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

    def __add__(self, other):
        if isinstance(other, _Complex):
            return _Complex(self.real + other.real, self.imag + other.imag)
        return _Complex(self.real + other, self.imag)

    __radd__ = __add__

    def __neg__(self):
        return _Complex(-self.real, -self.imag)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, _Complex):
            return _Complex(self.real * other.real - self.imag * other.imag,
                            self.real * other.imag + self.imag * other.real)
        return _Complex(self.real * other, self.imag * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _Complex):
            norm = other.real * other.real + other.imag * other.imag
            return self * _Complex(other.real / norm, -other.imag / norm)
        return _Complex(self.real / other, self.imag / other)

    def __rtruediv__(self, other):
        return _Complex(other, 0 * other) / self

    def __abs__(self):
        return abs(self.real) + abs(self.imag)

    def __float__(self):
        return float(self.real)


def _phase(bsq, ell, one, cutoff):
    """sin(beta ell) / beta and cos(beta ell) for beta^2 = bsq, both even in
    beta (cosh and sinh where bsq < 0): Taylor series at ell / 2^j, where
    |beta ell| / 2^j <= 1/2, then j angle doublings.  decimal has neither
    sin nor cos, and this needs neither."""
    j = 0
    while 4 * abs(bsq) * ell * ell > 4 ** j:
        j += 1
    ell = ell / 2 ** j
    x = -bsq * ell * ell
    sn_term = c_term = sn_sum = c_sum = one
    i = 0
    while abs(c_term) > cutoff:
        i += 2
        c_term = c_term * x / ((i - 1) * i)
        sn_term = sn_term * x / (i * (i + 1))
        c_sum += c_term
        sn_sum += sn_term
    sn, c = ell * sn_sum, c_sum
    for _ in range(j):
        sn, c = 2 * sn * c, c * c - bsq * sn * sn
    return sn, c


def _woods_saxon_z0(a, b, one):
    """z0 = 1 - y(0) of _WoodsSaxonCurve and ell = ln(1 / 2 z0), from
    e^{-a/b}, which cannot overflow, in one's number type."""
    q = a / b
    if isinstance(one, float):
        ex = math.exp(-q)
        return ex / (1 + ex), q + math.log1p(ex) - math.log(2)
    ex = (-q).exp()
    return ex / (1 + ex), q + (1 + ex).ln() - (2 * one).ln()


def _woods_saxon_left(kappa, e, v, b, one, cutoff):
    """The series of _WoodsSaxonCurve about y = 0, u_L = sum t_n (2y)^(n + s):
    its terms t_n, u_L and y u_L'(y) at y = 1/2, and the size of their
    terms."""
    # the recurrence's polynomials in k are expanded
    s, g, h = b * kappa, 2 * b * b * e * v, b * b * v * v
    left_a, left_b, peak = 2 - 2 * g, 2 + h, abs(g) + h
    t = ul = one
    ul_y = s
    size = 1 + abs(s)
    t_prev = tail_prev = 0 * one
    terms = [t]
    for n in range(1, _MAX_TERMS + 1):
        k = n + s
        t_prev, t = t, (((4 * k - 6) * k + left_a) * t - ((k - 3) * k + left_b) * t_prev) / (4 * n * (n + 2 * s))
        terms.append(t)
        ul += t
        ul_y += k * t
        tail = (1 + abs(k)) * abs(t)
        size += tail
        # past the peak; written so that a sum that overflowed float64 stops too
        if n * n > peak and not tail + tail_prev > cutoff * size:
            return terms, ul, ul_y, size
        tail_prev = tail
    raise _unsettled(kappa, e, v)


def _woods_saxon_right(kappa, e, v, b, bsq, z0, one, cutoff):
    """The series of _WoodsSaxonCurve about z = 0, P = sum d_n (2z)^(n + i beta)
    with beta^2 = bsq and d_n = p_n + i beta q_n: the p_n and the q_n; at
    z = 1/2, P = x + i beta y and z P'(z) = xd + i beta yd; at z0, P = x0 +
    i beta y0; and the size of the terms at z = 1/2 and at z0."""
    # A_n = (n-1)(2n-1) + a_shift + i beta (4n - 3), B_n = (n-2)(n-1) + b_shift + i beta (2n - 3)
    a_shift, b_shift = b * b * (2 * e * v + 2 * v * v) - 2 * bsq, b * b * v * v - bsq
    peak = abs(a_shift) + abs(b_shift)
    bsq2, bsq4, z2 = 2 * bsq, 4 * bsq, 2 * z0
    p_prev = q_prev = 0 * one
    p = x = x0 = w0 = size = size0 = one
    q = y = y0 = xt = yt = pq_prev = 0 * one
    ps, qs = [p], [q]
    for n in range(1, _MAX_TERMS + 1):
        ar, ai = (2 * n - 3) * n + 1 + a_shift, 4 * n - 3
        br, bi = (n - 3) * n + 2 + b_shift, 2 * n - 3
        # 4 (A_n d_{n-1} / 2 - B_n d_{n-2} / 4), then divided by 4 n (n + 2 i beta)
        rp = 2 * (ar * p - ai * bsq * q) - (br * p_prev - bi * bsq * q_prev)
        rq = 2 * (ai * p + ar * q) - (bi * p_prev + br * q_prev)
        den = 4 * n * (n * n + bsq4)
        p_prev, q_prev = p, q
        p, q = (n * rp + bsq2 * rq) / den, (n * rq - 2 * rp) / den
        ps.append(p)
        qs.append(q)
        w0 *= z2
        x += p
        y += q
        xt += n * p
        yt += n * q
        x0 += p * w0
        y0 += q * w0
        pq = abs(p) + abs(q)
        size += (1 + n) * pq
        size0 += w0 * pq
        # the last terms' share of x0 x and the like
        if n * n > peak and not (1 + n) * (pq + pq_prev) * (size0 + w0 * size) > cutoff * size * size0:
            return ps, qs, x, y, xt - bsq * y, x + yt, x0, y0, size, size0
        pq_prev = pq
    raise _unsettled(kappa, e, v)


def _woods_saxon_sum(kappa, e, v, a, b, one, cutoff):
    """S(kappa; e, v) of _WoodsSaxonCurve, the size of its terms (a rounding
    scale, as sum |c_n| is for _kummer_sum) and the number of terms, in
    one's number type; kappa or e may be complex (_SeriesCurve._slopes)."""
    z0, ell = _woods_saxon_z0(a, b, one)
    bsq = b * b * (v * v + 2 * e * v - kappa * kappa)
    left, ul, ul_y, l_size = _woods_saxon_left(kappa, e, v, b, one, cutoff)
    ps, _, x, y, xd, yd, x0, y0, size, size0 = _woods_saxon_right(kappa, e, v, b, bsq, z0, one, cutoff)
    # u_R = Im[conj(P(z0)) P(z)] / beta and its z du_R/dz at z = 1/2; the
    # phase is (1 / 2 z0)^(i beta) = e^(i beta ell)
    sn, c = _phase(bsq, ell, one, cutoff)
    u_r = sn * (x0 * x + bsq * y0 * y) + c * (x0 * y - y0 * x)
    u_rz = sn * (x0 * xd + bsq * y0 * yd) + c * (x0 * yd - y0 * xd)
    # each of x, y, xd and yd is below (1 + |bsq|) size, x0 and y0 below size0
    r_size = (abs(sn) * (1 + abs(bsq)) + abs(c)) * (1 + abs(bsq)) * size * size0
    return (ul * u_rz + u_r * ul_y) / 2, l_size * r_size / 2, len(left) + len(ps) - 2


def _woods_saxon_nodes(kappa, e, v, a, b, one, cutoff):
    """u_L of _WoodsSaxonCurve on _node_grid's grid from r = 0 to y = f_turn,
    then the size of the values and the number of terms."""
    z0, ell = _woods_saxon_z0(a, b, one)
    bsq = b * b * (v * v + 2 * e * v - kappa * kappa)
    left, ul, ul_y, l_size = _woods_saxon_left(kappa, e, v, b, one, cutoff)
    ps, qs, x, y, xd, yd, _, _, size, _ = _woods_saxon_right(kappa, e, v, b, bsq, z0, one, cutoff)

    def log_twice_fermi(x):
        # ln(2 / (1 + e^x)), which cannot overflow, in one's number type
        log = math.log(2) - (x + math.log1p(math.exp(-x)) if x > 0 else math.log1p(math.exp(x)))
        return type(one)(log)

    # u_L = alpha Re P + gamma Im P / beta for r <= a, matched to its value
    # and y u_L' at y = 1/2, where x yd - y xd = 2 (the Wronskian)
    alpha, gamma = (ul * yd + y * ul_y) / 2, -(x * ul_y + xd * ul) / 2
    af, bf = float(a), float(b)
    k_max, y_turn = _node_grid(kappa, e, v)
    values = []
    cells = int(af * k_max / math.pi) + 2
    for i in range(cells):
        # ln(2z) at r = a i / cells
        log = log_twice_fermi((af - af * i / cells) / bf)
        w = _exp(log)
        xs, ys = _horner(ps, w, one), _horner(qs, w, one)
        sn_w, c_w = _phase(bsq, log, one, cutoff)
        values.append(alpha * (c_w * xs - bsq * sn_w * ys) + gamma * (sn_w * xs + c_w * ys))
    values.append(ul)
    # past y* = (sqrt(e^2 + kappa^2) - e) / v, where -W - kappa^2 < 0, u_L has no zero
    if y_turn < 0.5:
        length = bf * math.log(1 / y_turn - 1)
        cells = int(length * k_max / math.pi) + 2
        for j in range(1, cells + 1):
            # u_L / (2y)^s at y(a + length j / cells)
            log = log_twice_fermi(length * j / cells / bf)
            values.append(_horner(left, _exp(log), one))
    # alpha and gamma are below l_size (1 + |bsq|) size, the sums at each
    # 2z below size, and |sin(beta l) / beta| <= |l| <= ell
    return (*values, l_size * (1 + abs(bsq)) * (2 + abs(bsq) * abs(ell)) * size * size, len(left) + len(ps) - 2)


def _in_decimal(series, args: tuple, size: float, digits: int) -> list[float]:
    """The sums of series(*args, one, cutoff) in decimal, each good to digits
    digits (its sign if digits = 0): the precision doubles until each
    exceeds 10^digits times the rounding bound n 10^(1 - prec) sum |terms|
    of n terms, or until that bound is below 1e-325, under half the
    smallest float64 subnormal, where no more digits can change the floats
    returned.  The start takes the float64 size, or the largest float where
    that overflowed."""
    import decimal  # only the sums that float64 cannot certify load it

    prec = 20 + digits + math.ceil(math.log10(size if size < sys.float_info.max else sys.float_info.max))
    while True:
        with decimal.localcontext(decimal.Context(prec=prec)):
            one = decimal.Decimal(1)
            *sums, total_abs, n = series(*map(decimal.Decimal, args), one, one.scaleb(-prec))
            bound = n * total_abs.scaleb(1 - prec)
            if all(abs(x) > bound.scaleb(digits) for x in sums) or bound.adjusted() < -325:
                return [float(x) for x in sums]
        prec *= 2


class _SeriesCurve:
    """A short-range curve from a sum S(kappa; e, v): the solution of
    -u'' + W u = -kappa^2 u that decays like e^{-kappa r}, normalized at
    infinity, taken at r = 0.  u(0) = 0 reads S = 0, so every root kappa > 0
    of S is a bound state, and F(e) = -kappa^2 for the largest, which a
    count of states brackets and brentq on S finds (_ground_kappa); S's
    slopes come by complex steps.  As -W <= max(0, v^2 + 2ev), S > 0 from
    kappa = sqrt(v^2 + 2ev) up, where _sum returns 1 unsummed.

    S(0) is the zero-energy solution that is flat at infinity, taken at
    r = 0; by Sturm oscillation its sign is (-1)^N for N bound states.
    That alone is not the binding test (at v = 4.5, e = 1, the exponential
    h(e) holds two bound states and S(0) > 0), so binding falls back to the
    ground kappa where S(0) >= 0.  Near the edge it is S(0) on both sides, so
    the edge and the critical couplings are roots of the kappa = 0 sum.

    A float64 sum carries the rounding bound eps * sum |terms|, which grows
    with v.  The root searches read only signs, so S is summed again in
    decimal only where the bound exceeds tol and |S|: the sign is in doubt,
    as it is where float64 overflows.  Each kind gives _moments, and _series
    and _nodes, functions of (*_args(kappa, e), one, cutoff) in one's number
    type: S, or the decaying solution on _node_grid's grid, then a rounding
    scale and the number of terms.
    """

    def __init__(self, spec: PotentialSpec, tol: float = ROOT_XTOL):
        self.spec = spec
        self.v = spec.v
        self.tol = tol
        self.binding = functools.cache(self._binding)

    def _args(self, kappa: float, e: float) -> tuple:
        return kappa, e, self.v

    def _float_sum(self, kappa: float, e: float) -> tuple[float, float, bool]:
        """S and sum |terms| in float64, and whether the sign of S is in doubt."""
        total, size, _ = self._series(*self._args(kappa, e), 1.0, 1e-18)
        bound = sys.float_info.epsilon * size
        # written so that a NaN or infinite bound is in doubt too
        return total, size, not bound <= self.tol and not abs(total) > bound

    def _sum(self, kappa: float, e: float) -> float:
        if kappa * kappa >= self.v * (self.v + 2.0 * e):
            return 1.0
        total, size, doubtful = self._float_sum(kappa, e)
        return _in_decimal(self._series, self._args(kappa, e), size, 0)[0] if doubtful else total

    def _slopes(self, kappa, e, *rest):
        """dS/de and dS/dkappa by complex steps, S's size and its number of
        terms; rest is _args' rest, one and cutoff.  S at e + ih holds h dS/de
        in its imaginary part, without cancellation, to h^2 = cutoff^4."""
        h = rest[-1] * rest[-1]
        step = 1j * h if isinstance(rest[-2], float) else _Complex(0 * h, h)
        by_e, size, n_e = self._series(kappa, e + step, *rest)
        by_kappa, _, n_kappa = self._series(kappa + step, e, *rest)
        return by_e.imag / h, by_kappa.imag / h, size, n_e + n_kappa

    def _states_below(self, kappa: float, e: float) -> int:
        """The number of eigenvalues of h(e) below -kappa^2, on which
        _ground_kappa searches: the sign changes of _nodes (Sturm
        oscillation), taken again in decimal where float64 cannot sign them."""
        if kappa * kappa >= self.v * (self.v + 2.0 * e):
            return 0
        # at kappa = 0 and e >= 0 no turning point ends the grid; a state
        # above -_KAPPA_XTOL^2 is the continuum edge, and _ground_kappa
        # counts no lower than 4 _KAPPA_XTOL
        kappa = max(kappa, _KAPPA_XTOL)
        *values, size, _ = self._nodes(*self._args(kappa, e), 1.0, 1e-18)
        if not all(abs(x) > sys.float_info.epsilon * size for x in values):
            values = _in_decimal(self._nodes, self._args(kappa, e), size, 0)
        return sum((x < 0) != (y < 0) for x, y in zip(values, values[1:]))

    def _ground_kappa(self, e: float) -> float | None:
        """The largest root of S, None where no state lies above the floor 4
        _KAPPA_XTOL.  Probes step down from the top sqrt(v^2 + 2ev) until a
        state lies below -kappa^2, the first step top^(1/3) (the Airy spacing
        of the deepest levels, at most top / 2) and each later one twice the
        last; bisection on the count leaves a bracket with one state at its
        low end and none at its high end, where brentq finds S's root."""
        top_sq = self.v * (self.v + 2.0 * e)
        if top_sq <= 0:
            return None
        floor, hi = 4 * _KAPPA_XTOL, math.sqrt(top_sq)
        below, lo, step = 0, hi, min(hi ** (1 / 3), hi / 2)
        while not below:
            if lo == floor:
                return None
            hi, lo, step = lo, max(lo - step, floor), 2 * step
            below = self._states_below(lo, e)
        for _ in range(100):
            if below == 1:
                break
            mid = 0.5 * (lo + hi)
            below_mid = self._states_below(mid, e)
            if below_mid:
                lo, below = mid, below_mid
            else:
                hi = mid
        else:
            raise NonConvergence(f"no bracket of the ground state of h(e) at e = {e:.12g}, v = {self.v:.12g}")
        s = functools.cache(lambda kappa: self._sum(kappa, e))
        if s(lo) < 0 < s(hi):
            return float(brentq(s, lo, hi, xtol=_KAPPA_XTOL))
        if lo == floor:
            # a state within rounding of the continuum edge, which the count
            # sees and S does not: h(e) does not bind
            return None
        raise NonConvergence(f"S keeps its sign across the ground state of h(e) at e = {e:.12g}, v = {self.v:.12g}")

    def _binding(self, e: float) -> float:
        """Negative exactly when h(e) binds: S(0) where it is negative (an
        odd number of bound states) or h(e) does not bind, else -kappa^2 of
        the ground state (an even number).  Bargmann's bound N < int r
        max(0, -W) dr (Proc. Natl. Acad. Sci. 38 (1952) 961) skips the
        ground kappa's count search where it allows at most one state, which
        S(0) >= 0 rules out."""
        s0 = self._sum(0.0, e)
        if s0 < 0 or self._bargmann(e) <= 2:
            return s0
        kappa = self._ground_kappa(e)
        return s0 if kappa is None else -kappa * kappa

    def _bargmann(self, e: float) -> float:
        """An upper bound on int r max(0, -W) dr, -W = 2ev f + v^2 f^2, from
        the shape's moments m1 >= int r f dr and m2 >= int r f^2 dr; for
        e < 0, -W <= (v^2 + 2ev) f^2 as f <= 1."""
        m1, m2 = self._moments()
        v = self.v
        return v * v * m2 + 2.0 * e * v * m1 if e >= 0 else max(0.0, v * (v + 2.0 * e)) * m2

    def point(self, e: float) -> SpectralCurvePoint:
        kappa = self._ground_kappa(e)
        if kappa is None:
            raise NoBoundState(f"the {self.spec.kind.value} h(e) has no bound state at e = {e}")
        s_e, s_k, size, _ = self._slopes(*self._args(kappa, e), 1.0, 1e-18)
        if self._float_sum(kappa, e)[2] or not size < math.inf:
            # where float64 cannot sign S at its root, it cannot give S's
            # slopes there either
            s_e, s_k = _in_decimal(self._slopes, self._args(kappa, e), size, 17)
        # F = -kappa^2 with dkappa/de = -S_e / S_kappa along S = 0
        f_prime = 2.0 * kappa * s_e / s_k
        return SpectralCurvePoint(e=e, F=-kappa * kappa, F_prime=f_prime, delta=e - 0.5 * f_prime)


class _ExponentialCurve(_SeriesCurve):
    """The exponential curve from its e^{-r} series.

    With t = e^{-r}, h(e) = p^2 - 2ev t - v^2 t^2, and u = sum c_n t^(n + kappa)
    with c_0 = 1 and n (n + 2 kappa) c_n = -2ev c_{n-1} - v^2 c_{n-2} solves
    -u'' + W u = -kappa^2 u and decays like e^{-kappa r}: it is Kummer's
    function e^{-iv} M(1/2 + kappa + ie, 1 + 2 kappa, 2iv) (DLMF 13.2),
    which is real.  S(kappa) = sum c_n is u(0).
    """

    _series = staticmethod(_kummer_sum)
    _nodes = staticmethod(_kummer_nodes)

    def _moments(self) -> tuple[float, float]:
        # int r e^{-r} dr and int r e^{-2r} dr
        return 1.0, 0.25


class _WoodsSaxonCurve(_SeriesCurve):
    """The Woods-Saxon curve from two series matched at r = a.

    With y = 1/(1 + e^{(r-a)/b}), V = -v y and D = y (1 - y) d/dy, h(e)
    reads D^2 u = b^2 (kappa^2 - 2ev y - v^2 y^2) u, a hypergeometric
    equation (Rojas and Villalba, Phys. Rev. A 71 (2005) 052101).
    - About y = 0 (r -> infinity): u_L = sum t_n (2y)^(n + s), s = b kappa,
      k = n + s, t_0 = 1 and 4 n (n + 2s) t_n = 2 ((k-1)(2k-1) - 2b^2 ev)
      t_{n-1} - ((k-2)(k-1) + b^2 v^2) t_{n-2}.  It decays like e^{-kappa r}.
    - About z = 1 - y = 0 (r -> -infinity): P = sum d_n (2z)^(n + i beta),
      beta = b sqrt(v^2 + 2ev - kappa^2), d_0 = 1 and n (n + 2 i beta) d_n
      = d_{n-1} ((k-1)(2k-1) + b^2 (2ev + 2v^2)) - d_{n-2} ((k-2)(k-1)
      + b^2 v^2), now k = n + i beta.  u_R = Im[conj(P(z0)) P(z)] / beta is
      real and vanishes at r = 0, z0 = 1/(1 + e^{a/b}).  It is even in
      beta, so d_n = p_n + i beta q_n is carried as the real pair (p_n, q_n).
    Both converge like 2^{-n} at y = z = 1/2.  There u_R has the Wronskian
    z du_R/dz = 1/(1 - z0) at z0, so r = 0 gives S = u_L(0) =
    (u_L z u_R' + u_R y u_L') / 2 at y = 1/2; _sum sums it where beta is real.
    """

    _series = staticmethod(_woods_saxon_sum)
    _nodes = staticmethod(_woods_saxon_nodes)

    def _args(self, kappa: float, e: float) -> tuple:
        return kappa, e, self.v, self.spec.a, self.spec.b

    def _moments(self) -> tuple[float, float]:
        # int r y dr = a^2/2 + pi^2 b^2/6 + b^2 Li2(-e^{-a/b}), whose last
        # term is negative; y^2 = y - y (1 - y) and int r y (1 - y) dr =
        # b int y dr = b^2 ln(1 + e^{a/b}) >= a b
        a, b = self.spec.a, self.spec.b
        m1 = 0.5 * a * a + math.pi ** 2 * b * b / 6.0
        return m1, m1 - a * b


def _on_curve(spec: PotentialSpec, tol: float = ROOT_XTOL):
    """The curve of an admissible spec, one backend per kind: the Coulomb
    closed form, the exponential and Woods-Saxon series.  Raises ValueError
    for an inadmissible spec."""
    potentials.validate(spec, Theory.KLEIN_GORDON)
    if spec.kind is Kind.COULOMB:
        return _CoulombCurve(spec)
    if spec.kind is Kind.EXPONENTIAL:
        return _ExponentialCurve(spec, tol)
    return _WoodsSaxonCurve(spec, tol)


def F(spec: PotentialSpec, e: float) -> SpectralCurvePoint:
    """Lowest eigenvalue of h(e) = p^2 + 2eV - V^2 plus slope data, exact
    for every kind.  Raises NoBoundState where the curve does not exist.
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
    """The v where the binding test of h(e_probe) changes sign, by brentq
    on the series, whose signs are certain at every v (_in_decimal)."""
    if spec.kind is Kind.COULOMB:
        raise ValueError("critical couplings are defined for the short-range kinds only")
    check_mass(m)

    @functools.cache
    def probe(v: float) -> float:
        return _on_curve(PotentialSpec(spec.kind, v, spec.a, spec.b), COUPLING_XTOL).binding(e_probe)

    return _coupling_root(probe, m)


def _coupling_root(probe: Callable[[float], float], m: float) -> float:
    """brentq on probe, the binding test as a function of v, over [lo, hi]:
    hi doubles from max(2m, 4) until it binds, then lo quarters from 1e-2
    until it does not."""
    hi = max(2.0 * m, 4.0)
    for _ in range(40):
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
