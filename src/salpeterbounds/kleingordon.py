"""Spectral curve F(e) of h(e) = p^2 + 2eV - V^2 and its intersection with
the parabola g(e) = e^2 - m^2.

F(e) is the lowest eigenvalue of the Schrodinger operator h(e); wherever it
exists it is negative, decreasing and concave, and its slope satisfies
F'(e) = 2 <V>.  A mass-m ground energy is the particle root: the e in
(-m, m) where F(e) = e^2 - m^2 and F falls through the parabola as e
rises.  Because dW/de = 2V <= 0, the set of e where h(e) binds is an
interval stretching up from an existence edge e0 (where F -> 0).

Each shape has one backend, and none needs a grid or numpy.  The Coulomb
curve is a closed form.  The exponential curve comes from its e^{-r}
series (_ExponentialCurve), the Woods-Saxon curve from two hypergeometric
series matched at r = a (_WoodsSaxonCurve), both through _SeriesCurve.

h(e) is affine in e, so F (taken as the continuum edge 0 below e0) is a
minimum of affine functions and G(e) = F(e) - e^2 + m^2 is concave.  For
the series kinds a root of G is a root of T(e) = S(sqrt(m^2 - e^2); e, v),
whose sign is (-1)^N for the N levels of h(e) below e^2 - m^2 (Sturm
oscillation).  Every root in e or v is one search (_level_crossing), where
state counts bracket N going from 0 to 1 and brentq finds it: the particle
root on T, from e0 or from the maximum of G, and the edge e0 and both
critical couplings on the kappa = 0 sum, where h(e) gains its first state.
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

    status BOUND carries the particle root e in (-m, m), where F falls
    through the parabola as e rises, so delta_at_e > 0.  Past
    critical_coupling_upper G can have a second root, below e, where F
    rises through it: the antiparticle root (delta < 0), kept in
    secondary_e.  e0 is the zero of F (the existence edge) when it falls
    inside the window.
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
    cells = _cells(-math.log(f_turn), k_max)
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


def _cells(length: float, k_max: float) -> int:
    """The cells, each shorter than pi / k_max, of a node grid over length;
    NonConvergence past _MAX_TERMS of them (a well too wide to count)."""
    cells = length * k_max / math.pi + 2
    if not cells <= _MAX_TERMS:
        raise NonConvergence(f"a state count needs {cells:.3g} grid cells over a length {length:.6g}, more than "
                             f"{_MAX_TERMS}")
    return int(cells)


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


def _phase(bsq, ell, one, cutoff):
    """sin(beta ell) / beta and cos(beta ell) for beta^2 = bsq, both even in
    beta (cosh and sinh where bsq < 0): Taylor series at ell / 2^j, where
    |beta ell| / 2^j <= 1/2, then j angle doublings.  decimal has neither
    sin nor cos, and this needs neither."""
    size = 4 * abs(bsq) * ell * ell
    if not size < math.inf:
        raise NonConvergence(f"the phase of beta^2 = {float(bsq):.6g} over ell = {float(ell):.6g} overflows")
    j = 0
    while size > 4 ** j:
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
    cells = _cells(af, k_max)
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
        cells = _cells(length, k_max)
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
    That alone does not tell whether h(e) binds (at v = 4.5, e = 1, the
    exponential h(e) holds two bound states and S(0) > 0), so binds falls
    back to the ground kappa where S(0) >= 0; but where h(e) gains its
    first state S(0) changes sign, at the edge and the critical couplings.

    A float64 sum carries the rounding bound eps * sum |terms|, which grows
    with v.  The root searches read only signs, so S is summed again in
    decimal only where the bound exceeds tol and |S|: the sign is in doubt,
    as it is where float64 overflows.  Each kind gives _series and _nodes,
    functions of (*_args(kappa, e), one, cutoff) in one's number
    type: S, or the decaying solution on _node_grid's grid, then a rounding
    scale and the number of terms.
    """

    def __init__(self, spec: PotentialSpec, tol: float = ROOT_XTOL):
        self.spec = spec
        self.v = spec.v
        self.tol = tol

    def _args(self, kappa: float, e: float) -> tuple:
        return kappa, e, self.v

    def _doubtful(self, total: float, size: float) -> bool:
        """Whether float64 cannot sign a sum S = total of terms whose
        absolute values add up to size."""
        bound = sys.float_info.epsilon * size
        # written so that a NaN or infinite bound is in doubt too
        return not bound <= self.tol and not abs(total) > bound

    def _sum(self, kappa: float, e: float) -> float:
        if kappa * kappa >= self.v * (self.v + 2.0 * e):
            return 1.0
        total, size, _ = self._series(*self._args(kappa, e), 1.0, 1e-18)
        return _in_decimal(self._series, self._args(kappa, e), size, 0)[0] if self._doubtful(total, size) else total

    def _slopes(self, kappa, e, *rest):
        """S, dS/de and dS/dkappa by complex steps, S's size and its number
        of terms; rest is _args' rest, one and cutoff.  S at e + ih holds S
        in its real part and h dS/de in its imaginary part, without
        cancellation, to h^2 = cutoff^4."""
        h = rest[-1] * rest[-1]
        step = 1j * h if isinstance(rest[-2], float) else _Complex(0 * h, h)
        by_e, size, n_e = self._series(kappa, e + step, *rest)
        by_kappa, _, n_kappa = self._series(kappa + step, e, *rest)
        return by_e.real, by_e.imag / h, by_kappa.imag / h, size, n_e + n_kappa

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

    def binds(self, e: float) -> bool:
        """Whether h(e) binds: S(0) < 0 (N is odd), else the ground kappa exists."""
        return self._sum(0.0, e) < 0 or self._ground_kappa(e) is not None

    def point(self, e: float) -> SpectralCurvePoint:
        kappa = self._ground_kappa(e)
        if kappa is None:
            raise NoBoundState(f"the {self.spec.kind.value} h(e) has no bound state at e = {e}")
        return self._point_at(kappa, e)

    def _point_at(self, kappa: float, e: float) -> SpectralCurvePoint:
        """The curve point at e whose level -kappa^2, a root of S, is known."""
        s, s_e, s_k, size, _ = self._slopes(*self._args(kappa, e), 1.0, 1e-18)
        if self._doubtful(s, size):
            # where float64 cannot sign S at its root, it cannot give S's
            # slopes there either; S ~ 0 there, so decimal is not asked
            # for its digits
            s_e, s_k = _in_decimal(lambda *args: self._slopes(*args)[1:], self._args(kappa, e), size, 17)
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


def solve(spec: PotentialSpec, m: float) -> KgSolution:
    """The particle root of F(e) = e^2 - m^2 in (-m, m), with
    classification.

    G(e) = F(e) - e^2 + m^2 is concave, so it has at most two roots.  With
    the existence edge e0 (where h(e) gains its first state) inside the window,
    G(e0) = m^2 - e0^2 > 0: one root in (e0, m) when G < 0 at the right
    end, else no binding.  Otherwise e0 < -m (past
    critical_coupling_upper); where G < 0 at both ends, the maximum of G,
    where G' = F' - 2e vanishes, has a root on each side if it is positive,
    the particle root above it and the antiparticle root (secondary_e)
    below; if not, G < 0 across the whole window: supercritical.

    A series kind finds each root on T(e) = S(sqrt(m^2 - e^2); e, v), which
    is negative exactly where an odd number N of levels of h(e) lie below
    e^2 - m^2: from an end with N = 0, probes stepping away from it and
    then bisection on N reach a bracket with N = 1 at its other end, and
    brentq on T finds the root there (_level_crossing); e0 is the same
    search on S(0; e), whose sign is (-1)^N for all N states of h(e).  At
    the root the level's kappa is sqrt(m^2 - e^2), so delta needs S's
    slopes there, after one Newton step onto the level, and no kappa
    search.
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
    if not engine.binds(hi):
        return KgSolution(e=None, m=m, status=KgStatus.NO_BINDING, e0=None, delta_at_e=None)
    # the count of all states grows fast past the edge: short first steps
    e0 = None if engine.binds(lo) else _level_crossing(lambda e: engine._sum(0.0, e),
                                                       lambda e: engine._states_below(0.0, e), lo, hi, first=1 / 64)

    def kappa(e: float) -> float:
        # factored: m^2 - e^2 cancels to roundoff where e nears +-m
        return math.sqrt((m - e) * (m + e))

    def count(e: float) -> int:
        return engine._states_below(kappa(e), e)

    t = functools.cache(lambda e: engine._sum(kappa(e), e))
    at = functools.cache(engine.point)

    def g(e: float) -> float:
        return at(e).F - e * e + m * m

    left, secondary = e0, None
    if e0 is None:
        # past critical_coupling_upper h(e) binds across the window
        def g_prime(e: float) -> float:
            return at(e).F_prime - 2.0 * e

        left = lo
        if max(g(lo), g(hi)) < 0:
            # N = 0 only around the maximum of G, where G' falls through 0;
            # without a sign change the maximum is at an end, where G < 0
            left = float(brentq(g_prime, lo, hi, xtol=ROOT_XTOL)) if g_prime(lo) > 0 > g_prime(hi) else lo
            if g(left) <= 0:
                return KgSolution(e=None, m=m, status=KgStatus.SUPERCRITICAL, e0=None, delta_at_e=None)
            secondary = _level_crossing(t, count, left, lo)
    # T < 0 at the right end leaves an odd N there; where T > 0, G tells
    # N = 0 from two levels or more
    if t(hi) > 0 and g(hi) >= 0:
        # no level has crossed the parabola
        return KgSolution(e=None, m=m, status=KgStatus.NO_BINDING, e0=e0, delta_at_e=None)
    e = _level_crossing(t, count, left, hi)
    # kappa(e) is within the root tolerance of the level, where S's slopes
    # already differ in the ninth digit at v = 20: one Newton step on S puts
    # it on the level
    k = kappa(e)
    s, _, s_k, size, _ = engine._slopes(*engine._args(k, e), 1.0, 1e-18)
    if not engine._doubtful(s, size):
        k -= s / s_k
    return KgSolution(e=e, m=m, status=KgStatus.BOUND, e0=e0, delta_at_e=engine._point_at(k, e).delta,
                      secondary_e=secondary)


def _level_crossing(t: Callable[[float], float], count: Callable[[float], int], free: float, bound: float,
                    xtol: float = ROOT_XTOL, first: float = 1 / 16) -> float:
    """The root of t between free, where no level lies below the threshold
    that t signs, and bound, where one or more do: the parabola for solve's
    particle root (from a free right end, the antiparticle root), and 0 for
    the edge e0 and, in v, for the critical couplings.  Probes step from
    free toward bound, the first a fraction first of the way and each later
    step twice the last, until one finds a level below; bisection on the
    count then leaves a bracket with one level at its bound end, where t <
    0 < t(free), and brentq on t finds the crossing.  A count costs about
    its number of levels times the series' terms, so none is taken where
    many levels lie below: not at bound, and not at the bracket's middle
    for a root near free (at exponential v = 700, m = 400, with the particle
    root at -280, a count there found 72 levels and took 2.5 s)."""
    t = functools.cache(t)
    step = (bound - free) * first
    for _ in range(100):
        # the step while it is short of half the bracket, then its midpoint
        probe = free + step if abs(step) < 0.5 * abs(bound - free) else 0.5 * (free + bound)
        below = count(probe)
        if not below:
            free, step = probe, 2 * step
            continue
        bound = probe
        if below == 1:
            break
    else:
        raise NonConvergence(f"no bracket of a single level crossing in [{free:.12g}, {bound:.12g}]")
    if not t(bound) < 0 < t(free):
        raise NonConvergence(f"the sum keeps its sign across the level crossing in [{free:.12g}, {bound:.12g}]")
    return float(brentq(t, free, bound, xtol=xtol))


def _critical_coupling(spec: PotentialSpec, m: float, e_probe: float) -> float:
    """The v where h(e_probe) gains its first bound state: from v = 1e-2, v
    doubles until h(e_probe) binds or quarters until it does not, and the
    kappa = 0 sum's level crossing in that bracket is the root."""
    if spec.kind is Kind.COULOMB:
        raise ValueError("critical couplings are defined for the short-range kinds only")
    check_mass(m)

    def at(v: float) -> _SeriesCurve:
        return _on_curve(PotentialSpec(spec.kind, v, spec.a, spec.b), COUPLING_XTOL)

    binds = functools.cache(lambda v: at(v).binds(e_probe))
    lo = hi = 1e-2
    while binds(lo):
        hi, lo = lo, lo / 4.0
        if lo < 1e-9:
            raise NonBindingSearchError("binding persists at arbitrarily small coupling")
    while not binds(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 1e18:
            raise NonBindingSearchError(f"no binding found up to v = {lo}")
    return _level_crossing(lambda v: at(v)._sum(0.0, e_probe), lambda v: at(v)._states_below(0.0, e_probe),
                           lo, hi, xtol=COUPLING_XTOL)


def critical_coupling_lower(spec: PotentialSpec, m: float) -> float:
    """Binding threshold: smallest v whose curve meets the parabola.

    At threshold the intersection sits at e -> m with F(m) -> 0, so the
    transition coincides with h(m) first acquiring a negative eigenvalue.
    """
    return _critical_coupling(spec, m, m)


def critical_coupling_upper(spec: PotentialSpec, m: float) -> float:
    """Supercritical threshold: the v where h(-m) first binds, F(-m; v) = 0.

    Past it the existence edge e0 lies below -m, but G can still have roots
    in the window, so solve may still return bound: the particle root,
    with the antiparticle root below it in secondary_e (Woods-Saxon a = 1,
    b = 0.2, m = 1: this v is 3.761477, and at v = 3.765 solve returns
    e = -0.942138 with delta > 0 and secondary_e = -0.999904); it reports
    supercritical only where G stays negative across the whole window.
    """
    return _critical_coupling(spec, m, -m)
