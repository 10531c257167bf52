"""Ground state of -u'' + W(r) u = lam u on the half-line, u(0) = 0.

Past the range of W the solution is exactly e^{-kappa r} with
kappa = sqrt(-lam), so one box [0, r_max] covering that range, closed by the
matching condition u'(r_max) = -kappa u(r_max), is exact.  Second-order
central differences with a ghost point at r_max give a symmetric
tridiagonal matrix T.  The grid is refined with exact spacing halvings,
the eigenvalue sequence for a given kappa is Richardson extrapolated to
L(kappa), and kappa is the root of L(kappa) + kappa^2 = 0.  The Neumann
(kappa = 0) value L(0) is the exact binding test: it is negative exactly
when the half-line operator has a bound state.  The eigenfunction comes
from inverse iteration at the finest level's eigenvalue, already found
while matching kappa.  The kappa match, like every 1-D search of the
package, uses potentials.brentq.

kappa enters T only as 2 kappa / h on the end diagonal, a positive
semidefinite rank-one term, so by Weyl's monotonicity theorem every
eigenvalue of a level rises with kappa (Horn & Johnson, Matrix Analysis,
4.3): the nearest memoized kappa below and above bound each eigenvalue,
and the finer levels at kappa = 0 start from the coarser level.  An LDL^T
factorization of T - lo I with positive pivots (LAPACK's dpttrf)
certifies that no eigenvalue lies below lo, and the same factors drive
inverse iteration from lo (dpttrs; Parlett, The Symmetric Eigenvalue
Problem, ch. 4).  Its Rayleigh quotient is summed from T's row sums and
squared differences of the iterate, so the 2/h^2 of the Laplacian never
cancels in floating point.  A converged quotient in the interval is
accepted once a second factorization, just below it, certifies that no
eigenvalue lies lower.  The coarsest kappa = 0 solve and every miss use
LAPACK's Sturm-sequence bisection of the whole spectrum (stebz; Barth,
Martin & Wilkinson, Numer. Math. 9 (1967) 386), run to the absolute
tolerance _EIG_TOL.

The four LAPACK routines (dstebz, dpttrf, dpttrs, dstein) come from
scipy's compiled extension through _lapack, which does not import the
scipy.linalg package.  Its eigh_tridiagonal is scipy's stebz route under
scipy's name and parameters, bound here as a module attribute: the layer
tracer in perfbench/tracer.py wraps radial_schrodinger.eigh_tridiagonal
by that name and counts grid points from its d argument, and tests
substitute it and dstein by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._lapack import dpttrf, dpttrs, dstein, eigh_tridiagonal
from .potentials import NoBoundState, NonConvergence, brentq

# NonConvergence fires when the two best extrapolants disagree by more
# than 1e3 times this target.
TARGET_TOL = 1e-9

# absolute tolerance of every eigenvalue.  Inverse iteration stops when two
# Rayleigh quotients agree to it, and its quotient lies within about 1e-15
# of the stored matrix's eigenvalue.  Bisection stops there too (stebz also
# stops at a width of 2 ulp of the eigenvalue), but the Sturm counts it
# steps on carry a roundoff of eps * |T|_1: a bisected eigenvalue lands
# 1e-13 and more from the stored matrix's, over 1e-12 at the finest level.
_EIG_TOL = 1e-14

# absolute tolerance on lam = -kappa^2 when kappa is matched, ten times
# _EIG_TOL, which the inverse-iteration levels of each kappa resolve
_MATCH_TOL = 1e-13

# inverse-iteration steps before a warm solve falls back to bisection; a
# certified lower end from a neighbouring kappa or the coarser level
# converges in 2-5
_INVERSE_STEPS = 8


@dataclass(frozen=True)
class GridConfig:
    """Uniform-grid discretization parameters.

    The coarsest level has spacing r_max / (n_points + 1) and n_points
    interior nodes plus the node at r_max; each of the two refinement
    levels maps n -> 2n + 1 so the spacing halves exactly.
    """

    r_max: float
    n_points: int = 4096

    def __post_init__(self):
        if not (np.isfinite(self.r_max) and self.r_max > 0):
            raise ValueError(f"r_max must be positive, got {self.r_max}")
        if self.n_points < 64:
            raise ValueError(f"n_points must be >= 64, got {self.n_points}")

    def level_sizes(self) -> list[int]:
        n = self.n_points
        return [n, 2 * n + 1, 4 * n + 3]


@dataclass
class SchrodingerResult:
    """Extrapolated ground eigenvalue plus the finest-level eigenfunction.

    The eigenfunction holds u at the nodes r_i = i * spacing up to and
    including r_max, where u need not vanish.  It is L2-normalized on the
    half-line: the trapezoid measure on [0, r_max] (u(0) = 0, half weight
    at r_max) plus u(r_max)^2 / (2 kappa) for the decay e^{-kappa r}
    beyond r_max.  It is nodeless up to roundoff in the far tail.
    error_estimate spans the whole Richardson tableau: it dominates the
    discretization deficit of every un-extrapolated level.
    """

    eigenvalue: float
    eigenfunction: np.ndarray
    radii: np.ndarray
    spacing: float
    error_estimate: float
    level_eigenvalues: list[float] = field(default_factory=list)


def _assemble(W: Callable, r_max: float, n: int):
    """Neumann matrix on the nodes r_i = i h, i = 1..n+1, the last at r_max.

    A ghost point closes the last row for u'(r_max) = -kappa u(r_max) as
    (-2 u_n + (2 + 2 h kappa) u_{n+1}) / h^2, which keeps the error
    expansion in even powers of h; scaling the end node by 1/sqrt(2) makes
    the matrix symmetric (sqrt(2) on the last off-diagonal) and is the half
    weight the trapezoid rule gives that node.  Here kappa = 0.
    """
    h = r_max / (n + 1)
    r = h * np.arange(1, n + 2)
    diag = 2.0 / h**2 + np.asarray(W(r), dtype=float)
    if not np.all(np.isfinite(diag)):
        raise ValueError("W must be finite on the grid")
    off = np.full(n, -1.0 / h**2)
    off[-1] *= math.sqrt(2.0)
    return diag, off, r, h


def _robin(diag: np.ndarray, h: float, kappa: float) -> np.ndarray:
    """The diagonal for u'(r_max) = -kappa u(r_max)."""
    out = diag.copy()
    out[-1] += 2.0 * kappa / h
    return out


def _lowest(diag, off, lo: float | None = None, hi: float = math.inf) -> float:
    """Lowest eigenvalue of the symmetric tridiagonal (diag, off).

    With lo, the eigenvalue is taken to lie in [lo, hi], both ends widened
    by margin = 16 eps (|lo| + |T|_1): the pivots are exact for a matrix
    within a few ulps of |T| of this one, and every Rayleigh quotient lies
    within |T|_1.  The widened lo must factor diag - lo as L D L^T with
    positive pivots, which makes T - lo I positive definite.  Inverse
    iteration on those factors from z = ones then converges to the lowest
    eigenvector, and its Rayleigh quotient rho = sum r_i z_i^2 +
    sum c_i (z_i - z_{i+1})^2, with r the row sums of T and c = -off, is
    accepted when two successive quotients agree to tol =
    _EIG_TOL * max(1, |rho|), rho is at most the widened hi, and
    diag - (rho - margin - tol) factors too: then no eigenvalue lies below
    rho by more than margin + tol, which rejects a quotient that stalled
    between two close eigenvalues.
    Without lo, or on any miss, the whole spectrum is bisected.
    """
    if lo is not None:
        margin = 16.0 * np.finfo(float).eps * (abs(lo) + np.abs(diag).max() + 2.0 * np.abs(off).max())
        d, e, info = dpttrf(diag - (lo - margin), off)
        if info == 0:
            # the Laplacian's 2/h^2 cancels exactly in T's row sums, where
            # forming T z would cost eps |T|_1
            rows = diag.copy()
            rows[:-1] += off
            rows[1:] += off
            z, rho = np.ones(diag.size), None
            for _ in range(_INVERSE_STEPS):
                z = dpttrs(d, e, z)[0]
                z /= np.linalg.norm(z)
                prev, rho = rho, np.dot(rows, z * z) - np.dot(off, np.diff(z) ** 2)
                tol = _EIG_TOL * max(1.0, abs(rho))
                if prev is not None and abs(rho - prev) <= tol:
                    if rho <= hi + margin and dpttrf(diag - (rho - margin - tol), off)[2] == 0:
                        return rho
                    break
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, 0), eigvals_only=True, tol=_EIG_TOL)[0]


def _richardson_diagonal(levels: list[float]) -> list[float]:
    """Diagonal of the Richardson tableau for p = 2, 4, ... elimination."""
    table = [list(levels)]
    for j in range(1, len(levels)):
        prev = table[-1]
        table.append([prev[i + 1] + (prev[i + 1] - prev[i]) / (4**j - 1) for i in range(len(prev) - 1)])
    return [row[-1] for row in table]


def _robin_levels(W: Callable, grid: GridConfig):
    """The refinement levels, and kappa -> the lowest eigenvalue at each
    level with u'(r_max) = -kappa u(r_max), memoized.  Each level's
    eigenvalue rises with kappa, so the nearest memoized kappa below and
    above bound it.  The first kappa, 0, has none below: its coarsest level
    is solved cold, each finer one from the coarser, which refinement
    raises."""
    levels = [_assemble(W, grid.r_max, n) for n in grid.level_sizes()]
    memo: dict[float, list[float]] = {}

    def at(kappa: float) -> list[float]:
        if kappa not in memo:
            below = max((k for k in memo if k < kappa), default=None)
            above = min((k for k in memo if k > kappa), default=None)
            found: list[float] = []
            for level, (diag, off, _, h) in enumerate(levels):
                lo = memo[below][level] if below is not None else (found[-1] if found else None)
                hi = memo[above][level] if above is not None else math.inf
                found.append(_lowest(_robin(diag, h, kappa), off, lo, hi))
            memo[kappa] = found
        return memo[kappa]

    return levels, at


def _matched_kappa(robin: Callable[[float], list[float]], neumann: float) -> float:
    """kappa solving L(kappa) + kappa^2 = 0, L(kappa) the extrapolated robin(kappa).

    L rises from the Neumann eigenvalue at kappa = 0, so the mismatch runs
    from neumann < 0 at kappa = 0 to L(k) - neumann >= 0 at
    k = sqrt(-neumann), which brackets the root.  Matching after
    extrapolating keeps kappa smooth down to the existence edge, where
    coarse levels bind far more strongly than the limit.
    """
    hi = math.sqrt(-neumann)

    def mismatch(kappa: float) -> float:
        return _richardson_diagonal(robin(kappa))[-1] + kappa * kappa

    # a mismatch at hi within the eigenvalues' resolution means u(r_max) is
    # negligible and hi is the root; roundoff can even flip its sign
    if mismatch(hi) <= _EIG_TOL * max(1.0, -neumann):
        return hi
    return float(brentq(mismatch, 0.0, hi, xtol=_MATCH_TOL / (2.0 * hi)))


def neumann_eigenvalue(W: Callable, grid: GridConfig) -> float:
    """Richardson-extrapolated lowest eigenvalue with u'(r_max) = 0.

    This is the binding test: when W vanishes beyond r_max, -u'' + W u on
    the half-line has a bound state exactly when this value is negative.
    On a fixed grid it is signed and smooth in the parameters of W, so
    thresholds are its roots.
    """
    _, robin = _robin_levels(W, grid)
    return _richardson_diagonal(robin(0.0))[-1]


def lowest_eigenvalue(W: Callable, grid: GridConfig) -> SchrodingerResult:
    """Ground eigenvalue of -d^2/dr^2 + W on the half-line.

    u(0) = 0, and at r_max the solution is matched to the free decay
    e^{-kappa r}, kappa = sqrt(-eigenvalue): u'(r_max) = -kappa u(r_max).
    This is exact when W vanishes beyond r_max, so the box need only cover
    the range of W.  W maps an array of radii to an array of values, finite
    on (0, r_max].

    Raises NoBoundState when the binding test (neumann_eigenvalue) or the
    extrapolated eigenvalue is not negative or the matched kappa is 0, and
    NonConvergence when the last two extrapolants disagree beyond
    1e3 * TARGET_TOL or inverse iteration fails.
    level_eigenvalues are the per-level eigenvalues at the matched kappa.
    """
    matrices, robin = _robin_levels(W, grid)
    neumann = _richardson_diagonal(robin(0.0))[-1]
    if neumann >= 0:
        raise NoBoundState(f"extrapolated Neumann eigenvalue {neumann:.6g} >= 0: W does not bind", lowest=neumann)
    kappa = _matched_kappa(robin, neumann)
    levels = robin(kappa)
    diagonal = _richardson_diagonal(levels)
    eigenvalue = diagonal[-1]
    if eigenvalue >= 0:
        raise NoBoundState(f"extrapolated lowest eigenvalue {eigenvalue:.6g} >= 0", lowest=eigenvalue)
    # at the existence edge the root can fall below brentq's tolerance;
    # -kappa^2 = 0 is the continuum edge, not a bound state
    if kappa == 0.0:
        raise NoBoundState("matched kappa is 0: W binds only at the continuum edge", lowest=eigenvalue)
    scale = max(1.0, abs(eigenvalue))
    tail = abs(diagonal[-1] - diagonal[-2])
    if tail > 1e3 * TARGET_TOL * scale:
        raise NonConvergence(
            f"extrapolation levels disagree: {diagonal[-2]!r} vs {diagonal[-1]!r}"
        )
    # Error estimate spanning the tableau: the coarsest raw level carries the
    # largest discretization deficit, so |best - coarsest| bounds them all;
    # the diagonal difference covers the extrapolant's own uncertainty.
    error_estimate = abs(eigenvalue - levels[0]) + 2.0 * tail + 1e-13 * scale

    diag, off, r, h = matrices[-1]
    # inverse iteration at the eigenvalue found while matching kappa: the
    # stein half of eigh_tridiagonal's stebz + stein route, on one block
    # since no off-diagonal vanishes
    n = diag.size
    vecs, info = dstein(_robin(diag, h, kappa), off, [levels[-1]], np.ones(n, np.int32), np.full(n, n, np.int32))
    if info != 0:
        raise NonConvergence(f"inverse iteration for the eigenvector failed (stein info = {info})")
    vec = vecs[:, 0]
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    # once the end node is unscaled, h |vec|^2 is the trapezoid norm of u
    # on the box, and u(r_max)^2 / (2 kappa) the norm of its exterior decay
    vec[-1] *= math.sqrt(2.0)
    vec = vec / np.sqrt(h * (np.dot(vec, vec) - 0.5 * vec[-1] ** 2) + vec[-1] ** 2 / (2.0 * kappa))
    return SchrodingerResult(
        eigenvalue=eigenvalue,
        eigenfunction=vec,
        radii=r,
        spacing=h,
        error_estimate=error_estimate,
        level_eigenvalues=levels,
    )


def expectation(result: SchrodingerResult, g: Callable) -> float:
    """Trapezoid-rule expectation integral of g(r) against the stored u^2,
    with half weight at the node at r_max.

    It integrates over the box only, so it is the half-line expectation
    when g vanishes beyond r_max, as W does.
    """
    values = np.asarray(g(result.radii), dtype=float)
    if values.shape != result.radii.shape or not np.all(np.isfinite(values)):
        raise ValueError("g must be finite on the grid")
    weighted = values * result.eigenfunction**2
    return float(result.spacing * (weighted.sum() - 0.5 * weighted[-1]))
