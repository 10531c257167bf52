"""Ground state of -u'' + W(r) u = lam u on the half-line, u(0) = 0.

Past the range of W the solution is exactly e^{-kappa r} with
kappa = sqrt(-lam), so one box [0, r_max] covering that range, closed by the
matching condition u'(r_max) = -kappa u(r_max), is exact.  Second-order
central differences with a ghost point at r_max give a symmetric
tridiagonal matrix whose lowest eigenvalue is found by LAPACK's
Sturm-sequence bisection.  The grid is refined with exact spacing halvings,
the eigenvalue sequence for a given kappa is Richardson extrapolated to
L(kappa), and kappa is the root of L(kappa) + kappa^2 = 0.  The Neumann
(kappa = 0) value L(0) is the exact binding test: it is negative exactly
when the half-line operator has a bound state.  The eigenfunction comes
from inverse iteration at the finest level's eigenvalue, already found
while matching kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstein
from scipy.optimize import brentq

# NonConvergence fires when the two best extrapolants disagree by more
# than 1e3 times this target.
TARGET_TOL = 1e-9

# Node-local renormalization of an inverse-square origin coefficient is
# numerically meaningful only while the correction beats roundoff.
_CORRECTION_NODES = 4096

# absolute tolerance on lam = -kappa^2 when kappa is matched; LAPACK's
# bisection resolves lam only to about 1e-16 * 4 / h^2 anyway
_MATCH_TOL = 1e-13


class NoBoundState(Exception):
    """The operator has no negative eigenvalue on the half-line."""

    def __init__(self, message: str, lowest: float | None = None):
        super().__init__(message)
        self.lowest = lowest


class NonConvergence(Exception):
    """Grid refinement (or basis enlargement) failed to stabilize."""


@dataclass(frozen=True)
class GridConfig:
    """Uniform-grid discretization parameters.

    The coarsest level has spacing r_max / (n_points + 1) and n_points
    interior nodes plus the node at r_max; each refinement level maps
    n -> 2n + 1 so the spacing halves exactly.
    """

    r_max: float
    n_points: int = 4096
    refinement_levels: int = 3

    def __post_init__(self):
        if not (np.isfinite(self.r_max) and self.r_max > 0):
            raise ValueError(f"r_max must be positive, got {self.r_max}")
        if self.n_points < 64:
            raise ValueError(f"n_points must be >= 64, got {self.n_points}")
        if not (1 <= self.refinement_levels <= 8):
            raise ValueError(f"refinement_levels must be in 1..8, got {self.refinement_levels}")

    def level_sizes(self) -> list[int]:
        sizes = [self.n_points]
        for _ in range(self.refinement_levels - 1):
            sizes.append(2 * sizes[-1] + 1)
        return sizes


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
    converged: bool
    level_eigenvalues: list[float] = field(default_factory=list)


def _inverse_square_renormalization(indices: np.ndarray, coefficient: float) -> np.ndarray:
    """Per-node replacement for an origin coefficient B/r^2.

    Near r = 0 the regular solution behaves like r^gamma with
    gamma (gamma - 1) = B; the plain three-point stencil misrepresents its
    second derivative at the first few nodes, which degrades the eigenvalue
    to far below second order.  Choosing the node value
    i^(2-gamma) * [ (i+1)^gamma - 2 i^gamma + (i-1)^gamma ]
    makes the discrete operator annihilate r^gamma exactly, restoring a
    smooth error expansion.  Requires B > -1/4.
    """
    if coefficient <= -0.25:
        raise ValueError(f"inverse-square coefficient must exceed -1/4, got {coefficient}")
    gamma = 0.5 + np.sqrt(0.25 + coefficient)
    i = indices.astype(float)
    return i ** (2.0 - gamma) * ((i + 1.0) ** gamma - 2.0 * i ** gamma + (i - 1.0) ** gamma)


def _assemble(W: Callable, r_max: float, n: int, inverse_square_origin: float | None):
    """Neumann matrix on the nodes r_i = i h, i = 1..n+1, the last at r_max.

    A ghost point closes the last row for u'(r_max) = -kappa u(r_max) as
    (-2 u_n + (2 + 2 h kappa) u_{n+1}) / h^2, which keeps the error
    expansion in even powers of h; scaling the end node by 1/sqrt(2) makes
    the matrix symmetric (sqrt(2) on the last off-diagonal) and is the half
    weight the trapezoid rule gives that node.  Here kappa = 0.
    """
    h = r_max / (n + 1)
    idx = np.arange(1, n + 2)
    r = h * idx
    diag = 2.0 / h**2 + np.asarray(W(r), dtype=float)
    if inverse_square_origin is not None:
        k = min(n, _CORRECTION_NODES)
        btilde = _inverse_square_renormalization(idx[:k], inverse_square_origin)
        diag[:k] += (btilde - inverse_square_origin) / r[:k] ** 2
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


def _lowest(diag, off) -> float:
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, 0), eigvals_only=True)[0]


def _richardson_diagonal(levels: list[float]) -> list[float]:
    """Diagonal of the Richardson tableau for p = 2, 4, ... elimination."""
    table = [list(levels)]
    for j in range(1, len(levels)):
        prev = table[-1]
        table.append([prev[i + 1] + (prev[i + 1] - prev[i]) / (4**j - 1) for i in range(len(prev) - 1)])
    return [row[-1] for row in table]


def _robin_levels(W: Callable, grid: GridConfig, inverse_square_origin: float | None):
    """The refinement levels, and kappa -> the lowest eigenvalue at each
    level with u'(r_max) = -kappa u(r_max), memoized."""
    levels = [_assemble(W, grid.r_max, n, inverse_square_origin) for n in grid.level_sizes()]
    memo: dict[float, list[float]] = {}

    def at(kappa: float) -> list[float]:
        if kappa not in memo:
            memo[kappa] = [_lowest(_robin(diag, h, kappa), off) for diag, off, _, h in levels]
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

    # roundoff can flip the sign at hi only when the mismatch there is ~0,
    # that is when u(r_max) is negligible and hi is the root
    if mismatch(hi) <= 0:
        return hi
    return float(brentq(mismatch, 0.0, hi, xtol=_MATCH_TOL / (2.0 * hi)))


def neumann_eigenvalue(
    W: Callable,
    grid: GridConfig,
    inverse_square_origin: float | None = None,
) -> float:
    """Richardson-extrapolated lowest eigenvalue with u'(r_max) = 0.

    This is the binding test: when W vanishes beyond r_max, -u'' + W u on
    the half-line has a bound state exactly when this value is negative.
    On a fixed grid it is signed and smooth in the parameters of W, so
    thresholds are its roots.
    """
    _, robin = _robin_levels(W, grid, inverse_square_origin)
    return _richardson_diagonal(robin(0.0))[-1]


def lowest_eigenvalue(
    W: Callable,
    grid: GridConfig,
    inverse_square_origin: float | None = None,
) -> SchrodingerResult:
    """Ground eigenvalue of -d^2/dr^2 + W on the half-line.

    u(0) = 0, and at r_max the solution is matched to the free decay
    e^{-kappa r}, kappa = sqrt(-eigenvalue): u'(r_max) = -kappa u(r_max).
    This is exact when W vanishes beyond r_max, so the box need only cover
    the range of W.  W maps an array of radii to an array of values, finite
    on (0, r_max].  For potentials carrying a B/r^2 origin singularity,
    pass inverse_square_origin=B to switch on the node-local
    renormalization.

    Raises NoBoundState when the binding test (neumann_eigenvalue) or the
    extrapolated eigenvalue is not negative or the matched kappa is 0, and
    NonConvergence when the last two extrapolants disagree beyond
    1e3 * TARGET_TOL or inverse iteration fails.
    level_eigenvalues are the per-level eigenvalues at the matched kappa.
    """
    matrices, robin = _robin_levels(W, grid, inverse_square_origin)
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
    # with two levels the diagonal difference is dominated by the raw
    # coarse-grid deficit, so the disagreement gate needs three or more
    if len(diagonal) > 2 and abs(diagonal[-1] - diagonal[-2]) > 1e3 * TARGET_TOL * scale:
        raise NonConvergence(
            f"extrapolation levels disagree: {diagonal[-2]!r} vs {diagonal[-1]!r}"
        )
    # Error estimate spanning the tableau: the coarsest raw level carries the
    # largest discretization deficit, so |best - coarsest| bounds them all;
    # the diagonal difference covers the extrapolant's own uncertainty.
    tail = abs(diagonal[-1] - diagonal[-2]) if len(diagonal) > 1 else abs(eigenvalue) * 1e-8
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
        converged=True,
        level_eigenvalues=levels,
    )


def expectation(result: SchrodingerResult, g: Callable) -> float:
    """Trapezoid-rule expectation integral of g(r) against the stored u^2,
    with half weight at the node at r_max.

    It integrates over the box only, so it is the half-line expectation
    when g vanishes beyond r_max, as W does.
    """
    if not result.converged:
        raise ValueError("expectation requires a converged result")
    values = np.asarray(g(result.radii), dtype=float)
    if values.shape != result.radii.shape or not np.all(np.isfinite(values)):
        raise ValueError("g must be finite on the grid")
    weighted = values * result.eigenfunction**2
    return float(result.spacing * (weighted.sum() - 0.5 * weighted[-1]))
