"""Ground energy of H = sqrt(p^2 + m^2) + V(r) by direct diagonalization.

In the Dirichlet sine modes on [0, R] the relativistic kinetic operator is
exactly diagonal, sqrt((n pi / R)^2 + m^2), so the only work is the potential
matrix.  With theta = pi r / R, products of modes reduce to cosines and

    V_jk = D(|j-k|) - D(j+k),    D(n) = (1/R) int_0^R V(r) (cos(n theta) - 1) dr.

Keeping the "-1" inside the integrand makes every D finite even for the
Coulomb kind (the bare cosine integrals diverge; the constants cancel in the
difference).  The integrals share one composite Gauss-Legendre mesh fine
enough for the fastest mode, so assembly is deterministic and spectrally
accurate.

All 2N + 1 moments come from one blocked product rather than a loop over n.
With B = ceil(sqrt(2N + 1)) and n = qB + j (0 <= j < B),

    cos(n theta) = cos(qB theta) cos(j theta) - sin(qB theta) sin(j theta),

so the weighted sums over the nodes are two (Q x nodes) @ (nodes x B) matrix
products, and only about 2 sqrt(2N) cosines and sines are taken per node
instead of 2N + 1.  The nodes are visited in fixed chunks so that no
nodes x modes table is ever held; the "-1" is applied once at the end as the
plain weighted sum.  The potential matrix is then built from two strided
views of D (a Toeplitz and a Hankel part) with a single N x N subtraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh

from . import kleingordon, potentials
from .potentials import Kind, PotentialSpec, Theory
from .radial_schrodinger import GridConfig, NoBoundState, NonConvergence

_GL_NODES = 16
_DEFAULT_N = 256
_BOX_FLOOR = 30.0
_BOX_CAP = 800.0
# quadrature nodes per block of the moment products
_MOMENT_CHUNK = 4096

DOUBLING_TOL = 1e-7


@dataclass(frozen=True)
class BasisConfig:
    """Sine-basis parameters: box radius R and basis size N."""

    box_radius: float
    basis_size: int = _DEFAULT_N

    def __post_init__(self):
        if not (np.isfinite(self.box_radius) and self.box_radius > 0):
            raise ValueError(f"box_radius must be positive, got {self.box_radius}")
        if self.basis_size < 32:
            raise ValueError(f"basis_size must be >= 32, got {self.basis_size}")


@dataclass
class SalpeterSolution:
    """Converged ground energy with the basis-doubling history.

    basis_tail is the magnitude of the highest-mode coefficient of the
    ground vector; convergence_history records every (N, R, E) evaluated.
    """

    E: float
    m: float
    basis_tail: float
    convergence_history: list[tuple[int, float, float]] = field(default_factory=list)


def _mesh(r_max: float, basis_size: int):
    """Composite Gauss-Legendre nodes and weights on [0, r_max]: max(32, 2N)
    panels of _GL_NODES nodes, two panels per period of the fastest cosine
    moment, cos(2N theta)."""
    panels = max(32, 2 * basis_size)
    x, w = leggauss(_GL_NODES)
    edges = np.linspace(0.0, r_max, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    r = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wt = (half[:, None] * w[None, :]).ravel()
    return r, wt


def _cosine_moments(base: np.ndarray, theta: np.ndarray, count: int) -> np.ndarray:
    """sum_i base_i (cos(n theta_i) - 1) for n = 0 .. count - 1."""
    block = math.isqrt(count - 1) + 1
    rows = -(-count // block)
    slow = block * np.arange(rows)
    fast = np.arange(block)
    acc = np.zeros((rows, block))
    for start in range(0, theta.size, _MOMENT_CHUNK):
        t = theta[start:start + _MOMENT_CHUNK]
        b = base[start:start + _MOMENT_CHUNK]
        slow_t = np.multiply.outer(slow, t)
        fast_t = np.multiply.outer(t, fast)
        acc += (b * np.cos(slow_t)) @ np.cos(fast_t)
        acc -= (b * np.sin(slow_t)) @ np.sin(fast_t)
    # row q = 0, column j = 0 is the plain weighted sum, which the "-1" removes
    moments = acc.ravel()[:count]
    return moments - moments[0]


def _potential_matrix(d: np.ndarray) -> np.ndarray:
    """V_jk = d[|j-k|] - d[j+k] for modes j, k = 1 .. N, from len(d) = 2N + 1."""
    n = (d.size - 1) // 2
    toeplitz = sliding_window_view(np.concatenate((d[n - 1:0:-1], d[:n])), n)[::-1]
    hankel = sliding_window_view(d[2:], n)
    return toeplitz - hankel


def ground_energy_at(
    spec: PotentialSpec | None,
    m: float,
    basis_size: int,
    box_radius: float,
) -> tuple[float, np.ndarray]:
    """Single diagonalization at fixed (N, R); spec None means V = 0.

    Returns the lowest eigenvalue and its coefficient vector in the sine
    modes.  The V = 0 case is the free-box diagnostic with exact answer
    sqrt((pi/R)^2 + m^2).
    """
    if not (np.isfinite(m) and m > 0):
        raise ValueError(f"mass must be positive, got {m}")
    cfg = BasisConfig(box_radius, basis_size)
    n = cfg.basis_size
    modes = np.arange(1, n + 1)
    kinetic = np.sqrt((modes * np.pi / cfg.box_radius) ** 2 + m * m)
    if spec is None:
        coeffs = np.zeros(n)
        coeffs[0] = 1.0
        return float(kinetic[0]), coeffs
    r, wt = _mesh(cfg.box_radius, n)
    v_vals = potentials.evaluate(spec, r)
    theta = np.pi * r / cfg.box_radius
    d = _cosine_moments(wt * v_vals, theta, 2 * n + 1) / cfg.box_radius
    h_mat = _potential_matrix(d)
    h_mat[np.diag_indices(n)] += kinetic
    # H is symmetric, so its transpose is the same matrix in the Fortran
    # order that LAPACK can overwrite without making a copy first
    w, vec = eigh(h_mat.T, subset_by_index=[0, 0], overwrite_a=True)
    coeffs = vec[:, 0]
    if coeffs[np.argmax(np.abs(coeffs))] < 0:
        coeffs = -coeffs
    return float(w[0]), coeffs


def default_box_radius(spec: PotentialSpec, m: float) -> float:
    """Box from the potential tail and the bound-state decay length.

    A small pre-diagonalization estimates E, hence the asymptotic decay
    rate kappa = sqrt(m^2 - E^2); the box keeps kappa * R >= 25 so the
    Dirichlet wall shifts E by ~exp(-50) while the modes stay affordable.
    The Coulomb tail v / r never falls below TAIL_EPS within the cap, so
    its box comes from the decay length alone.
    """
    tail = 0.0 if spec.kind is Kind.COULOMB else potentials.tail_radius(spec, potentials.TAIL_EPS)
    e_pre, _ = ground_energy_at(spec, m, 128, max(tail, 40.0))
    kappa_sq = m * m - e_pre * e_pre
    kappa = math.sqrt(kappa_sq) if kappa_sq > 2.5e-3 * m * m else 0.05 * m
    return min(max(tail, 25.0 / kappa, _BOX_FLOOR), _BOX_CAP)


def ground_energy(
    spec: PotentialSpec,
    m: float,
    cfg: BasisConfig | None = None,
    tol: float = DOUBLING_TOL,
    basis_max: int = 2048,
) -> SalpeterSolution:
    """Ground energy, converged under basis and box doubling.

    Convergence requires |E(2N, R) - E(N, R)| < tol and then
    |E(2N, 2R) - E(2N, R)| < tol: the box doubling is probed at the doubled
    basis so it keeps the already-validated momentum cutoff N pi / R while
    testing the wall.  Failing either test doubles N.  Raises NonConvergence
    when N would exceed basis_max, naming the box R and the momentum cutoff
    N pi / R reached; for a Coulomb coupling from 1/2 up to the critical
    2/pi the message also flags the characteristic unbounded downward drift
    of E with N.
    """
    report = potentials.validate(spec, Theory.SALPETER)
    if not report.accepted:
        raise ValueError(report.reason)
    if cfg is None:
        cfg = BasisConfig(default_box_radius(spec, m))
    n, r_box = cfg.basis_size, cfg.box_radius
    history: list[tuple[int, float, float]] = []
    energy, _ = ground_energy_at(spec, m, n, r_box)
    history.append((n, r_box, energy))
    while True:
        energy_2n, coeffs_2n = ground_energy_at(spec, m, 2 * n, r_box)
        history.append((2 * n, r_box, energy_2n))
        if abs(energy_2n - energy) < tol:
            energy_2r, _ = ground_energy_at(spec, m, 2 * n, 2.0 * r_box)
            history.append((2 * n, 2.0 * r_box, energy_2r))
            if abs(energy_2r - energy_2n) < tol:
                return SalpeterSolution(
                    E=energy_2n,
                    m=m,
                    basis_tail=abs(coeffs_2n[-1]),
                    convergence_history=history,
                )
        energy = energy_2n
        n *= 2
        if 2 * n > basis_max:
            drops = [history[i + 1][2] - history[i][2] for i in range(len(history) - 1)]
            msg = (f"doubling test still fails at N = {n} in the box R = {r_box:g}, momentum cutoff "
                   f"N pi / R = {n * math.pi / r_box:.4g} (history: {history})")
            if spec.kind is Kind.COULOMB and spec.v >= 0.5 and all(step < 0 for step in drops):
                msg += (
                    "; E decreases without stabilizing as the basis grows, the "
                    f"signature of a Coulomb coupling {spec.v} near the critical 2/pi"
                )
            raise NonConvergence(msg)


@dataclass
class SquaredInequalityReport:
    """Outcome of the E^2 - m^2 >= F(E) consistency check."""

    E: float
    m: float
    lhs: float
    F_at_E: float | None
    slack: float | None
    satisfied: bool | None
    skipped: bool
    note: str = ""


def squared_inequality_check(
    solution: SalpeterSolution,
    spec: PotentialSpec,
    grid: GridConfig | None = None,
    tol: float = 1e-6,
) -> SquaredInequalityReport:
    """Verify E^2 - m^2 >= F(E) by evaluating the spectral curve at e = E.

    Squaring sqrt(p^2 + m^2) psi = (E - V) psi and applying the variational
    principle to h(E) forces the inequality; a violation beyond tol signals
    a solver bug, not physics.  When h(E) has no bound state the check is
    skipped and reported as such.
    """
    energy, m = solution.E, solution.m
    lhs = energy * energy - m * m
    try:
        point = kleingordon.F(spec, energy, grid)
    except NoBoundState:
        return SquaredInequalityReport(
            E=energy, m=m, lhs=lhs, F_at_E=None, slack=None, satisfied=None,
            skipped=True, note="F(E) undefined: h(E) has no bound state; check skipped",
        )
    slack = lhs - point.F
    return SquaredInequalityReport(
        E=energy, m=m, lhs=lhs, F_at_E=point.F, slack=slack,
        satisfied=bool(slack >= -tol), skipped=False,
    )
