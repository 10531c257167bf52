"""Ground energy of H = sqrt(p^2 + m^2) + V(r) by direct diagonalization.

In the Dirichlet sine modes on [0, R] the relativistic kinetic operator is
exactly diagonal, sqrt((n pi / R)^2 + m^2), so the only work is the potential
matrix.  Products of modes reduce to cosines, and with k = n pi / R

    V_jk = D(|j-k|) - D(j+k),    D(n) = (1/R) int_0^R V(r) (cos(k r) - 1) dr.

Keeping the "-1" inside the integrand makes every D finite even for the
Coulomb kind (the bare cosine integrals diverge; the constants cancel in the
difference), and D(0) = 0.  All three shapes have exact moments on [0, R]:

    Coulomb      D(n) = (v/R) Cin(n pi),  Cin(x) = gamma + ln x - Ci(x);
    exponential  D(n) = -(v/R) [(1 - (-1)^n e^{-R}) / (1 + k^2) - (1 - e^{-R})];
    Woods-Saxon  D(n) = -(v/R) [C(k) - C(0)],  C(k) = int_0^R f(r) cos(k r) dr.

For Woods-Saxon, f = f_s + g with the symmetrized Fermi function
f_s(r) = sinh(a/b) / (cosh(r/b) + cosh(a/b)), whose half-line cosine
transform is pi b sin(k a) / sinh(pi b k), and g(r) = 1 / (1 + e^{(r+a)/b}),
whose transform is the alternating series

    S(c) = sum_q (-1)^{q+1} e^{-q c / b} lam_q / (lam_q^2 + k^2),  lam_q = q / b,

at c = a.  For r > R > a, f is the same series in e^{-(r-a)/b}, and
cos(k r) = (-1)^n cos(k (r - R)), so the exterior part is (-1)^n S(R - a) and

    C(k) = pi b sin(k a) / sinh(pi b k) + S(a) - (-1)^n S(R - a),
    C(0) = a + b ln(1 + e^{-a/b}) - b ln(1 + e^{-(R-a)/b}).

Each series keeps ceil(40 b / c) terms, so the first omitted one carries
e^{-q c / b} < e^{-40}.  The potential matrix is then built from two strided
views of D (a Toeplitz and a Hankel part) with a single N x N subtraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import eigh
from scipy.special import sici

from . import kleingordon, potentials
from .potentials import Kind, PotentialSpec, Theory
from .radial_schrodinger import NoBoundState, NonConvergence

DEFAULT_BASIS_SIZE = 256
_BOX_FLOOR = 30.0
_BOX_CAP = 800.0

DOUBLING_TOL = 1e-7


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


def _fermi_series(c: float, b: float, k: np.ndarray) -> np.ndarray:
    """S(c) = int_0^inf cos(k r) / (1 + e^{(r+c)/b}) dr to ceil(40 b / c) terms, added
    smallest first and one at a time, so memory stays O(len(k)) even for b >> c."""
    total = np.zeros_like(k)
    for q in range(math.ceil(40.0 * b / c), 0, -1):
        lam = q / b
        total += (-1.0) ** (q + 1) * math.exp(-q * c / b) * lam / (lam * lam + k * k)
    return total


def _moments(spec: PotentialSpec, r_box: float, count: int) -> np.ndarray:
    """D(n) = (1/R) int_0^R V(r) (cos(n pi r / R) - 1) dr for n = 0 .. count - 1,
    in closed form (see the module docstring)."""
    n = np.arange(1, count)
    k = n * np.pi / r_box
    if spec.kind is Kind.COULOMB:
        cin = np.euler_gamma + np.log(n * np.pi) - sici(n * np.pi)[1]
        return np.concatenate(([0.0], spec.v / r_box * cin))
    parity = 1.0 - 2.0 * (n % 2)
    if spec.kind is Kind.EXPONENTIAL:
        wave = (1.0 - parity * math.exp(-r_box)) / (1.0 + k * k)
        plain = -math.expm1(-r_box)
    else:
        a, b = spec.a, spec.b
        if r_box <= a:
            raise ValueError(f"box radius {r_box} must exceed the Woods-Saxon radius a = {a}")
        # pi b sin(k a) / sinh(pi b k) through e^{-pi b k}, which cannot overflow
        decay = np.exp(-np.pi * b * k)
        wave = (2.0 * np.pi * b * np.sin(k * a) * decay / -np.expm1(-2.0 * np.pi * b * k)
                + _fermi_series(a, b, k) - parity * _fermi_series(r_box - a, b, k))
        plain = a + b * math.log1p(math.exp(-a / b)) - b * math.log1p(math.exp(-(r_box - a) / b))
    return np.concatenate(([0.0], -spec.v / r_box * (wave - plain)))


def _potential_matrix(d: np.ndarray) -> np.ndarray:
    """V_jk = d[|j-k|] - d[j+k] for modes j, k = 1 .. N, from len(d) = 2N + 1."""
    n = (d.size - 1) // 2
    toeplitz = sliding_window_view(np.concatenate((d[n - 1:0:-1], d[:n])), n)[::-1]
    hankel = sliding_window_view(d[2:], n)
    return toeplitz - hankel


def ground_energy_at(
    spec: PotentialSpec,
    m: float,
    basis_size: int,
    box_radius: float,
) -> tuple[float, np.ndarray]:
    """Single diagonalization with N = basis_size modes in the box R = box_radius.

    Returns the lowest eigenvalue and its coefficient vector in the sine
    modes.
    """
    if not (np.isfinite(m) and m > 0):
        raise ValueError(f"mass must be positive, got {m}")
    if not (np.isfinite(box_radius) and box_radius > 0):
        raise ValueError(f"box_radius must be positive, got {box_radius}")
    if basis_size < 32:
        raise ValueError(f"basis_size must be >= 32, got {basis_size}")
    n = basis_size
    modes = np.arange(1, n + 1)
    kinetic = np.sqrt((modes * np.pi / box_radius) ** 2 + m * m)
    h_mat = _potential_matrix(_moments(spec, box_radius, 2 * n + 1))
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
    basis_size: int = DEFAULT_BASIS_SIZE,
    tol: float = DOUBLING_TOL,
    basis_max: int = 2048,
) -> SalpeterSolution:
    """Ground energy, converged under basis and box doubling.

    The doubling starts from basis_size modes in the box default_box_radius.
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
    n, r_box = basis_size, default_box_radius(spec, m)
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
        point = kleingordon.F(spec, energy)
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
