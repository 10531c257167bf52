"""Ground energy of H = sqrt(p^2 + m^2) + V(r) in a sine basis, matrix-free.

In the Dirichlet sine modes on [0, R] the relativistic kinetic operator is
exactly diagonal, K_n = sqrt((n pi / R)^2 + m^2).  Products of modes reduce to
cosines, and with k = n pi / R

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
e^{-q c / b} < e^{-40}.

H is never formed.  With the odd extension x_{-k} = -x_k, x_0 = 0,
(V x)_j = sum_{|k| <= N} D(|j-k|) x_k is a convolution, exact as a circular
one of length 4N, so H x = K x + DST-I(DCT-I(D) * DST-I(x)) / 4N in
O(N log N); the DST-I of length 2N - 1 is, up to a factor -i, the real FFT
of the odd extension.

LOBPCG (Knyazev, SIAM J. Sci. Comput. 23 (2001) 517) finds the lowest pair,
preconditioned by diag(K_j - sigma)^{-1} with sigma = min(rho - |r|,
K_1 + V_11) for the Rayleigh quotient rho and residual r of the start vector.
V <= 0 gives V_11 < 0, and K_j >= K_1, so every entry is positive.  Each
doubling level starts from the last: zero-padded for 2N (rho is the last E,
|r| is small), mode k moved to mode 2k for 2R (the state plus its mirror
image at the new wall, an even mix whose rho - |r| is close to E).  A cold
start is the transform of r e^{-25 r / R}, the decay the box is sized for.
A level counts only if |H x - E x| <= RESIDUAL_TOL = DOUBLING_TOL / 10, so
an eigenvalue of H lies within a tenth of the doubling tolerance of E;
otherwise, or on any LOBPCG accuracy warning, NonConvergence names N, R and
the residual.
"""

from __future__ import annotations

import math
import threading
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dct, dst
# named eigh because the benchmark tracer (perfbench/tracer.py) times salpeter.eigh
from scipy.sparse.linalg import lobpcg as eigh
from scipy.special import sici

from . import kleingordon, potentials
from .potentials import Kind, PotentialSpec, Theory
from .radial_schrodinger import NoBoundState, NonConvergence

DEFAULT_BASIS_SIZE = 256
_BOX_FLOOR = 30.0
_BOX_CAP = 800.0

DOUBLING_TOL = 1e-7
RESIDUAL_TOL = DOUBLING_TOL / 10.0
_MAX_ITERATIONS = 200
# catch_warnings swaps process-wide state, so solves on the sweep's worker
# threads take turns rather than restore each other's filters
_WARNINGS_LOCK = threading.Lock()
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


def _hamiltonian(spec: PotentialSpec, m: float, n: int, box_radius: float) -> tuple[Callable, np.ndarray, np.ndarray]:
    """x -> H x for x of shape (N, columns), the kinetic diagonal K and D(0 .. 2N)."""
    kinetic = np.sqrt((np.arange(1, n + 1) * np.pi / box_radius) ** 2 + m * m)
    d = _moments(spec, box_radius, 2 * n + 1)
    kernel = dct(d, type=1)[1:2 * n, None] / (4 * n)

    def product(x: np.ndarray) -> np.ndarray:
        return kinetic[:, None] * x + dst(kernel * dst(x, type=1, n=2 * n - 1, axis=0), type=1, axis=0)[:n]

    return product, kinetic, d


def ground_energy_at(
    spec: PotentialSpec,
    m: float,
    basis_size: int,
    box_radius: float,
    start: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Lowest eigenpair with N = basis_size modes in the box R = box_radius.

    Returns the eigenvalue and its coefficient vector in the sine modes.
    start is an optional length-N start vector (see the module docstring).
    """
    if not (np.isfinite(m) and m > 0):
        raise ValueError(f"mass must be positive, got {m}")
    if not (np.isfinite(box_radius) and box_radius > 0):
        raise ValueError(f"box_radius must be positive, got {box_radius}")
    if basis_size < 32:
        raise ValueError(f"basis_size must be >= 32, got {basis_size}")
    product, kinetic, d = _hamiltonian(spec, m, basis_size, box_radius)
    if start is None:
        k = np.arange(1, basis_size + 1) * np.pi / box_radius
        start = k / ((25.0 / box_radius) ** 2 + k * k) ** 2
    x = (start / np.linalg.norm(start))[:, None]
    hx = product(x)
    rho = float(x[:, 0] @ hx[:, 0])
    # K_1 + V_11 with V_11 = D(0) - D(2)
    sigma = min(rho - float(np.linalg.norm(hx - rho * x)), kinetic[0] - d[2])
    inverse = (1.0 / (kinetic - sigma))[:, None]
    with _WARNINGS_LOCK, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        w, vec = eigh(product, x, M=lambda r: inverse * r, tol=RESIDUAL_TOL,
                      maxiter=_MAX_ITERATIONS, largest=False)
    energy, coeffs = float(w[0]), vec[:, 0]
    residual = float(np.linalg.norm(product(vec)[:, 0] - energy * coeffs))
    if caught or not residual <= RESIDUAL_TOL:
        raise NonConvergence(
            f"LOBPCG failed at N = {basis_size} in the box R = {box_radius:g}: residual {residual:.3g} "
            f"(gate {RESIDUAL_TOL:g})" + "".join(f"; {str(c.message).splitlines()[0]}" for c in caught))
    if coeffs[np.argmax(np.abs(coeffs))] < 0:
        coeffs = -coeffs
    return energy, coeffs


def default_box_radius(spec: PotentialSpec, m: float) -> float:
    """Box from the potential tail and the bound-state decay length.

    A small 128-mode solve estimates E, hence the asymptotic decay
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
    basis_max: int = 16384,
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
    energy, coeffs = ground_energy_at(spec, m, n, r_box)
    history.append((n, r_box, energy))
    while True:
        energy_2n, coeffs_2n = ground_energy_at(spec, m, 2 * n, r_box, np.concatenate((coeffs, np.zeros(n))))
        history.append((2 * n, r_box, energy_2n))
        if abs(energy_2n - energy) < tol:
            mirrored = np.zeros(2 * n)
            mirrored[1::2] = coeffs_2n[:n]
            energy_2r, _ = ground_energy_at(spec, m, 2 * n, 2.0 * r_box, mirrored)
            history.append((2 * n, 2.0 * r_box, energy_2r))
            if abs(energy_2r - energy_2n) < tol:
                return SalpeterSolution(
                    E=energy_2n,
                    m=m,
                    basis_tail=abs(coeffs_2n[-1]),
                    convergence_history=history,
                )
        energy, coeffs = energy_2n, coeffs_2n
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
