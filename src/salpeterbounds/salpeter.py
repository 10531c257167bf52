"""Ground energy of H = sqrt(p^2 + m^2) + V(r) in a sine basis, matrix-free.

In the Dirichlet sine modes on [0, R] the relativistic kinetic operator is
exactly diagonal, K_n = sqrt((n pi / R)^2 + m^2).  Products of modes reduce to
cosines, and with k = n pi / R

    V_jk = D(|j-k|) - D(j+k),    D(n) = (1/R) int_0^R V(r) (cos(k r) - 1) dr.

Keeping the "-1" inside the integrand makes every D finite even for the
Coulomb kind (the bare cosine integrals diverge; the constants cancel in the
difference), and D(0) = 0.  All three shapes have exact moments on [0, R]:

    Coulomb      D(n) = (v/R) Cin(n pi),  Cin(x) = int_0^x (1 - cos t) / t dt;
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
e^{-q c / b} < e^{-40}.  With t = pi s, Cin(n pi) is the running sum of
int_j^{j+1} 2 sin^2(pi s / 2) / s ds over j < n, each by 16-point
Gauss-Legendre (the integrand is entire); the table depends on n alone and
is built once per process, in blocks of 2^15 steps.

H is never formed.  With the odd extension x_{-k} = -x_k, x_0 = 0,
(V x)_j = sum_{|k| <= N} D(|j-k|) x_k is a convolution.  For rows
j = 1 .. N it is exact as a circular one of length 4N, so
H x = K x + irfft(rfft(D_e) rfft(x_o)) in O(N log N), where x_o is the odd
extension and D_e the even one, D(|j|) for |j| <= 2N, whose transform is
real.

A single-vector LOBPCG (Knyazev, SIAM J. Sci. Comput. 23 (2001) 517; in
_lobpcg, Rayleigh-Ritz on the iterate, its preconditioned residual and its
last move) finds the lowest pair, preconditioned by diag(K_j - sigma)^{-1}
with sigma = min(rho - |r|, K_1 + V_11) for the Rayleigh quotient rho and
residual r of the start vector.
V <= 0 gives V_11 < 0, and K_j >= K_1, so every entry is positive.  Each
doubling level starts from the last: zero-padded for 2N (rho is the last E,
|r| is small), mode k moved to mode 2k for 2R (the state plus its mirror
image at the new wall, an even mix whose rho - |r| is close to E).  A cold
start is the transform of r e^{-25 r / R}, the decay the box is sized for.
A level counts only if |H x - E x| <= RESIDUAL_TOL = DOUBLING_TOL / 10, so
an eigenvalue of H lies within a tenth of the doubling tolerance of E;
otherwise, also when LOBPCG stops at its iteration cap, NonConvergence names
N, R and the residual.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import potentials
# named eigh because the benchmark tracer (perfbench/tracer.py) times salpeter.eigh
from ._lobpcg import lobpcg as eigh
from .potentials import Kind, NoBoundState, NonConvergence, PotentialSpec, Theory

DEFAULT_BASIS_SIZE = 256
_BOX_FLOOR = 30.0

DOUBLING_TOL = 1e-7
RESIDUAL_TOL = DOUBLING_TOL / 10.0
_MAX_ITERATIONS = 200
# units n pi <= t <= (n + 1) pi of the Cin table per block: D(0 .. 2N) at
# N = 16384 needs one
_CIN_BLOCK = 1 << 15


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


@functools.cache
def _cin_table(blocks: int) -> np.ndarray:
    """Cin(n pi) for n = 0 .. blocks * _CIN_BLOCK, a running sum of
    int_j^{j+1} 2 sin^2(pi s / 2) / s ds (t = pi s) by 16-point Gauss-Legendre.

    At s = j + h the numerator is sin^2(pi h / 2) for even j and
    cos^2(pi h / 2) for odd j, so no sine of a large argument is taken.
    Every block is formed alike and the sum runs in order, so each value is
    the same for any number of blocks.
    """
    nodes, weights = np.polynomial.legendre.leggauss(16)
    h = 0.5 * (nodes + 1.0)
    numerators = weights * np.sin(0.5 * np.pi * h) ** 2, weights * np.cos(0.5 * np.pi * h) ** 2
    units = []
    for block in range(blocks):
        j = np.arange(block * _CIN_BLOCK, (block + 1) * _CIN_BLOCK)[:, None]
        units.append((np.where(j % 2, numerators[1], numerators[0]) / (j + h)).sum(axis=1))
    table = np.concatenate(([0.0], np.cumsum(np.concatenate(units))))
    table.flags.writeable = False   # one array serves every caller
    return table


def _moments(spec: PotentialSpec, r_box: float, count: int) -> np.ndarray:
    """D(n) = (1/R) int_0^R V(r) (cos(n pi r / R) - 1) dr for n = 0 .. count - 1,
    in closed form (see the module docstring)."""
    n = np.arange(1, count)
    k = n * np.pi / r_box
    if spec.kind is Kind.COULOMB:
        cin = _cin_table(math.ceil((count - 1) / _CIN_BLOCK))[:count]
        return spec.v / r_box * cin
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
    # the even extension D(|j|) on the circle of length 4N is real and even,
    # and so is its transform
    kernel = np.fft.rfft(np.concatenate((d, d[-2:0:-1]))).real[:, None]

    def product(x: np.ndarray) -> np.ndarray:
        odd = np.zeros((4 * n, x.shape[1]))
        odd[1:n + 1] = x
        odd[3 * n:] = -x[::-1]
        return kinetic[:, None] * x + np.fft.irfft(kernel * np.fft.rfft(odd, axis=0), 4 * n, axis=0)[1:n + 1]

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
    potentials.check_mass(m)
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
    energy, vec = eigh(product, x, preconditioner=lambda r: inverse * r, tol=RESIDUAL_TOL,
                       maxiter=_MAX_ITERATIONS)
    coeffs = vec[:, 0]
    residual = float(np.linalg.norm(product(vec)[:, 0] - energy * coeffs))
    if not residual <= RESIDUAL_TOL:
        raise NonConvergence(
            f"LOBPCG failed at N = {basis_size} in the box R = {box_radius:g}: residual {residual:.3g} "
            f"(gate {RESIDUAL_TOL:g})")
    if coeffs[np.argmax(np.abs(coeffs))] < 0:
        coeffs = -coeffs
    return energy, coeffs


def default_box_radius(spec: PotentialSpec, m: float) -> float:
    """Starting box from the potential tail and the bound-state decay length.

    A 128-mode solve estimates E, hence the decay rate kappa =
    sqrt(m^2 - max(E, 0)^2) (for E <= 0 the branch point p = i m sets it),
    floored at 0.05 m.  R >= 25 / kappa puts the wall's shift of E near
    e^{-50}, and R >= 30.  The Coulomb tail v / r never falls below
    TAIL_EPS, so its box comes from the decay length alone.
    """
    tail = 0.0 if spec.kind is Kind.COULOMB else potentials.tail_radius(spec, potentials.TAIL_EPS)
    e_pre, _ = ground_energy_at(spec, m, 128, max(tail, 40.0))
    kappa_sq = m * m - max(e_pre, 0.0) ** 2
    kappa = math.sqrt(kappa_sq) if kappa_sq > 2.5e-3 * m * m else 0.05 * m
    return max(tail, 25.0 / kappa, _BOX_FLOOR)


def ground_energy(
    spec: PotentialSpec,
    m: float,
    tol: float = DOUBLING_TOL,
    basis_max: int = 16384,
) -> SalpeterSolution:
    """Ground energy, converged under basis and box doubling.

    The doubling starts from DEFAULT_BASIS_SIZE modes in the box
    default_box_radius.
    Convergence requires |E(2N, R) - E(N, R)| < tol and then
    |E(2N, 2R) - E(2N, R)| < tol: the box doubling is probed at the doubled
    basis so it keeps the already-validated momentum cutoff N pi / R while
    testing the wall.  Failing the first test doubles N; failing only the
    second moves on from the (2N, 2R) level, as more modes cannot mend a box.
    A converged E >= m raises NoBoundState (a growing box lets the continuum
    edge converge), and so does an E above m whose E - m falls 4x (within
    10%) on two box doublings in a row, as the lowest box state of a free
    particle, pi^2 / (2 m R^2), does.  Raises NonConvergence when N would
    exceed basis_max, naming R and the momentum cutoff N pi / R; for a Coulomb coupling from
    1/2 up to the critical 2/pi the message also flags the unbounded
    downward drift of E with N.
    """
    potentials.validate(spec, Theory.SALPETER)
    n, r_box = DEFAULT_BASIS_SIZE, default_box_radius(spec, m)
    history: list[tuple[int, float, float]] = []
    free_law = 0   # box doublings in a row on the free-particle law
    energy, coeffs = ground_energy_at(spec, m, n, r_box)
    history.append((n, r_box, energy))
    while True:
        energy_2n, coeffs_2n = ground_energy_at(spec, m, 2 * n, r_box, np.concatenate((coeffs, np.zeros(n))))
        history.append((2 * n, r_box, energy_2n))
        if abs(energy_2n - energy) < tol:
            mirrored = np.zeros(2 * n)
            mirrored[1::2] = coeffs_2n[:n]
            energy_2r, coeffs_2r = ground_energy_at(spec, m, 2 * n, 2.0 * r_box, mirrored)
            history.append((2 * n, 2.0 * r_box, energy_2r))
            if abs(energy_2r - energy_2n) < tol:
                if energy_2n >= m:
                    raise NoBoundState(f"E = {energy_2n:.12g} converged at or above m = {m:g} in the box "
                                       f"R = {r_box:g}: no bound state below the continuum")
                return SalpeterSolution(
                    E=energy_2n,
                    m=m,
                    basis_tail=abs(coeffs_2n[-1]),
                    convergence_history=history,
                )
            # the basis holds but the wall moves E: continue from the wider box,
            # unless E - m falls as a free particle's pi^2 / (2 m R^2) does
            free = min(energy_2n, energy_2r) > m and 3.6 <= (energy_2n - m) / (energy_2r - m) <= 4.4
            free_law = free_law + 1 if free else 0
            energy_2n, coeffs_2n, r_box = energy_2r, coeffs_2r, 2.0 * r_box
            if free_law == 2:
                raise NoBoundState(
                    f"E = {energy_2n:.12g} stays at or above m = {m:g} in the box R = {r_box:g}, and E - m fell "
                    f"4x on each of the last two box doublings: the free-particle law (E - m) R^2 -> pi^2 / 2m, "
                    f"here {(energy_2n - m) * r_box ** 2:.4g} against {math.pi ** 2 / (2.0 * m):.4g}; "
                    "no bound state below the continuum")
        energy, coeffs = energy_2n, coeffs_2n
        n *= 2
        if 2 * n > basis_max:
            drops = [history[i + 1][2] - history[i][2] for i in range(len(history) - 1)]
            msg = (f"doubling test still fails at N = {n} in the box R = {r_box:g}, momentum cutoff "
                   f"N pi / R = {n * math.pi / r_box:.4g} (history: "
                   + ", ".join(f"N={size} R={radius:.6g} E={level:.12g}" for size, radius, level in history) + ")")
            if spec.kind is Kind.COULOMB and spec.v >= 0.5 and all(step < 0 for step in drops):
                msg += (
                    "; E decreases without stabilizing as the basis grows, the "
                    f"signature of a Coulomb coupling {spec.v} near the critical 2/pi"
                )
            raise NonConvergence(msg)
