"""Two-sided bounds on the ground-state energy of sqrt(p^2 + m^2) + V(r).

The lower bound comes from the Klein-Gordon reduction: the lowest eigenvalue
F(e) of the Schrodinger operator p^2 + 2eV - V^2 intersected with the
parabola e^2 - m^2.  The direct energy is computed in a sine basis where the
relativistic kinetic operator is diagonal, and for the Woods-Saxon potential
a scale-optimized Gaussian trial state supplies the upper bound.
"""

from .gaussian_bound import (
    CouplingOutOfRange,
    GaussianBoundPoint,
    eg_at,
    eg_optimized,
    j_integrals,
    optimal_curve,
    rho,
)
from .kleingordon import (
    F,
    KgSolution,
    KgStatus,
    NonBindingSearchError,
    SpectralCurvePoint,
    concavity_scan,
    critical_coupling_lower,
    critical_coupling_upper,
    curve,
    solve,
)
from .potentials import Kind, PotentialSpec, Theory, coulomb, evaluate, exponential, tail_radius, validate, woods_saxon
from .radial_schrodinger import (
    GridConfig,
    NoBoundState,
    NonConvergence,
    SchrodingerResult,
    expectation,
    lowest_eigenvalue,
    neumann_eigenvalue,
)
from .salpeter import (
    SalpeterSolution,
    ground_energy,
    ground_energy_at,
    squared_inequality_check,
)

__version__ = "0.1.0"

__all__ = [
    "CouplingOutOfRange",
    "F",
    "GaussianBoundPoint",
    "GridConfig",
    "KgSolution",
    "KgStatus",
    "Kind",
    "NoBoundState",
    "NonBindingSearchError",
    "NonConvergence",
    "PotentialSpec",
    "SalpeterSolution",
    "SchrodingerResult",
    "SpectralCurvePoint",
    "Theory",
    "concavity_scan",
    "coulomb",
    "critical_coupling_lower",
    "critical_coupling_upper",
    "curve",
    "eg_at",
    "eg_optimized",
    "evaluate",
    "expectation",
    "exponential",
    "ground_energy",
    "ground_energy_at",
    "j_integrals",
    "lowest_eigenvalue",
    "neumann_eigenvalue",
    "optimal_curve",
    "rho",
    "solve",
    "squared_inequality_check",
    "tail_radius",
    "validate",
    "woods_saxon",
]
