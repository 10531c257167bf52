"""Two-sided bounds on the ground-state energy of sqrt(p^2 + m^2) + V(r).

The lower bound comes from the Klein-Gordon reduction: the lowest eigenvalue
F(e) of the Schrodinger operator p^2 + 2eV - V^2 intersected with the
parabola e^2 - m^2.  The direct energy is computed in a sine basis where the
relativistic kinetic operator is diagonal, and for the Woods-Saxon potential
a scale-optimized Gaussian trial state supplies the upper bound.
"""

import importlib

# home module of each public name; a name is imported on first access, so
# `import salpeterbounds` loads no solver and no scipy
_HOMES = {
    "gaussian_bound": ("GaussianBoundPoint", "eg_at", "eg_optimized", "j_integrals", "optimal_curve", "rho"),
    "kleingordon": ("F", "KgSolution", "KgStatus", "SpectralCurvePoint", "critical_coupling_lower",
                    "critical_coupling_upper", "curve", "solve"),
    "potentials": ("CouplingOutOfRange", "Kind", "NoBoundState", "NonBindingSearchError", "NonConvergence",
                   "PotentialSpec", "Theory", "coulomb", "evaluate", "exponential", "tail_radius", "validate",
                   "woods_saxon"),
    "salpeter": ("SalpeterSolution", "ground_energy", "ground_energy_at"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = sorted(_HOME)
