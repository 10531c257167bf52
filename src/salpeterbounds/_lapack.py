"""LAPACK's symmetric tridiagonal routines, loaded from scipy's compiled
extension scipy/linalg/_flapack alone.

Importing the scipy.linalg package costs more start-up than the FD solver
spends computing, and it needs four Fortran routines of it.  A process
that has already loaded scipy.linalg reuses its extension module;
otherwise the extension is loaded here and registered under its own name,
so a later import of scipy.linalg shares it.
"""

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .potentials import NonConvergence

_NAME = "scipy.linalg._flapack"


def _load():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError(f"no scipy package on sys.path to load {_NAME} from", name=_NAME)
    directory = os.path.join(scipy.submodule_search_locations[0], "linalg")
    finder = importlib.machinery.FileFinder(
        directory, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(_NAME)
    if spec is None:
        raise ImportError(f"no LAPACK extension _flapack in {directory}", name=_NAME)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_NAME] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load()
dpttrf, dpttrs, dstebz, dstein = _flapack.dpttrf, _flapack.dpttrs, _flapack.dstebz, _flapack.dstein


def eigh_tridiagonal(d, e, *, select, select_range, eigvals_only, tol):
    """Eigenvalues il..iu of the symmetric tridiagonal (d, e), ascending,
    for select_range = (il, iu): scipy.linalg.eigh_tridiagonal's stebz
    route with select="i" and eigvals_only=True, the only call it serves.

    Raises ValueError on any other select or eigvals_only, or when d or e
    is not finite, and NonConvergence when stebz reports a nonzero info.
    """
    if select != "i" or not eigvals_only:
        raise ValueError(f"only select='i' with eigvals_only=True is supported, got {select!r}, {eigvals_only!r}")
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    il, iu = select_range
    m, w, _, _, info = dstebz(d, e, 2, 0.0, 1.0, il + 1, iu + 1, float(tol), "E")
    if info != 0:
        raise NonConvergence(f"bisection for the eigenvalues failed (stebz info = {info})")
    return w[:m]
