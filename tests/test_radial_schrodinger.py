"""What is left of the finite-difference layer: the scipy LAPACK routine
that radial_schrodinger still exposes to the benchmark tracer, and the
frozen Bessel table that acceptance criterion 2 reads."""

import importlib.machinery
import importlib.util
import math
import re
import sys

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.linalg import eigh_tridiagonal

from salpeterbounds import _lapack, potentials, radial_schrodinger

from oracles import EXP_WELL_EIGENVALUE, bessel_ground_eigenvalue

# stebz's absolute tolerance in these comparisons
TOL = 1e-14


class TestExponentialOracle:
    def test_frozen_oracle_matches_bessel_bisection(self):
        for v, frozen in EXP_WELL_EIGENVALUE.items():
            _, lam = bessel_ground_eigenvalue(v)
            assert lam == pytest.approx(frozen, abs=1e-13)


def random_tridiagonal(n, seed):
    rng = np.random.default_rng([seed, n])
    return rng.normal(size=n), rng.normal(size=n - 1)


class TestLapackExtension:
    """The LAPACK routines loaded from scipy's extension alone against
    scipy.linalg's own."""

    @pytest.mark.parametrize("select_range", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("n", [64, 500, 4096])
    def test_eigh_tridiagonal_is_scipys_bit_for_bit(self, n, select_range):
        for seed in range(3):
            diag, off = random_tridiagonal(n, seed)
            kwargs = dict(select="i", select_range=select_range, eigvals_only=True, tol=TOL)
            ours = _lapack.eigh_tridiagonal(diag, off, **kwargs)
            assert ours.tobytes() == eigh_tridiagonal(diag, off, **kwargs).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_nonfinite_matrix(self, bad):
        diag, off = random_tridiagonal(64, 0)
        for which in (diag, off):
            which[5] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                _lapack.eigh_tridiagonal(diag, off, select="i", select_range=(0, 0), eigvals_only=True, tol=TOL)
            which[5] = 0.0

    @pytest.mark.parametrize("select, eigvals_only", [("a", True), ("v", True), ("i", False)])
    def test_rejects_other_routes(self, select, eigvals_only):
        diag, off = random_tridiagonal(64, 0)
        with pytest.raises(ValueError, match="select='i'"):
            _lapack.eigh_tridiagonal(diag, off, select=select, select_range=(0, 0), eigvals_only=eigvals_only,
                                     tol=0.0)

    def test_stebz_failure_is_nonconvergence(self, monkeypatch):
        def failing(d, e, *args):
            return 0, np.zeros(d.size), np.zeros(d.size, np.int32), np.zeros(d.size, np.int32), 3

        monkeypatch.setattr(_lapack, "dstebz", failing)
        diag, off = random_tridiagonal(64, 0)
        with pytest.raises(potentials.NonConvergence, match="stebz info = 3"):
            _lapack.eigh_tridiagonal(diag, off, select="i", select_range=(0, 0), eigvals_only=True, tol=0.0)

    def test_routines_are_scipys_extension_functions(self):
        assert _lapack.dstebz is scipy.linalg.lapack.dstebz
        # the one name radial_schrodinger keeps, defined outside it, so the
        # layer tracer wraps it once, as a solver, and not again as one of
        # the module's functions
        assert radial_schrodinger.eigh_tridiagonal is _lapack.eigh_tridiagonal
        assert radial_schrodinger.eigh_tridiagonal.__module__ == "salpeterbounds._lapack"

    def test_missing_extension_names_the_directory(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, _lapack._NAME)
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
            _lapack._load()
