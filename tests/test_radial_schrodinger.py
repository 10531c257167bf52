import importlib.machinery
import importlib.util
import math
import re
import sys

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.special import jn_zeros

import salpeterbounds as sb
from salpeterbounds import _lapack, potentials, radial_schrodinger
from salpeterbounds.radial_schrodinger import GridConfig, NoBoundState

from oracles import EXP_WELL_EIGENVALUE, bessel_ground_eigenvalue


def exp_well(v):
    return lambda r: -v * np.exp(-r)


def kratzer(A, B):
    return lambda r: -A / r + B / r**2


@pytest.fixture(scope="module")
def exp_results():
    grids = {2.5: GridConfig(160.0, 4096), 4.5: GridConfig(65.0, 4096)}
    return {v: sb.lowest_eigenvalue(exp_well(v), grids[v]) for v in (2.5, 4.5)}


class TestExponentialOracle:
    def test_frozen_oracle_matches_bessel_bisection(self):
        for v, frozen in EXP_WELL_EIGENVALUE.items():
            _, lam = bessel_ground_eigenvalue(v)
            assert lam == pytest.approx(frozen, abs=1e-13)

    @pytest.mark.parametrize("v", [2.5, 4.5])
    def test_eigenvalue_matches_bessel_zero(self, exp_results, v):
        exact = EXP_WELL_EIGENVALUE[v]
        res = exp_results[v]
        assert res.eigenvalue == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("v", [2.5, 4.5])
    def test_discrete_levels_variational_within_estimate(self, exp_results, v):
        # central differences put the discrete levels slightly below truth;
        # the error estimate must cover the worst (coarsest) deficit
        exact = EXP_WELL_EIGENVALUE[v]
        res = exp_results[v]
        for lam in res.level_eigenvalues:
            assert lam >= exact - res.error_estimate

    @pytest.mark.parametrize("v", [2.5, 4.5])
    def test_grid_doubling_second_order_ratio(self, exp_results, v):
        lams = exp_results[v].level_eigenvalues
        ratio = (lams[1] - lams[0]) / (lams[2] - lams[1])
        assert 3.0 <= ratio <= 5.0

    def test_domain_truncation_insensitivity(self, exp_results):
        res = exp_results[2.5]
        doubled = sb.lowest_eigenvalue(exp_well(2.5), GridConfig(320.0, 4096))
        assert abs(doubled.eigenvalue - res.eigenvalue) < res.error_estimate


class TestExteriorMatching:
    @pytest.mark.parametrize("v", [2.5, 4.5])
    def test_box_at_the_range_is_exact(self, v):
        # past r = ln(v / 1e-12) the well is below 1e-12, and the matched
        # decay there makes the small box as good as the half-line
        res = sb.lowest_eigenvalue(exp_well(v), GridConfig(math.log(v / 1e-12), 1024))
        assert res.eigenvalue == pytest.approx(EXP_WELL_EIGENVALUE[v], abs=1e-10)

    def test_neumann_sign_is_the_binding_test(self):
        # -v e^{-r} binds exactly when J_0(2 sqrt(v)) has a zero below 2 sqrt(v)
        v_c = (jn_zeros(0, 1)[0] / 2.0) ** 2

        def neumann(v):
            return sb.neumann_eigenvalue(exp_well(v), GridConfig(math.log(v / 1e-12), 1024))

        assert neumann(v_c - 1e-3) > 0 > neumann(v_c + 1e-3)
        assert brentq(neumann, v_c - 1e-3, v_c + 1e-3, xtol=1e-12) == pytest.approx(v_c, abs=1e-8)

    def test_norm_includes_the_exterior_decay(self):
        # v = 1.5 barely binds (kappa = 0.0145): about half of the norm lies
        # past the box, in the matched decay
        v = 1.5
        small = sb.lowest_eigenvalue(exp_well(v), GridConfig(math.log(v / 1e-12), 1024))
        large = sb.lowest_eigenvalue(exp_well(v), GridConfig(600.0, 32768))
        kappa = math.sqrt(-small.eigenvalue)
        exterior = small.eigenfunction[-1] ** 2 / (2.0 * kappa)
        assert exterior > 0.4
        # kappa is matched to about 1e-13 in lam, i.e. 1e-11 relative here
        assert sb.expectation(small, np.ones_like) + exterior == pytest.approx(1.0, abs=1e-9)
        decay = lambda r: np.exp(-r)
        assert sb.expectation(small, decay) == pytest.approx(sb.expectation(large, decay), rel=1e-4)


class TestKratzerOracle:
    A, B = 0.8, -0.16

    def test_plain_stencil_refuses_to_extrapolate(self):
        # a B/r^2 origin makes u ~ r^gamma with non-integer gamma; that kink
        # breaks the h^2 error expansion and the extrapolation-disagreement
        # gate fires instead of returning a wrong eigenvalue
        with pytest.raises(sb.NonConvergence):
            sb.lowest_eigenvalue(kratzer(self.A, self.B), GridConfig(80.0, 4096))


class TestNoBoundState:
    def test_free_operator(self):
        with pytest.raises(NoBoundState):
            sb.lowest_eigenvalue(lambda r: np.zeros_like(r), GridConfig(40.0, 512))

    def test_weak_well(self):
        with pytest.raises(NoBoundState) as exc:
            sb.lowest_eigenvalue(exp_well(0.5), GridConfig(60.0, 1024))
        assert exc.value.lowest is not None and exc.value.lowest >= 0


class TestEigenfunction:
    def test_trapezoid_norm(self, exp_results):
        res = exp_results[2.5]
        norm = res.spacing * np.dot(res.eigenfunction, res.eigenfunction)
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_nodeless(self, exp_results):
        for res in exp_results.values():
            u = res.eigenfunction
            assert np.all(u > -1e-12 * u.max())

    def test_inverse_iteration_matches_eigh_tridiagonal(self, exp_results, monkeypatch):
        # the vector comes from stein at the eigenvalue already found, the
        # second half of eigh_tridiagonal's own stebz + stein route; that
        # route's stebz stops at its default tolerance, not at _EIG_TOL, so
        # the two vectors agree to roundoff rather than bit for bit
        def full_route(diag, off, eigenvalues, iblock, isplit):
            return eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[1], 0

        monkeypatch.setattr(radial_schrodinger, "dstein", full_route)
        ref = sb.lowest_eigenvalue(exp_well(4.5), GridConfig(65.0, 4096))
        res = exp_results[4.5]
        assert np.max(np.abs(res.eigenfunction - ref.eigenfunction)) <= 1e-11
        # stein's unit vector is an eigenvector of the finest level's matrix
        # at the matched kappa to within roundoff of |T|_1
        diag, off, _, h = radial_schrodinger._assemble(exp_well(4.5), 65.0, GridConfig(65.0, 4096).level_sizes()[-1])
        diag = radial_schrodinger._robin(diag, h, math.sqrt(-res.eigenvalue))
        x = res.eigenfunction.copy()
        x[-1] /= math.sqrt(2.0)
        x /= np.linalg.norm(x)
        residual = (diag - res.level_eigenvalues[-1]) * x
        residual[:-1] += off * x[1:]
        residual[1:] += off * x[:-1]
        column = np.abs(diag)
        column[:-1] += np.abs(off)
        column[1:] += np.abs(off)
        assert np.linalg.norm(residual) <= 1e3 * np.finfo(float).eps * column.max()

    def test_rayleigh_quotient_consistency(self, exp_results):
        for v, res in exp_results.items():
            u = np.concatenate([[0.0], res.eigenfunction, [0.0]])
            du = np.diff(u)
            h = res.spacing
            w_vals = exp_well(v)(res.radii)
            num = np.sum(du * du) / h + h * np.dot(w_vals, res.eigenfunction**2)
            den = h * np.dot(res.eigenfunction, res.eigenfunction)
            assert abs(num / den - res.eigenvalue) <= 1e2 * res.error_estimate


def random_tridiagonal(n, seed):
    rng = np.random.default_rng([seed, n])
    return rng.normal(size=n), rng.normal(size=n - 1)


def lowest_pair(diag, off):
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, 1), eigvals_only=True,
                            tol=radial_schrodinger._EIG_TOL)


def sturm_lowest(diag, off, lo, hi):
    """Lowest eigenvalue of the stored tridiagonal (diag, off), given lo
    below and hi above it: Sturm counts in long double at 32 shifts per
    sweep, until the bracket is 1e-17 * max(1, |lam|) wide."""
    diag, squares = np.asarray(diag, np.longdouble), np.asarray(off, np.longdouble) ** 2
    tiny = np.finfo(np.longdouble).tiny

    def below(shifts):
        # LDL^T pivots of T - shift I; their negative count is the number
        # of eigenvalues below the shift
        count = np.zeros(shifts.shape, int)
        pivot = np.ones_like(shifts)
        for i in range(diag.size):
            pivot = (diag[i] - shifts) - (squares[i - 1] / pivot if i else 0)
            pivot[pivot == 0] = tiny
            count += pivot < 0
        return count

    lo, hi = np.longdouble(lo), np.longdouble(hi)
    ends = below(np.array([lo, hi]))
    assert ends[0] == 0 and ends[1] >= 1
    while hi - lo > 1e-17 * max(1.0, abs(float(lo))):
        shifts = np.linspace(lo, hi, 34)[1:-1]
        empty = below(shifts) == 0
        k = int(np.count_nonzero(empty))
        lo, hi = (lo if k == 0 else shifts[k - 1]), (hi if k == shifts.size else shifts[k])
    return float(0.5 * (lo + hi))


def kleingordon_operator(spec, e):
    """W = 2eV - V^2 of the Klein-Gordon h(e), and the grid the Woods-Saxon
    curve ran on while it used this solver: spacing 0.025 over the tail
    radius."""
    r_max = potentials.tail_radius(spec, potentials.TAIL_EPS)

    def w(r):
        big_v = potentials.evaluate(spec, r)
        return 2.0 * e * big_v - big_v * big_v

    return w, GridConfig(r_max, max(64, math.ceil(r_max / 0.025)))


class TestCertifiedBracket:
    """A predicted bracket is used only behind the LDL^T certificate, its
    inverse-iteration quotient only behind a second one, and any miss falls
    back to bisecting the whole spectrum."""

    @pytest.fixture
    def selects(self, monkeypatch):
        calls = []

        def recorded(*args, **kwargs):
            calls.append(kwargs["select"])
            return eigh_tridiagonal(*args, **kwargs)

        monkeypatch.setattr(radial_schrodinger, "eigh_tridiagonal", recorded)
        return calls

    @staticmethod
    def within_tol(value, ref):
        return abs(value - ref) <= radial_schrodinger._EIG_TOL * max(1.0, abs(ref))

    def test_bracket_past_the_lowest_fails_the_certificate(self, selects):
        diag, off = random_tridiagonal(500, 1)
        lam1, lam2 = lowest_pair(diag, off)
        # the bracket holds lam2 but not lam1
        width = 0.25 * (lam2 - lam1)
        assert self.within_tol(radial_schrodinger._lowest(diag, off, lam2 - width, lam2 + width), lam1)
        assert selects == ["i"]

    @pytest.mark.parametrize("side, fallback", [("below", ["i"]), ("above", ["i"])])
    def test_bracket_outside_the_spectrum_falls_back(self, selects, side, fallback):
        # below, the certificate holds but inverse iteration from so far
        # below converges too slowly; above, the certificate fails
        diag, off = random_tridiagonal(500, 2)
        bound = np.abs(diag).max() + 2.0 * np.abs(off).max()
        guess = -2.0 * bound if side == "below" else 2.0 * bound
        lam1 = lowest_pair(diag, off)[0]
        lo, hi = guess - 0.5 * bound, guess + 0.5 * bound
        assert self.within_tol(radial_schrodinger._lowest(diag, off, lo, hi), lam1)
        assert selects == fallback

    def test_quotient_above_the_bracket_falls_back(self, selects):
        # both certificates hold, but the bracket predicted the eigenvalue
        # wrongly: it lies 1e-3 above the bracket's top
        diag, off = random_tridiagonal(500, 5)
        lam1 = lowest_pair(diag, off)[0]
        assert self.within_tol(radial_schrodinger._lowest(diag, off, lam1 - 3e-3, lam1 - 1e-3), lam1)
        assert selects == ["i"]

    @pytest.mark.parametrize("n", [64, 257, 1000, 5000])
    def test_warm_equals_full_interval(self, selects, n):
        diag, off = random_tridiagonal(n, 3)
        self.check_warm(diag, off, selects)

    def test_near_degenerate_lowest_pair(self, selects):
        # a block whose lowest state sits on its last node, joined to its
        # mirror image there by an off-diagonal 1e-9: the lowest pair is
        # split by about 2e-9, far below most brackets' widths
        diag, off = random_tridiagonal(800, 4)
        diag += 3.0
        diag[-1] = -3.0
        diag = np.concatenate((diag, diag[::-1]))
        off = np.concatenate((off, [1e-9], off[::-1]))
        lam1, lam2 = lowest_pair(diag, off)
        assert 1e-9 < lam2 - lam1 < 3e-9
        self.check_warm(diag, off, selects, split=lam2 - lam1)

    def check_warm(self, diag, off, selects, split=None):
        ref = radial_schrodinger._lowest(diag, off)
        brackets = [(0.0, 1e-12), (3e-4, 1e-3), (-2e-6, 1e-5), (0.4, 0.5)]
        for offset, width in brackets:
            before = len(selects)
            lo, hi = ref + offset - width, ref + offset + width
            assert self.within_tol(radial_schrodinger._lowest(diag, off, lo, hi), ref)
            if split is not None and width - offset > split:
                # lo lies farther below lam1 than lam2 lies above it: the
                # quotient stalls between the pair, and the second
                # certificate sends it to one whole-spectrum bisection
                assert selects[before:] == ["i"]
            elif split is None and width < 0.1:
                # a narrow bracket is settled by inverse iteration alone
                assert selects[before:] == []
        # a bracket is never bisected
        assert "v" not in selects

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than double")
    @pytest.mark.parametrize("spec, e", [(sb.exponential(3.4), 0.2), (sb.woods_saxon(2.6), 0.3)],
                             ids=["exponential", "woods-saxon"])
    def test_warm_value_matches_long_double_bisection(self, selects, spec, e):
        # the Klein-Gordon h(e) levels of kleingordon's default grid (spacing
        # 0.025 over the tail radius) with n <= 1155, at kappa = 0.7; the
        # whole-spectrum bisection's Sturm counts carry a roundoff of
        # eps * |T|_1, and its value misses the long-double one by 7e-14
        # and more
        r_max = potentials.tail_radius(spec, potentials.TAIL_EPS)
        V = lambda r: potentials.evaluate(spec, r)
        for n in GridConfig(r_max, math.ceil(r_max / 0.025)).level_sizes():
            if n > 1155:
                continue
            diag, off, _, h = radial_schrodinger._assemble(lambda r: 2.0 * e * V(r) - V(r) ** 2, r_max, n)
            diag = radial_schrodinger._robin(diag, h, 0.7)
            cold = radial_schrodinger._lowest(diag, off)
            exact = sturm_lowest(diag, off, cold - 1e-6, cold + 1e-6)
            before = len(selects)
            assert self.within_tol(radial_schrodinger._lowest(diag, off, cold - 7e-6, cold + 1.3e-5), exact)
            assert selects[before:] == []

    def test_most_kleingordon_solves_are_warm(self, selects, monkeypatch):
        # one whole-spectrum bisection per operator h(e): its coarsest
        # level at kappa = 0; every other eigenvalue is bounded by its
        # neighbours and settled by inverse iteration
        robin_levels = radial_schrodinger._robin_levels
        builds = []

        def counted(*args):
            builds.append(args)
            return robin_levels(*args)

        monkeypatch.setattr(radial_schrodinger, "_robin_levels", counted)
        for spec in (sb.woods_saxon(2.6), sb.woods_saxon(1.0)):
            del selects[:], builds[:]
            for e in np.linspace(-0.9, 0.9, 7):
                w, grid = kleingordon_operator(spec, e)
                radial_schrodinger.neumann_eigenvalue(w, grid)
                try:
                    radial_schrodinger.lowest_eigenvalue(w, grid)
                except NoBoundState:
                    pass
            assert builds and len(selects) == len(builds)

    @pytest.mark.parametrize("spec, e", [(sb.exponential(3.4), 0.2), (sb.woods_saxon(2.6), 0.3),
                                         (sb.woods_saxon(1.0), 0.95)],
                             ids=["exponential", "woods-saxon-deep", "woods-saxon-shallow"])
    def test_levels_rise_with_kappa(self, spec, e):
        # kappa adds 2 kappa / h to the end diagonal only, so each level's
        # eigenvalue is nondecreasing in kappa, whatever order the kappas
        # are memoized in
        _, robin = radial_schrodinger._robin_levels(*kleingordon_operator(spec, e))
        kappas = [0.0, 0.7, 0.1, 2.0, 0.35, 0.3, 0.35 + 1e-6, 5.0]
        for kappa in kappas:
            robin(kappa)
        levels = np.array([robin(kappa) for kappa in sorted(kappas)])
        tol = radial_schrodinger._EIG_TOL * np.maximum(1.0, np.abs(levels[1:]))
        assert np.all(np.diff(levels, axis=0) >= -tol)


class TestLapackExtension:
    """The LAPACK routines loaded from scipy's extension alone against
    scipy.linalg's own."""

    @pytest.mark.parametrize("select_range", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("n", [64, 500, 4096])
    def test_eigh_tridiagonal_is_scipys_bit_for_bit(self, n, select_range):
        for seed in range(3):
            diag, off = random_tridiagonal(n, seed)
            kwargs = dict(select="i", select_range=select_range, eigvals_only=True, tol=radial_schrodinger._EIG_TOL)
            ours = radial_schrodinger.eigh_tridiagonal(diag, off, **kwargs)
            assert ours.tobytes() == eigh_tridiagonal(diag, off, **kwargs).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_nonfinite_matrix(self, bad):
        diag, off = random_tridiagonal(64, 0)
        for which in (diag, off):
            which[5] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                radial_schrodinger.eigh_tridiagonal(diag, off, select="i", select_range=(0, 0),
                                                    eigvals_only=True, tol=radial_schrodinger._EIG_TOL)
            which[5] = 0.0

    @pytest.mark.parametrize("select, eigvals_only", [("a", True), ("v", True), ("i", False)])
    def test_rejects_other_routes(self, select, eigvals_only):
        diag, off = random_tridiagonal(64, 0)
        with pytest.raises(ValueError, match="select='i'"):
            radial_schrodinger.eigh_tridiagonal(diag, off, select=select, select_range=(0, 0),
                                                eigvals_only=eigvals_only, tol=0.0)

    def test_stebz_failure_is_nonconvergence(self, monkeypatch):
        def failing(d, e, *args):
            return 0, np.zeros(d.size), np.zeros(d.size, np.int32), np.zeros(d.size, np.int32), 3

        monkeypatch.setattr(_lapack, "dstebz", failing)
        diag, off = random_tridiagonal(64, 0)
        with pytest.raises(potentials.NonConvergence, match="stebz info = 3"):
            _lapack.eigh_tridiagonal(diag, off, select="i", select_range=(0, 0), eigvals_only=True, tol=0.0)

    def test_routines_are_scipys_extension_functions(self):
        for name in ("dpttrf", "dpttrs", "dstein"):
            assert getattr(radial_schrodinger, name) is getattr(scipy.linalg.lapack, name)
        # defined outside radial_schrodinger, so the layer tracer wraps it
        # once, as a solver, and not again as one of the module's functions
        assert radial_schrodinger.eigh_tridiagonal.__module__ == "salpeterbounds._lapack"

    def test_missing_extension_names_the_directory(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, _lapack._NAME)
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
            _lapack._load()


class TestExpectation:
    def test_constant_one_is_norm(self, exp_results):
        res = exp_results[2.5]
        assert sb.expectation(res, lambda r: np.ones_like(r)) == pytest.approx(1.0, abs=1e-10)

    def test_linearity_in_constant(self, exp_results):
        res = exp_results[2.5]
        assert sb.expectation(res, lambda r: np.full_like(r, 3.7)) == pytest.approx(3.7, abs=1e-9)

    def test_hellmann_feynman_slope(self):
        # d lam / d eps of W + 2 eps V equals 2 <V>
        v = 2.5
        grid = GridConfig(math.log(v / 1e-12), 4096)
        # V unlike W in shape, so the slope is not a mere rescaling of lam
        V = lambda r: -np.exp(-2.0 * r)
        base = sb.lowest_eigenvalue(exp_well(v), grid)
        mean_v = sb.expectation(base, V)
        eps = 1e-4

        def perturbed(sign):
            return sb.lowest_eigenvalue(lambda r: exp_well(v)(r) + 2.0 * sign * eps * V(r), grid).eigenvalue

        slope = (perturbed(+1) - perturbed(-1)) / (2.0 * eps)
        assert mean_v == pytest.approx(slope / 2.0, rel=1e-4)

    def test_rejects_nonfinite_weight(self, exp_results):
        res = exp_results[2.5]
        with pytest.raises(ValueError):
            sb.expectation(res, lambda r: np.where(r > 1, np.nan, 1.0))


class TestGridConfig:
    def test_level_sizes_halve_spacing_exactly(self):
        cfg = GridConfig(10.0, 100)
        sizes = cfg.level_sizes()
        assert sizes == [100, 201, 403]
        spacings = [10.0 / (n + 1) for n in sizes]
        assert spacings[0] / spacings[1] == pytest.approx(2.0, abs=0)
        assert spacings[1] / spacings[2] == pytest.approx(2.0, abs=0)

    @pytest.mark.parametrize("kwargs", [
        {"r_max": -1.0},
        {"r_max": 10.0, "n_points": 32},
        {"r_max": float("nan")},
        {"r_max": float("inf")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GridConfig(**{"n_points": 64, **kwargs})


def _brent_cases(seed, count):
    """Seeded (f, a, b, xtol, maxiter) across four shapes; about one case in
    six has no sign change and about one in six stops at maxiter."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        root = rng.uniform(-2.0, 2.0)
        shape = rng.integers(4)
        if shape == 0:
            c = rng.uniform(-1.0, 1.0)
            f = lambda x, r=root, c=c: (x - r) ** 3 + c * (x - r)
        elif shape == 1:
            k = 10.0 ** rng.uniform(-1.0, 3.0)
            f = lambda x, r=root, k=k: math.tanh(k * (x - r))
        elif shape == 2:
            f = lambda x, r=root: math.exp(x) - math.exp(r)
        else:
            f = lambda x, r=root: math.sin(0.5 * (x - r))
        a, b = root - rng.uniform(0.0, 3.0), root + rng.uniform(0.0, 3.0)
        if rng.random() < 0.125:
            a, b = b, b + rng.uniform(0.1, 1.0)
        maxiter = int(rng.integers(1, 12)) if rng.random() < 0.3 else 100
        yield f, float(a), float(b), float(10.0 ** rng.uniform(-14.0, -2.0)), maxiter


def _brent_run(solver, f, a, b, xtol, maxiter):
    """(root or None, evaluation points, error class or None)."""
    points = []

    def recorded(x):
        points.append(x)
        return f(x)

    try:
        return solver(recorded, a, b, xtol=xtol, maxiter=maxiter), points, None
    except RuntimeError:  # scipy's exhausted maxiter
        return None, points, potentials.NonConvergence
    except (potentials.NonConvergence, ValueError) as exc:
        return None, points, type(exc)


class TestBrentq:
    """potentials.brentq, the root finder of the kappa match and of every
    other 1-D search, against scipy.optimize.brentq, the oracle."""

    def test_matches_scipy_step_for_step(self):
        errors = []
        for f, a, b, xtol, maxiter in _brent_cases(seed=11, count=400):
            ours = _brent_run(potentials.brentq, f, a, b, xtol, maxiter)
            theirs = _brent_run(brentq, f, a, b, xtol, maxiter)
            assert ours[1] == theirs[1]
            assert ours[2] is theirs[2]
            assert ours[0] == theirs[0]
            errors.append(ours[2])
        # every outcome is exercised
        assert errors.count(None) > 150
        assert errors.count(potentials.NonConvergence) > 30
        assert errors.count(ValueError) > 20

    def test_tiny_values_match_scipy(self):
        # values near 1e-150 underflow the inverse quadratic step's
        # denominator to 0; C's division gives inf or NaN there, so scipy
        # bisects, where Python's would raise ZeroDivisionError
        for f, a, b, xtol, maxiter in _brent_cases(seed=12, count=100):
            tiny = lambda x, f=f: 1e-150 * f(x)
            ours = _brent_run(potentials.brentq, tiny, a, b, xtol, maxiter)
            theirs = _brent_run(brentq, tiny, a, b, xtol, maxiter)
            assert ours == theirs

    def test_root_is_a_python_float(self):
        root = potentials.brentq(lambda x: np.float64(x - 0.3), 0.0, 1.0, xtol=1e-12)
        assert type(root) is float and root == pytest.approx(0.3, abs=1e-12)

    def test_same_sign_bracket(self):
        with pytest.raises(ValueError, match="different signs"):
            potentials.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)

    @pytest.mark.parametrize("nan_where", [lambda x: x == 0.0, lambda x: x == 1.0, lambda x: 0.0 < x < 1.0],
                             ids=["left end", "right end", "interior"])
    def test_nan_value(self, nan_where):
        def f(x):
            return math.nan if nan_where(x) else x - 0.7
        with pytest.raises(ValueError, match="NaN"):
            potentials.brentq(f, 0.0, 1.0, xtol=1e-12)

    def test_exhausted_iterations(self):
        with pytest.raises(potentials.NonConvergence, match="2 iterations"):
            potentials.brentq(math.tanh, -1.0, 3.0, xtol=1e-14, maxiter=2)
