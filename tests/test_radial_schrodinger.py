import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.special import jn_zeros

import salpeterbounds as sb
from salpeterbounds import radial_schrodinger
from salpeterbounds.radial_schrodinger import GridConfig, NoBoundState

from oracles import EXP_WELL_EIGENVALUE, bessel_ground_eigenvalue, kratzer_ground


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
        assert res.converged

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

    def test_closed_form(self):
        assert kratzer_ground(self.A, self.B) == pytest.approx(-0.25, abs=1e-15)

    def test_eigenvalue_with_origin_renormalization(self):
        res = sb.lowest_eigenvalue(
            kratzer(self.A, self.B), GridConfig(80.0, 12288), inverse_square_origin=self.B
        )
        assert res.eigenvalue == pytest.approx(-0.25, rel=1e-5)

    def test_plain_stencil_refuses_to_extrapolate(self):
        # without the renormalization the r^gamma kink breaks the h^2 error
        # expansion and the extrapolation-disagreement gate fires
        with pytest.raises(sb.NonConvergence):
            sb.lowest_eigenvalue(kratzer(self.A, self.B), GridConfig(80.0, 4096))

    def test_plain_stencil_documented_accuracy_limit(self):
        res = sb.lowest_eigenvalue(kratzer(self.A, self.B), GridConfig(80.0, 4096, refinement_levels=2))
        assert res.eigenvalue == pytest.approx(-0.25, rel=2e-2)
        assert abs(res.eigenvalue + 0.25) > 1e-4

    def test_rejects_supercritical_inverse_square(self):
        with pytest.raises(ValueError):
            sb.lowest_eigenvalue(kratzer(0.8, -0.3), GridConfig(80.0, 256), inverse_square_origin=-0.3)


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
        # second half of eigh_tridiagonal's own stebz + stein route
        def full_route(diag, off, eigenvalues, iblock, isplit):
            return eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[1], 0

        monkeypatch.setattr(radial_schrodinger, "dstein", full_route)
        ref = sb.lowest_eigenvalue(exp_well(4.5), GridConfig(65.0, 4096))
        assert np.array_equal(exp_results[4.5].eigenfunction, ref.eigenfunction)

    def test_rayleigh_quotient_consistency(self, exp_results):
        for v, res in exp_results.items():
            u = np.concatenate([[0.0], res.eigenfunction, [0.0]])
            du = np.diff(u)
            h = res.spacing
            w_vals = exp_well(v)(res.radii)
            num = np.sum(du * du) / h + h * np.dot(w_vals, res.eigenfunction**2)
            den = h * np.dot(res.eigenfunction, res.eigenfunction)
            assert abs(num / den - res.eigenvalue) <= 1e2 * res.error_estimate


class TestExpectation:
    def test_constant_one_is_norm(self, exp_results):
        res = exp_results[2.5]
        assert sb.expectation(res, lambda r: np.ones_like(r)) == pytest.approx(1.0, abs=1e-10)

    def test_linearity_in_constant(self, exp_results):
        res = exp_results[2.5]
        assert sb.expectation(res, lambda r: np.full_like(r, 3.7)) == pytest.approx(3.7, abs=1e-9)

    def test_hellmann_feynman_slope(self):
        # d lam / d eps of W + 2 eps V equals 2 <V>
        A, B = 0.8, -0.16
        grid = GridConfig(80.0, 4096)
        base = sb.lowest_eigenvalue(kratzer(A, B), grid, inverse_square_origin=B)
        mean_v = sb.expectation(base, lambda r: -A / (2.0 * r))
        eps = 1e-4

        def perturbed(sign):
            W = lambda r: -A / r + B / r**2 + 2.0 * sign * eps * (-A / (2.0 * r))
            return sb.lowest_eigenvalue(W, grid, inverse_square_origin=B).eigenvalue

        slope = (perturbed(+1) - perturbed(-1)) / (2.0 * eps)
        # the trapezoid expectation integrates an r^(2 gamma - 1) integrand
        # near the origin, which caps the agreement around h^1.6
        assert mean_v == pytest.approx(slope / 2.0, rel=5e-4)

    def test_rejects_nonfinite_weight(self, exp_results):
        res = exp_results[2.5]
        with pytest.raises(ValueError):
            sb.expectation(res, lambda r: np.where(r > 1, np.nan, 1.0))


class TestGridConfig:
    def test_level_sizes_halve_spacing_exactly(self):
        cfg = GridConfig(10.0, 100, refinement_levels=3)
        sizes = cfg.level_sizes()
        assert sizes == [100, 201, 403]
        spacings = [10.0 / (n + 1) for n in sizes]
        assert spacings[0] / spacings[1] == pytest.approx(2.0, abs=0)
        assert spacings[1] / spacings[2] == pytest.approx(2.0, abs=0)

    @pytest.mark.parametrize("kwargs", [
        {"r_max": -1.0},
        {"r_max": 10.0, "n_points": 32},
        {"r_max": 10.0, "refinement_levels": 0},
        {"r_max": float("nan")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GridConfig(**{"n_points": 64, **kwargs})
