import math

import numpy as np
import pytest

import salpeterbounds as sb
from oracles import cosine_moment
from salpeterbounds import potentials, salpeter
from salpeterbounds.radial_schrodinger import GridConfig, NonConvergence
from salpeterbounds.salpeter import BasisConfig, default_box_radius


class TestBasisConfig:
    def test_defaults_derive_quadrature(self):
        cfg = BasisConfig(30.0, 256)
        assert cfg.quad_points == 16 * 512

    def test_rejects_small_basis(self):
        with pytest.raises(ValueError):
            BasisConfig(30.0, 16)

    def test_rejects_coarse_quadrature(self):
        with pytest.raises(ValueError):
            BasisConfig(30.0, 256, quad_points=512)

    def test_rejects_bad_box(self):
        with pytest.raises(ValueError):
            BasisConfig(-5.0)


def _moment_inputs(spec, n, r_box):
    r, wt = salpeter._mesh(r_box, BasisConfig(r_box, n).quad_points)
    return wt * potentials.evaluate(spec, r), np.pi * r / r_box


def _looped_moments(base, theta, count):
    """Reference: one cosine pass and dot product per moment."""
    return np.array([np.dot(base, np.cos(k * theta) - 1.0) for k in range(count)])


class TestCosineMoments:
    N, R = 64, 30.0

    @pytest.mark.parametrize("spec,shape", [
        (sb.exponential(4.5), lambda r: -4.5 * math.exp(-r)),
        (sb.woods_saxon(2.0), lambda r: -2.0 / (1.0 + math.exp((r - 1.0) / 0.2))),
    ])
    def test_quadrature_oracle(self, spec, shape):
        moments = salpeter._cosine_moments(*_moment_inputs(spec, self.N, self.R), 2 * self.N + 1)
        assert moments.shape == (2 * self.N + 1,)
        for k in (0, 1, 17, 2 * self.N):
            assert moments[k] == pytest.approx(cosine_moment(shape, self.R, k), abs=1e-12)

    def test_coulomb_matches_loop(self):
        # quad cannot take the bare -v/r apart from its cosine, so the
        # per-moment loop is the reference here
        base, theta = _moment_inputs(sb.coulomb(0.05), self.N, self.R)
        count = 2 * self.N + 1
        d_blocked = salpeter._cosine_moments(base, theta, count) / self.R
        d_looped = _looped_moments(base, theta, count) / self.R
        np.testing.assert_allclose(d_blocked, d_looped, rtol=0.0, atol=1e-15)

    def test_strided_matrix_matches_fancy_index(self):
        n = 37
        d = np.random.default_rng(5).standard_normal(2 * n + 1)
        modes = np.arange(1, n + 1)
        fancy = d[np.abs(modes[:, None] - modes[None, :])] - d[modes[:, None] + modes[None, :]]
        assert np.array_equal(salpeter._potential_matrix(d), fancy)


class TestFreeBox:
    @pytest.mark.parametrize("m,R", [(1.0, 30.0), (0.5, 20.0)])
    def test_exact_lowest_mode(self, m, R):
        energy, coeffs = sb.ground_energy_at(None, m, 64, R)
        assert energy == pytest.approx(math.sqrt((math.pi / R) ** 2 + m * m), abs=1e-14)
        assert coeffs[0] == 1.0


class TestGroundEnergy:
    def test_exponential_converges(self, srs_exponential_45):
        sol = srs_exponential_45
        assert sol.converged
        assert -1.0 < sol.E < 1.0
        assert sol.basis_tail < 1e-6

    def test_variational_monotonicity_in_basis(self, srs_exponential_45):
        # Rayleigh-Ritz: growing the basis at fixed R never raises E
        by_r = {}
        for n, r_box, energy in srs_exponential_45.convergence_history:
            by_r.setdefault(r_box, []).append((n, energy))
        for entries in by_r.values():
            entries.sort()
            for (_, e1), (_, e2) in zip(entries, entries[1:]):
                assert e2 <= e1 + 1e-12

    def test_box_insensitivity_at_convergence(self, srs_exponential_45):
        hist = srs_exponential_45.convergence_history
        (n1, r1, e1), (n2, r2, e2) = hist[-2], hist[-1]
        assert n1 == n2 and r2 == 2.0 * r1
        assert abs(e2 - e1) < 1e-6 * max(1.0, abs(e1))

    def test_crude_operator_bounds(self, srs_exponential_45, srs_woods_saxon_2):
        for sol, v in ((srs_exponential_45, 4.5), (srs_woods_saxon_2, 2.0)):
            assert sol.E < sol.m
            assert sol.E >= sol.m - v

    def test_nonrelativistic_domination(self, srs_exponential_45):
        # sqrt(p^2 + m^2) <= m + p^2 / (2m) transfers to the eigenvalues
        m, v = 1.0, 4.5
        res = sb.lowest_eigenvalue(
            lambda r: 2.0 * m * (-v * np.exp(-r)), GridConfig(80.0, 4096)
        )
        eps_nr = res.eigenvalue / (2.0 * m)
        assert srs_exponential_45.E <= m + eps_nr + 1e-6

    def test_kg_lower_bound(self, srs_exponential_45, kg_exponential):
        assert srs_exponential_45.E >= kg_exponential[(4.5, 1.0)].e

    def test_rejects_supercritical_coulomb(self):
        with pytest.raises(ValueError):
            sb.ground_energy(sb.coulomb(0.7), 1.0)

    def test_nonconvergence_at_tiny_basis_cap(self):
        with pytest.raises(NonConvergence):
            sb.ground_energy(sb.exponential(4.5), 1.0, tol=1e-12, basis_max=64)

    def test_nonconvergence_names_box_and_cutoff(self):
        # below v = 1/2 a Coulomb failure comes from the box clamp, which
        # caps the momentum cutoff N pi / R, not from the critical coupling
        with pytest.raises(NonConvergence) as info:
            sb.ground_energy(sb.coulomb(0.2), 1.0, basis_max=512)
        msg = str(info.value)
        assert "R = 800" in msg
        assert f"N pi / R = {512 * math.pi / 800:.4g}" in msg
        assert "2/pi" not in msg

    def test_default_box_covers_tail_and_decay(self):
        r_box = default_box_radius(sb.exponential(4.5), 1.0)
        assert r_box >= sb.tail_radius(sb.exponential(4.5), 1e-12)


class TestSquaredInequality:
    def test_exponential_slack_nonnegative(self, srs_exponential_45):
        rep = sb.squared_inequality_check(srs_exponential_45, sb.exponential(4.5))
        assert not rep.skipped
        assert rep.satisfied
        assert rep.slack >= 0.0
        assert rep.lhs == pytest.approx(srs_exponential_45.E ** 2 - 1.0)

    def test_woods_saxon_slack_nonnegative(self):
        spec = sb.woods_saxon(3.0)
        sol = sb.ground_energy(spec, 1.0)
        rep = sb.squared_inequality_check(sol, spec)
        assert not rep.skipped and rep.satisfied and rep.slack >= 0.0

    def test_skipped_when_curve_undefined(self):
        # at v = 0.5 the operator h(e) never binds near e = 1, so F(E) is
        # undefined; hand the check a converged stand-in solution there
        fake = sb.SalpeterSolution(E=0.999, m=1.0, basis_tail=0.0, converged=True)
        rep = sb.squared_inequality_check(fake, sb.exponential(0.5))
        assert rep.skipped
        assert rep.F_at_E is None and rep.slack is None
        assert "undefined" in rep.note

    def test_requires_converged_solution(self):
        stale = sb.SalpeterSolution(E=0.5, m=1.0, basis_tail=0.0, converged=False)
        with pytest.raises(ValueError):
            sb.squared_inequality_check(stale, sb.exponential(4.5))
