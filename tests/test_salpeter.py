import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

import salpeterbounds as sb
import salpeterbounds.cli_report as cli
from oracles import cosine_moment, coulomb_cosine_moment, coulomb_kg_energy
from salpeterbounds import salpeter
from salpeterbounds.radial_schrodinger import GridConfig, NonConvergence
from salpeterbounds.salpeter import default_box_radius


class TestBasisConfig:
    def test_rejects_small_basis(self):
        with pytest.raises(ValueError, match="basis_size"):
            sb.ground_energy_at(sb.exponential(4.5), 1.0, 16, 30.0)

    def test_rejects_bad_box(self):
        with pytest.raises(ValueError, match="box_radius"):
            sb.ground_energy_at(sb.exponential(4.5), 1.0, 64, -5.0)


class TestCosineMoments:
    N = 64
    ORDERS = (0, 1, 17, 2 * N)

    @pytest.mark.parametrize("spec,shape", [
        (sb.exponential(4.5), lambda r: -4.5 * math.exp(-r)),
        (sb.woods_saxon(2.0), lambda r: -2.0 / (1.0 + math.exp((r - 1.0) / 0.2))),
        (sb.woods_saxon(2.0, 1.0, 1.0), lambda r: -2.0 / (1.0 + math.exp(r - 1.0))),
        (sb.woods_saxon(2.0, 0.5, 2.0), lambda r: -2.0 / (1.0 + math.exp((r - 0.5) / 2.0))),
    ])
    def test_quadrature_oracle(self, spec, shape):
        # R = 3 leaves a Woods-Saxon tail at the wall that the exterior
        # series must remove; b >= a makes the series slowest
        for r_box in (3.0, 30.0):
            moments = salpeter._moments(spec, r_box, 2 * self.N + 1)
            assert moments.shape == (2 * self.N + 1,)
            for k in self.ORDERS:
                assert moments[k] == pytest.approx(cosine_moment(shape, r_box, k) / r_box, abs=1e-12)

    @pytest.mark.parametrize("r_box", [3.0, 30.0])
    def test_coulomb_oracle(self, r_box):
        moments = salpeter._moments(sb.coulomb(0.05), r_box, 2 * self.N + 1)
        for k in self.ORDERS:
            assert moments[k] == pytest.approx(coulomb_cosine_moment(0.05, k) / r_box, abs=1e-12)

    @pytest.mark.parametrize("r_box", [4.0, 5.0])
    def test_rejects_box_inside_woods_saxon_radius(self, r_box):
        with pytest.raises(ValueError):
            sb.ground_energy_at(sb.woods_saxon(2.0, 5.0, 0.2), 1.0, 64, r_box)


def dense_hamiltonian(spec, m, n, r_box):
    """H_jk = K_j delta_jk + D(|j-k|) - D(j+k) by fancy indexing, the oracle
    for the matrix-free product."""
    d = salpeter._moments(spec, r_box, 2 * n + 1)
    modes = np.arange(1, n + 1)
    potential = d[np.abs(modes[:, None] - modes[None, :])] - d[modes[:, None] + modes[None, :]]
    return potential + np.diag(np.sqrt((modes * np.pi / r_box) ** 2 + m * m))


KINDS = [sb.exponential(4.5), sb.woods_saxon(2.0), sb.coulomb(0.2)]


class TestMatrixFreeSolver:
    @pytest.mark.parametrize("spec", KINDS)
    @pytest.mark.parametrize("n", [37, 1024])
    def test_fft_product_matches_dense(self, spec, n):
        x = np.random.default_rng(n).standard_normal((n, 3))
        x /= np.linalg.norm(x, axis=0)
        product = salpeter._hamiltonian(spec, 1.0, n, 40.0)[0]
        assert np.max(np.abs(product(x) - dense_hamiltonian(spec, 1.0, n, 40.0) @ x)) < 1e-12

    @pytest.mark.parametrize("spec", KINDS)
    def test_lowest_eigenpair_matches_dense_eigh(self, spec):
        n, r_box = 1024, 40.0
        w, vec = scipy.linalg.eigh(dense_hamiltonian(spec, 1.0, n, r_box), subset_by_index=[0, 0])
        energy, coeffs = sb.ground_energy_at(spec, 1.0, n, r_box)
        assert abs(energy - w[0]) < 1e-12
        assert abs(coeffs @ vec[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_iteration_cap_fails_cleanly(self, monkeypatch, capfd, tmp_path):
        # one LOBPCG iteration cannot meet the residual gate: the solve
        # raises NonConvergence, the bounds row reads error, and the
        # eigensolver's own warnings reach neither the caller nor stderr
        monkeypatch.setattr(salpeter, "_MAX_ITERATIONS", 1)
        out = tmp_path / "bounds.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonConvergence, match=r"LOBPCG failed at N = 128 in the box R = 40: residual"):
                sb.ground_energy(sb.coulomb(0.04), 1.0)
            rc = cli.main(["bounds", "--set", "potential=coulomb", "--set", "v=0.04", "--set", "m=1",
                           "--set", f"out={out}"])
        assert rc == 0
        assert not caught
        assert capfd.readouterr().err == ""
        assert out.read_text().splitlines()[1].endswith(",error")

    def test_concurrent_failures_keep_warning_filters(self, monkeypatch, capfd):
        # failing solves on four threads, switching often: each
        # turns its own LOBPCG warnings into NonConvergence, and the
        # process-wide warning filters end as they began
        monkeypatch.setattr(salpeter, "_MAX_ITERATIONS", 1)
        filters = list(warnings.filters)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(sb.ground_energy_at, sb.coulomb(0.04), 1.0, 64, 40.0) for _ in range(32)]
                for future in futures:
                    with pytest.raises(NonConvergence):
                        future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert warnings.filters == filters
        assert capfd.readouterr().err == ""

    def test_history_is_bit_identical(self, srs_woods_saxon_2):
        again = sb.ground_energy(sb.woods_saxon(2.0), 1.0)
        assert again.convergence_history == srs_woods_saxon_2.convergence_history
        assert again.E == srs_woods_saxon_2.E


class TestGroundEnergy:
    def test_exponential_converges(self, srs_exponential_45):
        sol = srs_exponential_45
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
        # below v = 1/2 a Coulomb failure is not blamed on the critical
        # coupling; the message names the box and the momentum cutoff
        r_box = default_box_radius(sb.coulomb(0.2), 1.0)
        with pytest.raises(NonConvergence) as info:
            sb.ground_energy(sb.coulomb(0.2), 1.0, basis_max=512)
        msg = str(info.value)
        assert f"R = {r_box:g}" in msg
        assert f"N pi / R = {512 * math.pi / r_box:.4g}" in msg
        assert "2/pi" not in msg

    def test_coulomb_converges_at_basis_cap(self):
        # v = 0.2 converges only at N = 16384 modes
        v = 0.2
        sol = sb.ground_energy(sb.coulomb(v), 1.0)
        assert sol.convergence_history[-1][0] == 16384
        assert coulomb_kg_energy(v, 1.0) <= sol.E <= 1.0 - v * v / 2.0

    def test_coulomb_box_from_decay_length(self):
        # the 1/r tail never reaches 1e-12 inside the cap, so it must not
        # set the box; v = 0.08 converges only in the decay-length box
        v = 0.08
        sol = sb.ground_energy(sb.coulomb(v), 1.0)
        assert sol.convergence_history[0][1] < 800.0
        assert coulomb_kg_energy(v, 1.0) <= sol.E <= 1.0 - v * v / 2.0

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
        fake = sb.SalpeterSolution(E=0.999, m=1.0, basis_tail=0.0)
        rep = sb.squared_inequality_check(fake, sb.exponential(0.5))
        assert rep.skipped
        assert rep.F_at_E is None and rep.slack is None
        assert "undefined" in rep.note
