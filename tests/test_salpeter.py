import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.special import sici

import salpeterbounds as sb
import salpeterbounds.cli_report as cli
from oracles import cosine_moment, coulomb_cosine_moment, coulomb_kg_energy
from salpeterbounds import _lobpcg, salpeter
from salpeterbounds.potentials import NoBoundState, NonConvergence
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


class TestCinTable:
    # D(0 .. 2N) at the default cap N = 16384 and one more
    COUNT = 2 * 16384 + 2

    def test_matches_sici(self):
        n = np.arange(1, self.COUNT)
        cin = np.euler_gamma + np.log(n * np.pi) - sici(n * np.pi)[1]
        table = salpeter._moments(sb.coulomb(0.5), 0.5, self.COUNT)
        assert table[0] == 0.0
        assert np.max(np.abs(table[1:] / cin - 1.0)) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 4097, 32768, 32769])
    def test_matches_mpmath(self, n):
        with mpmath.workdps(30):
            x = n * mpmath.pi
            cin = float(mpmath.euler + mpmath.log(x) - mpmath.ci(x))
        assert salpeter._cin_table(2)[n] == pytest.approx(cin, rel=1e-14)

    def test_values_do_not_depend_on_the_table_size(self):
        one, two = salpeter._cin_table(1), salpeter._cin_table(2)
        assert one.size == salpeter._CIN_BLOCK + 1
        assert np.array_equal(two[:one.size], one)


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
        # failing solves on four threads, switching often: each raises
        # its own NonConvergence, none warns or writes to stderr, and the
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


class TestLobpcg:
    """The single-vector LOBPCG against numpy.linalg.eigh."""

    @staticmethod
    def spd(n, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (q * np.linspace(0.5, 20.0, n)) @ q.T, rng.standard_normal(n)

    def test_small_dense_spd(self):
        a, x = self.spd(60, 1)
        energy, vec = _lobpcg.lobpcg(lambda v: a @ v, x, preconditioner=lambda r: r, tol=1e-10, maxiter=200)
        w, v = np.linalg.eigh(a)
        assert vec.shape == (60, 1)
        assert abs(energy - w[0]) < 1e-12
        assert abs(vec[:, 0] @ v[:, 0]) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(a @ vec - energy * vec) <= 1e-10

    @pytest.mark.parametrize("spec", KINDS)
    def test_dense_hamiltonian_with_production_preconditioner(self, spec, monkeypatch):
        # the start vector and preconditioner of the production solve
        n, r_box = 256, 40.0
        calls = []

        def spy(a, x, **options):
            calls.append((x, options))
            return _lobpcg.lobpcg(a, x, **options)

        monkeypatch.setattr(salpeter, "eigh", spy)
        sb.ground_energy_at(spec, 1.0, n, r_box)
        (x, options), = calls
        h = dense_hamiltonian(spec, 1.0, n, r_box)
        energy, vec = _lobpcg.lobpcg(lambda v: h @ v, x, **options)
        w, v = np.linalg.eigh(h)
        assert abs(energy - w[0]) < 1e-12
        assert abs(vec[:, 0] @ v[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_maxiter_returns_the_last_iterate(self):
        a, x = self.spd(60, 2)
        energy, vec = _lobpcg.lobpcg(lambda v: a @ v, x, preconditioner=lambda r: r, tol=1e-10, maxiter=2)
        assert np.linalg.norm(a @ vec - energy * vec) > 1e-10
        assert energy == pytest.approx((vec.T @ a @ vec).item(), abs=1e-12)

    @pytest.mark.parametrize("rotated", [False, True])
    def test_start_at_an_eigenvector(self, rotated):
        # tol = 0 keeps iterating on a residual of rounding noise, or of
        # exact zeros for the diagonal matrix
        a, _ = self.spd(40, 3)
        if not rotated:
            a = np.diag(np.diag(a))
        w, v = np.linalg.eigh(a)
        with np.errstate(all="raise"):
            energy, vec = _lobpcg.lobpcg(lambda u: a @ u, v[:, 0], preconditioner=lambda r: r, tol=0.0, maxiter=20)
        assert abs(energy - w[0]) < 1e-12
        assert abs(vec[:, 0] @ v[:, 0]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [2.0, 0.0])
    def test_preconditioned_residual_parallel_to_x(self, scale):
        # w = scale x leaves nothing to add to span{x}: the start comes back
        a, x = self.spd(40, 4)
        x = x / np.linalg.norm(x)
        with np.errstate(all="raise"):
            energy, vec = _lobpcg.lobpcg(lambda u: a @ u, x, preconditioner=lambda r: scale * x[:, None],
                                         tol=1e-10, maxiter=20)
        assert energy == pytest.approx(x @ a @ x, abs=1e-12)
        assert np.allclose(vec[:, 0], x, rtol=0.0, atol=1e-15)


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
        # eps_NR is the ground eigenvalue of p^2 - 2mv e^{-r} over 2m; that
        # operator, in s = r / 2, is h(0) / 4 of the exponential curve with
        # v' = 2 sqrt(2mv) = 6
        m, v = 1.0, 4.5
        eps_nr = sb.F(sb.exponential(6.0), 0.0).F / (4.0 * 2.0 * m)
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

    def test_weak_coulomb_grows_the_box(self):
        # kappa = 0.01 asks for R ~ 2500, beyond the kappa floor's 500: more
        # modes cannot mend that box, so the doubling must move the wall
        v = 0.01
        sol = sb.ground_energy(sb.coulomb(v), 1.0)
        assert sol.convergence_history[-1][1] > default_box_radius(sb.coulomb(v), 1.0)
        assert coulomb_kg_energy(v, 1.0) <= sol.E <= 1.0 - v * v / 2.0

    def test_continuum_is_no_bound_state(self):
        # exponential v = 1.5 does not bind at m = 0.3 (Klein-Gordon reads
        # no-binding); a growing box converges E onto m from above, which
        # must not be returned as a ground energy
        with pytest.raises(NoBoundState, match=r"at or above m = 0.3 in the box R = "):
            sb.ground_energy(sb.exponential(1.5), 0.3)

    def test_free_particle_law_is_no_bound_state(self, monkeypatch):
        # Woods-Saxon v = 1 does not bind at m = 0.8 (Klein-Gordon reads
        # no-binding); E - m falls as pi^2 / (2 m R^2) with every box
        # doubling and would never meet the doubling test before N = 16384
        sizes = []
        solve = salpeter.ground_energy_at

        def counted(spec, m, basis_size, box_radius, start=None):
            sizes.append(basis_size)
            return solve(spec, m, basis_size, box_radius, start)

        monkeypatch.setattr(salpeter, "ground_energy_at", counted)
        with pytest.raises(NoBoundState, match=r"at or above m = 0.8 .* free-particle law"):
            sb.ground_energy(sb.woods_saxon(1.0, 1.0, 0.2), 0.8)
        assert max(sizes) < 16384

    @pytest.mark.parametrize("make, v", [(sb.woods_saxon, 1e-8), (sb.woods_saxon, 1e-10), (sb.woods_saxon, 1e-12),
                                         (sb.exponential, 1e-10), (sb.exponential, 1e-12), (sb.exponential, 1e-14),
                                         (sb.coulomb, 1e-14), (sb.coulomb, 1e-15), (sb.coulomb, 1e-16)],
                             ids=lambda x: x.__name__ if callable(x) else f"{x:g}")
    def test_weak_coupling_preconditioner_stays_finite(self, make, v):
        # V_11 lies under half an ulp of K_1 here, so K_1 + V_11 rounds to
        # K_1; the preconditioner's shift must still sit below K_1, or
        # 1 / (K_1 - sigma) divides by zero
        with pytest.raises(NoBoundState, match=r"at or above m = 1 in the box R = 500"):
            sb.ground_energy(make(v), 1.0)

    def test_weak_coulomb_is_not_the_free_particle_law(self):
        # bound by 5e-5: E < m at every level, so the free-particle law of
        # an unbound E never applies while the box grows from 500 to 2000
        sol = sb.ground_energy(sb.coulomb(0.01), 1.0)
        assert all(energy < 1.0 for _, _, energy in sol.convergence_history)
        assert [sol.convergence_history[i][1] for i in (0, -1)] == pytest.approx([500.0, 2000.0])

    def test_deep_state_box_from_branch_point(self):
        # E < 0 decays at the rate m, so the box is 25 / m with modes to
        # resolve the well; the kappa floor's R = 500 / m would leave 256
        # modes blind to it and the box doubling would converge on m
        sol = sb.ground_energy(sb.woods_saxon(3.0), 0.3)
        assert sol.convergence_history[0][1] == pytest.approx(25.0 / 0.3)
        # E from N = 8192 in the box R = 800, checked against R = 1600
        assert sol.E == pytest.approx(-0.447911757, abs=1e-8)

    def test_default_box_covers_tail_and_decay(self):
        r_box = default_box_radius(sb.exponential(4.5), 1.0)
        assert r_box >= sb.tail_radius(sb.exponential(4.5), 1e-12)


class TestSquaredInequality:
    """E^2 - m^2 >= F(E): squaring sqrt(p^2 + m^2) psi = (E - V) psi and the
    variational principle for h(E) force it, so a negative slack is a bug."""

    def test_exponential_slack_nonnegative(self, srs_exponential_45):
        energy = srs_exponential_45.E
        assert energy ** 2 - 1.0 >= sb.F(sb.exponential(4.5), energy).F

    def test_woods_saxon_slack_nonnegative(self):
        spec = sb.woods_saxon(3.0)
        energy = sb.ground_energy(spec, 1.0).E
        assert energy ** 2 - 1.0 >= sb.F(spec, energy).F
