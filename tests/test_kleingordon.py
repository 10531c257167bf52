import warnings

import numpy as np
import pytest
from scipy.special import expit

import salpeterbounds as sb
from salpeterbounds import kleingordon
from salpeterbounds.kleingordon import ConcavityReport, KgStatus, curve_csv_rows
from salpeterbounds.radial_schrodinger import GridConfig, NoBoundState

from oracles import (
    coulomb_kg_energy,
    kg_energy,
    kratzer_ground,
    zero_energy_root,
    zero_energy_slope,
    zero_energy_threshold,
)

# shape f(r) with V = -v f(r), and a radius past which v f is negligible
# for every coupling the oracles scan
ZERO_ENERGY_SHAPES = {
    "exponential": (sb.exponential, lambda r: np.exp(-r), 40.0),
    "woods-saxon": (sb.woods_saxon, lambda r: expit(-(r - 1.0) / 0.2), 10.0),
}


class TestSpectralCurveCoulomb:
    def test_closed_form_value(self):
        pt = sb.F(sb.coulomb(0.4), 1.0)
        assert pt.F == pytest.approx(-0.25, abs=1e-15)
        assert pt.F_prime == pytest.approx(-0.5, abs=1e-14)
        assert pt.delta == pytest.approx(1.25, abs=1e-14)

    def test_no_bound_state_for_nonpositive_e(self):
        with pytest.raises(NoBoundState):
            sb.F(sb.coulomb(0.4), -0.3)
        with pytest.raises(NoBoundState):
            sb.F(sb.coulomb(0.4), 0.0)

    def test_rejects_supercritical_coupling(self):
        with pytest.raises(ValueError):
            sb.F(sb.coulomb(0.6), 1.0)

    def test_grid_path_cross_validation(self):
        # the generic finite-difference engine, fed the reduced potential
        # 2eV - V^2 = -2ev/r - v^2/r^2, must agree with the closed form
        v = 0.4
        for e in (0.5, 0.8, 1.0):
            A, B = 2.0 * e * v, -v * v
            exact = kratzer_ground(A, B)
            kappa = np.sqrt(-exact)
            res = sb.lowest_eigenvalue(
                lambda r: -A / r + B / r**2,
                GridConfig(40.0 / kappa, 16384),
                inverse_square_origin=B,
            )
            assert res.eigenvalue == pytest.approx(exact, rel=1e-5)


class TestSpectralCurveShortRange:
    def test_monotone_decreasing_exponential(self):
        points = sb.curve(sb.exponential(2.5), np.linspace(0.3, 0.95, 7))
        assert len(points) == 7
        f_vals = [p.F for p in points]
        assert all(a >= b for a, b in zip(f_vals, f_vals[1:]))
        assert all(p.F < 0 for p in points)
        assert all(p.F_prime <= 0 for p in points)

    def test_curve_skips_undefined_region(self):
        points = sb.curve(sb.exponential(2.5), np.linspace(-0.95, 0.95, 21))
        assert 0 < len(points) < 21
        # existence edge for v=2.5 sits near -0.027
        assert min(p.e for p in points) > -0.1

    def test_delta_consistency(self):
        pt = sb.F(sb.exponential(4.5), 0.2)
        assert pt.delta == pytest.approx(pt.e - 0.5 * pt.F_prime, abs=0)
        assert pt.mean_V == pytest.approx(0.5 * pt.F_prime, abs=0)

    def test_slope_identity_against_finite_difference(self):
        spec = sb.exponential(4.5)
        for e in (-0.2, 0.3, 0.8):
            pt = sb.F(spec, e)
            step = 1e-3
            fd = (sb.F(spec, e + step).F - sb.F(spec, e - step).F) / (2.0 * step)
            assert abs(pt.F_prime - fd) <= 1e-4 * max(1.0, abs(pt.F_prime))

    @pytest.mark.parametrize("spec, e", [
        (sb.exponential(2.5), 0.0),    # e0 + 0.027
        (sb.woods_saxon(1.0), 0.99),   # at e_kg, m = 1
    ])
    def test_slope_identity_for_weak_binding(self, spec, e):
        # weakly bound states carry much of their norm past the small box,
        # in the matched decay, and <V> must be normalized with it
        pt = sb.F(spec, e)
        step = 1e-3
        fd = (sb.F(spec, e + step).F - sb.F(spec, e - step).F) / (2.0 * step)
        assert abs(pt.F_prime - fd) <= 1e-4 * max(1.0, abs(pt.F_prime))


class TestSolveCoulomb:
    def test_closed_form_energy(self):
        sol = sb.solve(sb.coulomb(0.4), 1.0)
        assert sol.status is KgStatus.BOUND
        assert sol.e == pytest.approx(coulomb_kg_energy(0.4, 1.0), abs=1e-14)
        assert sol.e0 == 0.0
        assert sol.delta_at_e > 0
        assert len(sol.curve_samples) > 0

    def test_mass_scaling(self):
        e1 = sb.solve(sb.coulomb(0.3), 1.0).e
        e2 = sb.solve(sb.coulomb(0.3), 2.0).e
        assert e2 == pytest.approx(2.0 * e1, rel=1e-14)


class TestSolveExponential:
    def test_bound_window_and_intersection(self, kg_exponential):
        for (v, m), sol in kg_exponential.items():
            assert sol.status is KgStatus.BOUND
            assert -m < sol.e < m
            pt = sb.F(sb.exponential(v), sol.e)
            assert pt.F == pytest.approx(sol.e**2 - m**2, abs=2e-7)

    def test_mass_monotonicity(self, kg_exponential):
        for v in (2.5, 4.5):
            assert kg_exponential[(v, 1.0)].e > kg_exponential[(v, 0.8)].e

    def test_intersection_slope_condition(self, kg_exponential):
        for sol in kg_exponential.values():
            if sol.secondary_e is None:
                assert sol.delta_at_e > 0

    def test_existence_edge_between_masses(self, kg_exponential):
        # e0 is a property of the curve alone, so both masses see the same edge
        for v in (2.5, 4.5):
            e0_1 = kg_exponential[(v, 1.0)].e0
            e0_08 = kg_exponential[(v, 0.8)].e0
            assert e0_1 == pytest.approx(e0_08, abs=1e-6)

    def test_theorem_classification_in_window_edge(self, kg_exponential):
        sol = kg_exponential[(4.5, 1.0)]
        assert sol.e0 is not None and -1.0 < sol.e0 < 0.0
        assert sol.delta_at_e > 0

    def test_weak_coupling_no_binding(self):
        sol = sb.solve(sb.exponential(0.01), 1.0)
        assert sol.status is KgStatus.NO_BINDING
        assert sol.e is None

    def test_curve_samples_cover_solution(self, kg_exponential):
        sol = kg_exponential[(4.5, 1.0)]
        es = [p.e for p in sol.curve_samples]
        assert min(es) <= sol.e <= max(es)
        assert all(p.F < 0 for p in sol.curve_samples)


# every branch of solve's classification: the edge inside the window (one
# intersection), two intersections near -m, supercritical, no binding (h(m)
# does not bind, or it binds so weakly that G > 0 up to the window's end)
SOLVE_CASES = [
    ("exponential", 2.5, 0.8, KgStatus.BOUND),
    ("exponential", 2.5, 1.0, KgStatus.BOUND),
    ("exponential", 4.5, 0.8, KgStatus.BOUND),
    ("exponential", 4.5, 1.0, KgStatus.BOUND),
    ("woods-saxon", 2.0, 1.0, KgStatus.BOUND),
    ("woods-saxon", 3.77, 1.0, KgStatus.BOUND),
    ("exponential", 6.0, 1.0, KgStatus.SUPERCRITICAL),
    ("woods-saxon", 3.8, 1.0, KgStatus.SUPERCRITICAL),
    ("exponential", 0.01, 1.0, KgStatus.NO_BINDING),
    ("exponential", 0.8, 0.8, KgStatus.NO_BINDING),
    ("exponential", 0.67301, 1.0, KgStatus.NO_BINDING),
]


def _oracle_grid(m):
    # the window, plus points close to -m, where two intersections can sit
    # a few hundredths apart
    edge = m * (1.0 - 1e-9)
    return np.union1d(np.linspace(-edge, edge, 25), -m + m * np.geomspace(1e-9, 0.2, 12))


class TestSolveClassification:
    @pytest.mark.parametrize("kind, v, m, status", SOLVE_CASES)
    def test_matches_shooting_oracle(self, kind, v, m, status):
        make, shape, r_end = ZERO_ENERGY_SHAPES[kind]
        sol = sb.solve(make(v), m)
        assert sol.status is status
        want = kg_energy(shape, v, m, r_end, _oracle_grid(m))
        if status is KgStatus.BOUND:
            assert sol.e == pytest.approx(want, abs=1e-8)
            es = [p.e for p in sol.curve_samples]
            assert min(es) <= sol.e <= max(es)
        else:
            assert sol.e is None and want is None

    def test_second_intersection_lies_on_the_parabola(self):
        spec = sb.woods_saxon(3.77)
        sol = sb.solve(spec, 1.0)
        assert sol.secondary_e is not None and sol.secondary_e > sol.e
        pt = sb.F(spec, sol.secondary_e)
        assert abs(pt.F - (sol.secondary_e**2 - 1.0)) <= 1e-8

    @pytest.mark.parametrize("spec", [sb.exponential(3.4), sb.woods_saxon(2.0)])
    def test_root_search_cost(self, spec, monkeypatch):
        # concavity of G leaves one bracketed root search: a handful of
        # eigenvalue solves, not a scan of the window
        calls = []
        real = kleingordon.lowest_eigenvalue

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(kleingordon, "lowest_eigenvalue", counted)
        assert sb.solve(spec, 1.0).status is KgStatus.BOUND
        assert len(calls) <= 16


class TestSupercritical:
    def test_beyond_threshold(self):
        sol = sb.solve(sb.exponential(6.0), 1.0)
        assert sol.status is KgStatus.SUPERCRITICAL
        assert sol.e is None

    def test_below_threshold_still_bound(self):
        sol = sb.solve(sb.exponential(5.48), 1.0)
        assert sol.status is KgStatus.BOUND
        assert sol.e > -1.0


@pytest.fixture(scope="module")
def exp_lower():
    return sb.critical_coupling_lower(sb.exponential(1.0), 1.0)


@pytest.fixture(scope="module")
def exp_upper():
    return sb.critical_coupling_upper(sb.exponential(1.0), 1.0)


class TestCriticalCouplings:
    def test_lower_threshold_flips_solve_status(self, exp_lower):
        assert sb.solve(sb.exponential(exp_lower + 0.1), 1.0).status is KgStatus.BOUND
        assert sb.solve(sb.exponential(exp_lower - 0.1), 1.0).status is KgStatus.NO_BINDING

    def test_lower_threshold_is_f_zero_root(self, exp_lower):
        # F(m; v) exists just above the threshold and not just below
        with pytest.raises(NoBoundState):
            sb.F(sb.exponential(exp_lower - 1e-3), 1.0 - 1e-9)
        pt = sb.F(sb.exponential(exp_lower + 1e-3), 1.0 - 1e-9)
        assert -1e-3 < pt.F < 0

    def test_upper_threshold_near_five_point_six_seven(self, exp_upper):
        assert 5.62 <= exp_upper <= 5.72

    def test_upper_bracket_by_sign_scan(self):
        # brute-force existence scan of F(-1; v) brackets the refined root
        vc = sb.critical_coupling_upper(sb.exponential(1.0), 1.0)
        grid = np.arange(5.0, 6.2, 0.2)
        exists = []
        for v in grid:
            try:
                sb.F(sb.exponential(v), -1.0 + 1e-9)
                exists.append(True)
            except NoBoundState:
                exists.append(False)
        flips = [i for i in range(len(grid) - 1) if exists[i] != exists[i + 1]]
        assert len(flips) == 1
        assert grid[flips[0]] <= vc <= grid[flips[0] + 1]

    def test_woods_saxon_upper(self):
        vc = sb.critical_coupling_upper(sb.woods_saxon(1.0), 1.0)
        assert 3.5 < vc < 4.0
        assert sb.solve(sb.woods_saxon(vc - 0.2), 1.0).status is KgStatus.BOUND

    def test_woods_saxon_upper_bracketed_by_sign_scan(self):
        # brute-force scan of F(-1; v) existence brackets the refined root
        vc = sb.critical_coupling_upper(sb.woods_saxon(1.0), 1.0)
        grid = np.arange(3.5, 4.01, 0.1)
        exists = []
        for v in grid:
            try:
                sb.F(sb.woods_saxon(v), -1.0 + 1e-9)
                exists.append(True)
            except NoBoundState:
                exists.append(False)
        flips = [i for i in range(len(grid) - 1) if exists[i] != exists[i + 1]]
        assert len(flips) == 1
        assert grid[flips[0]] <= vc <= grid[flips[0] + 1]

    def test_upper_threshold_scales_with_mass(self):
        # the same existence-edge characterization at a different mass; the
        # margin sits outside the near-threshold discretization fuzz (~1e-3)
        vc_half = sb.critical_coupling_upper(sb.exponential(1.0), 0.5)
        assert vc_half < sb.critical_coupling_upper(sb.exponential(1.0), 1.0)
        with pytest.raises(NoBoundState):
            sb.F(sb.exponential(vc_half - 0.05), -0.5 + 1e-9)
        pt = sb.F(sb.exponential(vc_half + 0.05), -0.5 + 1e-9)
        assert pt.F < 0

    def test_coulomb_rejected(self):
        with pytest.raises(ValueError):
            sb.critical_coupling_lower(sb.coulomb(0.4), 1.0)

    @pytest.mark.parametrize("kind", sorted(ZERO_ENERGY_SHAPES))
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_matches_zero_energy_ode(self, kind, side):
        make, shape, r_end = ZERO_ENERGY_SHAPES[kind]
        search = sb.critical_coupling_lower if side == "lower" else sb.critical_coupling_upper
        want = zero_energy_threshold(shape, 1.0, side, r_end)
        assert search(make(1.0), 1.0) == pytest.approx(want, abs=1e-6)


class TestExistenceEdge:
    @pytest.mark.parametrize("grid, r_end", [
        (None, 40.0),
        # the override box cuts the potential at r = 8, which moves the
        # edge by about 1e-4; the binding test must see that box
        (GridConfig(8.0, 512), 8.0),
    ])
    def test_edge_is_zero_energy_root(self, grid, r_end):
        # e0 is the e where the zero-energy solution of h(e) leaves the box
        # flat, u'(R) = 0
        shape = ZERO_ENERGY_SHAPES["exponential"][1]
        want = zero_energy_root(lambda e: zero_energy_slope(shape, 3.4, e, r_end), np.linspace(-0.99, 0.99, 12))
        sol = sb.solve(sb.exponential(3.4), 1.0, grid)
        assert sol.e0 == pytest.approx(want, abs=1e-9)

    def test_edge_itself_is_not_bound(self):
        # at its own edge the matched kappa falls below the root tolerance;
        # -kappa^2 = 0 is the continuum edge, not a bound state, and no
        # division by kappa may warn
        spec = sb.exponential(0.8)
        e0 = sb.solve(spec, 1.0).e0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoBoundState):
                sb.F(spec, e0)


class TestConcavity:
    def test_coulomb_exact_quadratic(self):
        report = sb.concavity_scan(sb.coulomb(0.4), np.linspace(0.1, 1.0, 10))
        assert isinstance(report, ConcavityReport)
        assert report.ok
        assert all(dp > 1.0 for _, dp in report.delta_prime)

    def test_exponential_window(self):
        report = sb.concavity_scan(sb.exponential(4.5), np.linspace(-0.4, 0.8, 9))
        assert report.ok
        assert all(dp > 1.0 for _, dp in report.delta_prime)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            sb.concavity_scan(sb.exponential(4.5), [0.1, 0.2])


class TestCsvExport:
    def test_row_format(self):
        pt = sb.F(sb.coulomb(0.4), 1.0)
        rows = curve_csv_rows([pt])
        assert len(rows) == 1
        fields = rows[0].split(",")
        assert len(fields) == 4
        assert float(fields[0]) == 1.0
        assert float(fields[1]) == pytest.approx(-0.25)
        assert float(fields[2]) == pytest.approx(-0.5)
        assert float(fields[3]) == pytest.approx(1.25)
