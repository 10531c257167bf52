import functools
import math
import re
import warnings

import numpy as np
import pytest
from scipy.special import expit

import salpeterbounds as sb
from salpeterbounds import kleingordon
from salpeterbounds.kleingordon import KgStatus, curve_csv_rows
from salpeterbounds.potentials import NoBoundState

from oracles import (
    coulomb_kg_energy,
    exp_kg_energy,
    inward_ground_state,
    kg_energy,
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

# (kind, v, e) on both sides of e = 0, among them a barely bound exponential
# state (F = -0.046) and one with two states (Woods-Saxon at e = 0.9)
SHOOTING_POINTS = [("exponential", 2.5, 0.8), ("exponential", 5.0, -0.5), ("exponential", 5.68, -0.99),
                   ("woods-saxon", 2.5, 0.8), ("woods-saxon", 3.0, -0.4), ("woods-saxon", 1.5, 0.9)]


@functools.cache
def shooting_ground_state(kind, v, e):
    _, f, r_end = ZERO_ENERGY_SHAPES[kind]
    return inward_ground_state(f, v, e, r_end)


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

    def test_curve_walks_down_without_binding_tests(self, monkeypatch):
        # existence is monotone in e: the walk from the top ends at the
        # first e that does not bind, so binds never runs and exactly one
        # point fails
        calls = {"binds": 0, "point": 0}
        for name in calls:
            def spy(self, e, _name=name, _inner=getattr(kleingordon._WoodsSaxonCurve, name)):
                calls[_name] += 1
                return _inner(self, e)
            monkeypatch.setattr(kleingordon._WoodsSaxonCurve, name, spy)
        points = kleingordon.curve(sb.woods_saxon(1.5), np.linspace(-0.95, 0.95, 21))
        assert 0 < len(points) < 21
        assert calls == {"binds": 0, "point": len(points) + 1}

    def test_curve_of_no_e_values_is_empty(self):
        assert sb.curve(sb.exponential(2.5), []) == []

    @pytest.mark.parametrize("spec, window", [
        (sb.exponential(2.5), np.linspace(-0.05, 0.0, 11)),
        (sb.exponential(3.4), np.linspace(-0.3, -0.25, 11)),
        (sb.woods_saxon(1.5), np.linspace(0.26, 0.31, 11)),
    ])
    def test_curve_samples_exactly_the_grid_above_the_edge(self, spec, window):
        # solve's edge search is the oracle for where the walk stops
        e0 = sb.solve(spec, 1.0).e0
        assert window[0] < e0 < window[-1]
        assert np.min(np.abs(window - e0)) > 1e-6
        points = sb.curve(spec, window[::-1])
        assert [p.e for p in points] == [float(e) for e in window if e > e0]

    def test_delta_consistency(self):
        pt = sb.F(sb.exponential(4.5), 0.2)
        assert pt.delta == pytest.approx(pt.e - 0.5 * pt.F_prime, abs=0)

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
        # a weakly bound state carries much of its norm far out, where
        # <V> is small: the slope must still be the curve's
        pt = sb.F(spec, e)
        step = 1e-3
        fd = (sb.F(spec, e + step).F - sb.F(spec, e - step).F) / (2.0 * step)
        assert abs(pt.F_prime - fd) <= 1e-4 * max(1.0, abs(pt.F_prime))

    @pytest.mark.parametrize("kind, v, e", SHOOTING_POINTS)
    def test_curve_matches_inward_shooting(self, kind, v, e):
        # the oracle integrates at rtol 1e-12 and lands within 4e-12 of F
        # and F'; the series are tighter still
        kappa, _ = shooting_ground_state(kind, v, e)
        spec = ZERO_ENERGY_SHAPES[kind][0](v)
        assert sb.F(spec, e).F == pytest.approx(-kappa * kappa, rel=1e-10)

    @pytest.mark.parametrize("kind, v, e", SHOOTING_POINTS)
    def test_slope_is_the_hellmann_feynman_expectation(self, kind, v, e):
        # dh/de = 2V, so F'(e) = 2 <V> in the ground state, integrated
        # along the shot rather than differenced
        _, two_v = shooting_ground_state(kind, v, e)
        spec = ZERO_ENERGY_SHAPES[kind][0](v)
        assert sb.F(spec, e).F_prime == pytest.approx(two_v, rel=1e-10)


class TestPointDoubt:
    @pytest.mark.parametrize("spec, energies", [
        (sb.exponential(5.0), (-0.5, 0.0, 0.5)),
        (sb.exponential(30.0), (-0.5, 0.0, 0.5)),
        (sb.woods_saxon(1.5), (0.5,)),
        (sb.woods_saxon(10.0), (-0.5, 0.0, 0.5)),
        (sb.woods_saxon(3.0, 1.0, 0.5), (0.0, 0.5)),
        (sb.woods_saxon(30.0, 2.0, 0.5), (-0.5, 0.0, 0.5)),   # float64 cannot sign S at these roots
    ], ids=["exponential-5", "exponential-30", "woods-saxon-1.5", "woods-saxon-10", "woods-saxon-3-wide",
            "woods-saxon-30-wide"])
    def test_the_e_step_carries_s_at_the_root(self, spec, energies):
        # point decides between float64 and decimal slopes from the complex
        # e-step's real part and size: those are the float64 sum's, bit for
        # bit, so point doubts S exactly where _sum does
        curve = kleingordon._on_curve(spec)
        for e in energies:
            args = curve._args(curve._ground_kappa(e), e)
            s, _, _, size, _ = curve._slopes(*args, 1.0, 1e-18)
            total, total_size, _ = curve._series(*args, 1.0, 1e-18)
            assert (s, size) == (total, total_size)


class TestSolveCoulomb:
    def test_closed_form_energy(self):
        sol = sb.solve(sb.coulomb(0.4), 1.0)
        assert sol.status is KgStatus.BOUND
        assert sol.e == pytest.approx(coulomb_kg_energy(0.4, 1.0), abs=1e-14)
        assert sol.e0 == 0.0 < sol.e
        assert sol.delta_at_e > 0
        assert abs(sb.F(sb.coulomb(0.4), sol.e).F - (sol.e**2 - 1.0)) <= 1e-9

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

    def test_solution_on_curve_above_edge(self, kg_exponential):
        for (v, m), sol in kg_exponential.items():
            assert abs(sb.F(sb.exponential(v), sol.e).F - (sol.e**2 - m**2)) <= 1e-9
            assert sol.e0 is None or sol.e0 < sol.e


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
            assert abs(sb.F(make(v), sol.e).F - (sol.e**2 - m**2)) <= 1e-9
            assert sol.e0 is None or sol.e0 < sol.e
        else:
            assert sol.e is None and want is None

    def test_second_intersection_lies_on_the_parabola(self):
        # the antiparticle root, below the particle root that solve returns
        spec = sb.woods_saxon(3.77)
        sol = sb.solve(spec, 1.0)
        assert sol.secondary_e is not None and sol.secondary_e < sol.e
        pt = sb.F(spec, sol.secondary_e)
        assert abs(pt.F - (sol.secondary_e**2 - 1.0)) <= 1e-8

    @pytest.mark.parametrize("spec", [sb.woods_saxon(1.5), sb.woods_saxon(2.0)])
    def test_root_search_cost(self, spec, monkeypatch):
        # the root search reads T, not curve points: solve asks for points
        # only past critical_coupling_upper, for G's maximum
        calls = []
        real = kleingordon._WoodsSaxonCurve.point

        def counted(self, e):
            calls.append(e)
            return real(self, e)

        monkeypatch.setattr(kleingordon._WoodsSaxonCurve, "point", counted)
        assert sb.solve(spec, 1.0).status is KgStatus.BOUND
        assert not calls

    def test_ground_kappa_search_cost(self, monkeypatch):
        # the ground kappa of each curve point comes from a few state counts
        # stepping down from the top and one brentq on S, not a scan of S
        # (a 24-step scan made 310 sums over one solve's points; F makes
        # 9-11 sums a point here)
        calls = []
        real = kleingordon._SeriesCurve._sum

        def counted(self, kappa, e):
            calls.append((kappa, e))
            return real(self, kappa, e)

        monkeypatch.setattr(kleingordon._SeriesCurve, "_sum", counted)
        for e in (-0.8, -0.3, 0.0, 0.5, 0.9):
            calls.clear()
            assert sb.F(sb.woods_saxon(3.5), e).F < 0
            assert len(calls) <= 15

    def test_level_crossing_cost(self, monkeypatch):
        # the root is one brentq on T, bracketed by a few state counts, with
        # no ground kappa search per step (a brentq on G over curve points
        # made 127 sums and 25 counts here)
        calls = {"_sum": 0, "_states_below": 0}
        for name in calls:
            real = getattr(kleingordon._SeriesCurve, name)

            def counted(self, kappa, e, real=real, name=name):
                calls[name] += 1
                return real(self, kappa, e)

            monkeypatch.setattr(kleingordon._SeriesCurve, name, counted)
        assert sb.solve(sb.woods_saxon(3.5), 1.0).status is KgStatus.BOUND
        assert calls["_sum"] <= 30 and calls["_states_below"] <= 8

    def test_edge_search_cost(self, monkeypatch):
        # the edge e0 is a level crossing of the kappa = 0 sum, bracketed by
        # a few state counts (a brentq on a binding test that ran a ground
        # kappa search wherever h(e) did not bind made 68 counts here)
        calls = []
        real = kleingordon._SeriesCurve._states_below

        def counted(self, kappa, e):
            calls.append((kappa, e))
            return real(self, kappa, e)

        monkeypatch.setattr(kleingordon._SeriesCurve, "_states_below", counted)
        sol = sb.solve(sb.exponential(200.0), 100.0)
        assert sol.status is KgStatus.BOUND and sol.e0 is not None
        assert len(calls) <= 20

    @pytest.mark.parametrize("v, m", [(60.0, 30.0), (200.0, 100.0)])
    def test_level_counts_stay_near_the_root(self, v, m, monkeypatch):
        # a count costs about its number of levels times the series' terms;
        # probes stepping from e0 find at most two levels below the
        # parabola, where a first probe at the window's middle found 7 and
        # 23 (and 72 at v = 700, m = 400, 2.5 s in decimal)
        counts = []
        real = kleingordon._SeriesCurve._states_below

        def counted(self, kappa, e):
            counts.append(real(self, kappa, e))
            return counts[-1]

        monkeypatch.setattr(kleingordon._SeriesCurve, "_states_below", counted)
        sol = sb.solve(sb.exponential(v), m)
        assert sol.status is KgStatus.BOUND and sol.delta_at_e > 0
        assert max(counts) <= 2


# the README exponential family (exp_curves.txt): v = 1.0 (0.5) 5.5 against
# m = 0.1 (0.1) 2.1, and the criterion-4 Woods-Saxon couplings at m = 1
README_EXPONENTIAL = [(float(v), 0.1 + i * 0.1) for v in np.linspace(1.0, 5.5, 10) for i in range(21)]
CRITERION_4 = [float(v) for v in np.linspace(1.0, 3.5, 11)]


class TestParticleRoot:
    def test_readme_exponential_family(self):
        # 171 of the 210 pairs bind; each e within the root tolerance of the
        # series oracle (measured at most 2.5e-11), each with delta > 0
        misses = []
        for v, m in README_EXPONENTIAL:
            sol, want = sb.solve(sb.exponential(v), m), exp_kg_energy(v, m)
            if want is None:
                ok = sol.e is None
            else:
                ok = sol.e is not None and abs(sol.e - want) <= kleingordon.ROOT_XTOL and sol.delta_at_e > 0
            if not ok:
                misses.append((v, m, sol.e, want))
        assert not misses

    @pytest.mark.parametrize("v", CRITERION_4)
    def test_criterion_4_rows(self, v):
        # measured at most 2.2e-11 from Klein-Gordon shooting
        make, shape, r_end = ZERO_ENERGY_SHAPES["woods-saxon"]
        assert abs(sb.solve(make(v), 1.0).e - kg_energy(shape, v, 1.0, r_end)) <= kleingordon.ROOT_XTOL

    def test_right_end_with_two_levels(self):
        # two levels of h(e) lie below the parabola at the window's right
        # end, so T > 0 there as it is at e0: the ground level tells that
        # G < 0 there, and counts stepping from e0 bracket the root
        hi = 1.0 - kleingordon.WINDOW_MARGIN
        kappa = math.sqrt((1.0 - hi) * (1.0 + hi))
        engine = kleingordon._on_curve(sb.exponential(4.5))
        assert engine._states_below(kappa, hi) == 2 and engine._sum(kappa, hi) > 0
        sol = sb.solve(sb.exponential(4.5), 1.0)
        assert abs(sol.e - exp_kg_energy(4.5, 1.0)) <= kleingordon.ROOT_XTOL and sol.delta_at_e > 0

    def test_particle_root_past_the_upper_coupling(self):
        # v = 3.765 lies past critical_coupling_upper (3.761477): G has two
        # roots in the window, and solve returns the one with delta > 0
        sol = sb.solve(sb.woods_saxon(3.765), 1.0)
        assert sol.e0 is None
        assert sol.e == pytest.approx(-0.942138, abs=1e-6) and sol.delta_at_e > 0
        assert sol.secondary_e == pytest.approx(-0.999904, abs=1e-6)
        assert sb.F(sb.woods_saxon(3.765), sol.secondary_e).delta < 0

    def test_energy_is_continuous_across_the_upper_coupling(self):
        # the particle level runs on through v_upper (de/dv is about -1.5
        # there); the antiparticle root, which solve returned once it
        # entered the window, sat up to 0.06 lower
        upper = sb.critical_coupling_upper(sb.woods_saxon(1.0), 1.0)
        sols = [sb.solve(sb.woods_saxon(upper + dv), 1.0) for dv in np.arange(-0.004, 0.0201, 0.002)]
        assert sols[0].e0 is not None and sols[-1].e0 is None
        assert all(sol.delta_at_e > 0 for sol in sols)
        assert max(abs(b.e - a.e) for a, b in zip(sols, sols[1:])) < 0.01

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_direct_energy_lies_above_the_particle_root(self, m):
        # the sandwich's lower side across the window: three couplings up to
        # v_upper, where e reaches -m, and three past it, where G has two
        # roots at m = 0.5 and 1 and none at m = 2 (supercritical)
        shape = sb.woods_saxon(1.0)
        lower, upper = sb.critical_coupling_lower(shape, m), sb.critical_coupling_upper(shape, m)
        for v in [*np.linspace(lower, upper, 4)[1:], *(upper + m * np.array([0.001, 0.005, 0.02]))]:
            sol = sb.solve(sb.woods_saxon(v), m)
            if m == 2.0 and v > upper:
                assert sol.status is KgStatus.SUPERCRITICAL
                continue
            assert sol.status is KgStatus.BOUND and sol.delta_at_e > 0
            assert sol.e < sb.ground_energy(sb.woods_saxon(v), m).E


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

    @pytest.mark.parametrize("m", [-1.0, 0.0, np.nan, np.inf])
    @pytest.mark.parametrize("search", [sb.critical_coupling_lower, sb.critical_coupling_upper],
                             ids=["lower", "upper"])
    def test_rejects_a_mass_that_is_not_positive(self, search, m):
        with pytest.raises(ValueError, match="mass must be positive"):
            search(sb.exponential(1.0), m)

    @pytest.mark.parametrize("spec, m", [(sb.exponential(1.0), 50.0), (sb.woods_saxon(1.0, 1.0, 1.0), 10.0)],
                             ids=["exponential", "woods-saxon"])
    @pytest.mark.parametrize("search", [sb.critical_coupling_lower, sb.critical_coupling_upper],
                             ids=["lower", "upper"])
    def test_search_stays_near_the_threshold(self, spec, m, search, monkeypatch):
        # the bracket grows from v = 1e-2 by doublings: no curve is built at
        # a coupling far above the threshold, where the sums and counts are
        # long (a bracket from v = max(2m, 4) began at 100 for a lower
        # threshold of 0.0145 at exponential m = 50)
        built = []
        real = kleingordon._on_curve

        def recording(spec, *args):
            built.append(spec.v)
            return real(spec, *args)

        monkeypatch.setattr(kleingordon, "_on_curve", recording)
        v = search(spec, m)
        assert built and max(built) <= 4.0 * v

    @pytest.mark.parametrize("kind", sorted(ZERO_ENERGY_SHAPES))
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_matches_zero_energy_ode(self, kind, side):
        make, shape, r_end = ZERO_ENERGY_SHAPES[kind]
        search = sb.critical_coupling_lower if side == "lower" else sb.critical_coupling_upper
        want = zero_energy_threshold(shape, 1.0, side, r_end)
        assert search(make(1.0), 1.0) == pytest.approx(want, abs=1e-6)


class TestSearchFailures:
    """The root searches' failure branches, on synthetic sums and counts."""

    def test_level_crossing_without_a_single_level_bracket(self):
        # two levels cross the threshold together at 0.3: bisection on the
        # count never leaves exactly one below
        with pytest.raises(kleingordon.NonConvergence, match="no bracket of a single level crossing"):
            kleingordon._level_crossing(lambda x: x, lambda x: 0 if x < 0.3 else 2, 0.0, 1.0)

    def test_level_crossing_where_the_sum_keeps_its_sign(self):
        # one level below from 0.5 on, but t never changes sign
        with pytest.raises(kleingordon.NonConvergence, match="keeps its sign"):
            kleingordon._level_crossing(lambda x: 1.0, lambda x: 0 if x < 0.5 else 1, 0.0, 1.0)

    def test_critical_coupling_where_every_coupling_binds(self, monkeypatch):
        monkeypatch.setattr(kleingordon._SeriesCurve, "binds", lambda self, e: True)
        with pytest.raises(kleingordon.NonBindingSearchError, match="arbitrarily small coupling"):
            sb.critical_coupling_lower(sb.exponential(1.0), 1.0)


class TestExistenceEdge:
    @pytest.mark.parametrize("kind, v, r_end", [("exponential", 3.4, 40.0), ("woods-saxon", 1.5, 8.0)])
    def test_edge_is_zero_energy_root(self, kind, v, r_end):
        # e0 is the e where the zero-energy solution of h(e) is flat at
        # infinity, u'(r_end) = 0 once V has died out
        make, shape, _ = ZERO_ENERGY_SHAPES[kind]
        want = zero_energy_root(lambda e: zero_energy_slope(shape, v, e, r_end), np.linspace(-0.99, 0.99, 12))
        assert sb.solve(make(v), 1.0).e0 == pytest.approx(want, abs=1e-9)

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


def _concavity(points):
    """Midpoint gaps F(c) - (F(l) + F(r)) / 2 and delta' = 1 - F''/2 over the
    consecutive triples of a uniform sample, and the largest excess of F over
    any sample's tangent line F(e1) + (e - e1) F'(e1); concavity keeps the
    gaps >= 0, delta' > 1 and the excess <= 0, up to roundoff."""
    e = np.array([p.e for p in points])
    f = np.array([p.F for p in points])
    f_prime = np.array([p.F_prime for p in points])
    assert np.allclose(np.diff(e), e[1] - e[0], rtol=1e-10, atol=0.0)
    gaps = f[1:-1] - 0.5 * (f[:-2] + f[2:])
    delta_prime = 1.0 - 0.5 * (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (e[1] - e[0]) ** 2
    excess = f[None, :] - (f[:, None] + (e[None, :] - e[:, None]) * f_prime[:, None])
    return gaps, delta_prime, float(excess.max())


class TestConcavity:
    def test_coulomb_exact_quadratic(self):
        points = sb.curve(sb.coulomb(0.4), np.linspace(0.1, 1.0, 10))
        assert len(points) == 10
        gaps, delta_prime, excess = _concavity(points)
        assert np.all(gaps >= -1e-8) and excess <= 1e-8
        assert np.all(delta_prime > 1.0)

    def test_exponential_window(self):
        points = sb.curve(sb.exponential(4.5), np.linspace(-0.4, 0.8, 9))
        assert len(points) == 9
        gaps, delta_prime, excess = _concavity(points)
        assert np.all(gaps >= -1e-8) and excess <= 1e-8
        assert np.all(delta_prime > 1.0)

    def test_rejects_inadmissible_coulomb(self):
        with pytest.raises(ValueError) as validated:
            sb.validate(sb.coulomb(0.6), sb.Theory.KLEIN_GORDON)
        with pytest.raises(ValueError, match=f"^{re.escape(str(validated.value))}$"):
            sb.curve(sb.coulomb(0.6), np.linspace(0.1, 1.0, 10))


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
