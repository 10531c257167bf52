"""The Woods-Saxon Klein-Gordon curve from its two matched hypergeometric
series.

The oracles are independent: the zero-energy ODE for the thresholds,
Klein-Gordon shooting for the energy, a Prufer-angle count of the states
below -kappa^2, the closed-form square well for the thin-surface limit, and
a 60-digit central difference of the same sum S for the slope F'.
"""

import decimal
import math

import pytest
from scipy.integrate import solve_ivp
from scipy.special import expit

import salpeterbounds as sb
from salpeterbounds import kleingordon
from salpeterbounds.kleingordon import KgStatus

from oracles import (kg_energy, square_well_curve, states_below, zero_energy_root, zero_energy_slope,
                     zero_energy_threshold)


def shape(b, a=1.0):
    return lambda r: expit(-(r - a) / b)


class TestThresholds:
    @pytest.mark.parametrize("b", [0.01, 0.1, 0.5, 2.0])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_surface_width(self, b, side):
        # brentq returns the coupling within its tolerance COUPLING_XTOL;
        # the misses run to 1.3e-10 (b = 0.5, lower)
        search = sb.critical_coupling_lower if side == "lower" else sb.critical_coupling_upper
        want = zero_energy_threshold(shape(b), 1.0, side, 10.0 + 40.0 * b)
        assert search(sb.woods_saxon(1.0, 1.0, b), 1.0) == pytest.approx(want, abs=kleingordon.COUPLING_XTOL)

    @pytest.mark.parametrize("m", [0.5, 2.0, 7.0])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_mass(self, m, side):
        search = sb.critical_coupling_lower if side == "lower" else sb.critical_coupling_upper
        want = zero_energy_threshold(shape(0.2), m, side, 10.0)
        assert search(sb.woods_saxon(1.0), m) == pytest.approx(want, abs=kleingordon.COUPLING_XTOL)


    def test_a_threshold_at_the_continuum_edge(self):
        # a wide surface on a small radius: at the upper threshold the state
        # lies within rounding of kappa = 0, where the count of states sees
        # it and S does not, and S's sign decides
        slope = lambda v: zero_energy_slope(shape(0.9363, 0.1412), v, -4.725, 48.0)
        want = zero_energy_root(slope, [10.0 * 1.2 ** k for k in range(8)])
        got = sb.critical_coupling_upper(sb.woods_saxon(1.0, 0.1412, 0.9363), 4.725)
        assert got == pytest.approx(want, abs=kleingordon.COUPLING_XTOL)

    def test_a_count_that_the_sum_contradicts_above_the_floor_raises(self, monkeypatch):
        # only at the kappa floor may a state that S does not see stand for
        # the continuum edge; above it the disagreement is an error, not a root
        curve = kleingordon._WoodsSaxonCurve(sb.woods_saxon(1.0))
        assert all(curve._sum(kappa, 0.0) > 0 for kappa in (0.0, 0.25, 0.5, 0.75))
        monkeypatch.setattr(kleingordon._WoodsSaxonCurve, "_states_below", lambda self, kappa, e: int(kappa < 0.75))
        with pytest.raises(sb.NonConvergence, match="S keeps its sign"):
            curve._ground_kappa(0.0)


class TestEnergy:
    def test_thin_surface_matches_shooting(self):
        # the finite-difference engine exited 1 here ("extrapolation levels
        # disagree")
        sol = sb.solve(sb.woods_saxon(2.5, 1.0, 0.01), 1.0)
        assert sol.status is KgStatus.BOUND
        assert sol.e == pytest.approx(kg_energy(shape(0.01), 2.5, 1.0, 12.0), abs=1e-10)

    def test_two_bound_states_take_the_largest_root(self):
        # at v = 4, e = 1, h(e) holds two bound states and S(0) > 0: the
        # binding test falls back to the ground kappa's count search
        curve = kleingordon._WoodsSaxonCurve(sb.woods_saxon(4.0))
        assert curve._sum(0.0, 1.0) > 0
        kappa = curve._ground_kappa(1.0)
        assert curve._sum(0.5 * kappa, 1.0) < 0
        assert curve.binding(1.0) == -kappa * kappa
        assert sb.F(sb.woods_saxon(4.0), 1.0).F == -kappa * kappa

    def test_no_state_below_the_well_floor(self):
        # -W <= max(0, v^2 + 2ev): above that kappa, S is positive unsummed
        curve = kleingordon._WoodsSaxonCurve(sb.woods_saxon(3.0))
        assert curve._sum(0.0, -2.0) == 1.0
        assert curve._sum(3.5, 0.5) == 1.0 and 3.5 ** 2 > 3.0 * (3.0 + 2.0 * 0.5)

    def test_strong_coupling_still_returns(self):
        # float64 cannot sign these sums, and decimal does; FD read the
        # same status
        assert sb.solve(sb.woods_saxon(200.0), 1.0).status is KgStatus.SUPERCRITICAL


class TestThinSurfaceLimit:
    @pytest.mark.parametrize("v, e", [(2.5, 0.3), (3.0, -0.5), (2.0, 0.9)])
    def test_approaches_the_square_well(self, v, e):
        # W = 2eV - V^2 differs from the square well's by O(b) in its
        # integral (through V^2), so the gap halves with b
        want = square_well_curve(v, e, 1.0)
        gaps = [sb.F(sb.woods_saxon(v, 1.0, b), e).F - want for b in (0.01, 0.005, 0.0025)]
        assert 0 < gaps[2] < gaps[1] < gaps[0] < 0.1
        assert all(1.9 < big / small < 2.1 for big, small in zip(gaps, gaps[1:]))

    def test_square_well_edge(self):
        # the square well binds at zero energy from q = v^2 + 2ev = (pi/2a)^2
        assert square_well_curve(1.0, 0.5 * ((math.pi / 2) ** 2 - 1.0) - 1e-9, 1.0) is None
        assert square_well_curve(1.0, 0.5 * ((math.pi / 2) ** 2 - 1.0) + 1e-6, 1.0) < 0


class TestScaling:
    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("v, a, b, e", [(2.5, 1.0, 0.2, 0.8), (3.0, 2.0, 0.5, -0.4)])
    def test_a_rescaled_well_rescales_the_curve(self, v, a, b, e, lam):
        # in r = s / lam, lam^-2 h(e) for V is h(lam e) for lam V(lam s),
        # the Woods-Saxon well (lam v, a / lam, b / lam): F scales by lam^2
        # and F' by lam.  Each kappa is within 2e-14 of its root.
        base = sb.F(sb.woods_saxon(v, a, b), e)
        scaled = sb.F(sb.woods_saxon(lam * v, a / lam, b / lam), lam * e)
        assert scaled.F == pytest.approx(lam * lam * base.F, rel=1e-12)
        assert scaled.F_prime == pytest.approx(lam * base.F_prime, rel=1e-12)


def _decimal_slope(v, a, b, kappa, e, prec=60, step="1e-25"):
    """F' = 2 kappa S_e / S_kappa by a central difference of the decimal S."""
    with decimal.localcontext(decimal.Context(prec=prec)):
        one, h = decimal.Decimal(1), decimal.Decimal(step)

        def s(k, x):
            return kleingordon._woods_saxon_sum(k, x, *map(decimal.Decimal, (v, a, b)), one, one.scaleb(-prec))[0]

        k, x = decimal.Decimal(kappa), decimal.Decimal(e)
        s_e = (s(k, x + h) - s(k, x - h)) / (2 * h)
        s_k = (s(k + h, x) - s(k - h, x)) / (2 * h)
        return float(2 * k * s_e / s_k)


class TestSlope:
    @pytest.mark.parametrize("v, a, b, e", [(3.0, 1.0, 0.2, 0.0), (2.5, 1.0, 0.01, 0.5), (3.5, 1.0, 0.5, -0.3),
                                            (2.0, 1.0, 2.0, 0.9), (30.0, 1.0, 0.2, 0.5), (1.0, 1.0, 0.2, 0.99)])
    def test_matches_a_central_difference_of_s(self, v, a, b, e):
        # FD's F' = 2<V> was 4e-5 to 1e-4 off
        pt = sb.F(sb.woods_saxon(v, a, b), e)
        want = _decimal_slope(v, a, b, math.sqrt(-pt.F), e)
        assert pt.F_prime == pytest.approx(want, rel=1e-12)
        assert pt.delta == pt.e - 0.5 * pt.F_prime

    def test_decimal_slopes_where_float64_cannot_sign(self):
        # at (kappa, e) on a v = 60, b = 1 curve the float64 sum is in doubt
        curve = kleingordon._WoodsSaxonCurve(sb.woods_saxon(60.0, 1.0, 1.0))
        e = 0.5
        pt = curve.point(e)
        kappa = math.sqrt(-pt.F)
        s, _, _, size, _ = curve._slopes(*curve._args(kappa, e), 1.0, 1e-18)
        assert curve._doubtful(s, size)
        assert pt.F_prime == pytest.approx(_decimal_slope(60.0, 1.0, 1.0, kappa, e, prec=120, step="1e-50"), rel=1e-12)


class TestNormalization:
    @pytest.mark.parametrize("v, e", [(1.5, 0.2), (1.5, 0.5), (3.0, -0.4)])
    def test_zero_energy_sum_is_the_outward_slope(self, v, e):
        # S(0) = u_L(0) for the zero-energy solution u_L -> 1 at infinity.
        # The Wronskian of u_L and the solution u with u(0) = 0, u'(0) = 1
        # is S(0) at r = 0 and u'(R) far out, where u_L is flat
        def rhs(r, y):
            big_v = -v * shape(0.2)(r)
            return (y[1], (2.0 * e * big_v - big_v * big_v) * y[0])

        ode = solve_ivp(rhs, (0.0, 12.0), [0.0, 1.0], method="DOP853", rtol=1e-12, atol=1e-14)
        s0 = kleingordon._woods_saxon_sum(0.0, e, v, 1.0, 0.2, 1.0, 1e-18)[0]
        assert s0 == pytest.approx(ode.y[1, -1], rel=1e-9)


class TestDeepWells:
    """Wells whose deepest levels lie closer than a 24-step kappa scan of S
    resolves: S keeps its sign across two roots there, and the count of
    states finds the ground state."""

    @pytest.mark.parametrize("v, a, b", [(20.0, 3.0, 0.2), (3.0, 1.0, 0.2), (10.0, 2.0, 0.5),
                                         *(pytest.param(v, None, None, id=f"exponential-{v}")
                                           for v in (3.0, 20.0, 200.0))])
    def test_state_count_matches_the_prufer_oracle(self, v, a, b):
        # a = b = None is the exponential kind, f = e^{-r}, whose count the
        # same _SeriesCurve runs on its own grid
        if b is None:
            curve, f, r_end = kleingordon._ExponentialCurve(sb.exponential(v)), lambda r: math.exp(-r), 40.0
        else:
            curve, f, r_end = kleingordon._WoodsSaxonCurve(sb.woods_saxon(v, a, b)), shape(b, a), a + 40.0 * b + 10.0
        for e in (-0.9, 0.9):
            top = math.sqrt(v * (v + 2.0 * e))
            for fraction in (0.0, 0.5, 0.9, 0.99):
                assert curve._states_below(fraction * top, e) == states_below(f, v, e, fraction * top, r_end)

    def test_the_ground_state_of_a_wide_well(self):
        # 19 states; a 24-step scan of S took an excited one (17.99)
        kappa = math.sqrt(-sb.F(sb.woods_saxon(20.0, 3.0, 0.2), 0.0).F)
        assert kappa == pytest.approx(19.94532989044057, abs=1e-9)
        assert states_below(shape(0.2, 3.0), 20.0, 0.0, kappa * (1 - 1e-7), 21.0) == 1
        assert states_below(shape(0.2, 3.0), 20.0, 0.0, kappa * (1 + 1e-7), 21.0) == 0

    def test_the_ground_state_of_a_deep_well(self):
        # 32 states at v = 100; the root is a Prufer count's bisection
        # (a 24-step scan of S took 92.17)
        assert -sb.F(sb.woods_saxon(100.0), 0.0).F == pytest.approx(98.10855039431381 ** 2, rel=1e-10)

    def test_a_curve_whose_deep_levels_pair_up(self):
        # at e = m a 24-step scan of S saw S > 0 down to kappa = 30.8
        # although two states lie below -43^2; F must fall with e
        spec = sb.woods_saxon(71.72, 0.819, 1.376)
        points = sb.curve(spec, [-2.296997703, 0.0, 2.296997703])
        assert [p.F for p in points] == sorted((p.F for p in points), reverse=True)
        assert -points[1].F == pytest.approx(43.45518275055059 ** 2, rel=1e-10)

    def test_a_thin_surface_far_out(self):
        # a / b = 1278: the grid's e^{(a - r) / b} would overflow float64
        curve = kleingordon._WoodsSaxonCurve(sb.woods_saxon(7.253, 9.621, 0.007527))
        assert curve._states_below(3.0, 0.0) == states_below(shape(0.007527, 9.621), 7.253, 0.0, 3.0, 20.0)
        assert sb.solve(sb.woods_saxon(7.253, 9.621, 0.007527), 0.5681).status is KgStatus.SUPERCRITICAL
