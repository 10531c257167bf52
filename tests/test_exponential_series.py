"""The exponential Klein-Gordon curve from its e^{-r} series.

The series oracle (tests/oracles.py) is checked three ways first: float64
against a 50-digit mpmath sum, the Bessel form at e = 0, and the two
critical couplings at m = 1.  It is then the reference for kleingordon's
series path, which is also checked against the series' closed forms
themselves: Kummer's function at any e, and the Bessel zeros at e = 0.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import salpeterbounds as sb
from salpeterbounds import cli_report, kleingordon

from oracles import (EXP_WELL_EIGENVALUE, bessel_ground_eigenvalue, bessel_top_order_zero, bisect, exp_kummer,
                     exp_kummer_top_root, exp_series, exp_series_mp, exp_series_roots, states_below)

EPS = np.finfo(float).eps
# (v, e) where the finite-difference solver and the series were first compared
BASELINE = [(2.5, 0.8), (3.4, 0.3), (5.0, -0.5), (5.68, -0.99), (5.5, 0.9)]
# thresholds at m = 1, as the zero-energy ODE oracle gives them
LOWER_M1, UPPER_M1 = 0.6729993526, 5.6808003643


class TestOracle:
    @pytest.mark.parametrize("v, e", BASELINE)
    def test_float_sum_matches_mpmath(self, v, e):
        kappa_ground = exp_series_roots(e, v)[0]
        for kappa in (0.0, 0.5, kappa_ground):
            value, size = exp_series(kappa, e, v)
            assert abs(value - float(exp_series_mp(kappa, e, v))) <= EPS * size

    @pytest.mark.parametrize("v", [2.5, 4.5])
    def test_zero_energy_is_the_bessel_form(self, v):
        # at e = 0, S = Gamma(1 + kappa) (v/2)^-kappa J_kappa(v), and h(0) is
        # -v^2 e^{-2r}: bessel_ground_eigenvalue of v^2/4 in r' = 2r
        for kappa in (0.0, 0.7, 1.9):
            want = float(mpmath.gamma(1 + kappa) * (v / 2) ** -kappa * mpmath.besselj(kappa, v))
            assert exp_series(kappa, 0.0, v)[0] == pytest.approx(want, abs=1e-14)
        k, _ = bessel_ground_eigenvalue(v * v / 4.0)
        assert exp_series_roots(0.0, v)[0] == pytest.approx(2.0 * k, abs=1e-12)

    def test_kappa_zero_sum_gives_the_thresholds(self):
        lower = bisect(lambda v: exp_series(0.0, 1.0, v)[0], 0.1, 1.0)
        upper = bisect(lambda v: exp_series(0.0, -1.0, v)[0], 4.0, 6.0)
        assert lower == pytest.approx(LOWER_M1, abs=1e-10)
        assert upper == pytest.approx(UPPER_M1, abs=1e-10)
        with mpmath.workdps(40):
            assert float(mpmath.findroot(lambda v: exp_series_mp(0, -1, v, 40), upper)) == pytest.approx(upper, abs=1e-13)


class TestExponentialOracle:
    # the frozen Bessel table that acceptance criterion 2 reads
    def test_frozen_oracle_matches_bessel_bisection(self):
        for v, frozen in EXP_WELL_EIGENVALUE.items():
            _, lam = bessel_ground_eigenvalue(v)
            assert lam == pytest.approx(frozen, abs=1e-13)


class TestKummerForm:
    """kleingordon's sum and curve against Kummer's function, S's closed
    form, evaluated by mpmath rather than summed term by term."""

    @pytest.mark.parametrize("v, e", BASELINE)
    def test_program_sum_is_kummers_function(self, v, e):
        for kappa in (0.0, 0.5, exp_series_roots(e, v)[0]):
            total, size, _ = kleingordon._kummer_sum(kappa, e, v, 1.0, 1e-18)
            assert abs(total - float(exp_kummer(kappa, e, v))) <= EPS * size

    @pytest.mark.parametrize("v, e", [*BASELINE, (4.5, 1.0)])
    def test_curve_is_the_top_kummer_zero(self, v, e):
        # brentq stops within _KAPPA_XTOL of the root of the float64 sum,
        # whose rounding moves that root by as much again
        kappa = exp_kummer_top_root(e, v)
        got = math.sqrt(-sb.F(sb.exponential(v), e).F)
        assert abs(got - kappa) <= 2 * kleingordon._KAPPA_XTOL


class TestSeriesPath:
    @pytest.mark.parametrize("v, e", BASELINE)
    def test_curve_is_minus_the_largest_root_squared(self, v, e):
        kappa = exp_series_roots(e, v)[0]
        assert sb.F(sb.exponential(v), e).F == pytest.approx(-kappa * kappa, abs=1e-13 * max(1.0, kappa * kappa))

    def test_two_bound_states_take_the_largest_root(self):
        # h(e) at (4.5, 1.0) holds two bound states and S(0) > 0: the sign
        # of the kappa = 0 sum alone would call it unbound
        roots = exp_series_roots(1.0, 4.5)
        assert len(roots) == 2 and roots[0] == pytest.approx(2.6289, abs=1e-4) and roots[1] == pytest.approx(0.8444, abs=1e-4)
        assert exp_series(0.0, 1.0, 4.5)[0] > 0
        curve = kleingordon._ExponentialCurve(sb.exponential(4.5))
        assert curve.binds(1.0)
        assert sb.F(sb.exponential(4.5), 1.0).F == pytest.approx(-roots[0] ** 2, abs=1e-12)

    @pytest.mark.parametrize("v, e, want", [(700.0, 0.0, 683.54), (1000.0, 0.0, 981.45), (1000.0, 599.9994, 1466.14)])
    def test_the_top_root_where_two_share_a_scan_step(self, v, e, want):
        # near the top the roots of S lie about 1.75 (v/2)^(1/3) apart, less
        # than a scan step sqrt(v^2 + 2ev) / 24, and a 24-step scan of S met
        # an excited root (661.17 and 920.52 at e = 0, where the Airy
        # estimates of the ground state are 683.5 and 981.4; at e = 599.9994
        # F' divided by an S_kappa that underflowed).  The Prufer count is 1
        # just above the ground state and 0 just below it
        pt = sb.F(sb.exponential(v), e)
        kappa = math.sqrt(-pt.F)
        assert kappa == pytest.approx(want, abs=0.01) and math.isfinite(pt.F_prime)
        # past the turning point e^{-r} = (sqrt(e^2 + kappa^2) - e) / v, as
        # states_below needs
        r_end = 0.5 - math.log((math.sqrt(e * e + kappa * kappa) - e) / v)
        for scale, want_below in ((1 + 1e-9, 0), (1 - 1e-9, 1)):
            assert states_below(lambda r: math.exp(-r), v, e, kappa * scale, r_end) == want_below

    @pytest.mark.parametrize("v", [2.5, 5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0])
    def test_zero_energy_is_the_top_bessel_zero(self, v):
        # at e = 0, S vanishes where J_kappa(v) does, and the ground state is
        # the largest such order, far above the smallest once the well holds
        # several states (v = 20 holds six)
        kappa = bessel_top_order_zero(v)
        assert sb.F(sb.exponential(v), 0.0).F == pytest.approx(-kappa * kappa, rel=1e-11)

    @pytest.mark.parametrize("v", [1.0, 2.0, 2.4])
    def test_no_bound_state_below_the_first_bessel_zero(self, v):
        # j_{0,1} = 2.4048...: below it J_kappa(v) has no zero kappa > 0
        assert bessel_top_order_zero(v) is None
        with pytest.raises(sb.NoBoundState):
            sb.F(sb.exponential(v), 0.0)

    @pytest.mark.parametrize("v, e", [(4.086, 0.0), (3.336, 0.5), (4.5, 1.0), (2.5, 0.0), (5.5, -0.5)])
    def test_slope_matches_a_central_difference(self, v, e):
        spec, step = sb.exponential(v), 1e-5
        central = (sb.F(spec, e + step).F - sb.F(spec, e - step).F) / (2.0 * step)
        pt = sb.F(spec, e)
        assert abs(pt.F_prime - central) <= 1e-7
        assert pt.delta == pt.e - 0.5 * pt.F_prime

    @pytest.mark.parametrize("v", [2.5, 3.4, 4.5])
    def test_edge_is_the_root_of_the_kappa_zero_sum(self, v):
        want = bisect(lambda e: exp_series(0.0, e, v)[0], -0.99, 0.99)
        assert sb.solve(sb.exponential(v), 1.0).e0 == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("search, want", [(sb.critical_coupling_lower, LOWER_M1),
                                              (sb.critical_coupling_upper, UPPER_M1)], ids=["lower", "upper"])
    def test_critical_couplings_within_their_root_tolerance(self, search, want):
        assert search(sb.exponential(1.0), 1.0) == pytest.approx(want, abs=kleingordon.COUPLING_XTOL)


class TestRoundingGuard:
    @pytest.mark.parametrize("v, tol", [(4.5, 1e-10), (10.0, 1e-10), (20.0, 1e-10), (20.0, 1e-6), (25.0, 1e-6)])
    def test_guard_is_the_rounding_bound(self, v, tol):
        value, size = exp_series(0.3, -1.0, v)
        exact = float(exp_series_mp(0.3, -1.0, v, 60))
        # the bound covers the float64 sum's measured error
        assert abs(value - exact) <= EPS * size
        curve = kleingordon._ExponentialCurve(sb.exponential(v), tol)
        # the root searches read signs only: where the bound exceeds tol and
        # also |S|, the sign is not certain and the decimal sum gives it
        if EPS * size > tol and not abs(value) > EPS * size:
            assert (curve._sum(0.3, -1.0) < 0) == (exact < 0)
        else:
            assert curve._sum(0.3, -1.0) == pytest.approx(value, abs=EPS * size)
            assert (value < 0) == (exact < 0)

    def test_guard_trips_where_the_sign_is_uncertain(self):
        # at v = 20 the smallest root of S(kappa; -1) has a rounding bound of
        # 1.8e-9, and there the float64 sum has the wrong sign; _sum returns
        # the sign of the 60-digit sum
        kappa = exp_series_roots(-1.0, 20.0)[-1]
        value, size = exp_series(kappa, -1.0, 20.0)
        exact = exp_series_mp(kappa, -1.0, 20.0, 60)
        assert abs(value) <= EPS * size and (value < 0) != (exact < 0)
        got = kleingordon._ExponentialCurve(sb.exponential(20.0), kleingordon.COUPLING_XTOL)._sum(kappa, -1.0)
        assert (got < 0) == (exact < 0) and got != 0

    @pytest.mark.parametrize("m, lines", [
        ("1", ["binding_threshold_v=0.672999 (root tol 1e-09)", "supercritical_v=5.680800 (root tol 1e-09)"]),
        # the upper threshold lies at v = 26.7, where float64 cannot sign the
        # sums near the root and the decimal sums do; FD printed the same
        ("10", ["binding_threshold_v=0.072233 (root tol 1e-09)", "supercritical_v=26.735025 (root tol 1e-09)"]),
        # on the series; FD prints the same digits
        ("2", ["binding_threshold_v=0.354576 (root tol 1e-09)", "supercritical_v=8.332279 (root tol 1e-09)"]),
        ("5", ["binding_threshold_v=0.144126 (root tol 1e-09)", "supercritical_v=15.516588 (root tol 1e-09)"]),
        # likewise the upper threshold
        ("7", ["binding_threshold_v=0.103106 (root tol 1e-09)", "supercritical_v=20.068471 (root tol 1e-09)"]),
    ])
    def test_critical_prints_the_fd_digits(self, m, lines, capsys):
        assert cli_report.main(["critical", "--set", "potential=exponential", "--set", f"m={m}"]) == 0
        assert capsys.readouterr().out.splitlines() == [f"potential=exponential m={m}", *lines]


class TestSignOnlyGuard:
    @pytest.mark.parametrize("m", [2.0, 5.0, 7.0, 10.0, 50.0])
    @pytest.mark.parametrize("search, side", [(sb.critical_coupling_lower, 1.0), (sb.critical_coupling_upper, -1.0)],
                             ids=["lower", "upper"])
    def test_thresholds_stay_on_the_series(self, m, search, side):
        # the upper search at m = 2 doubles to v = 16, where the bound is
        # 4e-9 but |S| = 3.3: the sign is certain in float64.  Near the
        # upper roots at m = 7, 10 and 50 (v = 20.1, 26.7 and 111.1) it is
        # not, and the decimal sums give it; FD missed these roots by 9.4e-9,
        # 3.1e-8 and 0.13
        got = search(sb.exponential(1.0), m)
        # findroot checks |S|^2 against its working precision, and S runs to
        # 1e81 at m = 50
        with mpmath.workdps(200):
            want = mpmath.findroot(lambda v: exp_series_mp(0, side * m, v, 200), got)
        assert abs(got - float(want)) <= kleingordon.COUPLING_XTOL

    @pytest.mark.parametrize("v, m", [(12.0, 4.0), (11.0, 4.0), (20.0, 7.0), (60.0, 30.0)])
    def test_a_solve_that_left_fd(self, v, m):
        # e is where kappa = sqrt(m^2 - e^2) is a root of S, e0 the root of
        # S(0; e), and F' = 2 kappa S_e / S_kappa there.  FD's e at (12, 4)
        # is 8.9e-10 off, its e0 at (60, 30) 0.02; the float64 slopes at
        # (60, 30) are 2e-7 off, so a point whose root float64 cannot sign
        # takes its slopes in decimal too
        sol = sb.solve(sb.exponential(v), m)
        assert sol.status is sb.KgStatus.BOUND
        with mpmath.workdps(120):
            def s(kappa, e):
                return exp_series_mp(kappa, e, v, 120)

            want_e = mpmath.findroot(lambda e: s(mpmath.sqrt(m * m - e * e), e), sol.e)
            want_e0 = mpmath.findroot(lambda e: s(0, e), sol.e0)
            kappa, h = mpmath.sqrt(m * m - want_e ** 2), mpmath.mpf("1e-30")
            s_e = (s(kappa, want_e + h) - s(kappa, want_e - h)) / (2 * h)
            s_k = (s(kappa + h, want_e) - s(kappa - h, want_e)) / (2 * h)
            want_slope = float(2 * kappa * s_e / s_k)
        assert abs(sol.e - float(want_e)) <= kleingordon.ROOT_XTOL
        assert abs(sol.e0 - float(want_e0)) <= kleingordon.ROOT_XTOL
        assert abs(2.0 * (sol.e - sol.delta_at_e) - want_slope) <= 1e-7 * abs(want_slope)

    def test_a_supercritical_coupling_on_the_series(self):
        # at v = 100 every sum near the top of the kappa range needs the
        # decimal pass
        assert sb.solve(sb.exponential(100.0), 1.0).status is sb.KgStatus.SUPERCRITICAL

    @pytest.mark.parametrize("j", [24, 23])
    def test_sum_takes_the_sign_of_the_exact_sum(self, j):
        # the top two points of a 24-step kappa scan at v = 100, m = 1,
        # from sqrt(v (v + 2e)) at e = -1 + 1e-6: the exact sums there are
        # +2.8e-13 and +2.7e-14, and float64 gives the second the wrong sign
        v, e = 100.0, -1.0 + kleingordon.WINDOW_MARGIN
        kappa = j * math.sqrt(v * (v + 2.0 * e)) / 24
        exact = exp_series_mp(kappa, e, v, 120)
        got = kleingordon._ExponentialCurve(sb.exponential(v))._sum(kappa, e)
        assert exact > 0 and got > 0


ROOT = Path(__file__).resolve().parents[1]
# float64 overflows in the exponential sums (terms near e^v), and decimal
# takes them; the Woods-Saxon well at v = 500 holds over a hundred states,
# which the count of states steps through from the top
LARGE = {
    "kg-800": ["kg", "--set", "potential=exponential", "--set", "v=800", "--set", "m=1"],
    "kg-1000": ["kg", "--set", "potential=exponential", "--set", "v=1000", "--set", "m=1"],
    "critical-150": ["critical", "--set", "potential=exponential", "--set", "m=150"],
    "kg-woods-saxon-500": ["kg", "--set", "potential=woods-saxon", "--set", "v=500", "--set", "m=1"],
}


@pytest.fixture(scope="module")
def large_runs(tmp_path_factory):
    """Each LARGE command in a child process, all at once, under a timeout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    procs = {name: subprocess.Popen([sys.executable, "-m", "salpeterbounds.cli_report", *argv], env=env,
                                    cwd=tmp_path_factory.mktemp("large"), stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True)
             for name, argv in LARGE.items()}
    runs = {}
    for name, proc in procs.items():
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            runs[name] = None
        else:
            runs[name] = out, err, proc.returncode
    return runs


class TestOverflowingSums:
    @pytest.mark.parametrize("name", ["kg-800", "kg-1000", "kg-woods-saxon-500"])
    def test_strong_coupling_reads_supercritical(self, large_runs, name):
        # as exponential v = 700 does, whose sums still fit in float64
        assert large_runs[name] is not None, "timed out"
        out, err, rc = large_runs[name]
        assert (rc, err) == (0, "")
        assert out.splitlines() == ["status=supercritical", "e=", "e0=", "delta="]

    def test_thresholds_at_a_large_mass(self, large_runs):
        # 500-digit mpmath roots of exp_series_mp: 0.00481930475405572 and
        # 315.814399790647
        assert large_runs["critical-150"] is not None, "timed out"
        out, err, rc = large_runs["critical-150"]
        assert (rc, err) == (0, "")
        assert out.splitlines() == ["potential=exponential m=150", "binding_threshold_v=0.004819 (root tol 1e-09)",
                                    "supercritical_v=315.814400 (root tol 1e-09)"]

    def test_float_pass_stops_on_overflow(self):
        # the terms at v = 800 overflow float64; the pass stops past the
        # peak with a sum that is not finite, which _doubtful doubts
        total, size, n = kleingordon._kummer_sum(0.0, 1.0, 800.0, 1.0, 1e-18)
        assert not math.isfinite(size) and n < 2000
        assert kleingordon._ExponentialCurve(sb.exponential(800.0))._doubtful(total, size)

    def test_a_series_that_does_not_settle_raises(self, monkeypatch):
        monkeypatch.setattr(kleingordon, "_MAX_TERMS", 10)
        with pytest.raises(sb.NonConvergence, match=r"\(kappa, e, v\) = \(0, 1, 30\) did not settle in 10 terms"):
            kleingordon._kummer_sum(0.0, 1.0, 30.0, 1.0, 1e-18)
