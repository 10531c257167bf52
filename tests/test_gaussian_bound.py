import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

import salpeterbounds as sb
from salpeterbounds import gaussian_bound
from salpeterbounds.cli_report import parse_config, run_bounds
from salpeterbounds.gaussian_bound import CouplingOutOfRange, curve_csv_rows, default_s_grid

M, A, B = 1.0, 1.0, 0.2


@pytest.fixture(scope="module")
def ws_curve():
    return sb.optimal_curve(M, A, B)


class TestRho:
    def test_zero_at_origin(self):
        assert sb.rho(0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sb.rho(-0.5)

    def test_normalization_by_quadrature_oracle(self):
        val, err = quad(sb.rho, 0.0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_first_moment(self):
        val, _ = quad(lambda t: t * sb.rho(t), 0.0, np.inf)
        assert val == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-10)

    def test_vectorized(self):
        t = np.linspace(0.0, 3.0, 10)
        assert sb.rho(t).shape == (10,)


class TestJIntegrals:
    def test_density_norm_on_package_mesh(self):
        # J2 with the Fermi factor pinned to 1 integrates rho itself
        j2 = sb.j_integrals(M, 1e6, B, 1.0)[1]
        assert j2 == pytest.approx(1.0, abs=1e-12)

    def test_massless_limit(self):
        j1 = sb.j_integrals(1e-12, A, B, 2.0)[0]
        assert j1 == pytest.approx(2.0 / (math.sqrt(math.pi) * 2.0), abs=1e-8)

    def test_heavy_mass_expansion(self):
        m, s = 100.0, 1.0
        j1 = sb.j_integrals(m, A, B, s)[0]
        assert j1 == pytest.approx(m + 3.0 / (4.0 * m * s * s), abs=1e-6)

    def test_far_wall_limits(self):
        j1, j2, j3, j4 = sb.j_integrals(M, 50.0, B, 1.0)
        assert j2 == pytest.approx(1.0, abs=1e-14)
        assert j4 == pytest.approx(0.0, abs=1e-90)

    def test_against_adaptive_quadrature(self):
        for s in (0.1, 1.0, 5.0):
            j2 = sb.j_integrals(M, A, B, s)[1]
            ref, _ = quad(
                lambda t: sb.rho(t) / (1.0 + math.exp(min((t * s - A) / B, 500.0))),
                0.0, 8.0, limit=400, epsabs=1e-14, epsrel=1e-13,
            )
            assert j2 == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("s", np.linspace(0.2, 5.0, 10))
    def test_derivative_identities(self, s):
        # J3 = -dJ1/ds and J4 = -dJ2/ds
        step = 1e-4 * s
        j1, j2, j3, j4 = sb.j_integrals(M, A, B, s)
        j1p, j2p = sb.j_integrals(M, A, B, s + step)[:2]
        j1m, j2m = sb.j_integrals(M, A, B, s - step)[:2]
        assert j3 == pytest.approx(-(j1p - j1m) / (2.0 * step), rel=1e-6)
        assert j4 == pytest.approx(-(j2p - j2m) / (2.0 * step), rel=1e-6)

    def test_sharp_well_limit(self):
        # b -> 0 turns the Fermi factor into a step at t = a/s
        s, b_thin = 1.3, 1e-4
        j2 = sb.j_integrals(M, A, b_thin, s)[1]
        ref, _ = quad(sb.rho, 0.0, A / s, epsabs=1e-14)
        assert j2 == pytest.approx(ref, abs=1e-6)

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            sb.j_integrals(0.0, A, B, 1.0)
        with pytest.raises(ValueError):
            sb.j_integrals(M, A, B, -1.0)


class TestEgAt:
    def test_rest_mass_floor_at_zero_coupling(self):
        for s in (0.3, 1.0, 4.0):
            assert sb.j_integrals(M, A, B, s)[0] >= M

    def test_linearity_in_coupling(self):
        s = 0.9
        j1 = sb.j_integrals(M, A, B, s)[0]
        e1 = sb.eg_at(M, A, B, 1.3, s)
        e2 = sb.eg_at(M, A, B, 2.6, s)
        assert e2 == pytest.approx(2.0 * e1 - j1, abs=1e-12)

    def test_upper_bound_against_direct_energy(self, srs_woods_saxon_2):
        e_min = sb.eg_optimized(M, A, B, 2.0)
        assert e_min >= srs_woods_saxon_2.E


class TestOptimalCurve:
    def test_point_structure(self, ws_curve):
        for p in ws_curve[::20]:
            assert p.E_g == p.J1 - p.v * p.J2
            assert p.v == p.J3 / p.J4
            assert 0.0 < p.J2 < 1.0
            assert p.J3 > 0.0 and p.J4 > 0.0

    def test_stationarity(self, ws_curve):
        for p in ws_curve[10:150:35]:
            step = 1e-5 * p.s
            up = sb.eg_at(M, A, B, p.v, p.s + step)
            down = sb.eg_at(M, A, B, p.v, p.s - step)
            deriv = (up - down) / (2.0 * step)
            assert abs(deriv) < 1e-5

    def test_coupling_decreasing_on_tight_branch(self, ws_curve):
        v_vals = [p.v for p in ws_curve]
        knee = int(np.argmin(v_vals))
        assert knee > 10
        assert all(a > b for a, b in zip(v_vals[:knee], v_vals[1:knee + 1]))

    def test_parametric_span_regression(self, ws_curve):
        # frozen baseline for the smallest coupling the Gaussian family reaches
        v_min = min(p.v for p in ws_curve)
        assert v_min == pytest.approx(1.0837415927796605, abs=1e-6)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            sb.optimal_curve(M, A, B, [0.5, 0.4])

    @pytest.mark.parametrize("a, b", [(1.0, 1e-300), (1e300, 1.0)])
    def test_surface_out_of_reach_is_refused(self, a, b):
        # the quadrature sees no surface, J4 = 0, and no v = J3/J4 exists:
        # an error with the reason, not a curve of infinities
        with pytest.raises(ValueError, match="^J4 = 0 at s = 0.05: the Woods-Saxon surface"):
            sb.optimal_curve(M, a, b)
        with pytest.raises(ValueError, match="^J4 = 0 "):
            sb.eg_optimized(M, a, b, 2.0)


class TestEgOptimized:
    def test_consistency_with_parametric_curve(self, ws_curve):
        p = ws_curve[60]
        assert sb.eg_optimized(M, A, B, p.v) == pytest.approx(p.E_g, abs=1e-8)

    def test_upper_bound_at_fig_coupling(self, srs_woods_saxon_2):
        # same parameters as the direct diagonalization fixture
        assert sb.eg_optimized(M, A, B, 2.0) >= srs_woods_saxon_2.E - 1e-9

    def test_out_of_span_raises(self, ws_curve):
        v_min = min(p.v for p in ws_curve)
        v_max = max(p.v for p in ws_curve)
        with pytest.raises(CouplingOutOfRange):
            sb.eg_optimized(M, A, B, 0.5 * v_min)
        with pytest.raises(CouplingOutOfRange):
            sb.eg_optimized(M, A, B, 2.0 * v_max)


def _crossings(points, v):
    """Grid brackets [s_i, s_i+1] where the curve's v falls through v."""
    return [(p.s, q.s) for p, q in zip(points, points[1:]) if p.v >= v >= q.v and p.v > q.v]


class TestEgOptimizedStationarity:
    """eg_optimized solves J3/J4 = v; an independent minimization of E_g(s)
    must land on the same bound."""

    @pytest.mark.parametrize("m, a, b", [(1.0, 1.0, 0.2), (0.7, 2.0, 0.4), (1.5, 3.0, 0.1), (0.3, 1.0, 0.5)])
    @pytest.mark.parametrize("v", [2.0, 3.0, 5.0, 8.0])
    def test_matches_bounded_minimization(self, m, a, b, v):
        points = sb.optimal_curve(m, a, b)
        brackets = _crossings(points, v)
        assert brackets
        oracle = min(
            minimize_scalar(lambda s: sb.eg_at(m, a, b, v, s), bounds=bracket, method="bounded",
                            options={"xatol": 1e-12}).fun
            for bracket in brackets
        )
        assert sb.eg_optimized(m, a, b, v) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("v", [1.2, 2.0, 5.0])
    def test_quadratures_per_call(self, v, monkeypatch):
        # the 200-scale scan plus a short root search per crossing, not a
        # minimization by function values
        crossings = len(_crossings(sb.optimal_curve(M, A, B), v))
        calls = []
        real = gaussian_bound.j_integrals

        def counted(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(gaussian_bound, "j_integrals", counted)
        gaussian_bound.eg_optimized(M, A, B, v)
        assert crossings >= 1
        assert len(calls) <= len(default_s_grid()) + 15 * crossings

    def test_a_sweep_builds_the_curve_once(self, monkeypatch, tmp_path):
        # two rows share one 200-scale curve; each runs its own
        # stationarity root (the per-row curve made 207 quadratures a row)
        gaussian_bound._default_curve.cache_clear()
        calls = []
        real = gaussian_bound.j_integrals

        def counted(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(gaussian_bound, "j_integrals", counted)
        out = tmp_path / "rows.csv"
        cfg = parse_config(None, ["potential=woods-saxon", f"a={A}", f"b={B}", f"m={M}", "v_min=2.6", "v_max=3.1",
                                  "v_steps=2", f"out={out}"])
        run_bounds(cfg)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:3]]
        assert all(row[4] for row in rows)
        assert len(default_s_grid()) < len(calls) <= len(default_s_grid()) + 30


class TestCsvExport:
    def test_row_format(self, ws_curve):
        rows = curve_csv_rows(ws_curve[:2])
        assert len(rows) == 2
        assert len(rows[0].split(",")) == 7

    def test_default_grid_shape(self):
        grid = default_s_grid()
        assert len(grid) == 200
        assert grid[0] == pytest.approx(0.05)
        assert grid[-1] == pytest.approx(10.0)
