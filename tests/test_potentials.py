import math

import numpy as np
import pytest

import salpeterbounds as sb
from salpeterbounds.potentials import (
    KLEINGORDON_COULOMB_MAX,
    SALPETER_COULOMB_MAX,
    Kind,
    PotentialSpec,
    Theory,
)


class TestEvaluate:
    def test_exponential_at_origin_limit(self):
        assert sb.evaluate(sb.exponential(1.0), 1e-12) == pytest.approx(-1.0, abs=1e-10)

    def test_woods_saxon_half_depth_at_radius(self):
        assert sb.evaluate(sb.woods_saxon(2.0, 1.0, 0.2), 1.0) == pytest.approx(-1.0, abs=0)

    def test_coulomb(self):
        assert sb.evaluate(sb.coulomb(0.4), 2.0) == pytest.approx(-0.2, abs=0)

    def test_array_input(self):
        r = np.array([0.5, 1.0, 2.0])
        out = sb.evaluate(sb.exponential(3.0), r)
        assert out.shape == (3,)
        assert np.allclose(out, -3.0 * np.exp(-r))

    def test_woods_saxon_no_overflow_far_out(self):
        val = sb.evaluate(sb.woods_saxon(2.0, 1.0, 0.01), 1e4)
        assert val == 0.0 or abs(val) < 1e-300

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_radius(self, bad):
        with pytest.raises(ValueError):
            sb.evaluate(sb.exponential(1.0), bad)

    def test_coulomb_rejects_tiny_radius(self):
        with pytest.raises(ValueError):
            sb.evaluate(sb.coulomb(0.4), 1e-13)


class TestSpecValidation:
    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            sb.exponential(0.0)
        with pytest.raises(ValueError):
            sb.exponential(-2.0)

    def test_rejects_bad_woods_saxon_geometry(self):
        with pytest.raises(ValueError):
            sb.woods_saxon(1.0, a=0.0)
        with pytest.raises(ValueError):
            sb.woods_saxon(1.0, b=-0.1)

    def test_geometry_ignored_for_other_kinds(self):
        spec = PotentialSpec(Kind.EXPONENTIAL, 1.0, a=-3.0, b=0.0)
        assert sb.evaluate(spec, 1.0) == pytest.approx(-math.exp(-1.0))


class TestValidate:
    def test_coulomb_rejected_for_kleingordon(self):
        with pytest.raises(ValueError, match="^Coulomb coupling 0.6 >= 1/2 has no Klein-Gordon ground state$"):
            sb.validate(sb.coulomb(0.6), Theory.KLEIN_GORDON)

    def test_coulomb_accepted_for_salpeter_below_two_over_pi(self):
        sb.validate(sb.coulomb(0.6), Theory.SALPETER)
        assert 0.6 < SALPETER_COULOMB_MAX

    def test_coulomb_rejected_for_salpeter_at_two_over_pi(self):
        reason = f"^Coulomb coupling {SALPETER_COULOMB_MAX} >= 2/pi is beyond the semirelativistic critical coupling$"
        with pytest.raises(ValueError, match=reason):
            sb.validate(sb.coulomb(SALPETER_COULOMB_MAX), Theory.SALPETER)

    def test_coulomb_window_edges(self):
        with pytest.raises(ValueError, match="^Coulomb coupling 0.5 >= 1/2 "):
            sb.validate(sb.coulomb(KLEINGORDON_COULOMB_MAX), Theory.KLEIN_GORDON)
        sb.validate(sb.coulomb(0.49), Theory.KLEIN_GORDON)

    def test_short_range_structurally_valid_at_any_coupling(self):
        sb.validate(sb.exponential(10.0), Theory.KLEIN_GORDON)
        sb.validate(sb.woods_saxon(50.0), Theory.SALPETER)


class TestTailRadius:
    def test_exponential_closed_form(self):
        assert sb.tail_radius(sb.exponential(1.0), math.exp(-10.0)) == pytest.approx(10.0, abs=1e-12)

    def test_woods_saxon_half_depth(self):
        # |V(a)| = v/2 <= eps already holds at the first grid point r0 = a
        assert sb.tail_radius(sb.woods_saxon(1.0, 1.0, 0.2), 0.5) == pytest.approx(1.0)

    def test_coulomb_exact(self):
        assert sb.tail_radius(sb.coulomb(0.4), 0.01) == pytest.approx(40.0, abs=0)

    def test_degenerate_epsilon_returns_floor(self):
        assert sb.tail_radius(sb.exponential(1.0), 2.0) == 1.0
        assert sb.tail_radius(sb.coulomb(0.4), 1.0) == 1.0

    @pytest.mark.parametrize(
        "spec",
        [sb.exponential(3.0), sb.woods_saxon(3.0, 1.5, 0.3), sb.coulomb(0.45)],
        ids=["exponential", "woods-saxon", "coulomb"],
    )
    @pytest.mark.parametrize("eps", [1e-3, 1e-8, 1e-12])
    def test_tail_value_below_epsilon(self, spec, eps):
        r = sb.tail_radius(spec, eps)
        assert abs(sb.evaluate(spec, r)) <= eps * (1.0 + 1e-12)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            sb.tail_radius(sb.exponential(1.0), 0.0)


class TestShapeInvariants:
    GRID = np.geomspace(1e-6, 1e4, 250)

    @pytest.mark.parametrize(
        "spec",
        [sb.exponential(2.5), sb.woods_saxon(2.0, 1.0, 0.2), sb.coulomb(0.4)],
        ids=["exponential", "woods-saxon", "coulomb"],
    )
    def test_nonpositive_and_nondecreasing(self, spec):
        vals = sb.evaluate(spec, self.GRID)
        assert np.all(vals <= 0)
        assert np.all(np.diff(vals) >= -1e-15)

    @pytest.mark.parametrize("kind_builder", [sb.exponential, sb.coulomb])
    def test_coupling_scaling(self, kind_builder):
        g = self.GRID if kind_builder is not sb.coulomb else self.GRID[self.GRID > 1e-5]
        assert np.allclose(sb.evaluate(kind_builder(2.8), g), 2.0 * sb.evaluate(kind_builder(1.4), g), rtol=1e-15)

    def test_coupling_scaling_woods_saxon(self):
        assert np.allclose(
            sb.evaluate(sb.woods_saxon(3.0, 1.0, 0.2), self.GRID),
            2.0 * sb.evaluate(sb.woods_saxon(1.5, 1.0, 0.2), self.GRID),
            rtol=1e-15,
        )

    def test_kind_serialization_names(self):
        assert Kind.EXPONENTIAL.value == "exponential"
        assert Kind.WOODS_SAXON.value == "woods-saxon"
        assert Kind.COULOMB.value == "coulomb"
