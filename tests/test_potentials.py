import math

import numpy as np
import pytest
from scipy.optimize import brentq

import salpeterbounds as sb
from salpeterbounds import potentials
from salpeterbounds.potentials import (
    KLEINGORDON_COULOMB_MAX,
    SALPETER_COULOMB_MAX,
    Kind,
    PotentialSpec,
    Theory,
    validate_shape,
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

    def test_woods_saxon_wall_too_thin_for_the_kleingordon_series(self):
        # b^2 leaves float64's normal range below b = 1.49e-154; at 1e-300
        # it is 0, and the series read no well at all (status no-binding)
        reason = "^Woods-Saxon thickness b = 1e-300 is too thin for the Klein-Gordon series: b\\^2 underflows$"
        with pytest.raises(ValueError, match=reason):
            sb.validate(sb.woods_saxon(2.0, 1.0, 1e-300), Theory.KLEIN_GORDON)
        with pytest.raises(ValueError, match="too thin"):
            sb.validate(sb.woods_saxon(2.0, 1.0, 1e-155), Theory.KLEIN_GORDON)
        sb.validate(sb.woods_saxon(2.0, 1.0, 1e-150), Theory.KLEIN_GORDON)
        sb.validate(sb.woods_saxon(2.0, 1.0, 1e-300), Theory.SALPETER)

    def test_shape_rules_hold_at_every_coupling(self):
        # validate_shape checks what a sweep's couplings share: the thin
        # wall, but not the Coulomb coupling limits
        with pytest.raises(ValueError, match="too thin"):
            validate_shape(sb.woods_saxon(2.0, 1.0, 1e-300), Theory.KLEIN_GORDON)
        validate_shape(sb.coulomb(0.6), Theory.KLEIN_GORDON)
        validate_shape(sb.woods_saxon(2.0, 1.0, 1e-300), Theory.SALPETER)


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


def _brent_cases(seed, count):
    """Seeded (f, a, b, xtol, maxiter) across four shapes; about one case in
    six has no sign change and about one in six stops at maxiter."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        root = rng.uniform(-2.0, 2.0)
        shape = rng.integers(4)
        if shape == 0:
            c = rng.uniform(-1.0, 1.0)
            f = lambda x, r=root, c=c: (x - r) ** 3 + c * (x - r)
        elif shape == 1:
            k = 10.0 ** rng.uniform(-1.0, 3.0)
            f = lambda x, r=root, k=k: math.tanh(k * (x - r))
        elif shape == 2:
            f = lambda x, r=root: math.exp(x) - math.exp(r)
        else:
            f = lambda x, r=root: math.sin(0.5 * (x - r))
        a, b = root - rng.uniform(0.0, 3.0), root + rng.uniform(0.0, 3.0)
        if rng.random() < 0.125:
            a, b = b, b + rng.uniform(0.1, 1.0)
        maxiter = int(rng.integers(1, 12)) if rng.random() < 0.3 else 100
        yield f, float(a), float(b), float(10.0 ** rng.uniform(-14.0, -2.0)), maxiter


def _brent_run(solver, f, a, b, xtol, maxiter):
    """(root or None, evaluation points, error class or None)."""
    points = []

    def recorded(x):
        points.append(x)
        return f(x)

    try:
        return solver(recorded, a, b, xtol=xtol, maxiter=maxiter), points, None
    except RuntimeError:  # scipy's exhausted maxiter
        return None, points, potentials.NonConvergence
    except (potentials.NonConvergence, ValueError) as exc:
        return None, points, type(exc)


class TestBrentq:
    """potentials.brentq, the root finder of every 1-D search, against
    scipy.optimize.brentq, the oracle."""

    def test_matches_scipy_step_for_step(self):
        errors = []
        for f, a, b, xtol, maxiter in _brent_cases(seed=11, count=400):
            ours = _brent_run(potentials.brentq, f, a, b, xtol, maxiter)
            theirs = _brent_run(brentq, f, a, b, xtol, maxiter)
            assert ours[1] == theirs[1]
            assert ours[2] is theirs[2]
            assert ours[0] == theirs[0]
            errors.append(ours[2])
        # every outcome is exercised
        assert errors.count(None) > 150
        assert errors.count(potentials.NonConvergence) > 30
        assert errors.count(ValueError) > 20

    def test_tiny_values_match_scipy(self):
        # values near 1e-150 underflow the inverse quadratic step's
        # denominator to 0; C's division gives inf or NaN there, so scipy
        # bisects, where Python's would raise ZeroDivisionError
        for f, a, b, xtol, maxiter in _brent_cases(seed=12, count=100):
            tiny = lambda x, f=f: 1e-150 * f(x)
            ours = _brent_run(potentials.brentq, tiny, a, b, xtol, maxiter)
            theirs = _brent_run(brentq, tiny, a, b, xtol, maxiter)
            assert ours == theirs

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_relative_tolerance_is_scipys_default(self, scale):
        # with a negligible xtol only the fixed relative tolerance 4 eps
        # stops the search
        def f(x):
            return math.expm1(x / scale - 0.3)

        root = potentials.brentq(f, 0.0, scale, xtol=1e-300)
        assert root == brentq(f, 0.0, scale, xtol=1e-300)
        assert abs(root - 0.3 * scale) <= 4 * np.finfo(float).eps * 0.3 * scale

    def test_root_is_a_python_float(self):
        root = potentials.brentq(lambda x: np.float64(x - 0.3), 0.0, 1.0, xtol=1e-12)
        assert type(root) is float and root == pytest.approx(0.3, abs=1e-12)

    def test_same_sign_bracket(self):
        with pytest.raises(ValueError, match="different signs"):
            potentials.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)

    @pytest.mark.parametrize("nan_where", [lambda x: x == 0.0, lambda x: x == 1.0, lambda x: 0.0 < x < 1.0],
                             ids=["left end", "right end", "interior"])
    def test_nan_value(self, nan_where):
        def f(x):
            return math.nan if nan_where(x) else x - 0.7
        with pytest.raises(ValueError, match="NaN"):
            potentials.brentq(f, 0.0, 1.0, xtol=1e-12)

    def test_exhausted_iterations(self):
        with pytest.raises(potentials.NonConvergence, match="2 iterations"):
            potentials.brentq(math.tanh, -1.0, 3.0, xtol=1e-14, maxiter=2)
