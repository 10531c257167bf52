"""Property tests: the Klein-Gordon roots are where the state counts change,
over the exponential kind and Woods-Saxon a = 1, b = 0.2."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import salpeterbounds as sb
from salpeterbounds import kleingordon
from salpeterbounds.kleingordon import KgStatus

KINDS = {"exponential": sb.exponential, "woods-saxon": lambda v: sb.woods_saxon(v, 1.0, 0.2)}

# deterministic examples, so that the suite is too; each takes milliseconds
CHECKED = settings(derandomize=True, database=None, max_examples=25, deadline=5000)

kinds = st.sampled_from(sorted(KINDS))
couplings = st.floats(math.log(0.5), math.log(8.0)).map(math.exp)


@CHECKED
@given(kind=kinds, v=couplings, m=st.floats(0.3, 3.0))
def test_edge_and_particle_root_are_where_the_counts_change(kind, v, m):
    spec = KINDS[kind](v)
    sol = sb.solve(spec, m)
    curve = kleingordon._on_curve(spec)
    step = 1e-6 * m
    if sol.e0 is None:
        # the edge is outside the window: h(e) binds nowhere in it or
        # everywhere in it
        hi, lo = m - kleingordon.WINDOW_MARGIN * m, -m + kleingordon.WINDOW_MARGIN * m
        assert not curve.binds(hi) if sol.status is KgStatus.NO_BINDING else curve.binds(lo)
    else:
        # h(e) gains its first bound state at e0
        assert curve._states_below(0.0, sol.e0 - step) == 0
        assert curve._states_below(0.0, sol.e0 + step) >= 1
    if sol.status is KgStatus.BOUND:
        # the ground level falls through the parabola at e as e rises
        def below_parabola(e):
            return curve._states_below(math.sqrt((m - e) * (m + e)), e)

        assert below_parabola(sol.e - step) == 0
        assert below_parabola(sol.e + step) == 1


@CHECKED
@given(kind=kinds, m=st.floats(0.5, 5.0))
def test_thresholds_are_where_h_first_binds(kind, m):
    spec = KINDS[kind](1.0)
    for search, e in ((sb.critical_coupling_lower, m), (sb.critical_coupling_upper, -m)):
        v = search(spec, m)
        assert not kleingordon._on_curve(KINDS[kind]((1.0 - 1e-6) * v)).binds(e)
        assert kleingordon._on_curve(KINDS[kind]((1.0 + 1e-6) * v)).binds(e)
