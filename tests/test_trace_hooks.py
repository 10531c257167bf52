"""The benchmark's layer tracer must still find the functions it wraps.

perfbench/tracer.py replaces module attributes by name and reads the basis
size from the `basis_size` argument; a renamed function or parameter would
silently empty its per-layer metrics.  The tracer runs in a child process so
that its wrappers never enter this test session.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from salpeterbounds import radial_schrodinger
from salpeterbounds.salpeter import DEFAULT_BASIS_SIZE

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
# the tracer's tables only: its wrappers go in where main calls install
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)
WOODS_SAXON = ["--set", "potential=woods-saxon", "--set", "v=2.0", "--set", "m=1"]


def traced_spans(tmp_path, *cli_args):
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans_path), *cli_args],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans_path.read_text())


def _function(dotted):
    module, attr = dotted.split(".")
    return getattr(importlib.import_module(f"{tracer.PACKAGE}.{module}"), attr)


@pytest.mark.parametrize("name, argument", list(tracer.SIZED.items()))
def test_sized_argument_is_a_parameter(name, argument):
    # the wrapper binds each call's arguments and reads this one by name
    assert argument in inspect.signature(_function(name)).parameters


@pytest.mark.parametrize("module, attr", tracer.SOLVERS, ids=".".join)
def test_solver_is_a_module_function(module, attr):
    assert callable(_function(f"{module}.{attr}"))


def test_finite_difference_stub_runs_nothing():
    # the name the tracer wraps stays; no solver stands behind it
    with pytest.raises(NotImplementedError, match="ROADMAP item 4"):
        radial_schrodinger.eigh_tridiagonal([0.0, 0.0], [0.0])


def test_salpeter_spans(tmp_path):
    spans = traced_spans(tmp_path, "salpeter", *WOODS_SAXON)
    names = {span[0] for span in spans}
    assert {"salpeter.ground_energy", "salpeter.default_box_radius", "salpeter.eigh"} <= names
    # one wrapper per eigensolve: a second one would double eigh_s and
    # hide it from assembly_s
    solves = [span for span in spans if span[0] == "salpeter.eigh"]
    assert not any(span[3] is not None and spans[span[3]][0] == span[0] for span in solves)
    sizes = [span[5] for span in spans if span[0] == "salpeter.ground_energy_at"]
    # the box pre-diagonalization, then the doubling from the default size
    assert sizes[:3] == [128, DEFAULT_BASIS_SIZE, 2 * DEFAULT_BASIS_SIZE]


def test_kg_spans(tmp_path):
    # the Woods-Saxon curve runs on its series: every root search is a
    # brentq span inside kleingordon.solve, and no FD span opens
    spans = traced_spans(tmp_path, "kg", *WOODS_SAXON)
    names = [span[0] for span in spans]
    assert names.count("kleingordon.solve") == 1
    roots = [span for span in spans if span[0] == "potentials.brentq"]
    assert roots and all(spans[span[3]][0] in ("kleingordon.solve", "potentials.brentq") for span in roots)
    assert not any(name.startswith("radial_schrodinger.") for name in names)


def test_gaussian_spans(tmp_path):
    spans = traced_spans(tmp_path, "gaussian", *WOODS_SAXON)
    names = [span[0] for span in spans]
    assert "gaussian_bound.eg_optimized" in names and "gaussian_bound.j_integrals" in names
    roots = [span for span in spans if span[0] == "potentials.brentq"]
    assert roots and all(spans[span[3]][0] == "gaussian_bound.eg_optimized" for span in roots)


def test_fcurves_curve_runs_no_binding_test(tmp_path):
    # the curve walks down to its existence edge through its points alone,
    # one kappa root search each; solve keeps the one edge search, so root
    # searches under curve number the points it wrote
    spans = traced_spans(tmp_path, "fcurves", "--set", "potential=woods-saxon", "--set", "v=1.5",
                         "--set", "m=1", "--set", "e_steps=9", "--set", "out=curves")

    def ancestors(span):
        while span[3] is not None:
            span = spans[span[3]]
            yield span[0]

    names = {span[0] for span in spans}
    assert {"kleingordon.curve", "kleingordon.solve"} <= names
    assert not any(name.startswith("radial_schrodinger.") for name in names)
    points = (tmp_path / "curves" / "fcurve_v1.5.csv").read_text().splitlines()[2:]
    roots = [span for span in spans if span[0] == "potentials.brentq"]
    under_curve = [span for span in roots if "kleingordon.curve" in ancestors(span)]
    assert 0 < len(points) < 9 and len(under_curve) == len(points)
    assert len(roots) > len(under_curve)
