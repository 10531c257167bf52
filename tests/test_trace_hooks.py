"""The benchmark's layer tracer must still find the functions it wraps.

perfbench/tracer.py replaces module attributes by name and reads the basis
size from the `basis_size` argument; a renamed function or parameter would
silently empty its per-layer metrics.  The tracer runs in a child process so
that its wrappers never enter this test session.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
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


def test_salpeter_spans(tmp_path):
    spans = traced_spans(tmp_path, "salpeter", *WOODS_SAXON, "--set", "basis_size=64")
    names = {span[0] for span in spans}
    assert {"salpeter.ground_energy", "salpeter.default_box_radius", "salpeter.eigh"} <= names
    sizes = [span[5] for span in spans if span[0] == "salpeter.ground_energy_at"]
    # the box pre-diagonalization, then the doubling from 64 modes
    assert sizes[:3] == [128, 64, 128]


def test_kg_spans(tmp_path):
    spans = traced_spans(tmp_path, "kg", *WOODS_SAXON)
    solves = [span for span in spans if span[0] == "radial_schrodinger.eigh_tridiagonal"]
    assert solves and all(span[5] > 0 for span in solves)
    # one wrapper per solve: a second one would double tridiagonal_solves
    # and grid_points
    assert not any(span[3] is not None and spans[span[3]][0] == span[0] for span in solves)
    assert "radial_schrodinger.lowest_eigenvalue" in {span[0] for span in spans}


def test_gaussian_spans(tmp_path):
    spans = traced_spans(tmp_path, "gaussian", *WOODS_SAXON)
    names = [span[0] for span in spans]
    assert "gaussian_bound.eg_optimized" in names and "gaussian_bound.j_integrals" in names
    roots = [span for span in spans if span[0] == "potentials.brentq"]
    assert roots and all(spans[span[3]][0] == "gaussian_bound.eg_optimized" for span in roots)


def test_fcurves_curve_runs_no_binding_test(tmp_path):
    # the curve walks down to its existence edge through lowest_eigenvalue
    # alone; solve keeps the one edge search, so the binding test runs
    # under solve and never under curve
    spans = traced_spans(tmp_path, "fcurves", "--set", "potential=exponential", "--set", "v=2.5",
                         "--set", "m=1", "--set", "e_steps=9", "--set", "out=curves")

    def ancestors(span):
        while span[3] is not None:
            span = spans[span[3]]
            yield span[0]

    names = {span[0] for span in spans}
    assert {"kleingordon.curve", "kleingordon.solve"} <= names
    binding = [span for span in spans if span[0] == "radial_schrodinger.neumann_eigenvalue"]
    assert any("kleingordon.solve" in ancestors(span) for span in binding)
    assert not any("kleingordon.curve" in ancestors(span) for span in binding)
