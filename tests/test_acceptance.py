"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import salpeterbounds as sb
from salpeterbounds.cli_report import BOUNDS_HEADER, parse_config, run_bounds
from salpeterbounds.kleingordon import KgStatus
from salpeterbounds.radial_schrodinger import GridConfig

from oracles import EXP_WELL_EIGENVALUE, coulomb_kg_energy

WS_PARAMS = dict(m=1.0, a=1.0, b=0.2)


def report(criterion, ok, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {criterion}: {status} ({elapsed:.2f}s) {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def ws_sweep(tmp_path_factory):
    """Criterion-4 sweep: Woods-Saxon m=1, a=1, b=0.2, v = 1.0 (0.25) 3.5,
    run through the CLI bounds pipeline single-threaded."""
    out = tmp_path_factory.mktemp("acceptance") / "ws_bounds.csv"
    cfg = parse_config(None, overrides=[
        "potential=woods-saxon", "a=1", "b=0.2", "m=1",
        "v_min=1.0", "v_max=3.5", "v_steps=11", "threads=1", f"out={out}",
    ])
    start = time.perf_counter()
    path, violations = run_bounds(cfg)
    elapsed = time.perf_counter() - start
    rows = []
    for line in path.read_text().splitlines()[1:]:
        if line.startswith("#"):
            continue
        fields = line.split(",")
        rows.append({
            "v": float(fields[0]),
            "m": float(fields[1]),
            "e_kg": float(fields[2]) if fields[2] else None,
            "E_srs": float(fields[3]) if fields[3] else None,
            "E_gauss": float(fields[4]) if fields[4] else None,
            "status": fields[7],
            "line": line,
        })
    return {"path": path, "bytes": path.read_bytes(), "rows": rows,
            "violations": violations, "elapsed": elapsed}


def test_criterion_1_coulomb_closed_form():
    start = time.perf_counter()
    sol = sb.solve(sb.coulomb(0.4), 1.0)
    elapsed = time.perf_counter() - start
    expected = 0.8944271909999159
    assert coulomb_kg_energy(0.4, 1.0) == pytest.approx(expected, abs=1e-15)
    ok = abs(sol.e - expected) < 1e-8 and elapsed < 1.0
    report(1, ok, elapsed, f"e = {sol.e!r} vs {expected} (|diff| = {abs(sol.e - expected):.2e})")


@pytest.mark.parametrize("v", [2.5, 4.5])
def test_criterion_2_exponential_schrodinger_oracle(v):
    exact = EXP_WELL_EIGENVALUE[v]
    r_max = max(math.log(v / 1e-12), 40.0 / math.sqrt(-exact))
    start = time.perf_counter()
    res = sb.lowest_eigenvalue(lambda r: -v * np.exp(-r), GridConfig(r_max, 4096))
    elapsed = time.perf_counter() - start
    rel = abs(res.eigenvalue - exact) / abs(exact)
    ok = rel < 1e-6 and elapsed < 5.0
    report(2, ok, elapsed, f"v={v}: eigenvalue {res.eigenvalue!r} vs {exact!r} (rel {rel:.2e})")


def test_criterion_3_supercritical_threshold():
    start = time.perf_counter()
    vc = sb.critical_coupling_upper(sb.exponential(1.0), 1.0)
    elapsed = time.perf_counter() - start
    ok = 5.62 <= vc <= 5.72 and elapsed < 60.0
    report(3, ok, elapsed, f"v_c = {vc:.6f}, window [5.62, 5.72]")


def test_criterion_4_sandwich_ordering(ws_sweep):
    rows = ws_sweep["rows"]
    ok = ws_sweep["violations"] == 0 and len(rows) == 11
    bound_rows = [r for r in rows if r["status"] == "bound"]
    detail_parts = []
    for row in bound_rows:
        if row["e_kg"] > row["E_srs"] + 1e-6:
            ok = False
            detail_parts.append(f"v={row['v']}: e_kg > E_srs")
        if row["E_gauss"] is not None and row["E_srs"] > row["E_gauss"] + 1e-6:
            ok = False
            detail_parts.append(f"v={row['v']}: E_srs > E_gauss")
    if ws_sweep["elapsed"] >= 600.0:
        ok = False
        detail_parts.append("over single-threaded runtime budget")
    # regression stability plus row independence: a row recomputed alone is
    # byte-identical to its line inside the sweep
    solo_out = ws_sweep["path"].parent / "solo.csv"
    cfg = parse_config(None, overrides=[
        "potential=woods-saxon", "a=1", "b=0.2", "m=1", "v=2.0", f"out={solo_out}",
    ])
    solo_line = run_bounds(cfg)[0].read_text().splitlines()[1]
    sweep_line = next(r["line"] for r in rows if r["v"] == 2.0)
    if solo_line != sweep_line:
        ok = False
        detail_parts.append("v=2.0 row not reproducible in isolation")
    detail = "; ".join(detail_parts) if detail_parts else (
        f"{len(bound_rows)} bound rows ordered, {ws_sweep['violations']} violations"
    )
    report(4, ok, ws_sweep["elapsed"], detail)


def test_criterion_5_exponential_lower_bound_and_mass_monotonicity(kg_exponential, srs_exponential):
    start = time.perf_counter()
    ok = True
    details = []
    for v in (2.5, 4.5):
        for m in (0.8, 1.0):
            e_kg = kg_exponential[(v, m)].e
            e_srs = srs_exponential[(v, m)].E
            if e_kg > e_srs + 1e-6:
                ok = False
                details.append(f"(v={v}, m={m}): e_kg={e_kg} > E_srs={e_srs}")
        if not kg_exponential[(v, 1.0)].e > kg_exponential[(v, 0.8)].e:
            ok = False
            details.append(f"v={v}: e(1.0) <= e(0.8)")
    elapsed = time.perf_counter() - start
    detail = "; ".join(details) if details else "e_kg <= E_srs at all 4 points; e(1) > e(0.8) at both couplings"
    report(5, ok, elapsed, detail)


def test_criterion_6_concavity_and_slope_identities():
    start = time.perf_counter()
    spec = sb.exponential(4.5)
    e_grid = np.linspace(-0.55, 0.85, 25)
    points = sb.curve(spec, e_grid)
    f = np.array([pt.F for pt in points])
    h = e_grid[1] - e_grid[0]
    gaps = f[1:-1] - 0.5 * (f[:-2] + f[2:])
    delta_prime = 1.0 - 0.5 * (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h ** 2
    ok = len(points) == 25 and bool(np.all(gaps >= -1e-8))
    details = []
    if len(points) != 25:
        details.append(f"curve kept {len(points)} of 25 points")
    if np.any(gaps < -1e-8):
        details.append(f"{int(np.sum(gaps < -1e-8))} midpoint violations")
    worst_slope = 0.0
    for pt in points[::4]:
        step = 1e-3
        fd = (sb.F(spec, pt.e + step).F - sb.F(spec, pt.e - step).F) / (2.0 * step)
        rel = abs(pt.F_prime - fd) / max(1.0, abs(pt.F_prime))
        worst_slope = max(worst_slope, rel)
    if worst_slope > 1e-4:
        ok = False
        details.append(f"slope identity off by {worst_slope:.2e}")
    if not np.all(delta_prime > 1.0):
        ok = False
        details.append("delta'(e) <= 1 somewhere")
    elapsed = time.perf_counter() - start
    detail = "; ".join(details) if details else (
        f"25-point grid concave; worst slope mismatch {worst_slope:.2e}; "
        f"min delta' = {delta_prime.min():.3f}"
    )
    report(6, ok, elapsed, detail)


def test_criterion_7_gaussian_bound_structure():
    start = time.perf_counter()
    ok = True
    details = []
    # density normalization on the package quadrature (Fermi factor pinned at 1)
    norm = sb.j_integrals(1.0, 1e9, 0.2, 1.0)[1]
    if abs(norm - 1.0) > 1e-12:
        ok = False
        details.append(f"rho normalization off: {norm!r}")
    worst = 0.0
    for s in np.linspace(0.2, 5.0, 10):
        step = 1e-4 * s
        j1, j2, j3, j4 = sb.j_integrals(1.0, 1.0, 0.2, s)
        j1p, j2p = sb.j_integrals(1.0, 1.0, 0.2, s + step)[:2]
        j1m, j2m = sb.j_integrals(1.0, 1.0, 0.2, s - step)[:2]
        worst = max(worst, abs(j3 + (j1p - j1m) / (2 * step)) / j3,
                    abs(j4 + (j2p - j2m) / (2 * step)) / j4)
    if worst > 1e-6:
        ok = False
        details.append(f"derivative identities off by {worst:.2e}")
    s0 = 2.0
    j1_massless = sb.j_integrals(1e-12, 1.0, 0.2, s0)[0]
    massless_err = abs(j1_massless - 2.0 / (math.sqrt(math.pi) * s0))
    if massless_err > 1e-8:
        ok = False
        details.append(f"massless limit off by {massless_err:.2e}")
    elapsed = time.perf_counter() - start
    detail = "; ".join(details) if details else (
        f"norm ok; worst derivative mismatch {worst:.2e}; massless limit err {massless_err:.2e}"
    )
    report(7, ok, elapsed, detail)


def test_criterion_8_squared_inequality(ws_sweep, kg_exponential, srs_exponential):
    start = time.perf_counter()
    ok = True
    details = []
    checked = 0
    for row in ws_sweep["rows"]:
        if row["status"] != "bound":
            continue
        spec = sb.woods_saxon(row["v"], WS_PARAMS["a"], WS_PARAMS["b"])
        lhs = row["E_srs"] ** 2 - row["m"] ** 2
        f_val = sb.F(spec, row["E_srs"]).F
        checked += 1
        if lhs < f_val - 1e-6:
            ok = False
            details.append(f"WS v={row['v']}: E^2-m^2 = {lhs} < F(E) = {f_val}")
    for (v, m), srs in srs_exponential.items():
        lhs = srs.E ** 2 - m * m
        f_val = sb.F(sb.exponential(v), srs.E).F
        checked += 1
        if lhs < f_val - 1e-6:
            ok = False
            details.append(f"exp v={v}, m={m}: E^2-m^2 = {lhs} < F(E) = {f_val}")
    elapsed = time.perf_counter() - start
    detail = "; ".join(details) if details else f"{checked} bound points satisfy E^2-m^2 >= F(E) - 1e-6"
    report(8, ok, elapsed, detail)


def test_criterion_9_thread_count_determinism(tmp_path):
    # two CLI processes: one on the CLI's own single BLAS thread, one with
    # OPENBLAS_NUM_THREADS=2 (on a one-core host both run BLAS serially)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    sets = ["potential=woods-saxon", "a=1", "b=0.2", "m=1", "v_min=1.5", "v_max=3.5", "v_steps=3", "out=det.csv"]
    argv = [sys.executable, "-m", "salpeterbounds.cli_report", "bounds", *(a for s in sets for a in ("--set", s))]
    start = time.perf_counter()
    procs = {}
    for blas_threads in (None, "2"):
        cwd = tmp_path / f"blas_{blas_threads or 'pinned'}"
        cwd.mkdir()
        child_env = env if blas_threads is None else dict(env, OPENBLAS_NUM_THREADS=blas_threads)
        procs[cwd] = subprocess.Popen(argv, cwd=cwd, env=child_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    outputs = []
    for cwd, proc in procs.items():
        _, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr.decode()
        outputs.append((cwd / "det.csv").read_bytes())
    elapsed = time.perf_counter() - start
    ok = outputs[0] == outputs[1] and outputs[0].startswith(BOUNDS_HEADER.encode())
    report(9, ok, elapsed, "one and two BLAS threads give byte-identical output"
           if ok else "outputs differ between BLAS thread counts")
