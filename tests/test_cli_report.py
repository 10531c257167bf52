import dataclasses
import functools
import io
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import salpeterbounds.cli_report as cli
from salpeterbounds.cli_report import (
    BOUNDS_HEADER,
    BoundsRow,
    ConfigError,
    parse_config,
    run_bounds,
    run_critical,
    run_fcurves,
)
from salpeterbounds import gaussian_bound, kleingordon, potentials, salpeter
from salpeterbounds.potentials import Kind, NoBoundState


def write_config(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseConfig:
    def test_full_roundtrip(self, tmp_path):
        path = write_config(tmp_path, """
            # comment line
            potential = woods-saxon
            a = 1.0
            b = 0.2
            m = 1
            v_min = 1.0
            v_max = 3.5
            v_steps = 11
            threads = 4  # still accepted; sweeps run serially
            tol = 1e-6
            out = sweep.csv
        """)
        cfg = parse_config(path)
        assert cfg.kind is Kind.WOODS_SAXON
        assert cfg.coupling_grid() == pytest.approx([1.0 + 0.25 * i for i in range(11)])
        assert cfg.single_mass() == 1.0

    def test_mass_grid(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, "m_min = 0.1\nm_max = 0.5\nm_step = 0.1\n"))
        assert cfg.masses() == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])

    def test_unknown_key_has_position(self, tmp_path):
        path = write_config(tmp_path, "potential = exponential\nbogus = 3\n")
        with pytest.raises(ConfigError, match=r":2"):
            parse_config(path)

    def test_bad_value_has_position(self, tmp_path):
        path = write_config(tmp_path, "v_min = banana\n")
        with pytest.raises(ConfigError, match=r":1"):
            parse_config(path)

    def test_missing_equals(self, tmp_path):
        path = write_config(tmp_path, "just a line\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(path)

    def test_unknown_potential(self, tmp_path):
        path = write_config(tmp_path, "potential = yukawa\n")
        with pytest.raises(ConfigError, match="yukawa"):
            parse_config(path)

    def test_incomplete_mass_grid(self, tmp_path):
        path = write_config(tmp_path, "m_min = 0.1\nm_max = 1.0\n")
        with pytest.raises(ConfigError, match="m_step"):
            parse_config(path)

    def test_set_overrides(self, tmp_path):
        path = write_config(tmp_path, "potential = exponential\nv = 2.0\n")
        cfg = parse_config(path, overrides=["v=4.5", "m=1"])
        assert cfg.single_coupling() == 4.5

    def test_set_without_file(self):
        cfg = parse_config(None, overrides=["potential=coulomb", "v=0.4", "m=1"])
        assert cfg.kind is Kind.COULOMB

    def test_bad_override(self):
        with pytest.raises(ConfigError):
            parse_config(None, overrides=["nonsense"])

    def test_threads_must_be_integer(self, tmp_path):
        with pytest.raises(ConfigError, match=r":1"):
            parse_config(write_config(tmp_path, "threads = abc\n"))
        with pytest.raises(ConfigError, match="threads"):
            parse_config(None, overrides=["threads=2.5"])

    @pytest.mark.parametrize("key, value", [("r_max", "8"), ("grid_points", "512"), ("basis_size", "64")])
    def test_removed_solver_keys_are_unknown(self, key, value, tmp_path, capsys):
        # each solver sizes its own box, grid and basis: an old config that
        # names one of these keys exits 1 like any unknown key
        point = ["--set", "potential=woods-saxon", "--set", "v=2.0", "--set", "m=1"]
        path = write_config(tmp_path, f"potential = woods-saxon\n{key} = {value}\n")
        assert cli.main(["kg", "--config", str(path), *point]) == 1
        assert capsys.readouterr() == ("", f"config error: {path}:2: unknown key {key!r}\n")
        assert cli.main(["kg", *point, "--set", f"{key}={value}"]) == 1
        assert capsys.readouterr() == ("", f"config error: --set: unknown key {key!r}\n")

    def test_readme_lists_exactly_the_config_keys(self):
        # the README's key block names each key once, in its first column
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("Config files are flat", 1)[1].split("```", 2)[1]
        listed = [key for line in block.splitlines() if line and not line[0].isspace()
                  for key in re.split(r"\s{2,}", line)[0].split(", ")]
        assert sorted(listed) == sorted(cli._KEYS)

    def test_config_with_a_byte_order_mark(self, tmp_path, capsys):
        # editors on Windows start UTF-8 files with one; it is no part of
        # the first key
        path = tmp_path / "bom.cfg"
        path.write_text("potential = coulomb\nv = 0.4\nm = 1\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert cli.main(["kg", "--config", str(path)]) == 0
        assert capsys.readouterr() == ("status=bound\ne=0.894427191\ne0=0\ndelta=1.11803398875\n", "")


def readme_config(name, tmp_path):
    """The README's config file `name`, written to tmp_path."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split(f"# {name}\n", 1)[1].split("```", 1)[0]
    return write_config(tmp_path, block, name)


def captured_config(monkeypatch, name):
    """Replace run_<name> by a stub that keeps the SweepConfig main passes
    it; returns the list the configs go to."""
    configs = []

    def keep(cfg):
        configs.append(cfg)
        return (Path("rows.csv"), 0) if name == "bounds" else []
    monkeypatch.setattr(cli, f"run_{name}", keep)
    return configs


EXP_V = ["--set", "potential=exponential", "--set", "v=3.4"]
V_GRID = ["--set", "v_min=2.5", "--set", "v_max=4.5", "--set", "v_steps=3"]
M_GRID = ["--set", "m_min=0.8", "--set", "m_max=1.2", "--set", "m_step=0.2"]


class TestSweepAxes:
    """m and m_min/m_max/m_step are one setting, and so are v and
    v_min/v_max: whichever form is assigned last holds."""

    @pytest.mark.parametrize("axis, couplings", [
        ([*V_GRID, "--set", "v=3.4"], ["3.4"]),
        (["--set", "v=3.4", *V_GRID], ["2.5", "3.5", "4.5"]),
        (["--set", "v=3.4", "--set", "v_steps=3"], ["3.4"]),
    ], ids=["grid-then-v", "v-then-grid", "v-then-v_steps"])
    def test_bounds(self, axis, couplings, tmp_path):
        out = tmp_path / "rows.csv"
        assert cli.main(["bounds", "--set", "potential=exponential", *axis, "--set", "m=1",
                         "--set", f"out={out}"]) == 0
        assert [row.split(",")[0] for row in out.read_text().splitlines()[1:-1]] == couplings

    @pytest.mark.parametrize("axes, pairs", [
        ([*V_GRID, "--set", "v=3.4", "--set", "m=1"], [("3.4", "1")]),
        (["--set", "v=3.4", *V_GRID, "--set", "m=1"], [("2.5", "1"), ("3.5", "1"), ("4.5", "1")]),
        (["--set", "v=3.4", *M_GRID, "--set", "m=1"], [("3.4", "1")]),
        (["--set", "v=3.4", "--set", "m=1", *M_GRID], [("3.4", "0.8"), ("3.4", "1"), ("3.4", "1.2")]),
    ], ids=["v-grid-then-v", "v-then-v-grid", "m-grid-then-m", "m-then-m-grid"])
    def test_fcurves(self, axes, pairs, tmp_path):
        out = tmp_path / "curves"
        assert cli.main(["fcurves", "--set", "potential=exponential", *axes, "--set", "e_steps=5",
                         "--set", f"out={out}"]) == 0
        intersections = (out / "intersections.csv").read_text().splitlines()[1:]
        assert [tuple(row.split(",")[:2]) for row in intersections] == pairs
        assert {row.split(",")[0] for row in (out / "parabolas.csv").read_text().splitlines()[1:]} == \
            {m for _, m in pairs}
        assert sorted(path.name for path in out.glob("fcurve_*")) == sorted({f"fcurve_v{v}.csv" for v, _ in pairs})

    @pytest.mark.parametrize("grid", [V_GRID, M_GRID], ids=["v", "m"])
    def test_kg_single_value_after_a_grid(self, grid, capsys):
        assert cli.main(["kg", "--set", "potential=exponential", *grid, "--set", "v=3.4", "--set", "m=1"]) == 0
        assert capsys.readouterr().out == "status=bound\ne=0.203839046716\ne0=-0.273527058935\ndelta=1.48114281261\n"

    @pytest.mark.parametrize("grid, axis", [(V_GRID, "coupling v"), (M_GRID, "mass m")], ids=["v", "m"])
    def test_kg_grid_after_a_single_value(self, grid, axis, capsys):
        assert cli.main(["kg", *EXP_V, "--set", "m=1", *grid]) == 1
        assert capsys.readouterr() == ("", f"config error: this command needs a single {axis}\n")

    @pytest.mark.parametrize("argv", [
        ["--set", "potential=exponential", "--set", "v=2", "--set", "v_min=3.4", "--set", "v_max=4",
         "--set", "v_steps=1", "--set", "m=1"],
        [*EXP_V, "--set", "m=2", "--set", "m_min=1", "--set", "m_max=1", "--set", "m_step=0.2"],
    ], ids=["v", "m"])
    def test_kg_one_point_grid_after_a_single_value(self, argv, capsys):
        assert cli.main(["kg", *argv]) == 0
        assert capsys.readouterr().out.startswith("status=bound\ne=0.203839046716\n")

    def test_a_grid_key_after_a_single_value_starts_a_new_grid(self, capsys):
        # the single value dropped the earlier grid keys, so this grid
        # misses two and says so
        assert cli.main(["kg", *EXP_V, *M_GRID, "--set", "m=1", "--set", "m_max=2"]) == 1
        assert capsys.readouterr() == ("", "config error: incomplete mass grid: missing ['m_min', 'm_step']\n")

    def test_set_entries_count_after_the_file(self, tmp_path, monkeypatch):
        configs = captured_config(monkeypatch, "bounds")
        path = write_config(tmp_path, "potential = exponential\nm = 1\nv = 3.4\nv_min = 2.5\nv_max = 4.5\n"
                                      "v_steps = 3\nout = rows.csv\n")
        assert cli.main(["bounds", "--config", str(path)]) == 0
        assert cli.main(["bounds", "--config", str(path), "--set", "v=3.4"]) == 0
        assert [cfg.coupling_grid() for cfg in configs] == [[2.5, 3.5, 4.5], [3.4]]

    def test_readme_ws_bounds_config(self, tmp_path, monkeypatch, capsys):
        configs = captured_config(monkeypatch, "bounds")
        path = readme_config("ws_bounds.txt", tmp_path)
        assert cli.main(["bounds", "--config", str(path)]) == 0
        assert cli.main(["bounds", "--config", str(path), "--set", "v=2.0"]) == 0
        grid, single = configs
        assert grid.kind is Kind.WOODS_SAXON and grid.single_mass() == 1.0
        assert grid.coupling_grid() == [float(x) for x in np.linspace(1.0, 3.5, 11)]
        assert single.coupling_grid() == [2.0]

    def test_readme_exp_curves_config(self, tmp_path, monkeypatch, capsys):
        configs = captured_config(monkeypatch, "fcurves")
        path = readme_config("exp_curves.txt", tmp_path)
        assert cli.main(["fcurves", "--config", str(path)]) == 0
        assert cli.main(["fcurves", "--config", str(path), "--set", "m=1"]) == 0
        grid, single = configs
        assert grid.masses() == pytest.approx([0.1 * i for i in range(1, 22)])
        assert grid.coupling_grid() == pytest.approx([1.0 + 0.5 * i for i in range(10)])
        assert single.masses() == [1.0] and single.coupling_grid() == grid.coupling_grid()


class TestGrids:
    """The numpy-free grids against np.linspace and the e-grid's numpy
    expression: equal as floats, bit for bit, not merely close."""

    # the seed-1 benchmark inputs as the runner passes them to the CLI:
    # (v_min, v_max) of ws-bounds, kg-curves and coulomb-bounds, each with
    # v_steps = 2, and the kg-curves mass, with e_steps = 61
    SEED_ONE_COUPLINGS = [(2.66593619593405, 3.16593619593405), (3.336311357499204, 4.086311357499204),
                          (0.03811254911021573, 0.2)]
    SEED_ONE_MASS = 0.9723527950177351

    @staticmethod
    def assert_same(got, want):
        assert got == want
        assert [x.hex() for x in got] == [float(x).hex() for x in want]

    @staticmethod
    def numpy_energy_grid(m_top, num):
        margin = 1e-6 * m_top
        grid = np.linspace(-m_top + margin, m_top - margin, num)
        return [float(x) for x in 0.5 * (grid - grid[::-1])]

    @pytest.mark.parametrize("num", [1, 2, 61])
    @pytest.mark.parametrize("start, stop", [(1.0, 3.5), (-0.999999, 0.999999), (0.1, 0.42), (3.0, 4.5)])
    def test_linspace_counts(self, start, stop, num):
        self.assert_same(cli._linspace(start, stop, num), [float(x) for x in np.linspace(start, stop, num)])

    def test_linspace_random_normal_range(self):
        rng = np.random.default_rng(20090)
        for _ in range(2000):
            start, stop = (float(x) for x in rng.normal(size=2) * 10.0 ** rng.uniform(-6, 6, size=2))
            num = int(rng.integers(1, 400))
            self.assert_same(cli._linspace(start, stop, num), [float(x) for x in np.linspace(start, stop, num)])

    def test_linspace_subnormal_step_takes_the_zero_step_branch(self):
        start, stop, num = 0.0, 1e-323, 61
        assert (stop - start) / (num - 1) == 0.0
        want = [float(x) for x in np.linspace(start, stop, num)]
        assert 0.0 < min(x for x in want if x > 0) < stop  # points inside, not only the end
        self.assert_same(cli._linspace(start, stop, num), want)

    @pytest.mark.parametrize("v_min, v_max", SEED_ONE_COUPLINGS)
    def test_seed_one_coupling_grids(self, v_min, v_max):
        cfg = parse_config(None, overrides=[f"v_min={v_min!r}", f"v_max={v_max!r}", "v_steps=2"])
        self.assert_same(cfg.coupling_grid(), [float(x) for x in np.linspace(v_min, v_max, 2)])

    @pytest.mark.parametrize("m_top, num", [(SEED_ONE_MASS, 61), (1.0, 61), (2.1, 61), (1.0, 1), (1.0, 2),
                                            (0.8, 9), (1.0, 21)])
    def test_energy_grid(self, m_top, num):
        self.assert_same(cli._energy_grid(m_top, num), self.numpy_energy_grid(m_top, num))

    def test_energy_grid_random(self):
        rng = np.random.default_rng(20091)
        for _ in range(500):
            m_top, num = float(10.0 ** rng.uniform(-3, 3)), int(rng.integers(1, 300))
            self.assert_same(cli._energy_grid(m_top, num), self.numpy_energy_grid(m_top, num))


class TestBoundsRow:
    def test_csv_empty_fields(self):
        row = BoundsRow(1.0, 1.0, None, None, None, None, None, "no-binding")
        assert cli._rows([row]) == ["1,1,,,,,,no-binding"]

    def test_ordering_check(self):
        good = BoundsRow(2.0, 1.0, 0.4, 0.5, 0.6, None, None, "bound")
        assert good.ordering_ok(1e-6)
        bad = BoundsRow(2.0, 1.0, 0.6, 0.5, 0.6, None, None, "bound")
        assert not bad.ordering_ok(1e-6)
        gauss_bad = BoundsRow(2.0, 1.0, 0.4, 0.7, 0.6, None, None, "bound")
        assert not gauss_bad.ordering_ok(1e-6)
        non_bound = BoundsRow(2.0, 1.0, None, None, None, None, None, "supercritical")
        assert non_bound.ordering_ok(1e-6)


class TestCsvExport:
    """cli_report formats every table row; the solvers return numbers."""

    def test_curve_row_format(self):
        pt = kleingordon.F(potentials.coulomb(0.4), 1.0)
        rows = cli._rows([pt])
        assert len(rows) == 1
        fields = rows[0].split(",")
        assert len(fields) == 4
        assert float(fields[0]) == 1.0
        assert float(fields[1]) == pytest.approx(-0.25)
        assert float(fields[2]) == pytest.approx(-0.5)
        assert float(fields[3]) == pytest.approx(1.25)

    def test_gaussian_row_format(self):
        rows = cli._rows(gaussian_bound.optimal_curve(1.0, 1.0, 0.2)[:2])
        assert len(rows) == 2
        assert len(rows[0].split(",")) == 7

    @pytest.mark.parametrize("record, header", [
        (BoundsRow, BOUNDS_HEADER),
        (kleingordon.SpectralCurvePoint, "e,F,F_prime,delta"),
        (gaussian_bound.GaussianBoundPoint, "s,v,E_g,J1,J2,J3,J4"),
    ])
    def test_each_header_names_its_record_fields_in_order(self, record, header):
        # _rows writes a record's fields in order under these headers
        assert ",".join(f.name for f in dataclasses.fields(record)) == header


class TestRunBounds:
    def test_single_row_sweep(self, tmp_path):
        cfg = parse_config(None, overrides=[
            "potential=exponential", "v_min=4.5", "v_max=4.5", "v_steps=1",
            "m=1", f"out={tmp_path / 'rows.csv'}",
        ])
        path, violations = run_bounds(cfg)
        assert violations == 0
        lines = path.read_text().splitlines()
        assert lines[0] == BOUNDS_HEADER
        fields = lines[1].split(",")
        assert fields[-1] == "bound"
        assert float(fields[2]) < float(fields[3])
        assert fields[4] == ""  # no Gaussian column for the exponential kind
        assert lines[-1] == "# ordering_violations=0"

    def test_no_binding_row_is_empty(self, tmp_path):
        cfg = parse_config(None, overrides=[
            "potential=exponential", "v=0.5", "m=1", f"out={tmp_path / 'rows.csv'}",
        ])
        path, violations = run_bounds(cfg)
        assert violations == 0
        line = path.read_text().splitlines()[1]
        assert line == "0.5,1,,,,,,no-binding"

    def test_requires_out(self):
        cfg = parse_config(None, overrides=["potential=exponential", "v=2", "m=1"])
        with pytest.raises(ConfigError):
            run_bounds(cfg)

    def test_no_bound_state_row_is_error(self, monkeypatch, tmp_path, capfd):
        # a Salpeter solve that converges onto the continuum reads error,
        # like a NonConvergence, without a traceback or a new exit code
        def continuum(spec, m, *args, **kwargs):
            raise NoBoundState(f"E = {m} converged at or above m = {m}")
        monkeypatch.setattr(salpeter, "ground_energy", continuum)
        out = tmp_path / "rows.csv"
        rc = cli.main(["bounds", "--set", "potential=exponential", "--set", "v=4.5",
                       "--set", "m=1", "--set", f"out={out}"])
        assert rc == 0
        assert capfd.readouterr().err == ""
        lines = out.read_text().splitlines()
        assert lines[1].startswith("4.5,1,") and lines[1].endswith(",error")
        assert lines[1].split(",")[3] == ""
        assert lines[-1] == "# ordering_violations=0"

    def test_determinism_across_threads(self, tmp_path):
        base = ["potential=exponential", "v_min=2.5", "v_max=4.5", "v_steps=2", "m=1"]
        outputs = []
        for threads in (1, 3):
            out = tmp_path / f"rows_{threads}.csv"
            cfg = parse_config(None, overrides=base + [f"threads={threads}", f"out={out}"])
            run_bounds(cfg)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestRunFcurves:
    def test_coulomb_family(self, tmp_path):
        out_dir = tmp_path / "curves"
        cfg = parse_config(None, overrides=[
            "potential=coulomb", "v_min=0.3", "v_max=0.4", "v_steps=2",
            "m=1", "e_steps=21", f"out={out_dir}",
        ])
        paths = run_fcurves(cfg)
        names = sorted(p.name for p in paths)
        assert "parabolas.csv" in names and "intersections.csv" in names
        curve = (out_dir / "fcurve_v0.3.csv").read_text().splitlines()
        assert curve[0].startswith("# v=0.3 status=ok")
        assert curve[1] == "e,F,F_prime,delta"
        assert len(curve) > 2
        # the odd e-grid holds e = 0 exactly, where the curve starts, so no
        # roundoff point just above 0 is written
        energies = [float(line.split(",")[0]) for line in curve[2:]]
        assert not any(0.0 < e < 1e-12 for e in energies)
        inter = (out_dir / "intersections.csv").read_text().splitlines()
        assert inter[0] == "v,m,e,status"
        assert len(inter) == 3
        assert all(line.endswith("bound") for line in inter[1:])

    def test_intersection_for_every_pair(self, tmp_path):
        # more than 16 (v, m) pairs still get one intersection row each
        out_dir = tmp_path / "curves"
        cfg = parse_config(None, overrides=[
            "potential=coulomb", "v_min=0.1", "v_max=0.42", "v_steps=17",
            "m=1", "e_steps=3", f"out={out_dir}",
        ])
        run_fcurves(cfg)
        inter = (out_dir / "intersections.csv").read_text().splitlines()
        assert inter[0] == "v,m,e,status"
        assert len(inter) == 18
        assert all(line.endswith("bound") for line in inter[1:])

    def test_two_coupling_two_mass_reproduction(self, tmp_path):
        # exponential family at two couplings and two masses: two curve
        # files, parabola rows for both masses, four intersection records
        out_dir = tmp_path / "curves"
        cfg = parse_config(None, overrides=[
            "potential=exponential", "v_min=2.5", "v_max=4.5", "v_steps=2",
            "m_min=0.8", "m_max=1.0", "m_step=0.2", "e_steps=9",
            "threads=2", f"out={out_dir}",
        ])
        run_fcurves(cfg)
        for v in ("2.5", "4.5"):
            lines = (out_dir / f"fcurve_v{v}.csv").read_text().splitlines()
            assert lines[0].endswith("status=ok")
            assert len(lines) > 2
        parabolas = (out_dir / "parabolas.csv").read_text().splitlines()
        assert {row.split(",")[0] for row in parabolas[1:]} == {"0.8", "1"}
        inter = (out_dir / "intersections.csv").read_text().splitlines()
        assert len(inter) == 5
        records = [line.split(",") for line in inter[1:]]
        assert all(fields[3] == "bound" for fields in records)
        # the intersection energies respect mass monotonicity at fixed v
        by_v = {}
        for fields in records:
            by_v.setdefault(fields[0], {})[fields[1]] = float(fields[2])
        for v, masses in by_v.items():
            assert masses["1"] > masses["0.8"]

    @pytest.mark.parametrize("v_min, v_max, message", [
        ("0.3", "0.3000004", "couplings v = 0.3 and 0.3000002 share the file name fcurve_v0.3.csv"),
        # across a decade the first name keeps a digit that the later two lose
        ("0.0999999", "0.1000001", "couplings v = 0.1 and 0.1000001 share the file name fcurve_v0.1.csv"),
    ], ids=["within-a-decade", "across-a-decade"])
    def test_couplings_that_share_a_name_write_nothing(self, v_min, v_max, message, tmp_path):
        out_dir = tmp_path / "curves"
        cfg = parse_config(None, overrides=[
            "potential=coulomb", f"v_min={v_min}", f"v_max={v_max}", "v_steps=3",
            "m=1", "e_steps=3", f"out={out_dir}",
        ])
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_fcurves(cfg)
        assert not out_dir.exists()

    def test_couplings_apart_in_the_sixth_digit_all_write(self, tmp_path):
        out_dir = tmp_path / "curves"
        cfg = parse_config(None, overrides=[
            "potential=coulomb", "v_min=0.099999", "v_max=0.100003", "v_steps=3",
            "m=1", "e_steps=3", f"out={out_dir}",
        ])
        paths = run_fcurves(cfg)
        names = ["fcurve_v0.099999.csv", "fcurve_v0.100001.csv", "fcurve_v0.100003.csv"]
        assert [p.name for p in paths] == [*names, "parabolas.csv", "intersections.csv"]
        for name in names:
            assert (out_dir / name).read_text().startswith(f"# v={name[8:-4]} status=ok")

    def test_empty_curve_gets_status_header(self, tmp_path):
        out_dir = tmp_path / "curves"
        cfg = parse_config(None, overrides=[
            "potential=exponential", "v=0.2", "m=1", "e_steps=9", f"out={out_dir}",
        ])
        run_fcurves(cfg)
        lines = (out_dir / "fcurve_v0.2.csv").read_text().splitlines()
        assert lines[0] == "# v=0.2 status=empty"
        assert lines[1] == "e,F,F_prime,delta"
        assert len(lines) == 2

    def test_determinism_across_threads(self, tmp_path):
        outputs = []
        for threads in (1, 4):
            out_dir = tmp_path / f"curves_{threads}"
            cfg = parse_config(None, overrides=[
                "potential=coulomb", "v_min=0.2", "v_max=0.4", "v_steps=3",
                "m=1", "e_steps=15", f"threads={threads}", f"out={out_dir}",
            ])
            paths = run_fcurves(cfg)
            outputs.append({p.name: p.read_bytes() for p in paths})
        assert outputs[0] == outputs[1]

    def test_parabola_values(self, tmp_path):
        out_dir = tmp_path / "curves"
        cfg = parse_config(None, overrides=[
            "potential=coulomb", "v=0.4", "m=1", "e_steps=5", f"out={out_dir}",
        ])
        run_fcurves(cfg)
        rows = (out_dir / "parabolas.csv").read_text().splitlines()
        assert rows[0] == "m,e,g"
        m, e, g = (float(x) for x in rows[1].split(","))
        assert g == pytest.approx(e * e - m * m, rel=1e-12)

    def test_parabola_values_are_exact_near_the_edge(self, tmp_path):
        # e*e - m*m cancels where e nears m; every printed g must be the
        # exact g(e) of the grid's float e, rounded to 12 digits
        out_dir = tmp_path / "curves"
        cfg = parse_config(None, overrides=[
            "potential=coulomb", "v=0.4", "m_min=0.8", "m_max=1.0", "m_step=0.2",
            "e_steps=61", f"out={out_dir}",
        ])
        run_fcurves(cfg)
        grid = np.linspace(-1.0 + 1e-6, 1.0 - 1e-6, 61)
        e_values = [float(x) for x in 0.5 * (grid - grid[::-1])]
        rows = (out_dir / "parabolas.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * 61
        for row, (m, e) in zip(rows, [(m, e) for m in (0.8, 1.0) for e in e_values]):
            exact = Fraction(e) ** 2 - Fraction(m) ** 2
            assert row == f"{m:.12g},{e:.12g},{float(exact):.12g}"


class TestSerialSweeps:
    def test_sweeps_run_on_the_calling_thread(self, monkeypatch, tmp_path):
        # whatever threads says, every solve of a sweep runs on the thread
        # that called it
        calls = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, threading.current_thread()))
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(salpeter, "ground_energy", recording("ground_energy", salpeter.ground_energy))
        monkeypatch.setattr(kleingordon, "solve", recording("solve", kleingordon.solve))
        monkeypatch.setattr(kleingordon, "curve", recording("curve", kleingordon.curve))
        run_bounds(parse_config(None, overrides=[
            "potential=exponential", "v_min=2.5", "v_max=4.5", "v_steps=3", "m=1",
            "threads=3", f"out={tmp_path / 'rows.csv'}",
        ]))
        run_fcurves(parse_config(None, overrides=[
            "potential=coulomb", "v_min=0.2", "v_max=0.4", "v_steps=3", "m=1",
            "e_steps=5", "threads=3", f"out={tmp_path / 'curves'}",
        ]))
        assert {name for name, _ in calls} == {"ground_energy", "solve", "curve"}
        assert all(thread is threading.main_thread() for _, thread in calls)


class TestRunCritical:
    def test_coulomb_is_usage_error(self):
        cfg = parse_config(None, overrides=["potential=coulomb", "v=0.4", "m=1"])
        with pytest.raises(ConfigError):
            run_critical(cfg)

    def test_prints_thresholds_with_root_tolerance(self):
        # the six printed decimals are those of the zero-energy ODE oracle
        cfg = parse_config(None, overrides=["potential=woods-saxon", "m=1"])
        out = io.StringIO()
        run_critical(cfg, out=out)
        assert out.getvalue().splitlines()[1:] == [
            "binding_threshold_v=0.894076 (root tol 1e-09)",
            "supercritical_v=3.761477 (root tol 1e-09)",
        ]


class TestMainEntry:
    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = write_config(tmp_path, "potential = nope\n")
        assert cli.main(["kg", "--config", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_kg_single_point(self, capsys):
        rc = cli.main(["kg", "--set", "potential=coulomb", "--set", "v=0.4", "--set", "m=1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "status=bound" in out
        assert "e=0.894427191" in out

    def test_gaussian_single_point(self, capsys):
        rc = cli.main([
            "gaussian", "--set", "potential=woods-saxon", "--set", "v=2.5",
            "--set", "m=1", "--set", "a=1", "--set", "b=0.2",
        ])
        assert rc == 0
        assert "E_g=" in capsys.readouterr().out

    def test_gaussian_curve_export(self, tmp_path, capsys):
        out = tmp_path / "gauss_curve.csv"
        rc = cli.main([
            "gaussian", "--set", "potential=woods-saxon", "--set", "v=2.5",
            "--set", "m=1", "--set", "a=1", "--set", "b=0.2", "--set", f"out={out}",
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s,v,E_g,J1,J2,J3,J4"
        assert len(lines) == 201

    def test_gaussian_wrong_kind(self, capsys):
        rc = cli.main(["gaussian", "--set", "potential=exponential", "--set", "v=2.5", "--set", "m=1"])
        assert rc == 1

    def test_gaussian_out_of_range_coupling(self, capsys):
        rc = cli.main([
            "gaussian", "--set", "potential=woods-saxon", "--set", "v=0.5", "--set", "m=1",
        ])
        assert rc == 1
        assert "parametric span" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["-1", "0"])
    def test_critical_rejects_a_mass_that_is_not_positive(self, m, capsys):
        rc = cli.main(["critical", "--set", "potential=woods-saxon", "--set", f"m={m}"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: mass must be positive, got ")

    @pytest.mark.parametrize("kind", ["exponential", "coulomb"])
    def test_fcurves_rejects_no_energy_steps(self, kind, tmp_path, capsys):
        rc = cli.main(["fcurves", "--set", f"potential={kind}", "--set", "v=0.4", "--set", "m=1",
                       "--set", "e_steps=0", "--set", f"out={tmp_path / 'curves'}"])
        assert rc == 1
        assert capsys.readouterr().err == "config error: e_steps must be >= 1, got 0\n"
        assert not (tmp_path / "curves").exists()

    def test_fcurves_rejects_couplings_that_share_a_file_name(self, tmp_path, capsys):
        # the curve files are named fcurve_v{v:.6g}.csv, which rounds
        # 5.675105 to 5.6751: that curve would overwrite the first
        rc = cli.main(["fcurves", "--set", "potential=exponential", "--set", "v_min=5.67510", "--set", "v_max=5.67512",
                       "--set", "v_steps=5", "--set", "m=1", "--set", "e_steps=5",
                       "--set", f"out={tmp_path / 'curves'}"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: couplings v = 5.6751 and 5.675105 share the file name fcurve_v5.6751.csv\n"
        assert not (tmp_path / "curves").exists()

    @pytest.mark.parametrize("masses, bad", [
        (["m=-1"], "-1.0"),
        (["m_min=-0.5", "m_max=1", "m_step=0.5"], "-0.5"),
    ])
    def test_fcurves_rejects_a_mass_that_is_not_positive_before_writing(self, masses, bad, tmp_path, capsys):
        mass_args = [arg for m in masses for arg in ("--set", m)]
        rc = cli.main(["fcurves", "--set", "potential=exponential", "--set", "v=3.4", *mass_args,
                       "--set", "e_steps=5", "--set", f"out={tmp_path / 'curves'}"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: mass must be positive, got {bad}\n"
        assert not (tmp_path / "curves").exists()

    def test_bounds_rejects_a_mass_that_is_not_positive(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = cli.main(["bounds", "--set", "potential=woods-saxon", "--set", "v=2.5", "--set", "m=-1",
                       "--set", f"out={out}"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: mass must be positive, got -1.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    def test_tol_must_be_finite_and_not_negative(self, tol, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = cli.main(["bounds", "--set", "potential=woods-saxon", "--set", "v=2.0", "--set", "m=1",
                       "--set", f"tol={tol}", "--set", f"out={out}"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"config error: --set tol={tol}: tol must be finite and >= 0, got {tol}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["kg", "fcurves"])
    @pytest.mark.parametrize("key, value", [("m_min", "-inf"), ("m_max", "inf"), ("m_step", "nan"),
                                            ("m_step", "inf")])
    def test_non_finite_mass_grid_bound_names_the_key(self, command, key, value, tmp_path, capsys):
        grid = {"m_min": "0.1", "m_max": "1", "m_step": "0.1", key: value}
        out = tmp_path / "curves"
        rc = cli.main([command, "--set", "potential=exponential", "--set", "v=3",
                       *(arg for k, x in grid.items() for arg in ("--set", f"{k}={x}")),
                       "--set", "e_steps=5", "--set", f"out={out}"])
        assert rc == 1
        assert capsys.readouterr() == ("", f"config error: --set {key}={value}: {key} must be finite, got {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["kg", "fcurves"])
    def test_mass_grid_whose_count_overflows_is_a_config_error(self, command, tmp_path, capsys):
        # finite bounds, but (m_max - m_min) / m_step is inf
        out = tmp_path / "curves"
        rc = cli.main([command, "--set", "potential=exponential", "--set", "v=3", "--set", "m_min=0.1",
                       "--set", "m_max=1e300", "--set", "m_step=1e-10", "--set", f"out={out}"])
        assert rc == 1
        assert capsys.readouterr() == ("", "config error: bad mass grid: m_min=0.1, m_max=1e+300, m_step=1e-10\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, out_name", [("fcurves", "curves"), ("bounds", "rows.csv")])
    @pytest.mark.parametrize("key, value", [("v_min", "-inf"), ("v_max", "inf"), ("v_max", "nan")])
    def test_non_finite_coupling_grid_bound_names_the_key(self, command, out_name, key, value, tmp_path, capsys):
        grid = {"v_min": "3", "v_max": "4", key: value}
        out = tmp_path / out_name
        rc = cli.main([command, "--set", "potential=exponential", "--set", "m=1", "--set", "v_steps=3",
                       *(arg for k, x in grid.items() for arg in ("--set", f"{k}={x}")),
                       "--set", "e_steps=5", "--set", f"out={out}"])
        assert rc == 1
        assert capsys.readouterr() == ("", f"config error: {key} must be finite, got {float(value)}\n")
        assert not out.exists()

    def test_bounds_row_of_an_inadmissible_coulomb_coupling_is_error(self, tmp_path):
        out = tmp_path / "rows.csv"
        rc = cli.main(["bounds", "--set", "potential=coulomb", "--set", "v=0.6", "--set", "m=1",
                       "--set", f"out={out}"])
        assert rc == 0
        assert out.read_text().splitlines()[1:] == ["0.6,1,,,,,,error", "# ordering_violations=0"]

    def test_weak_coulomb_bounds_row_is_error_without_a_warning(self, tmp_path, capsys):
        # the sine basis finds no level below m, and its preconditioner
        # divides by nothing: no RuntimeWarning reaches stderr
        out = tmp_path / "rows.csv"
        rc = cli.main(["bounds", "--set", "potential=coulomb", "--set", "v=1e-14", "--set", "m=1",
                       "--set", f"out={out}"])
        assert rc == 0
        assert out.read_text().splitlines()[1:] == ["1e-14,1,1,,,0,1,error", "# ordering_violations=0"]
        assert capsys.readouterr().err == ""

    def test_weak_woods_saxon_salpeter_exits_with_its_message_alone(self, capsys):
        rc = cli.main(["salpeter", "--set", "potential=woods-saxon", "--set", "v=1e-8", "--set", "m=1"])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: E = 1.00001973901 converged at or above m = 1 in the box "
                                           "R = 500: no bound state below the continuum\n")

    def test_critical_search_failure_exits_cleanly(self, monkeypatch, capsys):
        # h(e) binds at no coupling
        monkeypatch.setattr(kleingordon._WoodsSaxonCurve, "binds", lambda self, e: False)
        rc = cli.main(["critical", "--set", "potential=woods-saxon", "--set", "m=1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: no binding found up to v = ")

    def test_exhausted_root_search(self, monkeypatch, tmp_path, capsys):
        # a Klein-Gordon root search that runs out of iterations is an error
        # row in a sweep and a clean exit 1 for a single point
        monkeypatch.setattr(kleingordon, "brentq", functools.partial(potentials.brentq, maxiter=1))
        point = ["--set", "potential=woods-saxon", "--set", "v=2.0", "--set", "m=1"]
        out = tmp_path / "rows.csv"
        assert cli.main(["bounds", *point, "--set", f"out={out}"]) == 0
        assert out.read_text().splitlines()[1] == "2,1,,,,,,error"
        assert cli.main(["kg", *point]) == 1
        assert capsys.readouterr().err.startswith("error: brentq did not converge in 1 iterations")

    def test_salpeter_single_point(self, capsys):
        rc = cli.main([
            "salpeter", "--set", "potential=exponential", "--set", "v=4.5", "--set", "m=1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "E=-0.28599" in out


ROOT = Path(__file__).resolve().parents[1]
# a file that is missing or a directory, and an out path that cannot be written
FILE_ERRORS = {
    "config-missing": ["kg", "--config", "{tmp}/missing.cfg"],
    "config-directory": ["kg", "--config", "{tmp}"],
    "bounds-out-directory": ["bounds", "--set", "potential=coulomb", "--set", "v=0.6", "--set", "m=1",
                             "--set", "out={tmp}"],
    "gaussian-out-directory": ["gaussian", "--set", "potential=woods-saxon", "--set", "v=2.5", "--set", "m=1",
                               "--set", "out={tmp}"],
    "bounds-out-under-a-file": ["bounds", "--set", "potential=coulomb", "--set", "v=0.6", "--set", "m=1",
                                "--set", "out={tmp}/file/rows.csv"],
    "fcurves-out-a-file": ["fcurves", "--set", "potential=exponential", "--set", "v=3.4", "--set", "m=1",
                           "--set", "e_steps=5", "--set", "out={tmp}/file"],
}


# Woods-Saxon walls a solver cannot take: each run exits 1 with its reason
THIN_WALL = ["--set", "potential=woods-saxon", "--set", "a=1", "--set", "b=1e-300", "--set", "m=1", "--set", "v=2"]
FAR_WALL = ["--set", "potential=woods-saxon", "--set", "a=1e300", "--set", "b=1", "--set", "m=1", "--set", "v=2"]
KG_THIN = "error: Woods-Saxon thickness b = 1e-300 is too thin for the Klein-Gordon series: b^2 underflows\n"
REFUSED_WALLS = {
    # J4 = 0 on the Gaussian curve, which ended in a ZeroDivisionError
    "gaussian-thin-wall": (["gaussian", *THIN_WALL], "error: J4 = 0 at s = 0.05: the Woods-Saxon surface "
                                                     "(a = 1, b = 1e-300) is out of the Gaussian quadrature's reach\n"),
    "gaussian-far-wall": (["gaussian", *FAR_WALL], "error: J4 = 0 at s = 0.05: the Woods-Saxon surface "
                                                   "(a = 1e+300, b = 1) is out of the Gaussian quadrature's reach\n"),
    # b^2 underflows: the series read no well, and both printed no-binding
    "kg-thin-wall": (["kg", *THIN_WALL], KG_THIN),
    "bounds-thin-wall": (["bounds", *THIN_WALL, "--set", "out={tmp}/rows.csv"], KG_THIN),
}


class TestRefusedWalls:
    @pytest.mark.parametrize("name", REFUSED_WALLS)
    def test_a_refused_wall_exits_1_with_its_reason(self, name, tmp_path):
        argv, reason = REFUSED_WALLS[name]
        proc = subprocess.run([sys.executable, "-m", "salpeterbounds.cli_report",
                               *(arg.format(tmp=tmp_path) for arg in argv)], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True,
                              text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", reason)
        assert not (tmp_path / "rows.csv").exists()


class TestWideWells:
    @pytest.mark.parametrize("command", ["kg", "critical"])
    @pytest.mark.parametrize("a", ["1e6", "1e100", "1e300"])
    def test_a_wide_woods_saxon_well_exits_1_with_its_reason(self, command, a, tmp_path):
        # a state count's node grid has about a k_max / pi cells, and at
        # a = 1e300 the phase of the inner series overflows: both raise,
        # where the commands ran on past a minute
        argv = [command, "--set", "potential=woods-saxon", "--set", f"a={a}", "--set", "b=1", "--set", "m=1",
                "--set", "v=2"]
        proc = subprocess.run([sys.executable, "-m", "salpeterbounds.cli_report", *argv], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True,
                              text=True, timeout=20)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def test_a_wide_well_within_the_grid_still_solves(self, capsys):
        rc = cli.main(["kg", "--set", "potential=woods-saxon", "--set", "a=1e4", "--set", "b=1", "--set", "m=1",
                       "--set", "v=2"])
        assert rc == 0
        assert capsys.readouterr().out == "status=supercritical\ne=\ne0=\ndelta=\n"


class TestFileErrors:
    @pytest.mark.parametrize("name", FILE_ERRORS)
    def test_a_file_error_exits_1_without_a_traceback(self, name, tmp_path):
        (tmp_path / "file").write_text("", encoding="utf-8")
        argv = [arg.format(tmp=tmp_path) for arg in FILE_ERRORS[name]]
        proc = subprocess.run([sys.executable, "-m", "salpeterbounds.cli_report", *argv], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
