"""Command-line front end: parameter sweeps, bound verification, CSV export.

Config files are flat "key = value" text; see parse_config for the key set.
Rows of a sweep are computed one after another on the calling thread and
written in grid order.  Exit codes: 0 success, 1 config/usage error,
2 ordering violation detected.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

# each CLI process runs BLAS on one thread unless OPENBLAS_NUM_THREADS is
# set: numpy loads an OpenBLAS whose worker threads spin from load on, and
# the solvers do small-vector work only.  OpenBLAS reads the variable when
# it loads, so this precedes any import of numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .potentials import (CouplingOutOfRange, Kind, NoBoundState, NonBindingSearchError, NonConvergence,  # noqa: E402
                         PotentialSpec, Theory, check_mass, validate_shape)

# this module and potentials load the standard library alone, and the
# solvers are imported inside the functions that run them: most of a
# command's start-up is import time, and each command pays only for the
# solvers it uses.  kleingordon runs every kind on a series or a closed
# form in the standard library, so `--help` and every Klein-Gordon command
# load no numpy; salpeter and gaussian_bound load numpy alone.  Each solver
# sizes its own box, grid and basis, so no key sets them

BOUNDS_HEADER = "v,m,e_kg,E_srs,E_gauss,e0,delta,status"
ORDER_TOL = 1e-6

_KIND_NAMES = {k.value: k for k in Kind}

_KEYS = {
    "potential", "a", "b", "m", "m_min", "m_max", "m_step",
    "v", "v_min", "v_max", "v_steps", "tol",
    "out", "threads", "e_steps",
}


class ConfigError(Exception):
    """Malformed or inconsistent configuration."""


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num) as a list of floats, point for point:
    i * step + start with the last point exactly stop, and i / (num - 1)
    * (stop - start) + start where step underflows to 0, as numpy does."""
    div = num - 1
    delta = stop - start
    if div <= 0:
        return [0.0 * delta + start] * num
    step = delta / div
    if step == 0:
        points = [i / div * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def _energy_grid(m_top: float, num: int) -> list[float]:
    """The fcurves e-grid: num points on [-m_top, m_top], 1e-6 * m_top
    inside each end, antisymmetrized so that the grid is symmetric about 0
    and an odd grid holds e = 0 exactly, where the Coulomb curve starts."""
    margin = 1e-6 * m_top
    grid = _linspace(-m_top + margin, m_top - margin, num)
    return [0.5 * (x - y) for x, y in zip(grid, reversed(grid))]


@dataclass
class SweepConfig:
    kind: Kind = Kind.EXPONENTIAL
    a: float = 1.0
    b: float = 0.2
    m: float | None = None
    mass_grid: list[float] = field(default_factory=list)
    v: float | None = None
    v_min: float | None = None
    v_max: float | None = None
    v_steps: int = 1
    tol: float = ORDER_TOL
    out: str | None = None
    e_steps: int = 61

    def potential(self, v: float) -> PotentialSpec:
        return PotentialSpec(self.kind, v, self.a, self.b)

    def coupling_grid(self) -> list[float]:
        if self.v_min is None or self.v_max is None:
            if self.v is not None:
                return [self.v]
            raise ConfigError("coupling grid needs v_min and v_max (or a single v)")
        if self.v_steps < 1:
            raise ConfigError(f"v_steps must be >= 1, got {self.v_steps}")
        if self.v_steps == 1:
            return [self.v_min]
        for key, value in (("v_min", self.v_min), ("v_max", self.v_max)):
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if not self.v_min < self.v_max:
            raise ConfigError(f"v_min = {self.v_min} must be below v_max = {self.v_max}")
        return _linspace(self.v_min, self.v_max, self.v_steps)

    def masses(self) -> list[float]:
        """The mass grid, or [m]; every mass must be positive and finite."""
        if self.mass_grid:
            masses = self.mass_grid
        elif self.m is not None:
            masses = [self.m]
        else:
            raise ConfigError("no mass given: set m or m_min/m_max/m_step")
        for m in masses:
            check_mass(m)
        return masses

    def single_mass(self) -> float:
        """m, or the one mass of the grid; it must be positive and finite."""
        if self.m is not None:
            m = self.m
        elif len(self.mass_grid) == 1:
            m = self.mass_grid[0]
        else:
            raise ConfigError("this command needs a single mass m")
        check_mass(m)
        return m

    def single_coupling(self) -> float:
        if self.v is not None:
            return self.v
        grid = self.coupling_grid()
        if len(grid) == 1:
            return grid[0]
        raise ConfigError("this command needs a single coupling v")


def _parse_assignments(pairs: list[tuple[str, str, str]]) -> SweepConfig:
    cfg = SweepConfig()
    seen_mass_grid = {}
    for key, value, where in pairs:
        try:
            if key == "potential":
                if value not in _KIND_NAMES:
                    raise ValueError(f"unknown potential {value!r}; use one of {sorted(_KIND_NAMES)}")
                cfg.kind = _KIND_NAMES[value]
            elif key in ("a", "b"):
                setattr(cfg, key, float(value))
            elif key == "tol":
                cfg.tol = float(value)
                if not (math.isfinite(cfg.tol) and cfg.tol >= 0):
                    raise ValueError(f"tol must be finite and >= 0, got {value}")
            elif key in ("m", "v", "v_min", "v_max"):
                setattr(cfg, key, float(value))
            elif key in ("m_min", "m_max", "m_step"):
                seen_mass_grid[key] = float(value)
                if not math.isfinite(seen_mass_grid[key]):
                    raise ValueError(f"{key} must be finite, got {value}")
            elif key in ("v_steps", "e_steps"):
                setattr(cfg, key, int(value))
            elif key == "threads":
                int(value)  # still read, so old configs parse; sweeps run serially
            elif key == "out":
                cfg.out = value
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if seen_mass_grid:
        missing = {"m_min", "m_max", "m_step"} - set(seen_mass_grid)
        if missing:
            raise ConfigError(f"incomplete mass grid: missing {sorted(missing)}")
        lo, hi, step = seen_mass_grid["m_min"], seen_mass_grid["m_max"], seen_mass_grid["m_step"]
        if step <= 0 or hi < lo or not math.isfinite((hi - lo) / step):
            raise ConfigError(f"bad mass grid: m_min={lo}, m_max={hi}, m_step={step}")
        count = math.floor((hi - lo) / step + 1e-9) + 1
        cfg.mass_grid = [lo + i * step for i in range(count)]
    return cfg


def parse_config(path: str | Path, overrides: list[str] | None = None) -> SweepConfig:
    """Read a flat key = value config file, then apply --set overrides.

    Keys: potential, a, b, m (or m_min/m_max/m_step), v, v_min, v_max,
    v_steps, tol, out, threads, e_steps.
    threads must be an integer but has no effect.  Blank lines and '#'
    comments are ignored.  Errors carry file:line positions.
    """
    pairs: list[tuple[str, str, str]] = []
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            pairs.append((key, value, f"{path}:{lineno}"))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"--set: unknown key {key!r}")
        pairs.append((key, value, f"--set {item}"))
    return _parse_assignments(pairs)


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.12g}"


@dataclass
class BoundsRow:
    v: float
    m: float
    e_kg: float | None
    E_srs: float | None
    E_gauss: float | None
    e0: float | None
    delta: float | None
    status: str

    def csv(self) -> str:
        return ",".join([
            _fmt(self.v), _fmt(self.m), _fmt(self.e_kg), _fmt(self.E_srs),
            _fmt(self.E_gauss), _fmt(self.e0), _fmt(self.delta), self.status,
        ])

    def ordering_ok(self, tol: float) -> bool:
        if self.status != "bound":
            return True
        if self.e_kg is None or self.E_srs is None:
            return True
        if self.e_kg > self.E_srs + tol:
            return False
        if self.E_gauss is not None and self.E_srs > self.E_gauss + tol:
            return False
        return True


def _bounds_row(cfg: SweepConfig, v: float, m: float) -> BoundsRow:
    from . import kleingordon, salpeter

    spec = cfg.potential(v)
    try:
        sol = kleingordon.solve(spec, m)
    except (NonConvergence, ValueError):
        return BoundsRow(v, m, None, None, None, None, None, "error")
    if sol.status is not kleingordon.KgStatus.BOUND:
        return BoundsRow(v, m, None, None, None, sol.e0, None, sol.status.value)
    try:
        e_srs = salpeter.ground_energy(spec, m).E
    except (NoBoundState, NonConvergence):
        return BoundsRow(v, m, sol.e, None, None, sol.e0, sol.delta_at_e, "error")
    e_gauss = None
    if cfg.kind is Kind.WOODS_SAXON:
        from . import gaussian_bound

        try:
            e_gauss = gaussian_bound.eg_optimized(m, cfg.a, cfg.b, v)
        except CouplingOutOfRange:
            e_gauss = None
    return BoundsRow(v, m, sol.e, e_srs, e_gauss, sol.e0, sol.delta_at_e, sol.status.value)


def run_bounds(cfg: SweepConfig) -> tuple[Path, int]:
    """One row per coupling: Klein-Gordon lower bound, direct energy,
    Gaussian upper bound (Woods-Saxon only), with the ordering verified.

    Returns (csv path, violation count); a summary comment line with the
    violation count is appended to the file.
    """
    if cfg.out is None:
        raise ConfigError("bounds needs an output file: set out = <path>")
    m = cfg.single_mass()
    couplings = cfg.coupling_grid()
    # the shape holds for the whole sweep, so one the Klein-Gordon solver
    # refuses at every coupling ends it, with the reason, rather than fill
    # it with error rows
    validate_shape(cfg.potential(couplings[0]), Theory.KLEIN_GORDON)
    rows = [_bounds_row(cfg, v, m) for v in couplings]
    violations = sum(0 if row.ordering_ok(cfg.tol) else 1 for row in rows)
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = [BOUNDS_HEADER] + [row.csv() for row in rows]
    lines.append(f"# ordering_violations={violations}")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out, violations


def _fcurve_lines(cfg: SweepConfig, v: float, e_values: list[float]) -> list[str]:
    from . import kleingordon

    points = kleingordon.curve(cfg.potential(v), e_values)
    status = "ok" if points else "empty"
    return [f"# v={v:.12g} status={status}", "e,F,F_prime,delta"] + kleingordon.curve_csv_rows(points)


def run_fcurves(cfg: SweepConfig) -> list[Path]:
    """Spectral-curve data: one F(e) file per coupling, the parabola family
    g(e) = e^2 - m^2 per mass, and one intersection record per (v, m)."""
    from . import kleingordon

    if cfg.out is None:
        raise ConfigError("fcurves needs an output directory: set out = <path>")
    if cfg.e_steps < 1:
        raise ConfigError(f"e_steps must be >= 1, got {cfg.e_steps}")
    masses = cfg.masses()
    couplings = cfg.coupling_grid()
    names: dict[str, float] = {}
    for v in couplings:
        clash = names.setdefault(f"fcurve_v{v:.6g}.csv", v)
        if clash != v:
            raise ConfigError(f"couplings v = {clash:.12g} and {v:.12g} share the file name fcurve_v{v:.6g}.csv")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    e_values = _energy_grid(max(masses), cfg.e_steps)
    written: list[Path] = []

    for name, v in names.items():
        path = out_dir / name
        path.write_text("\n".join(_fcurve_lines(cfg, v, e_values)) + "\n", encoding="utf-8")
        written.append(path)

    lines = ["m,e,g"]
    for m in masses:
        for e in e_values:
            # factored: e*e - m*m cancels to roundoff where e nears m
            lines.append(f"{m:.12g},{e:.12g},{(e - m) * (e + m):.12g}")
    parabolas = out_dir / "parabolas.csv"
    parabolas.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(parabolas)

    inter_lines = ["v,m,e,status"]
    for v in couplings:
        for m in masses:
            sol = kleingordon.solve(cfg.potential(v), m)
            inter_lines.append(f"{v:.12g},{m:.12g},{_fmt(sol.e)},{sol.status.value}")
    intersections = out_dir / "intersections.csv"
    intersections.write_text("\n".join(inter_lines) + "\n", encoding="utf-8")
    written.append(intersections)
    return written


def run_critical(cfg: SweepConfig, out=None) -> tuple[float, float]:
    """Print binding and supercritical coupling thresholds for the shape."""
    from . import kleingordon

    if cfg.kind is Kind.COULOMB:
        raise ConfigError("criticality is a coupling window for Coulomb, not a spectral threshold")
    m = cfg.single_mass()
    template = cfg.potential(1.0)
    lower = kleingordon.critical_coupling_lower(template, m)
    upper = kleingordon.critical_coupling_upper(template, m)
    print(f"potential={cfg.kind.value} m={m:.12g}", file=out)
    print(f"binding_threshold_v={lower:.6f} (root tol {kleingordon.COUPLING_XTOL:g})", file=out)
    print(f"supercritical_v={upper:.6f} (root tol {kleingordon.COUPLING_XTOL:g})", file=out)
    return lower, upper


def _cmd_kg(cfg: SweepConfig) -> int:
    from . import kleingordon

    sol = kleingordon.solve(cfg.potential(cfg.single_coupling()), cfg.single_mass())
    print(f"status={sol.status.value}")
    print(f"e={_fmt(sol.e)}")
    print(f"e0={_fmt(sol.e0)}")
    print(f"delta={_fmt(sol.delta_at_e)}")
    if sol.secondary_e is not None:
        print(f"secondary_e={_fmt(sol.secondary_e)}")
    return 0


def _cmd_salpeter(cfg: SweepConfig) -> int:
    from . import salpeter

    sol = salpeter.ground_energy(cfg.potential(cfg.single_coupling()), cfg.single_mass())
    print(f"E={sol.E:.12g}")
    print(f"basis_tail={sol.basis_tail:.3e}")
    for n, r_box, energy in sol.convergence_history:
        print(f"history N={n} R={r_box:.6g} E={energy:.12g}")
    return 0


def _cmd_gaussian(cfg: SweepConfig) -> int:
    from . import gaussian_bound

    if cfg.kind is not Kind.WOODS_SAXON:
        raise ConfigError("the Gaussian bound is derived for the woods-saxon kind only")
    m = cfg.single_mass()
    v = cfg.single_coupling()
    e_g = gaussian_bound.eg_optimized(m, cfg.a, cfg.b, v)
    print(f"E_g={e_g:.12g}")
    if cfg.out is not None:
        points = gaussian_bound.optimal_curve(m, cfg.a, cfg.b)
        path = Path(cfg.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = ["s,v,E_g,J1,J2,J3,J4"] + gaussian_bound.curve_csv_rows(points)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="salpeter-bounds",
        description="Two-sided bounds on semirelativistic ground-state energies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("fcurves", "export spectral-curve and parabola data"),
        ("bounds", "sweep couplings and verify the bound ordering"),
        ("critical", "binding and supercritical coupling thresholds"),
        ("kg", "single Klein-Gordon point"),
        ("salpeter", "single direct semirelativistic point"),
        ("gaussian", "single scale-optimized Gaussian bound"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override or supply a config entry")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, args.set)
        if args.command == "bounds":
            path, violations = run_bounds(cfg)
            print(f"wrote {path} (ordering violations: {violations})")
            return 2 if violations else 0
        if args.command == "fcurves":
            for path in run_fcurves(cfg):
                print(f"wrote {path}")
            return 0
        if args.command == "critical":
            run_critical(cfg)
            return 0
        if args.command == "kg":
            return _cmd_kg(cfg)
        if args.command == "salpeter":
            return _cmd_salpeter(cfg)
        if args.command == "gaussian":
            return _cmd_gaussian(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NoBoundState, NonConvergence, NonBindingSearchError, CouplingOutOfRange, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
