"""What each command loads, and the package's lazy exports.

Start-up is most of a command's wall time, and most of start-up is import
time, so each command imports only the solvers it runs.  These checks run
in child processes, whose sys.modules this test session cannot pollute,
and assert which scipy subpackages and package modules a command leaves
loaded: a structural guard, not a timing one.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import salpeterbounds as sb
from salpeterbounds import gaussian_bound, kleingordon, potentials, radial_schrodinger

ROOT = Path(__file__).resolve().parents[1]
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# runs cli_report.main on argv, then prints the loaded scipy and package modules
RUN_COMMAND = """
import json, sys
from salpeterbounds import cli_report
try:
    cli_report.main(sys.argv[1:])
except SystemExit:
    pass
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "salpeterbounds"))))
"""

WOODS_SAXON = ["--set", "potential=woods-saxon", "--set", "v=2.0", "--set", "m=1"]
COMMANDS = {
    "--help": ["--help"],
    "gaussian": ["gaussian", *WOODS_SAXON],
    "kg": ["kg", *WOODS_SAXON],
    "critical": ["critical", "--set", "potential=exponential", "--set", "m=1"],
    "fcurves": ["fcurves", *WOODS_SAXON, "--set", "e_steps=5", "--set", "out=curves"],
    "bounds": ["bounds", *WOODS_SAXON, "--set", "basis_size=64", "--set", "out=rows.csv"],
    "salpeter": ["salpeter", *WOODS_SAXON, "--set", "basis_size=64"],
}
# scipy subpackages each command must not load
FORBIDDEN = {
    "--help": ("scipy",),
    "gaussian": ("scipy",),
    "kg": ("scipy.optimize", "scipy.sparse", "scipy.fft"),
    "critical": ("scipy.optimize", "scipy.sparse", "scipy.fft"),
    "fcurves": ("scipy.optimize", "scipy.sparse", "scipy.fft"),
    "bounds": ("scipy.optimize",),
    "salpeter": ("scipy.optimize",),
}
# the Klein-Gordon commands load LAPACK's extension module and no scipy package
KLEIN_GORDON = ("kg", "critical", "fcurves")


def _loaded(modules, package):
    return [m for m in modules if m == package or m.startswith(package + ".")]


@pytest.fixture(scope="module")
def loaded_modules(tmp_path_factory):
    """The scipy modules left loaded by each command, all children run at once."""
    procs = {}
    for name, argv in COMMANDS.items():
        cwd = tmp_path_factory.mktemp("cmd")
        procs[name] = subprocess.Popen(
            [sys.executable, "-c", RUN_COMMAND, *argv],
            env=CHILD_ENV, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    out = {}
    for name, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        out[name] = json.loads(stdout.splitlines()[-1])
    return out


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_loads_only_its_solvers(loaded_modules, command):
    for package in FORBIDDEN[command]:
        assert _loaded(loaded_modules[command], package) == []


@pytest.mark.parametrize("command", KLEIN_GORDON)
def test_kleingordon_commands_load_only_the_lapack_extension(loaded_modules, command):
    assert _loaded(loaded_modules[command], "scipy") == ["scipy.linalg._flapack"]


@pytest.mark.parametrize("command", ["--help", *KLEIN_GORDON])
def test_gaussian_bound_loads_only_where_it_runs(loaded_modules, command):
    assert "salpeterbounds.gaussian_bound" not in loaded_modules[command]


# library users may import the package before scipy.linalg or after it;
# either way both share the one extension module
IMPORT_ORDERS = {
    "package first": ["salpeterbounds.radial_schrodinger", "scipy.linalg", "scipy.linalg.lapack",
                      "scipy.sparse.linalg"],
    "scipy first": ["scipy.linalg", "scipy.linalg.lapack", "scipy.sparse.linalg",
                    "salpeterbounds.radial_schrodinger"],
}
CHECK_SCIPY = """
import importlib, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
import numpy as np
import scipy.linalg, scipy.linalg.lapack
from scipy.sparse.linalg import lobpcg
from salpeterbounds import radial_schrodinger
assert scipy.linalg.lapack.dpttrf is radial_schrodinger.dpttrf
assert scipy.linalg.lapack.dstein is radial_schrodinger.dstein
n = 200
a = np.diag(np.arange(1.0, n + 1)) + np.diag(np.full(n - 1, 0.1), 1) + np.diag(np.full(n - 1, 0.1), -1)
w, v = scipy.linalg.eigh(a)
assert np.allclose(a @ v, v * w)
assert np.allclose(w, radial_schrodinger.eigh_tridiagonal(
    np.diag(a), np.diag(a, 1), select="i", select_range=(0, n - 1), eigvals_only=True, tol=0.0))
x = np.random.default_rng(0).normal(size=(n, 1))
lam, _ = lobpcg(a, x, largest=False, tol=1e-10, maxiter=500)
assert abs(lam[0] - w[0]) < 1e-8
print("ok")
"""


@pytest.mark.parametrize("order", list(IMPORT_ORDERS))
def test_scipy_linalg_works_in_either_import_order(order):
    proc = subprocess.run([sys.executable, "-c", CHECK_SCIPY, *IMPORT_ORDERS[order]], env=CHILD_ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


def test_package_import_loads_no_scipy():
    probe = "import json, sys, salpeterbounds; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=CHILD_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _loaded(json.loads(proc.stdout), "scipy") == []


class TestLazyExports:
    def test_every_name_is_its_home_modules_object(self):
        for name in sb.__all__:
            home = importlib.import_module(f"salpeterbounds.{sb._HOME[name]}")
            assert getattr(sb, name) is getattr(home, name)

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from salpeterbounds import *", namespace)
        assert set(sb.__all__) <= set(namespace)
        assert all(namespace[name] is getattr(sb, name) for name in sb.__all__)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            sb.no_such_name

    def test_exception_identity(self):
        # the solvers re-export the exceptions that now live in potentials
        reexported = {
            "NoBoundState": (radial_schrodinger, kleingordon),
            "NonConvergence": (radial_schrodinger,),
            "NonBindingSearchError": (kleingordon,),
            "CouplingOutOfRange": (gaussian_bound,),
        }
        for name, modules in reexported.items():
            home = getattr(potentials, name)
            assert getattr(sb, name) is home
            assert all(getattr(module, name) is home for module in modules)
