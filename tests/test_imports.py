"""What each command loads, its BLAS threads, and the package's lazy exports.

Start-up is most of a command's wall time, and most of start-up is import
time, so each command imports only the solvers it runs.  These checks run
in child processes, whose sys.modules this test session cannot pollute,
and assert which scipy subpackages and package modules a command leaves
loaded, and that it leaves no OpenBLAS worker thread: a structural guard,
not a timing one.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import salpeterbounds as sb
from salpeterbounds import gaussian_bound, kleingordon, potentials

ROOT = Path(__file__).resolve().parents[1]
# without OPENBLAS_NUM_THREADS, which an in-process import of cli_report
# sets in this session: the children must show the CLI's own pin
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
CHILD_ENV["PYTHONPATH"] = str(ROOT / "src")

# runs cli_report.main on argv, then prints the loaded scipy and package
# modules, whether numpy and decimal are loaded, and the process's thread
# count (None where /proc/self/task is missing)
RUN_COMMAND = """
import json, os, sys
from salpeterbounds import cli_report
try:
    cli_report.main(sys.argv[1:])
except SystemExit:
    pass
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({"modules": sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "salpeterbounds")),
                  "numpy": "numpy" in sys.modules, "decimal": "decimal" in sys.modules, "threads": threads}))
"""

WOODS_SAXON = ["--set", "potential=woods-saxon", "--set", "v=2.0", "--set", "m=1"]
EXPONENTIAL = ["--set", "potential=exponential", "--set", "v=3.4", "--set", "m=1"]
COMMANDS = {
    "--help": ["--help"],
    "gaussian": ["gaussian", *WOODS_SAXON],
    "kg": ["kg", *WOODS_SAXON],
    "critical": ["critical", "--set", "potential=woods-saxon", "--set", "m=1"],
    "fcurves": ["fcurves", *WOODS_SAXON, "--set", "e_steps=5", "--set", "out=curves"],
    "bounds": ["bounds", *WOODS_SAXON, "--set", "out=rows.csv"],
    "salpeter": ["salpeter", *WOODS_SAXON],
    "kg-exponential": ["kg", *EXPONENTIAL],
    "critical-exponential": ["critical", "--set", "potential=exponential", "--set", "m=1"],
    "fcurves-exponential": ["fcurves", *EXPONENTIAL, "--set", "e_steps=5", "--set", "out=curves"],
    "bounds-coulomb": ["bounds", "--set", "potential=coulomb", "--set", "v=0.05", "--set", "m=1",
                       "--set", "out=rows.csv"],
    "kg-coulomb": ["kg", "--set", "potential=coulomb", "--set", "v=0.3", "--set", "m=1"],
    "bounds-exponential": ["bounds", *EXPONENTIAL, "--set", "out=rows.csv"],
    # float64 cannot sign some of these sums, and decimal sums them instead
    "critical-exponential-m10": ["critical", "--set", "potential=exponential", "--set", "m=10"],
    "kg-exponential-v20": ["kg", "--set", "potential=exponential", "--set", "v=20", "--set", "m=7"],
}
# scipy subpackages each command must not load
FORBIDDEN = {
    "--help": ("scipy",),
    "gaussian": ("scipy",),
    "bounds": ("scipy",),
    "salpeter": ("scipy",),
}
# the series of both short-range kinds and the Coulomb closed form run on no
# LAPACK: every Klein-Gordon command loads no scipy and no FD module
NO_LAPACK = ("kg", "critical", "fcurves", "kg-exponential", "critical-exponential", "fcurves-exponential",
             "bounds-coulomb", "kg-coulomb", "bounds-exponential", "critical-exponential-m10", "kg-exponential-v20")
FORBIDDEN.update(dict.fromkeys(NO_LAPACK, ("scipy",)))
# cli_report and potentials load the standard library alone, so help and the
# Klein-Gordon commands on a series or the Coulomb closed form start without
# numpy
NO_NUMPY = ("--help", "kg", "critical", "fcurves", "kg-exponential", "critical-exponential", "fcurves-exponential",
            "kg-coulomb", "critical-exponential-m10", "kg-exponential-v20")
# at m = 1 every exponential and Woods-Saxon sum has a certain float64 sign
NO_DECIMAL = ("kg", "critical", "fcurves", "kg-exponential", "critical-exponential", "fcurves-exponential",
              "bounds-exponential")


def _loaded(modules, package):
    return [m for m in modules if m == package or m.startswith(package + ".")]


@pytest.fixture(scope="module")
def command_runs(tmp_path_factory):
    """Modules and threads each command leaves, all children run at once."""
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


@pytest.fixture(scope="module")
def loaded_modules(command_runs):
    return {name: run["modules"] for name, run in command_runs.items()}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_runs_blas_on_one_thread(command_runs, command):
    # OpenBLAS starts a worker per extra core when it loads; on one core
    # there is none to start, so this holds there at any setting
    threads = command_runs[command]["threads"]
    if threads is None:
        pytest.skip("no /proc/self/task")
    assert threads == 1


@pytest.mark.parametrize("setting, expected", [(None, "1"), ("2", "2")])
def test_cli_pin_keeps_a_user_setting(setting, expected):
    env = CHILD_ENV if setting is None else dict(CHILD_ENV, OPENBLAS_NUM_THREADS=setting)
    probe = "import os, salpeterbounds.cli_report; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [expected]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_loads_only_its_solvers(loaded_modules, command):
    for package in FORBIDDEN[command]:
        assert _loaded(loaded_modules[command], package) == []


def test_bounds_loads_no_scipy(loaded_modules):
    # the sine-basis solver and the Gaussian bound run on numpy alone, and
    # the Woods-Saxon curve on its series
    assert _loaded(loaded_modules["bounds"], "scipy") == []


def test_salpeter_command_loads_no_scipy(loaded_modules):
    assert _loaded(loaded_modules["salpeter"], "scipy") == []


@pytest.mark.parametrize("command", NO_LAPACK)
def test_exact_curve_commands_load_no_finite_difference_layer(loaded_modules, command):
    assert _loaded(loaded_modules[command], "scipy") == []
    for module in ("radial_schrodinger", "_lapack"):
        assert f"salpeterbounds.{module}" not in loaded_modules[command]


@pytest.mark.parametrize("command", NO_NUMPY)
def test_command_loads_no_numpy(command_runs, command):
    assert command_runs[command]["numpy"] is False


@pytest.mark.parametrize("command", NO_DECIMAL)
def test_command_loads_no_decimal(command_runs, command):
    assert command_runs[command]["decimal"] is False


# pyproject allows Python 3.10, which has no numpy in some installs and no
# prec= keyword of decimal.localcontext
OLDEST_PYTHON = "python3.10"
RUN_MAIN = "import sys; from salpeterbounds import cli_report; sys.exit(cli_report.main(sys.argv[1:]))"


def _oldest_python_env() -> dict | None:
    """CHILD_ENV, or CHILD_ENV with PYENV_VERSION naming an installed 3.10
    where OLDEST_PYTHON is a pyenv shim that does not start without it;
    None where no 3.10 starts."""
    try:
        versions = subprocess.run(["pyenv", "versions", "--bare"], capture_output=True, text=True,
                                  timeout=60).stdout.split()
    except OSError:
        versions = []
    for env in [CHILD_ENV, *({**CHILD_ENV, "PYENV_VERSION": v} for v in versions if v.startswith("3.10."))]:
        try:
            if subprocess.run([OLDEST_PYTHON, "-c", "pass"], env=env, capture_output=True, timeout=60).returncode == 0:
                return env
        except OSError:
            pass
    return None


@pytest.mark.parametrize("command", ["critical", "critical-exponential-m10", "kg-exponential-v20"])
def test_numpy_free_command_runs_on_the_oldest_python(command, tmp_path):
    oldest_env = _oldest_python_env()
    if oldest_env is None:
        pytest.skip(f"{OLDEST_PYTHON} does not start")
    runs = [subprocess.run([python, "-c", RUN_MAIN, *COMMANDS[command]], env=env, cwd=tmp_path,
                           capture_output=True, text=True, timeout=300)
            for python, env in ((OLDEST_PYTHON, oldest_env), (sys.executable, CHILD_ENV))]
    assert runs[0].returncode == 0, runs[0].stderr
    assert (runs[0].stdout, runs[0].stderr) == (runs[1].stdout, runs[1].stderr)


@pytest.mark.parametrize("command", ["--help", *NO_LAPACK])
def test_gaussian_bound_loads_only_where_it_runs(loaded_modules, command):
    assert "salpeterbounds.gaussian_bound" not in loaded_modules[command]


def test_salpeter_command_loads_no_finite_difference_layer(loaded_modules):
    # the sine-basis solver sits on potentials alone
    for module in ("kleingordon", "radial_schrodinger", "_lapack"):
        assert f"salpeterbounds.{module}" not in loaded_modules["salpeter"]


# library users may import the package before scipy.linalg or after it;
# either way both share the one extension module
IMPORT_ORDERS = {
    "package first": ["salpeterbounds._lapack", "scipy.linalg", "scipy.linalg.lapack", "scipy.sparse.linalg"],
    "scipy first": ["scipy.linalg", "scipy.linalg.lapack", "scipy.sparse.linalg", "salpeterbounds._lapack"],
}
CHECK_SCIPY = """
import importlib, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
import numpy as np
import scipy.linalg, scipy.linalg.lapack
from scipy.sparse.linalg import lobpcg
from salpeterbounds import _lapack
assert scipy.linalg.lapack.dstebz is _lapack.dstebz
n = 200
a = np.diag(np.arange(1.0, n + 1)) + np.diag(np.full(n - 1, 0.1), 1) + np.diag(np.full(n - 1, 0.1), -1)
w, v = scipy.linalg.eigh(a)
assert np.allclose(a @ v, v * w)
assert np.allclose(w, _lapack.eigh_tridiagonal(
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
            "NoBoundState": (kleingordon,),
            "NonConvergence": (kleingordon,),
            "NonBindingSearchError": (kleingordon,),
            "CouplingOutOfRange": (gaussian_bound,),
        }
        for name, modules in reexported.items():
            home = getattr(potentials, name)
            assert getattr(sb, name) is home
            assert all(getattr(module, name) is home for module in modules)
