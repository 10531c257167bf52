"""What each command loads, and the package's lazy exports.

Start-up is most of a command's wall time, and most of start-up is import
time, so each command imports only the solvers it runs.  These checks run
in child processes, whose sys.modules this test session cannot pollute,
and assert which scipy subpackages a command leaves loaded: a structural
guard, not a timing one.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import salpeterbounds as sb
from salpeterbounds import kleingordon, potentials, radial_schrodinger

ROOT = Path(__file__).resolve().parents[1]
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# runs cli_report.main on argv, then prints the loaded scipy modules
RUN_COMMAND = """
import json, sys
from salpeterbounds import cli_report
try:
    cli_report.main(sys.argv[1:])
except SystemExit:
    pass
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
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
        }
        for name, modules in reexported.items():
            home = getattr(potentials, name)
            assert getattr(sb, name) is home
            assert all(getattr(module, name) is home for module in modules)
