"""The package surface: lazy public names, a sweep path without numpy, and
no kernel function that only the tests call.

``import ccarm`` binds its public names and submodules on first access, so
a CLI sweep process never loads numpy.  The numpy-free runs happen in a
child interpreter in which ``import numpy`` fails.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ccarm

GOLDEN = Path(__file__).resolve().parent / "data"
SOURCE = str(Path(ccarm.__file__).resolve().parents[1])

# Set before anything imports ccarm: a later `import numpy` raises ImportError.
BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None\n"
RUN_CLI = BLOCK_NUMPY + (
    "import runpy\n"
    "sys.argv = ['ccarm'] + sys.argv[1:]\n"
    "runpy.run_module('ccarm', run_name='__main__')\n")


def run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SOURCE, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)


# ------------------------------------------------------------ lazy package

def test_every_public_name_resolves():
    for name in ccarm.__all__:
        assert getattr(ccarm, name) is not None, name
    assert set(dir(ccarm)) >= set(ccarm.__all__)


def test_star_import_binds_all_public_names():
    namespace = {}
    exec("from ccarm import *", namespace)
    assert set(ccarm.__all__) <= set(namespace)
    for name in ccarm.__all__:
        assert namespace[name] is getattr(ccarm, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        ccarm.not_a_name  # noqa: B018
    assert not hasattr(ccarm, "numpy")


def test_bare_import_reaches_submodules():
    # What the benchmark worker reads after importing only ccarm.
    proc = run_python(
        "import sys, ccarm\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('ccarm.'))\n"
        "print(loaded)\n"
        "assert callable(ccarm.kinematics.forward_kinematics)\n"
        "assert callable(ccarm.sim.solve_deflection)\n"
        "assert callable(ccarm.statics.allocate_tensions)\n"
        "assert callable(ccarm.stiffness.task_stiffness)\n"
        "assert callable(ccarm._kernels.core.solve_deflection)\n"
        "assert callable(ccarm.cli.main) and ccarm.errors.CcarmError\n"
        "assert ccarm.model.Configuration is ccarm.Configuration\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------------ without numpy

def test_default_parameters_without_numpy():
    proc = run_python(BLOCK_NUMPY + (
        "import ccarm\n"
        "params = ccarm.default_parameters()\n"
        "assert params.tendon_count == 4\n"
        "psi = ccarm.wrap_configuration(-0.5, 0.0)\n"
        "assert (psi.theta, psi.delta) == (0.5, 3.141592653589793)\n"
        "print(ccarm.backend_name())\n"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "pure-python"


def test_import_and_parameters_leave_numpy_unloaded():
    proc = run_python("import sys, ccarm; ccarm.default_parameters(); "
                      "print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("experiment,extra,reference", [
    ("stiffness", [], "stiffness.csv"),
    ("perching", ["--axis", "x"], "perching_x.csv"),
    ("perching", ["--axis", "z"], "perching_z.csv"),
])
def test_default_sweeps_without_numpy(tmp_path, experiment, extra, reference):
    out_file = tmp_path / reference
    proc = run_python(RUN_CLI, "sweep", "--experiment", experiment, "--out", str(out_file),
                      *extra)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out_file.read_bytes() == (GOLDEN / reference).read_bytes()


def test_cli_version_and_usage_errors_without_numpy(tmp_path):
    proc = run_python(RUN_CLI, "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"ccarm {ccarm.__version__} (pure-python kernels)"
    proc = run_python(RUN_CLI, "sweep", "--experiment", "perching",
                      "--out", str(tmp_path / "bad.csv"), "--step-mm", "0")
    assert proc.returncode == 2
    assert proc.stderr == "error: --step-mm must be finite and positive, got 0\n"
    assert not (tmp_path / "bad.csv").exists()


def test_cli_import_loads_neither_tempfile_nor_json():
    """``import ccarm.cli`` leaves tempfile and json unloaded.

    The CSV write needs no tempfile, and only ``jacobians --json`` imports
    json.  The child runs under ``python -S``: ``site`` may import tempfile
    itself, through a ``.pth`` file (it does on some installations), which
    would hide what ccarm imports.
    """
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, ccarm.cli; print([m for m in ('tempfile', 'json') if m in sys.modules])"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SOURCE), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------------------ kernel callers

def test_every_kernel_function_has_a_caller_outside_the_tests():
    # A kernel function counts as used where its name is read in the package
    # or the benchmark, other than inside its own definition.
    package = Path(ccarm.__file__).resolve().parent
    kernel = package / "_kernels" / "_purecore.py"
    sources = [*package.rglob("*.py"),
               *(Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")]
    defined = [node.name for node in ast.parse(kernel.read_text(encoding="utf-8")).body
               if isinstance(node, ast.FunctionDef)]
    used = set()
    for path in sources:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))}
            if path == kernel:
                names.discard(getattr(top, "name", None))
            used |= names
    assert defined and [name for name in defined if name not in used] == []
