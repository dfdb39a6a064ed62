"""The benchmark worker runs one unit of each workload against this source tree.

A renamed function the benchmark imports, a changed kernel signature or a
sweep whose output drifts from perfbench/reference fails here, before a
benchmark run would.  No timing is asserted.  Traced runs must count the
sweeps' solves: a solve routed around the kernel entry points would hide from
the tracer and from the tests that count kernel calls.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Per traced unit, whatever the seed.  model.calls counts only the set-up:
# default_parameters and one wrap_configuration per commanded bend of each
# request; the sweep points build no Configuration through the model.
TRACED_COUNTS = {
    "stiffness_sweep": {"kernels.solve_deflection.calls": 200,
                        "kernels.solve_deflection.newton_iters": 639,
                        "model.calls": 6},
    "perching_sweep": {"kernels.solve_tip_constraint.calls": 42, "model.calls": 4},
}


@pytest.mark.parametrize("workload,trace", [
    ("stiffness_sweep", "0"),
    ("stiffness_sweep", "1"),
    ("perching_sweep", "0"),
    ("perching_sweep", "1"),
    ("point_queries", "0"),
    ("point_queries", "1"),
])
def test_worker_runs_workload(tmp_path, workload, trace):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", trace, "--workdir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0
    if trace == "1":
        expected = TRACED_COUNTS.get(workload, {})
        assert {name: result["metrics"][name]["value"] for name in expected} == expected
