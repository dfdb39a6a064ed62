"""The benchmark worker runs one unit of each workload against this source tree.

A renamed function the benchmark imports, a changed kernel signature or a
sweep whose output drifts from perfbench/reference fails here, before a
benchmark run would.  No timing is asserted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
