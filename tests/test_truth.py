"""Default sweep output against the truth files, and the golden-data rule.

``tests/data/*_truth.csv`` hold the default sweeps' distinct points solved
with tight tolerances (``tests/make_truth.py``).  The sweep CSVs must stay
near them, and a change to the stiffness sweep's golden bytes
(``tests/data/stiffness.csv``) must keep every value within the benchmark's
bound of ``perfbench/reference/stiffness.csv`` and move none of them away
from the truth.  The perching sweeps' golden bytes are still
``perfbench/reference/perching_*.csv`` (see test_cli).
"""

import csv
import math

import pytest

import make_truth
from ccarm import cli

REFERENCE = make_truth.DATA.parents[1] / "perfbench" / "reference"
DISP_COLUMNS = slice(4, 7)        # disp_x_m, disp_y_m, disp_z_m of a stiffness row
WRENCH_COLUMNS = slice(1, 7)      # fx_N ... mz_Nm of a perching row

# The reference stiffness CSV is up to 7.7e-12 m from the truth, rounded up.
STIFFNESS_TRUTH_TOL = 1e-11       # m
# The default perching output is up to 7.0e-7 N (N*m) from the truth, rounded
# up: its IK stops at 1e-8 m, the truth's at 3e-10 m.
PERCHING_TRUTH_TOL = 1e-6         # N, N*m
# perfbench's DISP_ABS_TOL: the benchmark fails a row farther than this.
REFERENCE_DISP_TOL = 1e-12        # m


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _stiffness_key(theta_deg, load):
    return float(theta_deg), round(float(load), 9)


def _stiffness_truth():
    return {_stiffness_key(row[0], row[1]): [float(v) for v in row[2:]]
            for row in _rows(make_truth.STIFFNESS_TRUTH)}


@pytest.fixture(scope="module")
def default_sweeps(tmp_path_factory):
    # The default CSVs as `ccarm sweep` writes them: stiffness, perching x, z.
    out = tmp_path_factory.mktemp("sweeps")
    runs = {"stiffness": [], "perching_x": ["--axis", "x"], "perching_z": ["--axis", "z"]}
    sweeps = {}
    for name, extra in runs.items():
        path = out / f"{name}.csv"
        experiment = name.split("_")[0]
        assert cli.main(["sweep", "--experiment", experiment, "--out", str(path), *extra]) == 0
        sweeps[name] = _rows(path)
    return sweeps


def test_default_stiffness_sweep_is_near_truth(default_sweeps):
    truth = _stiffness_truth()
    rows = default_sweeps["stiffness"]
    assert len(rows) == 250 and len(truth) == 30
    for row in rows:
        expected = truth[_stiffness_key(row[0], row[3])]
        for got, want in zip(row[DISP_COLUMNS], expected):
            assert abs(float(got) - want) <= STIFFNESS_TRUTH_TOL, row


def test_default_perching_sweeps_are_near_truth(default_sweeps):
    truth = {(row[0], round(float(row[1]), 9)): [float(v) for v in row[2:]]
             for row in _rows(make_truth.PERCHING_TRUTH)}
    for axis in ("x", "z"):
        rows = default_sweeps[f"perching_{axis}"]
        assert len(rows) == 41
        for row in rows:
            expected = truth[axis, round(float(row[0]), 9)]
            for got, want in zip(row[WRENCH_COLUMNS], expected):
                assert abs(float(got) - want) <= PERCHING_TRUTH_TOL, row


def test_stiffness_golden_bytes_follow_the_truth_rule(default_sweeps):
    # A re-baseline of the stiffness sweep may move a displacement only
    # within the benchmark's bound, only toward the truth, and never its
    # status or iteration count.
    truth = _stiffness_truth()
    rows = default_sweeps["stiffness"]
    reference = _rows(REFERENCE / "stiffness.csv")
    assert len(rows) == len(reference)
    for row, ref in zip(rows, reference):
        assert row[:4] == ref[:4]
        assert row[7:] == ref[7:]         # iterations, status
        expected = truth[_stiffness_key(row[0], row[3])]
        for got, was, want in zip(row[DISP_COLUMNS], ref[DISP_COLUMNS], expected):
            got, was = float(got), float(was)
            assert abs(got - was) <= REFERENCE_DISP_TOL, (row, ref)
            assert abs(got - want) <= abs(was - want), (row, ref)


def test_truth_files_match_their_generator():
    # One bend and one perching axis re-solved by the generator: a solver
    # change that moves the truth beyond round-off must regenerate the files.
    committed = _rows(make_truth.STIFFNESS_TRUTH)
    fresh = make_truth.stiffness_rows([30])
    assert len(fresh) == 6
    for row in fresh:
        match = [r for r in committed if r[:2] == row[:2]]
        assert len(match) == 1
        for got, want in zip(row[2:], match[0][2:]):
            assert math.isclose(float(got), float(want), rel_tol=0.0, abs_tol=1e-15), row
    committed = _rows(make_truth.PERCHING_TRUTH)
    assert make_truth.perching_rows(["z"]) == [r for r in committed if r[0] == "z"]
