"""Default sweep output against the truth files, and the golden-data rule.

``tests/data/*_truth.csv`` hold the default sweeps' distinct points solved
at 40 digits by the exact model (``tests/make_truth.py``,
``tests/exact_model.py``), which uses none of the library's solvers.  The
sweep CSVs must stay near them, and a change to a default sweep's golden bytes
(``tests/data/stiffness.csv`` and ``tests/data/perching_{x,z}.csv``, see
test_cli) must keep every value within the benchmark's bound of its
``perfbench/reference`` CSV and move none of them away from the truth.
"""

import ast
import csv
from pathlib import Path

import pytest

import ccarm.sim
import exact_model
import make_truth
from ccarm import cli

REFERENCE = make_truth.DATA.parents[1] / "perfbench" / "reference"
DISP_COLUMNS = slice(4, 7)        # disp_x_m, disp_y_m, disp_z_m of a stiffness row
WRENCH_COLUMNS = slice(1, 7)      # fx_N ... mz_Nm of a perching row

# The default stiffness output and its reference CSV are up to 7.7e-12 m from
# the truth, rounded up: the deflection solves stop at 5e-11 N*m.
STIFFNESS_TRUTH_TOL = 1e-11       # m
# The default perching output and its reference CSVs are up to 7.1e-7 N (N*m)
# from the truth, rounded up: the IK stops at 1e-8 m.
PERCHING_TRUTH_TOL = 1e-6         # N, N*m
# perfbench's DISP_ABS_TOL: the benchmark fails a row farther than this.
REFERENCE_DISP_TOL = 1e-12        # m
# perfbench's WRENCH_REL_TOL: the benchmark fails a row farther than this
# share of the column's largest magnitude in the reference.
REFERENCE_WRENCH_REL_TOL = 1e-9


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


def _assert_truth_rule(rows, reference, columns, tolerances, truth_of):
    # Every column outside `columns` unchanged; each value inside within its
    # tolerance of the reference and no farther than it from the truth.
    assert len(rows) == len(reference)
    for row, ref in zip(rows, reference):
        assert row[:columns.start] == ref[:columns.start]
        assert row[columns.stop:] == ref[columns.stop:]
        for got, was, want, tol in zip(row[columns], ref[columns], truth_of(row), tolerances):
            got, was = float(got), float(was)
            assert abs(got - was) <= tol, (row, ref)
            assert abs(got - want) <= abs(was - want), (row, ref)


def test_stiffness_golden_bytes_follow_the_truth_rule(default_sweeps):
    # A re-baseline of the stiffness sweep may move a displacement only
    # within the benchmark's bound, only toward the truth, and never its
    # status or iteration count.
    truth = _stiffness_truth()
    _assert_truth_rule(default_sweeps["stiffness"], _rows(REFERENCE / "stiffness.csv"),
                       DISP_COLUMNS, [REFERENCE_DISP_TOL] * 3,
                       lambda row: truth[_stiffness_key(row[0], row[3])])


@pytest.mark.parametrize("axis", ["x", "z"])
def test_perching_golden_bytes_follow_the_truth_rule(default_sweeps, axis):
    # The same rule for a perching sweep: a reaction may move only within the
    # benchmark's bound, only toward the truth, and never its offset or status.
    truth = {round(float(row[1]), 9): [float(v) for v in row[2:]]
             for row in _rows(make_truth.PERCHING_TRUTH) if row[0] == axis}
    reference = _rows(REFERENCE / f"perching_{axis}.csv")
    tolerances = [REFERENCE_WRENCH_REL_TOL * max(abs(float(row[i])) for row in reference)
                  for i in range(WRENCH_COLUMNS.start, WRENCH_COLUMNS.stop)]
    _assert_truth_rule(default_sweeps[f"perching_{axis}"], reference, WRENCH_COLUMNS,
                       tolerances, lambda row: truth[round(float(row[0]), 9)])


def test_truth_files_match_their_generator():
    # Every truth row re-solved by the generator, to the last digit written:
    # a change to the exact model or to the default parameters must
    # regenerate the files.
    assert make_truth.stiffness_rows() == _rows(make_truth.STIFFNESS_TRUTH)
    assert make_truth.perching_rows() == _rows(make_truth.PERCHING_TRUTH)


def test_truth_is_independent_of_the_kernel(monkeypatch):
    # The generator solves no point through the library: with the deflection
    # kernel, the IK and the tension allocation patched to raise, it still
    # gives the committed rows, and the model and the generator import
    # nothing from ccarm but default_parameters and STANDARD_GRAVITY.
    def refuse(*args):
        raise AssertionError("the truth called a library solver")

    for module, name in ((ccarm.sim.core, "solve_deflection"),
                         (ccarm.sim.core, "solve_tip_constraint"), (ccarm.sim, "_allocation")):
        monkeypatch.setattr(module, name, refuse)
    assert make_truth.stiffness_rows() == _rows(make_truth.STIFFNESS_TRUTH)
    assert make_truth.perching_rows() == _rows(make_truth.PERCHING_TRUTH)
    imported = set()
    for module in (exact_model, make_truth):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {(alias.name, None) for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported |= {(node.module, alias.name) for alias in node.names}
    assert {(name, what) for name, what in imported if name.split(".")[0] == "ccarm"} == {
        ("ccarm", "default_parameters"), ("ccarm.sim", "STANDARD_GRAVITY")}
