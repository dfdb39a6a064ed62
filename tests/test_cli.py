import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ccarm
from ccarm import (__version__, backend_name, cli, dump_parameters,
                   run_perching_sweep, run_stiffness_sweep, wrap_configuration)

# The golden bytes of the three default sweeps.
GOLDEN = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _floats(line):
    return [float(v) for v in line.split()[1:]]


# ------------------------------------------------------------------- pose

def test_pose_home(capsys):
    code, out, _ = run_cli(capsys, "pose", "--theta-deg", "0", "--delta-deg", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert _floats(lines[0]) == pytest.approx([0.0, 0.0, 0.25])
    assert _floats(lines[1]) == pytest.approx(np.eye(3).ravel().tolist())


def test_pose_quarter_circle(capsys):
    code, out, _ = run_cli(capsys, "pose", "--theta-deg", "90")
    assert code == 0
    pos = _floats(out.splitlines()[0])
    expect = 2 * 0.25 / math.pi
    assert pos == pytest.approx([expect, 0.0, expect], rel=1e-11)


def test_pose_delta_equivariance(capsys):
    code, out, _ = run_cli(capsys, "pose", "--theta-deg", "90", "--delta-deg", "90")
    assert code == 0
    pos = _floats(out.splitlines()[0])
    expect = 2 * 0.25 / math.pi
    assert pos == pytest.approx([0.0, expect, expect], rel=1e-11, abs=1e-15)


def test_pose_prints_12_significant_digits(capsys):
    _, out, _ = run_cli(capsys, "pose", "--theta-deg", "90")
    token = out.splitlines()[0].split()[1]
    assert len(token.replace(".", "").replace("-", "").lstrip("0")) >= 12


# -------------------------------------------------------------- jacobians

def test_jacobians_check_report(capsys):
    code, out, _ = run_cli(capsys, "jacobians", "--theta-deg", "45",
                           "--delta-deg", "30", "--check")
    assert code == 0
    report = {line.split()[0]: line.split()[1] for line in out.splitlines()
              if line.startswith(("vectorized", "fd_rel"))}
    assert float(report["vectorized_vs_analytic_max_abs"]) < 1e-10
    assert float(report["fd_rel_err_j_q_psi"]) < 1e-6
    assert float(report["fd_rel_err_j_v_psi"]) < 1e-6


@pytest.mark.parametrize("theta_deg", ["0", "1e-5", "5e-5"])
def test_jacobians_check_near_straight(capsys, theta_deg):
    # the finite-difference stencil steps theta below zero here; the check
    # must evaluate that point as the same arc, not reject it
    code, out, err = run_cli(capsys, "jacobians", "--theta-deg", theta_deg,
                             "--delta-deg", "30", "--check")
    assert (code, err) == (0, "")
    report = {line.split()[0]: float(line.split()[1]) for line in out.splitlines()
              if line.startswith("fd_rel")}
    assert sorted(report) == ["fd_rel_err_j_q_psi", "fd_rel_err_j_v_psi"]
    assert all(math.isfinite(v) for v in report.values())
    assert report["fd_rel_err_j_v_psi"] < 1e-6


def test_jacobians_check_on_a_long_arm(capsys, tmp_path, params):
    # at a 1e308 m backbone the Jacobians' squared norms overflowed: numpy
    # warned (an error in this suite) and fd_rel_err_j_v_psi read nan
    import dataclasses
    path = tmp_path / "long.params"
    path.write_text(dump_parameters(dataclasses.replace(params, backbone_length=1e308)))
    code, out, err = run_cli(capsys, "jacobians", "--theta-deg", "30", "--check",
                             "--params", str(path))
    assert (code, err) == (0, "")
    errors = [float(line.split()[1]) for line in out.splitlines() if line.startswith("fd_rel")]
    assert len(errors) == 2 and all(e < 1e-6 for e in errors)


def test_jacobians_rank_warning_at_straight(capsys):
    code, out, _ = run_cli(capsys, "jacobians", "--theta-deg", "0")
    assert code == 0
    assert "j_x_psi_rank 1" in out
    assert "warning: singular configuration" in out


def test_jacobians_json_round_trip(capsys, params):
    code, out, _ = run_cli(capsys, "jacobians", "--theta-deg", "33.3",
                           "--delta-deg", "-58", "--json")
    assert code == 0
    doc = json.loads(out)
    from ccarm import jacobian_v_psi
    psi = wrap_configuration(math.radians(33.3), math.radians(-58))
    assert doc["theta_rad"] == psi.theta  # repr round trip, no precision loss
    assert np.array_equal(np.array(doc["j_v_psi"]), jacobian_v_psi(params, psi))
    assert doc["j_x_psi_rank"] == 2


# -------------------------------------------------------------- stiffness

def test_stiffness_singular_exit_code(capsys):
    code, _, err = run_cli(capsys, "stiffness", "--theta-deg", "0")
    assert code == 4
    assert "sigma_min" in err


def test_tiny_bend_is_singular_not_infeasible(capsys, tmp_path):
    # at 5e-10 deg the allocated tensions are about 1e-12 N; the allocation's
    # tolerances are relative to that size, so the point is the straight
    # singularity (exit 4, as at 0 deg) and a sweep through it succeeds
    code, _, err = run_cli(capsys, "stiffness", "--theta-deg", "5e-10", "--delta-deg", "28")
    assert code == cli.EXIT_SINGULAR and "sigma_min" in err
    out = tmp_path / "tiny.csv"
    code, _, _ = run_cli(capsys, "sweep", "--experiment", "stiffness", "--configs-deg", "5e-10",
                         "--delta-deg", "28", "--out", str(out))
    assert code == cli.EXIT_OK
    rows = out.read_text().splitlines()[1:]
    assert rows and all(row.endswith(",ok") for row in rows)


def test_stiffness_equilibrium(capsys):
    code, out, _ = run_cli(capsys, "stiffness", "--theta-deg", "30", "--equilibrium")
    assert code == 0
    assert "k_psi" in out and "k_x" in out
    k_q_line = next(line for line in out.splitlines() if line.startswith("k_q_diag"))
    assert _floats(k_q_line) == pytest.approx([1580.0] * 4)


def test_stiffness_explicit_zero_tensions(capsys, params):
    code, out, _ = run_cli(capsys, "stiffness", "--theta-deg", "30",
                           "--tensions", "0,0,0,0")
    assert code == 0
    lines = out.splitlines()
    k_psi = np.array([[float(v) for v in lines[i].split()] for i in (1, 2)])
    from ccarm import configuration_stiffness
    psi = wrap_configuration(math.radians(30), 0.0)
    assert np.allclose(k_psi, configuration_stiffness(params, psi, np.zeros(4)),
                       rtol=1e-11)


def test_stiffness_bad_tension_count(capsys):
    code, _, err = run_cli(capsys, "stiffness", "--theta-deg", "30",
                           "--tensions", "1,2,3")
    assert code == 2
    assert "tensions" in err


def test_negative_tension_message_prints_plain_number(capsys):
    code, out, err = run_cli(capsys, "stiffness", "--theta-deg", "30",
                             "--tensions=-1,0,0,0")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "negative tendon tension: -1.0" in err
    assert "np.float64" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["stiffness", "stiffness_sweep", "perching_sweep"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_pretension_exit_usage(capsys, tmp_path, command, value):
    out_file = tmp_path / "rejected.csv"
    if command == "stiffness":
        argv = ["stiffness", "--theta-deg", "30"]
    else:
        argv = ["sweep", "--experiment", command.split("_")[0], "--out", str(out_file)]
    code, _, err = run_cli(capsys, *argv, "--pretension", value)
    assert code == cli.EXIT_USAGE
    assert "pretension" in err
    assert not out_file.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["stiffness", "perching_sweep"])
@pytest.mark.parametrize("value", ["1e150", "1e155", "1e308"])
def test_huge_pretension(capsys, tmp_path, command, value):
    # Allocation overflowed from about 1.3e154 N and reported the feasible
    # request as infeasible (exit 5); past 2**500 N it is now a usage error.
    out_file = tmp_path / "perching.csv"
    if command == "stiffness":
        argv = ["stiffness", "--theta-deg", "30"]
    else:
        argv = ["sweep", "--experiment", "perching", "--out", str(out_file)]
    code, _, err = run_cli(capsys, *argv, "--pretension", value)
    if value == "1e150":
        assert (code, err) == (cli.EXIT_OK, "")
    else:
        assert code == cli.EXIT_USAGE
        assert "pretension" in err and "exceeds" in err
        assert not out_file.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tensions", ["nan,1,1,1", "inf,1,1,1", "1,1,1,-inf"])
def test_stiffness_non_finite_tensions_exit_usage(capsys, tensions):
    code, out, err = run_cli(capsys, "stiffness", "--theta-deg", "30",
                             "--tensions", tensions)
    assert code == cli.EXIT_USAGE
    assert "tensions must be finite" in err
    assert out == ""


# ------------------------------------------------------------------ sweeps

def test_stiffness_sweep_csv(capsys, tmp_path, params):
    out_file = tmp_path / "stiffness.csv"
    code, out, _ = run_cli(capsys, "sweep", "--experiment", "stiffness",
                           "--out", str(out_file),
                           "--configs-deg", "0,30", "--steps", "2", "--cycles", "1")
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == ("config_theta_deg,config_delta_deg,cycle,load_N,"
                        "disp_x_m,disp_y_m,disp_z_m,iterations,status")
    assert len(lines) == 1 + 2 * 4  # two configs x (2 up + 2 down)
    assert all(line.endswith("ok") for line in lines[1:])
    # re-running the solver from the parsed row reproduces the displacement
    row = lines[2].split(",")
    config = wrap_configuration(math.radians(float(row[0])), math.radians(float(row[1])))
    [record] = run_stiffness_sweep(params, [config], [float(row[3])])
    for got, expect in zip(row[4:7], record.tip_displacement):
        assert abs(float(got) - expect) <= 1e-9 * max(1.0, abs(expect))


def test_stiffness_sweep_header_only(capsys, tmp_path):
    out_file = tmp_path / "empty.csv"
    code, _, _ = run_cli(capsys, "sweep", "--experiment", "stiffness",
                         "--out", str(out_file), "--cycles", "0")
    assert code == 0
    assert out_file.read_text().count("\n") == 1


def test_stiffness_sweep_solves_each_cycle_once(capsys, tmp_path, monkeypatch):
    calls = []
    radial_load = ccarm.sim._solve_radial_load

    def counting_point(*args):
        calls.append((args[2], args[5]))  # the commanded bend vector and the load
        return radial_load(*args)

    monkeypatch.setattr(ccarm.sim, "_solve_radial_load", counting_point)
    out_file = tmp_path / "cycles.csv"
    code, _, _ = run_cli(capsys, "sweep", "--experiment", "stiffness",
                         "--out", str(out_file),
                         "--configs-deg", "0,30", "--steps", "2", "--cycles", "3")
    assert code == 0
    # one solve per configuration and load, not per cycle: the unloading
    # steps repeat loading ones, so each load is solved once
    assert len(calls) == 2 * 3 and len(set(calls)) == len(calls)
    rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
    assert len(rows) == 2 * 3 * 4
    by_cycle = {}
    for row in rows:
        by_cycle.setdefault(row[2], []).append(row[:2] + row[3:])
    assert sorted(by_cycle) == ["1", "2", "3"]
    assert by_cycle["2"] == by_cycle["1"] and by_cycle["3"] == by_cycle["1"]

    calls.clear()
    code, _, _ = run_cli(capsys, "sweep", "--experiment", "stiffness",
                         "--out", str(out_file), "--cycles", "0")
    assert code == 0
    assert out_file.read_text().count("\n") == 1
    assert calls == []


@pytest.mark.parametrize("experiment,flag,value", [
    ("perching", "--step-mm", "0"),
    ("perching", "--step-mm", "-0.5"),
    ("stiffness", "--steps", "-1"),
    ("stiffness", "--cycles", "-1"),
    ("perching", "--travel-mm", "-5"),
    ("perching", "--step-mm", "inf"),
    ("perching", "--travel-mm", "inf"),
    ("perching", "--travel-mm", "nan"),
    ("stiffness", "--increment-n", "inf"),
    ("stiffness", "--increment-n", "nan"),
    ("stiffness", "--increment-n", "-0.5"),
    ("perching", "--step-mm", "5e-324"),
    ("perching", "--travel-mm", "1e9"),
    ("stiffness", "--max-iter", "-1"),
    ("stiffness", "--pretension", "-1"),
    ("stiffness", "--pretension", "nan"),
    ("perching", "--pretension", "-1"),
])
def test_sweep_rejects_out_of_range_inputs(capsys, tmp_path, experiment, flag, value):
    out_file = tmp_path / "rejected.csv"
    code, _, err = run_cli(capsys, "sweep", "--experiment", experiment,
                           "--out", str(out_file), flag, value)
    assert code == cli.EXIT_USAGE
    assert flag in err
    assert not out_file.exists()


@pytest.mark.parametrize("no_rows", [["--cycles", "0"], ["--configs-deg", ""]],
                         ids=["no_cycles", "no_configs"])
@pytest.mark.parametrize("value", ["nan", "-1"])
def test_sweep_rejects_pretension_without_rows(capsys, tmp_path, no_rows, value):
    # a sweep with no rows never allocates, so the flag itself must be checked
    out_file = tmp_path / "rejected.csv"
    code, _, err = run_cli(capsys, "sweep", "--experiment", "stiffness",
                           "--out", str(out_file), *no_rows, "--pretension", value)
    assert code == cli.EXIT_USAGE
    assert "--pretension" in err
    assert not out_file.exists()


@pytest.mark.parametrize("experiment,flags", [
    ("stiffness", ["--configs-deg", "0", "--cycles", "1", "--steps", "50001"]),
    ("stiffness", ["--configs-deg", "0", "--cycles", "50001", "--steps", "1"]),
    ("stiffness", ["--configs-deg", "0,1,2,3,4", "--cycles", "101", "--steps", "100"]),
    ("perching", ["--travel-mm", "25000", "--step-mm", "0.5"]),
], ids=["steps", "cycles", "configs", "travel"])
def test_sweep_row_bound_solves_nothing(capsys, tmp_path, monkeypatch, experiment, flags):
    kernel_calls = []

    def counting_kernel(*args):
        kernel_calls.append(1)
        raise AssertionError("a sweep over the row bound reached a kernel")

    monkeypatch.setattr(ccarm._kernels.core, "solve_deflection", counting_kernel)
    monkeypatch.setattr(ccarm._kernels.core, "solve_tip_constraint", counting_kernel)
    out_file = tmp_path / "rejected.csv"
    code, _, err = run_cli(capsys, "sweep", "--experiment", experiment,
                           "--out", str(out_file), *flags)
    assert code == cli.EXIT_USAGE
    assert all(flag in err for flag in flags[::2])
    assert "100000" in err
    assert kernel_calls == []
    assert not out_file.exists()


@pytest.mark.parametrize("axis", ["x", "z"])
def test_perching_sweep_overflowing_offset_exit_code(capsys, tmp_path, monkeypatch, axis):
    # three steps of max/3 mm round past the largest float: the last offset
    # is inf on the axis, and inf * 0.0 = NaN off it
    ik_solves = []
    monkeypatch.setattr(ccarm._kernels.core, "solve_tip_constraint",
                        lambda *args: ik_solves.append(1))
    out_file = tmp_path / "overflow.csv"
    code, out, err = run_cli(capsys, "sweep", "--experiment", "perching",
                             "--out", str(out_file), "--axis", axis,
                             "--travel-mm", repr(sys.float_info.max),
                             "--step-mm", repr(sys.float_info.max / 3))
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: perching base offsets must be finite\n"
    assert ik_solves == []
    assert not out_file.exists()


def test_perching_sweep_csv(capsys, tmp_path):
    out_file = tmp_path / "perch.csv"
    code, _, _ = run_cli(capsys, "sweep", "--experiment", "perching",
                         "--out", str(out_file), "--travel-mm", "2", "--step-mm", "1")
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "offset_m,fx_N,fy_N,fz_N,mx_Nm,my_Nm,mz_Nm,status"
    assert len(lines) == 1 + 5  # 0,1,2,1,0 mm
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[1])) < 1e-9


def test_perching_sweep_builds_commanded_state_once(capsys, tmp_path, monkeypatch):
    calls = []
    allocate = ccarm.sim._allocation

    def counting_allocation(*args, **kwargs):
        calls.append(1)
        return allocate(*args, **kwargs)

    monkeypatch.setattr(ccarm.sim, "_allocation", counting_allocation)
    ik_solves = []
    solve_tip_constraint = ccarm._kernels.core.solve_tip_constraint

    def counting_ik(*args):
        ik_solves.append(1)
        return solve_tip_constraint(*args)

    monkeypatch.setattr(ccarm._kernels.core, "solve_tip_constraint", counting_ik)
    out_file = tmp_path / "perch.csv"
    code, _, _ = run_cli(capsys, "sweep", "--experiment", "perching",
                         "--out", str(out_file), "--travel-mm", "2", "--step-mm", "1")
    assert code == 0
    assert out_file.read_text().count("\n") == 1 + 5
    assert len(calls) == 1  # one commanded state for all five offsets
    assert len(ik_solves) == 3  # the return leg reuses the outward offsets 0, 1, 2 mm


def test_commanded_state_evaluates_no_generalized_force(capsys, tmp_path, monkeypatch):
    # the locked tensions need the allocation alone: building a commanded state
    # (directly or in a default perching sweep) sums no pulls, while
    # allocate_tensions sums them once for its generalized force and residual
    calls = []
    pulls = ccarm.statics._pulls

    def counting_pulls(*args):
        calls.append(1)
        return pulls(*args)

    monkeypatch.setattr(ccarm.statics, "_pulls", counting_pulls)
    params, config = ccarm.default_parameters(), wrap_configuration(math.radians(30), 0.4)
    _, tau0 = ccarm.sim._commanded_state(params, config, 0.3)
    assert calls == []
    out_file = tmp_path / "perch.csv"
    code, _, _ = run_cli(capsys, "sweep", "--experiment", "perching", "--out", str(out_file))
    assert code == 0 and out_file.read_bytes() == (GOLDEN / "perching_x.csv").read_bytes()
    assert calls == []
    report = ccarm.statics.allocate_tensions(params, config, None, 0.3)
    assert len(calls) == 1
    assert report.tensions.tolist() == list(tau0)


def test_perching_point_reuses_the_ik_arc_evaluation(capsys, tmp_path, monkeypatch):
    # The reaction takes its arc quotients and tip from the IK's last
    # evaluation: a default perching sweep calls arc_quotients once per axis,
    # for the anchor's core.position, and bend_tip never; its 21 IK solves
    # per axis share one start, built once for the commanded state.
    core = ccarm._kernels.core
    callers = {"arc_quotients": [], "bend_tip": []}
    for name in callers:
        def counting(*args, name=name, kernel=getattr(core, name)):
            callers[name].append(sys._getframe(1).f_code.co_name)
            return kernel(*args)

        monkeypatch.setattr(core, name, counting)
    core._tip_start.cache_clear()
    for axis in ("x", "z"):
        out_file = tmp_path / f"perch_{axis}.csv"
        code, _, _ = run_cli(capsys, "sweep", "--experiment", "perching", "--out",
                             str(out_file), "--axis", axis)
        assert code == 0
        assert out_file.read_bytes() == (GOLDEN / f"perching_{axis}.csv").read_bytes()
        assert callers == {"arc_quotients": ["arc_terms"], "bend_tip": []}
        callers["arc_quotients"].clear()
    assert core._tip_start.cache_info()[:2] == (41, 1)


def test_perching_sweep_marks_rows_bent_past_pi(capsys, tmp_path, monkeypatch):
    # Past 170 mm of base travel along z the pinned tip needs a bend beyond
    # pi, so the target is out of reach (and at 200 mm the IK gives up):
    # those rows fail, the rest are kept.
    failures = []
    perch = ccarm.sim._perch

    def recording_perch(*args):
        try:
            return perch(*args)
        except ccarm.CcarmError as exc:
            failures.append(exc)
            raise

    monkeypatch.setattr(ccarm.sim, "_perch", recording_perch)
    out_file = tmp_path / "past_pi.csv"
    code, _, err = run_cli(capsys, "sweep", "--experiment", "perching", "--out", str(out_file),
                           "--axis", "z", "--travel-mm", "200", "--step-mm", "10")
    assert code == cli.EXIT_SOLVER
    assert "5 sweep points" in err
    rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
    assert len(rows) == 41
    failed = [float(row[0]) for row in rows if row[-1] == "no_converge"]
    assert failed == pytest.approx([0.18, 0.19, 0.2, 0.19, 0.18])
    assert [type(exc) for exc in failures] == [ccarm.UnreachableTargetError] * 2 + [
        ccarm.ConvergenceError]
    assert all("past theta_max" in str(exc) for exc in failures[:2])
    assert all(row[1:7] == ["nan"] * 6 for row in rows if row[-1] == "no_converge")
    assert all(row[-1] == "ok" for row in rows if float(row[0]) <= 0.17)


def test_perching_sweep_fails_rows_with_a_non_finite_reaction(capsys, tmp_path, params):
    # k r^2 overflows on a 1e308 m pitch circle and the reaction comes out
    # NaN: such a row is no_converge, not a nan row marked ok, and the sweep
    # exits 5
    import dataclasses
    path = tmp_path / "wide.params"
    path.write_text(dump_parameters(dataclasses.replace(params, pitch_radius=1e308)))
    out_file = tmp_path / "wide.csv"
    code, _, _ = run_cli(capsys, "sweep", "--experiment", "perching", "--out", str(out_file),
                         "--params", str(path))
    rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
    assert code == cli.EXIT_SOLVER and len(rows) == 41
    assert any(row[-1] == "no_converge" for row in rows)
    assert all(row[1:7] == ["nan"] * 6 for row in rows if row[-1] == "no_converge")
    assert all("nan" not in row for row in rows if row[-1] == "ok")


def test_perching_sweep_refuses_an_infinite_tendon_stiffness(capsys, tmp_path, params):
    # E_T = A = 1e308 gives k = inf: the file is refused on load (exit 3)
    # rather than swept, where the offset-0 rows came out ok with a wrong,
    # finite reaction
    text = dump_parameters(params)
    for key in ("tendon_youngs_modulus_pa", "tendon_cross_section_m2"):
        line = next(line for line in text.splitlines() if line.startswith(key))
        text = text.replace(line, f"{key} = 1e308")
    path = tmp_path / "stiff.params"
    path.write_text(text)
    out_file = tmp_path / "stiff.csv"
    code, out, err = run_cli(capsys, "sweep", "--experiment", "perching",
                             "--out", str(out_file), "--params", str(path))
    assert (code, out) == (cli.EXIT_PARAMS, "")
    assert "derived tendon_axial_stiffness must be finite and > 0, got inf" in err
    assert not out_file.exists()


def test_sweep_solver_failure_exit_code(capsys, tmp_path):
    # an unreachable iteration budget forces no_converge rows and exit 5
    out_file = tmp_path / "failing.csv"
    code, _, err = run_cli(capsys, "sweep", "--experiment", "stiffness",
                           "--out", str(out_file),
                           "--configs-deg", "30", "--steps", "1", "--cycles", "1",
                           "--max-iter", "1")
    assert code == 5
    assert "did not converge" in err or "sweep points" in err
    lines = out_file.read_text().splitlines()
    assert any(line.endswith("no_converge") for line in lines[1:])


@pytest.mark.parametrize("config_deg,increment", [
    ("30", "1"),      # the 3 N peak exceeds the force cap
    ("175", "0.6"),   # the 1.8 N peak bends the arm past pi
])
def test_sweep_marks_out_of_domain_points(capsys, tmp_path, config_deg, increment):
    out_file = tmp_path / "domain.csv"
    code, _, err = run_cli(capsys, "sweep", "--experiment", "stiffness",
                           "--out", str(out_file), "--configs-deg", config_deg,
                           "--increment-n", increment, "--steps", "3", "--cycles", "1")
    assert code == cli.EXIT_SOLVER
    assert "1 sweep points" in err
    rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
    assert [row[-1] for row in rows] == ["ok", "ok", "no_converge", "ok", "ok", "ok"]
    assert rows[2][4:7] == ["nan"] * 3
    assert float(rows[-1][3]) == 0.0


def test_sweep_marks_reaim_failure(capsys, tmp_path):
    # An outward load bends the straight arm toward it, and at that bend
    # "outward" points back the other way: the re-aimed direction flips sides
    # on every pass and never settles.
    out_file = tmp_path / "reaim.csv"
    code, _, err = run_cli(capsys, "sweep", "--experiment", "stiffness",
                           "--out", str(out_file), "--configs-deg", "0",
                           "--direction", "outward", "--steps", "1", "--cycles", "1")
    assert code == cli.EXIT_SOLVER
    assert "1 sweep points" in err
    rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
    assert [row[-1] for row in rows] == ["no_converge", "ok"]
    assert rows[0][4:7] == ["nan"] * 3


@pytest.mark.parametrize("experiment,extra,reference", [
    ("stiffness", [], "stiffness.csv"),
    ("perching", ["--axis", "x"], "perching_x.csv"),
    ("perching", ["--axis", "z"], "perching_z.csv"),
])
def test_default_sweeps_match_reference_csvs(capsys, tmp_path, experiment, extra, reference):
    # The golden bytes of the default sweeps, in tests/data.  perfbench/reference
    # holds them as the unoptimised code wrote them; a re-baseline here
    # follows the truth-file rule that test_truth enforces: within the
    # benchmark's bound of perfbench/reference and no farther from the truth.
    out_file = tmp_path / reference
    code, _, _ = run_cli(capsys, "sweep", "--experiment", experiment,
                         "--out", str(out_file), *extra)
    assert code == cli.EXIT_OK
    assert out_file.read_bytes() == (GOLDEN / reference).read_bytes()


def test_default_sweeps_build_no_per_point_record(capsys, tmp_path, monkeypatch):
    # The CLI formats its rows from sim's float rows: no record and no
    # Configuration is built for any point of the default sweeps.
    def no_record(*args, **kwargs):
        raise AssertionError("a CSV sweep built a per-point record")

    for name in ("DeflectionRecord", "PerchingRecord", "Configuration"):
        monkeypatch.setattr(ccarm.sim, name, no_record)
    for experiment, extra, reference in [("stiffness", [], "stiffness.csv"),
                                         ("perching", ["--axis", "x"], "perching_x.csv"),
                                         ("perching", ["--axis", "z"], "perching_z.csv")]:
        out_file = tmp_path / reference
        code, _, _ = run_cli(capsys, "sweep", "--experiment", experiment,
                             "--out", str(out_file), *extra)
        assert code == cli.EXIT_OK
        assert out_file.read_bytes() == (GOLDEN / reference).read_bytes()


def _record_fmt(x):
    return format(float(x), ".12g")


def _record_status(record):
    return "ok" if record.converged else "no_converge"


def _stiffness_csv_from_records(params, args):
    # How the CLI turned run_stiffness_sweep's records into rows before the
    # sweeps ran on float rows: one call per bend, cycles repeating the first.
    loads = [args.increment_n * k for k in range(args.steps + 1)]
    lines = ["config_theta_deg,config_delta_deg,cycle,load_N,"
             "disp_x_m,disp_y_m,disp_z_m,iterations,status"]
    for theta_deg in [float(v) for v in args.configs_deg.split(",")]:
        config = wrap_configuration(math.radians(theta_deg), math.radians(args.delta_deg))
        fields = [[_record_fmt(math.hypot(*record.applied_force))]
                  + [_record_fmt(v) for v in record.tip_displacement]
                  + [str(record.solver_iterations), _record_status(record)]
                  for record in run_stiffness_sweep(
                      params, [config], loads, args.direction, args.pretension,
                      strict=False, max_iter=args.max_iter)]
        fields = (fields + fields[-2::-1])[1:]
        for cycle in range(1, args.cycles + 1):
            prefix = [_record_fmt(theta_deg), _record_fmt(args.delta_deg), str(cycle)]
            lines += [",".join(prefix + row) for row in fields]
    return "\n".join(lines) + "\n"


def _perching_csv_from_records(params, args):
    # How the CLI turned run_perching_sweep's records into rows, out and back.
    config = wrap_configuration(math.radians(args.theta_deg), math.radians(args.delta_deg))
    axis = {"x": np.array([1.0, 0.0, 0.0]), "z": np.array([0.0, 0.0, 1.0])}[args.axis]
    steps = math.floor(args.travel_mm / args.step_mm * (1.0 + 1e-9))
    out = [k * args.step_mm * 1e-3 for k in range(steps + 1)]
    records = run_perching_sweep(params, config, [offset * axis for offset in out],
                                 args.pretension, max_iter=args.max_iter)
    lines = ["offset_m,fx_N,fy_N,fz_N,mx_Nm,my_Nm,mz_Nm,status"]
    for offset, record in zip(out + out[-2::-1], records + records[-2::-1]):
        lines.append(",".join([_record_fmt(offset)]
                              + [_record_fmt(v) for v in record.reaction_force]
                              + [_record_fmt(v) for v in record.reaction_moment]
                              + [_record_status(record)]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("experiment,flags,failures", [
    ("stiffness", [], 0),
    ("stiffness", ["--configs-deg", "15,45", "--pretension", "0.3", "--cycles", "2"], 0),
    ("stiffness", ["--configs-deg", "15,45", "--delta-deg", "40", "--cycles", "2"], 0),
    ("stiffness", ["--configs-deg", "30", "--steps", "2", "--cycles", "2",
                   "--max-iter", "1"], 6),
    ("stiffness", ["--configs-deg", "30", "--increment-n", "1", "--steps", "3",
                   "--cycles", "1"], 1),                          # over the force cap
    ("stiffness", ["--configs-deg", "175", "--increment-n", "0.6", "--steps", "3",
                   "--cycles", "1"], 1),                          # bent past pi
    ("stiffness", ["--configs-deg", "0", "--direction", "outward", "--steps", "1",
                   "--cycles", "1"], 1),                          # re-aiming never settles
    ("perching", ["--axis", "x"], 0),
    ("perching", ["--axis", "z"], 0),
    ("perching", ["--pretension", "0.3"], 0),
    ("perching", ["--delta-deg", "40", "--axis", "z"], 0),
    ("perching", ["--max-iter", "1"], 39),                        # all but offset 0
    ("perching", ["--axis", "z", "--travel-mm", "200", "--step-mm", "10"], 5),
    ("perching", ["--theta-deg", "0"], 39),                       # anchors out of reach
], ids=["stiffness", "pretension", "delta", "max-iter", "force-cap", "past-pi",
        "outward-straight", "perching-x", "perching-z", "perching-pretension",
        "perching-delta", "perching-max-iter", "perching-past-pi", "perching-straight"])
def test_sweep_rows_match_the_public_records(capsys, tmp_path, params, experiment, flags,
                                             failures):
    # The CSV that cli.main writes is the pre-float-row formatting applied to
    # the records of run_stiffness_sweep or run_perching_sweep, byte for byte.
    out_file = tmp_path / "sweep.csv"
    argv = ["sweep", "--experiment", experiment, "--out", str(out_file), *flags]
    code, _, err = run_cli(capsys, *argv)
    assert code == (cli.EXIT_SOLVER if failures else cli.EXIT_OK)
    assert (f"error: {failures} sweep points" in err) == bool(failures)
    args = cli._build_parser().parse_args(argv)
    oracle = (_stiffness_csv_from_records if experiment == "stiffness"
              else _perching_csv_from_records)
    assert out_file.read_text() == oracle(params, args)


@pytest.mark.parametrize("travel,step,largest,rows", [
    ("10.75", "0.5", 0.0105, 43),   # banker's rounding of 21.5 went to 11 mm
    ("10.25", "0.5", 0.01, 41),
    ("0.3", "0.1", 0.0003, 7),      # 0.3/0.1 = 2.9999999999999996 is 3 steps
])
def test_perching_travel_is_the_largest_offset(capsys, tmp_path, travel, step, largest, rows):
    out_file = tmp_path / "travel.csv"
    code, _, _ = run_cli(capsys, "sweep", "--experiment", "perching", "--out", str(out_file),
                         "--travel-mm", travel, "--step-mm", step)
    assert code == cli.EXIT_OK
    offsets = [float(line.split(",")[0]) for line in out_file.read_text().splitlines()[1:]]
    assert len(offsets) == rows
    assert offsets == offsets[::-1]
    assert max(offsets) == pytest.approx(largest, rel=1e-12)
    assert max(offsets) <= float(travel) * 1e-3 * (1.0 + 1e-9)


def test_cached_parser_carries_nothing_between_calls(capsys, tmp_path):
    # main parses with one parser per process: neither a failed parse nor a
    # flag of one call may reach the next call's arguments.
    assert cli._build_parser() is cli._build_parser()
    code, _, err = run_cli(capsys, "sweep", "--experiment", "perching",
                           "--out", str(tmp_path / "bad.csv"), "--bogus")
    assert code == cli.EXIT_USAGE and "--bogus" in err
    code, _, _ = run_cli(capsys, "sweep", "--experiment", "perching", "--axis", "z",
                         "--pretension", "0.5", "--out", str(tmp_path / "z.csv"))
    assert code == cli.EXIT_OK
    out_file = tmp_path / "perching_x.csv"
    code, _, _ = run_cli(capsys, "sweep", "--experiment", "perching", "--out", str(out_file))
    assert code == cli.EXIT_OK
    assert out_file.read_bytes() == (GOLDEN / "perching_x.csv").read_bytes()
    versions = [run_cli(capsys, "--version") for _ in range(2)]
    assert versions[0] == versions[1] == (0, f"ccarm {__version__} (pure-python kernels)\n", "")


def test_sweep_determinism(capsys, tmp_path):
    files = []
    for name in ("a.csv", "b.csv"):
        out_file = tmp_path / name
        code, _, _ = run_cli(capsys, "sweep", "--experiment", "stiffness",
                             "--out", str(out_file),
                             "--configs-deg", "15,45", "--steps", "2", "--cycles", "1")
        assert code == 0
        files.append(out_file.read_bytes())
    assert files[0] == files[1]


# A perching sweep of three distinct offsets, five rows.
SHORT_PERCHING = ("sweep", "--experiment", "perching", "--travel-mm", "2", "--step-mm", "1")


@pytest.mark.parametrize("out", ["missing/x.csv", "existing_dir", ""],
                         ids=["missing-directory", "directory", "empty"])
def test_unwritable_out_exits_usage(capsys, tmp_path, monkeypatch, out):
    # These used to end in a traceback (exit 1) once the sweep had run.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "existing_dir").mkdir()
    code, stdout, err = run_cli(capsys, *SHORT_PERCHING, "--out", out)
    assert code == cli.EXIT_USAGE
    assert err.startswith(f"error: cannot write --out {out!r}: ") and stdout == ""
    assert os.listdir(tmp_path) == ["existing_dir"]  # no temporary file left behind
    assert os.listdir(tmp_path / "existing_dir") == []


def test_sweep_csv_mode_follows_the_umask(capsys, tmp_path):
    # The CSV used to be created 0600 whatever the umask, and an overwritten
    # 0644 file turned 0600 too.
    out_file = tmp_path / "perch.csv"
    umask = os.umask(0o022)
    try:
        for _ in range(2):  # a new file, then the same path overwritten
            code, _, _ = run_cli(capsys, *SHORT_PERCHING, "--out", str(out_file))
            assert code == cli.EXIT_OK
            assert stat.S_IMODE(out_file.stat().st_mode) == 0o644
    finally:
        os.umask(umask)
    assert os.listdir(tmp_path) == ["perch.csv"]


def test_row_templates_print_as_fmt():
    # The sweep rows and _fmt share one number format, and it prints what
    # format(x, ".12g") printed before the rows were templates.
    values = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308,
              0.1 + 0.2, np.float64(2.0) / 3.0]
    for v in values:
        text = cli._fmt(v)
        assert text == format(float(v), ".12g")
        assert cli._PERCHING_ROW % ((v,) * 7 + ("ok",)) == ",".join([text] * 7 + ["ok"])
        assert cli._STIFFNESS_PREFIX % (v, v, 3) == f"{text},{text},3,"
        assert cli._STIFFNESS_FIELDS % (v, v, v, v, 7, "ok") == ",".join([text] * 4 + ["7", "ok"])


# ------------------------------------------------------- parameters and exits

def test_params_file_flag(capsys, tmp_path, params):
    # read on every call: only the packaged defaults are cached
    import dataclasses
    path = tmp_path / "long.params"
    for length in (0.5, 0.45):
        path.write_text(dump_parameters(dataclasses.replace(params, backbone_length=length)))
        code, out, _ = run_cli(capsys, "pose", "--theta-deg", "0", "--params", str(path))
        assert code == 0
        assert _floats(out.splitlines()[0])[2] == pytest.approx(length)


def test_params_env_var(capsys, tmp_path, params, monkeypatch):
    import dataclasses
    path = tmp_path / "env.params"
    monkeypatch.setenv(cli.PARAMS_ENV_VAR, str(path))
    for length in (0.4, 0.35):
        path.write_text(dump_parameters(dataclasses.replace(params, backbone_length=length)))
        code, out, _ = run_cli(capsys, "pose", "--theta-deg", "0")
        assert code == 0
        assert _floats(out.splitlines()[0])[2] == pytest.approx(length)


def test_default_parameters_read_once():
    assert ccarm.default_parameters() is ccarm.default_parameters()


def test_bad_params_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.params"
    path.write_text("backbone_length_m = -1\n")
    code, _, err = run_cli(capsys, "pose", "--theta-deg", "0", "--params", str(path))
    assert code == 3
    assert "error" in err


def test_params_tendon_count_ceiling_exit_code(capsys, tmp_path):
    # checked when the parameters load, before anything is sized by the count
    params = ccarm.default_parameters()
    text = dump_parameters(params).replace("tendon_count = 4", "tendon_count = 100000").replace(
        repr(params.tendon_division_angle), repr(2.0 * math.pi / 100000))
    path = tmp_path / "many.params"
    path.write_text(text)
    code, out, err = run_cli(capsys, "pose", "--theta-deg", "5", "--params", str(path))
    assert code == 3
    assert "tendon_count must be <= 64" in err and out == ""


def test_usage_exit_code(capsys):
    code, _, _ = run_cli(capsys, "pose", "--theta-degrees", "10")
    assert code == 2


def test_module_entry_point():
    # The child imports the same ccarm as this process, installed or not.
    source = str(Path(ccarm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "ccarm", "pose", "--theta-deg", "90"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("position_m")
    assert backend_name() == "pure-python"
    proc = subprocess.run([sys.executable, "-m", "ccarm", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"ccarm {__version__} (pure-python kernels)"
