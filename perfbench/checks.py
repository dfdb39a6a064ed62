"""Output checks: sweep CSVs against seed references, point-query invariants.

Every check returns the number of failed points, so a mismatch is counted in
the benchmark's failure fraction rather than aborting the run.  The
invariants for single calls are recomputed here from public ccarm functions;
they never reuse the value under test.
"""

import csv
import dataclasses
import io
import math
from pathlib import Path

import numpy as np

import ccarm
from ccarm import kinematics, statics, stiffness

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Sweep columns and how they are compared.  "iterations" is a solver counter
# whose meaning is expected to change, so it is deliberately absent.
DISP_ABS_TOL = 1e-12        # m
WRENCH_REL_TOL = 1e-9       # share of the column's largest magnitude
INPUT_REL_TOL = 1e-12
STIFFNESS_COLUMNS = {
    "config_theta_deg": "input", "config_delta_deg": "input", "cycle": "exact",
    "load_N": "input", "disp_x_m": "disp", "disp_y_m": "disp", "disp_z_m": "disp",
    "status": "exact",
}
PERCHING_COLUMNS = {
    "offset_m": "input", "fx_N": "wrench", "fy_N": "wrench", "fz_N": "wrench",
    "mx_Nm": "wrench", "my_Nm": "wrench", "mz_Nm": "wrench", "status": "exact",
}

# Point-query invariants.
DEFLECTION_RESIDUAL_TOL = 1e-9   # N*m, solver stops at 1e-10 in its own chart
TIP_CONSISTENCY_TOL = 1e-12      # m
IK_TOL = 1e-8                    # m, solve_perching_reaction's default tol
IK_TIP_TOL = 2.0 * IK_TOL        # tol bounds the tangent-plane residual only
EQUILIBRIUM_REL_TOL = 1e-9
STIFFNESS_REL_TOL = 1e-8
TENSION_FLOOR_TOL = 1e-12


def read_reference(name):
    return (REFERENCE_DIR / name).read_text(encoding="utf-8")


def _table(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def compare_sweep(text, reference_text, columns):
    """Rows of a sweep CSV that disagree with the reference, as a count.

    Rows are matched by position; missing or extra rows each count as one
    failure, and a header lacking a checked column fails every row.
    """
    header, rows = _table(text)
    ref_header, ref_rows = _table(reference_text)
    if any(name not in header for name in columns):
        return max(len(rows), len(ref_rows))
    at = {name: header.index(name) for name in columns}
    ref_at = {name: ref_header.index(name) for name in columns}
    scale = {}
    for name, kind in columns.items():
        if kind == "wrench":
            values = [abs(float(r[ref_at[name]])) for r in ref_rows]
            scale[name] = max([v for v in values if math.isfinite(v)] or [1.0])
    failed = abs(len(rows) - len(ref_rows))
    for row, ref in zip(rows, ref_rows):
        if len(row) != len(header) or not _row_matches(row, ref, columns, at, ref_at, scale):
            failed += 1
    return failed


def _row_matches(row, ref, columns, at, ref_at, scale):
    for name, kind in columns.items():
        got, want = row[at[name]], ref[ref_at[name]]
        if kind == "exact":
            if got != want:
                return False
            continue
        try:
            a, b = float(got), float(want)
        except ValueError:
            return False
        if math.isnan(b):
            if not math.isnan(a):
                return False
            continue
        if kind == "input":
            tol = INPUT_REL_TOL * abs(b)
        elif kind == "disp":
            tol = DISP_ABS_TOL
        else:
            tol = WRENCH_REL_TOL * scale[name]
        if not abs(a - b) <= tol:
            return False
    return True


# ------------------------------------------------------------ point queries

def _locked_tensions(params, commanded, psi, pretension):
    tau0 = statics.allocate_tensions(params, commanded, ccarm.Wrench.zero(), pretension).tensions
    q_cmd = kinematics.configuration_to_joints(params, commanded).displacements
    q = kinematics.configuration_to_joints(params, psi).displacements
    return np.maximum(0.0, tau0 - params.tendon_axial_stiffness * (q - q_cmd))


def check_deflection(query, record):
    """Record is an equilibrium of the locked arm and its tip moved as reported."""
    params, commanded, force = query["params"], query["config"], query["force"]
    if not record.converged:
        return False
    psi = record.equilibrium_config
    tau = _locked_tensions(params, commanded, psi, query["pretension"])
    residual = (statics.energy_gradient(params, psi)
                - kinematics.jacobian_q_psi(params, psi).T @ tau
                - kinematics.jacobian_v_psi(params, psi).T @ force)
    moved = (kinematics.forward_kinematics(params, psi).position
             - kinematics.forward_kinematics(params, commanded).position)
    return bool(np.linalg.norm(residual) <= DEFLECTION_RESIDUAL_TOL
                and np.max(np.abs(record.tip_displacement - moved)) <= TIP_CONSISTENCY_TOL)


def check_perching(query, record):
    """Tip sits on its target, and the reaction balances the arm's statics."""
    params, commanded = query["params"], query["config"]
    if not record.converged:
        return False
    psi = record.equilibrium_config
    tip = kinematics.forward_kinematics(params, psi).position
    if not np.linalg.norm(tip - query["target"]) <= IK_TIP_TOL:
        return False
    tau = _locked_tensions(params, commanded, psi, query["pretension"])
    generalized = (statics.energy_gradient(params, psi)
                   - kinematics.jacobian_q_psi(params, psi).T @ tau)
    force = record.reaction_force
    balance = generalized + kinematics.jacobian_v_psi(params, psi).T @ force
    scale = max(float(np.linalg.norm(generalized)), 1e-300)
    moment_err = np.linalg.norm(record.reaction_moment - np.cross(tip, force))
    moment_scale = max(float(np.linalg.norm(tip) * np.linalg.norm(force)), 1e-300)
    return bool(np.linalg.norm(balance) <= EQUILIBRIUM_REL_TOL * scale
                and moment_err <= EQUILIBRIUM_REL_TOL * moment_scale)


def check_stiffness(query, result):
    """Tensions hold the arm in equilibrium and J_v^T K_X J_v recovers K_psi.

    At zero external wrench the generalized force vanishes, so the task
    stiffness pulled back through J_v must equal the configuration stiffness.
    """
    params, psi = query["params"], query["config"]
    tensions, k_x = result
    if not (np.all(np.isfinite(k_x)) and np.min(tensions) >= query["pretension"] - TENSION_FLOOR_TOL):
        return False
    balance = statics.equilibrium_residual(params, psi, tensions, ccarm.Wrench.zero())
    gradient = statics.energy_gradient(params, psi)
    jv = kinematics.jacobian_v_psi(params, psi)
    k_psi = stiffness.configuration_stiffness(params, psi, tensions)
    return bool(np.linalg.norm(balance) <= EQUILIBRIUM_REL_TOL * max(np.linalg.norm(gradient), 1e-300)
                and np.linalg.norm(jv.T @ k_x @ jv - k_psi) <= STIFFNESS_REL_TOL * np.linalg.norm(k_psi))


CHECKS = {"deflection": check_deflection, "perching": check_perching, "stiffness": check_stiffness}


# ---------------------------------------------------------------- self-test

def _perturb_csv(text, row, column, fn):
    header, rows = _table(text)
    rows = [list(r) for r in rows]
    k = header.index(column)
    rows[row][k] = fn(rows[row][k])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header] + rows)
    return out.getvalue()


def self_test(queries, call):
    """Names of checks that failed to flag a perturbed output (empty: all good).

    queries holds one query per family; call(query) runs it through ccarm.
    """
    missed = []
    ref = read_reference("stiffness.csv")
    perch = read_reference("perching_x.csv")
    sweep_cases = [
        ("stiffness unchanged", ref, STIFFNESS_COLUMNS, ref, 0),
        ("iterations ignored", ref, STIFFNESS_COLUMNS,
         _perturb_csv(ref, 7, "iterations", lambda v: str(int(v) + 1)), 0),
        ("disp_z_m by 2e-12 m", ref, STIFFNESS_COLUMNS,
         _perturb_csv(ref, 7, "disp_z_m", lambda v: repr(float(v) + 2e-12)), 1),
        ("status", ref, STIFFNESS_COLUMNS,
         _perturb_csv(ref, 3, "status", lambda v: "no_converge"), 1),
        ("row dropped", ref, STIFFNESS_COLUMNS, ref.rsplit("\n", 2)[0] + "\n", 1),
        ("fx_N by 1e-8 relative", perch, PERCHING_COLUMNS,
         _perturb_csv(perch, 5, "fx_N", lambda v: repr(float(v) * (1 + 1e-8))), 1),
    ]
    for name, reference, columns, text, expect in sweep_cases:
        if compare_sweep(text, reference, columns) != expect:
            missed.append(name)

    for query in queries:
        family = query["family"]
        result = call(query)
        if not CHECKS[family](query, result):
            missed.append(f"{family} unperturbed")
        for label, bad in _perturbations(family, result):
            if CHECKS[family](query, bad):
                missed.append(f"{family} {label}")
    return missed


def _perturbations(family, result):
    if family == "deflection":
        psi = result.equilibrium_config
        yield "config", dataclasses.replace(
            result, equilibrium_config=ccarm.Configuration(psi.theta * (1 + 1e-6), psi.delta))
        yield "tip", dataclasses.replace(result, tip_displacement=result.tip_displacement + 1e-9)
        yield "not converged", dataclasses.replace(result, converged=False)
    elif family == "perching":
        psi = result.equilibrium_config
        yield "config", dataclasses.replace(
            result, equilibrium_config=ccarm.Configuration(psi.theta + 1e-6, psi.delta))
        yield "force", dataclasses.replace(result, reaction_force=result.reaction_force * (1 + 1e-6))
        yield "moment", dataclasses.replace(result, reaction_moment=-result.reaction_moment)
    else:
        tensions, k_x = result
        yield "k_x", (tensions, k_x * (1 + 1e-6))
        yield "tensions", (tensions * (1 + 1e-6), k_x)
