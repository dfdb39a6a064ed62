"""Command-line front end: single-point queries and experiment sweeps.

Angles are degrees at this boundary (radians everywhere inside).  Numbers
print with 12 significant digits, from one format.  Sweep CSV, byte-comparable
across runs, goes to a new file beside --out (mode 0o666 less the umask, as
open() makes it) that is renamed over --out; an --out that cannot be written
exits 2 and leaves no temporary file.

Exit codes: 0 ok, 2 usage, 3 parameter file, 4 singular configuration,
5 solver failure.

The sweeps load no numpy.  The subcommands that print matrices (pose,
jacobians, stiffness) import numpy and the kinematics and stiffness modules
when they run.
"""

import argparse
import functools
import math
import os
import sys

from . import __version__
from ._kernels import backend_name
from .errors import (CcarmError, ConfigurationError, ParameterError,
                     SingularConfigurationError)
from .model import (Wrench, default_parameters, load_parameters,
                    wrap_configuration)
from .sim import (STANDARD_GRAVITY, _out_and_back, _perching_points, _stiffness_points,
                  finite_difference_oracle)
from .statics import allocate_tensions, equilibrium_residual

PARAMS_ENV_VAR = "CONTINUUM_PARAMS"
_MAX_SWEEP_ROWS = 100_000  # CSV rows of one sweep, either experiment
_FORMAT = "%.12g"  # every number the CLI prints
_STIFFNESS_HEADER = ("config_theta_deg,config_delta_deg,cycle,load_N,"
                     "disp_x_m,disp_y_m,disp_z_m,iterations,status")
# A stiffness row is a prefix per cycle and the fields of one distinct load.
_STIFFNESS_PREFIX = ",".join([_FORMAT, _FORMAT, "%s", ""])
_STIFFNESS_FIELDS = ",".join([_FORMAT] * 4 + ["%s", "%s"])
_PERCHING_HEADER = "offset_m,fx_N,fy_N,fz_N,mx_Nm,my_Nm,mz_Nm,status"
_PERCHING_ROW = ",".join([_FORMAT] * 7 + ["%s"])
_FAILED = "no_converge"  # the status of a failed sweep point

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARAMS = 3
EXIT_SINGULAR = 4
EXIT_SOLVER = 5


def _fmt(x):
    return _FORMAT % float(x)


def _print_matrix(name, matrix):
    import numpy as np

    print(name)
    for row in np.atleast_2d(matrix):
        print(" ".join(_fmt(v) for v in row))


def _write_atomic(path, data):
    # data, bytes, replaces the file at path whole or not at all.
    tmp = os.path.join(os.path.dirname(path), f".ccarm-{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigurationError(f"cannot write --out {path!r}: {exc.strerror or exc}") from exc


def _resolve_params(args):
    path = getattr(args, "params", None) or os.environ.get(PARAMS_ENV_VAR)
    if path:
        return load_parameters(path)
    return default_parameters()


def _config_from_args(args):
    return wrap_configuration(math.radians(args.theta_deg), math.radians(args.delta_deg))


def _add_config_flags(parser):
    parser.add_argument("--theta-deg", type=float, required=True,
                        help="bending angle, degrees")
    parser.add_argument("--delta-deg", type=float, default=0.0,
                        help="bending-plane angle, degrees (default 0)")
    parser.add_argument("--params", help="parameter file (default: $%s or built-in)"
                        % PARAMS_ENV_VAR)


def cmd_pose(params, args):
    from .kinematics import forward_kinematics

    pose = forward_kinematics(params, _config_from_args(args))
    print("position_m " + " ".join(_fmt(v) for v in pose.position))
    print("rotation_row_major " + " ".join(_fmt(v) for v in pose.rotation.ravel()))
    return EXIT_OK


def cmd_jacobians(params, args):
    import json

    import numpy as np

    from .kinematics import (forward_kinematics, jacobian_q_psi, jacobian_v_psi,
                             jacobian_w_psi, jacobian_w_psi_vectorized, jacobian_x_psi)

    psi = _config_from_args(args)
    jq = jacobian_q_psi(params, psi)
    jv = jacobian_v_psi(params, psi)
    jw = jacobian_w_psi(params, psi)
    rank = int(np.linalg.matrix_rank(jacobian_x_psi(params, psi)))

    checks = None
    if args.check:
        vectorized = jacobian_w_psi_vectorized(params, psi)

        def rel_fd(analytic, fd):
            return float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-300))

        x0 = np.array([psi.theta, psi.delta])
        fd_q = finite_difference_oracle(
            lambda x: (params.pitch_radius * x[0]
                       * np.cos(x[1] + params.tendon_phases)), x0)
        # The stencil may step theta below zero; (-h, delta) is the arc (h, delta + pi).
        fd_v = finite_difference_oracle(
            lambda x: forward_kinematics(
                params, wrap_configuration(x[0], x[1], math.inf)).position, x0)
        checks = {
            "vectorized_vs_analytic_max_abs": float(np.max(np.abs(vectorized - jw))),
            "fd_rel_err_j_q_psi": rel_fd(jq, fd_q),
            "fd_rel_err_j_v_psi": rel_fd(jv, fd_v),
        }

    if args.json:
        doc = {
            "theta_rad": psi.theta,
            "delta_rad": psi.delta,
            "j_q_psi": jq.tolist(),
            "j_v_psi": jv.tolist(),
            "j_w_psi": jw.tolist(),
            "j_x_psi_rank": rank,
        }
        if checks is not None:
            doc["checks"] = checks
        print(json.dumps(doc))
    else:
        _print_matrix("j_q_psi", jq)
        _print_matrix("j_v_psi", jv)
        _print_matrix("j_w_psi", jw)
        print(f"j_x_psi_rank {rank}")
        if checks is not None:
            for key, value in checks.items():
                print(f"{key} {value:.3e}")
    if rank < 2:
        print("warning: singular configuration (twist Jacobian rank < 2)")
    return EXIT_OK


def cmd_stiffness(params, args):
    import numpy as np

    from .stiffness import configuration_stiffness, task_stiffness, tendon_stiffness

    psi = _config_from_args(args)
    if args.tensions is not None:
        tau = np.array([float(v) for v in args.tensions.split(",")])
        if tau.size != params.tendon_count:
            raise ConfigurationError(
                f"--tensions expects {params.tendon_count} comma-separated values")
        f_star = equilibrium_residual(params, psi, tau, None)  # grad E - J_q^T tau
    else:
        report = allocate_tensions(params, psi, Wrench.zero(), args.pretension)
        tau = report.tensions
        f_star = report.generalized_force
    k_x = task_stiffness(params, psi, tau, f_star, damped=args.damped)
    _print_matrix("k_psi", configuration_stiffness(params, psi, tau))
    print("k_q_diag " + " ".join(_fmt(v) for v in np.diag(tendon_stiffness(params))))
    _print_matrix("k_x", k_x)
    print("tensions_N " + " ".join(_fmt(v) for v in tau))
    return EXIT_OK


def _status(converged):
    return "ok" if converged else _FAILED


def _stiffness_sweep_rows(params, args):
    configs_deg = [float(v) for v in args.configs_deg.split(",")] if args.configs_deg else []
    row_count = len(configs_deg) * args.cycles * 2 * args.steps
    if row_count > _MAX_SWEEP_ROWS:
        raise ConfigurationError(
            f"--configs-deg, --cycles and --steps give {row_count} rows, "
            f"more than {_MAX_SWEEP_ROWS}")
    configs = [wrap_configuration(math.radians(theta_deg), math.radians(args.delta_deg))
               for theta_deg in configs_deg]
    if not args.cycles:
        return _STIFFNESS_HEADER, []
    loads = [args.increment_n * k for k in range(args.steps + 1)]
    sweep = _stiffness_points(params, configs, loads, args.direction, args.pretension,
                              args.max_iter, strict=False)
    rows = []
    for theta_deg, (_, points) in zip(configs_deg, sweep):
        # Every cycle repeats the first, so solve and format each distinct
        # load once; a cycle starts at the first increment and ends unloaded.
        # load_N is the force's hypot, whose bits no BLAS kernel choice moves.
        fields = _out_and_back([
            _STIFFNESS_FIELDS % (math.hypot(*force), *disp, iterations, _status(converged))
            for force, disp, iterations, _, _, converged in points])[1:]
        for cycle in range(1, args.cycles + 1):
            prefix = _STIFFNESS_PREFIX % (theta_deg, args.delta_deg, cycle)
            rows += [prefix + row for row in fields]
    return _STIFFNESS_HEADER, rows


def _perching_sweep_rows(params, args):
    config = wrap_configuration(math.radians(args.theta_deg), math.radians(args.delta_deg))
    axis = {"x": (1.0, 0.0, 0.0), "z": (0.0, 0.0, 1.0)}[args.axis]
    ratio = args.travel_mm / args.step_mm
    # The most whole steps within the travel (the ratio may overflow to inf);
    # the slack keeps 0.3/0.1 = 2.9999999999999996 at 3 steps.
    steps = math.floor(min(ratio, _MAX_SWEEP_ROWS) * (1.0 + 1e-9))
    if 2 * steps + 1 > _MAX_SWEEP_ROWS:
        raise ConfigurationError(
            f"--travel-mm/--step-mm gives {ratio:g} steps out and back, "
            f"more than {_MAX_SWEEP_ROWS} rows")
    out = [k * args.step_mm * 1e-3 for k in range(0, steps + 1)]
    points = _perching_points(params, config, [[offset * a for a in axis] for offset in out],
                              args.pretension, args.max_iter)
    rows = [_PERCHING_ROW % (offset, *force, *moment, _status(converged))
            for offset, (force, moment, *_, converged) in zip(out, points)]
    return _PERCHING_HEADER, _out_and_back(rows)


def cmd_sweep(params, args):
    for flag, value, positive in (
            ("--step-mm", args.step_mm, True), ("--travel-mm", args.travel_mm, False),
            ("--increment-n", args.increment_n, False), ("--steps", args.steps, False),
            ("--cycles", args.cycles, False), ("--max-iter", args.max_iter, False),
            ("--pretension", args.pretension, False)):
        if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
            bound = "positive" if positive else "non-negative"
            raise ConfigurationError(f"{flag} must be finite and {bound}, got {value:g}")
    if args.experiment == "stiffness":
        header, rows = _stiffness_sweep_rows(params, args)
    else:
        header, rows = _perching_sweep_rows(params, args)
    _write_atomic(args.out, "\n".join([header, *rows, ""]).encode())
    print(f"wrote {args.out} ({len(rows)} rows)")
    failures = sum(row.endswith(_FAILED) for row in rows)
    if failures:
        print(f"error: {failures} sweep points did not converge", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


@functools.cache  # argparse parsers keep no state between parse_args calls
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ccarm",
        description="Constant-curvature tendon arm: kinematics, statics, "
                    "stiffness and experiment sweeps",
    )
    parser.add_argument("--version", action="version",
                        version=f"ccarm {__version__} ({backend_name()} kernels)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pose = sub.add_parser("pose", help="tip pose of one configuration")
    _add_config_flags(p_pose)
    p_pose.set_defaults(handler=cmd_pose)

    p_jac = sub.add_parser("jacobians", help="all Jacobians of one configuration")
    _add_config_flags(p_jac)
    p_jac.add_argument("--check", action="store_true",
                       help="cross-check against the vectorized construction "
                            "and finite differences")
    p_jac.add_argument("--json", action="store_true", help="emit a JSON document")
    p_jac.set_defaults(handler=cmd_jacobians)

    p_stiff = sub.add_parser("stiffness", help="stiffness matrices at one configuration")
    _add_config_flags(p_stiff)
    group = p_stiff.add_mutually_exclusive_group()
    group.add_argument("--tensions", help="comma-separated tendon tensions, N")
    group.add_argument("--equilibrium", action="store_true",
                       help="allocate equilibrium tensions (default)")
    p_stiff.add_argument("--pretension", type=float, default=0.0,
                         help="pretension floor for --equilibrium, N")
    p_stiff.add_argument("--damped", action="store_true",
                         help="damped pseudoinverse at singular configurations")
    p_stiff.set_defaults(handler=cmd_stiffness)

    p_sweep = sub.add_parser("sweep", help="experiment sweep to CSV")
    p_sweep.add_argument("--experiment", choices=("stiffness", "perching"), required=True)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--params", help="parameter file")
    p_sweep.add_argument("--delta-deg", type=float, default=0.0)
    p_sweep.add_argument("--pretension", type=float, default=0.0)
    p_sweep.add_argument("--max-iter", type=int, default=100)
    # stiffness protocol: five 20-gram increments, five cycles, five bends
    p_sweep.add_argument("--configs-deg", default="0,15,30,45,60",
                         help="comma-separated bending angles, degrees")
    p_sweep.add_argument("--increment-n", type=float, default=0.02 * STANDARD_GRAVITY,
                         help="load increment, N (default 20 g)")
    p_sweep.add_argument("--steps", type=int, default=5, help="increments per cycle")
    p_sweep.add_argument("--cycles", type=int, default=5, help="loading cycles")
    p_sweep.add_argument("--direction", choices=("inward", "outward"), default="inward")
    # perching protocol: 10 mm out and back at a 30 degree bend
    p_sweep.add_argument("--theta-deg", type=float, default=30.0)
    p_sweep.add_argument("--travel-mm", type=float, default=10.0,
                         help="largest base offset, mm: the base moves out in whole "
                              "--step-mm steps up to it, then back (default 10)")
    p_sweep.add_argument("--step-mm", type=float, default=0.5,
                         help="base offset step, mm (default 0.5)")
    p_sweep.add_argument("--axis", choices=("x", "z"), default="x")
    p_sweep.set_defaults(handler=cmd_sweep)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its own message
        return int(exc.code or 0)
    try:
        params = _resolve_params(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    try:
        return args.handler(params, args)
    except SingularConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except ValueError as exc:  # ConfigurationError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CcarmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
