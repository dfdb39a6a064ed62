"""Nonlinear quasi-static solvers replaying the two bench experiments.

Deflection sweeps load the arm tip with an in-plane radial force and track
the equilibrium against the commanded configuration; the perching benchmark
pins the tip in space, moves the base and reports the reaction wrench felt
by the carrier.  Motors are displacement-locked throughout: tendon tensions
follow tau(psi) = max(0, tau0 - K_q (q(psi) - q_cmd)).

Solvers run in the smooth bend-vector chart internally (kernels module) and
every returned record carries a residual re-evaluated here, independently of
the solver's internal bookkeeping.  Records are built on Python floats: one
helper gives the locked-motor generalized force g = (g_theta, g_delta), which
both the deflection residual g - J_v^T f and the perching reaction start
from.  The reaction -(J_v^T)^+ g is in closed form: J_v's columns c_theta and
c_delta are orthogonal, so it is -(g_theta/|c_theta|^2) c_theta -
(g_delta/|c_delta|^2) c_delta.  As numpy's pinv does, it drops a column no
longer than 1e-15 times the other; c_delta vanishes at theta = 0.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._kernels import core
from .errors import ConfigurationError, ConvergenceError, UnreachableTargetError
from .kinematics import configuration_to_joints, forward_kinematics
from .model import Configuration, _readonly, wrap_configuration
from .statics import allocate_tensions

# Newton loads beyond this are refused; the bench protocol stays around 1 N.
DEFAULT_FORCE_CAP = 2.0
_MAX_REAIM = 50      # deflection solves allowed per re-aimed sweep point
_REAIM_TOL = 1e-12   # re-aiming stops once no direction component moves more
_IK_DAMPING = 1e-6   # Levenberg damping floor of the constrained-tip IK
_IK_TOL = 1e-8       # m, reachable-component positional residual of the IK
_DEFLECTION_TOL = 1e-10  # N*m, configuration-space residual of a deflection
_MAX_ITER = 100      # default Newton/IK iteration budget of one solve
_PINV_RCOND = 1e-15  # relative cutoff of the perching reaction's J_v columns

# Errors that mark one sweep point failed rather than abort the sweep.  The
# drivers validate their inputs and build the commanded state before the loop,
# so inside it a ConfigurationError can only be a load over the force cap or
# an equilibrium bent past pi.
_POINT_FAILURES = (ConvergenceError, ConfigurationError, UnreachableTargetError)

STANDARD_GRAVITY = 9.80665  # m/s^2, converts gram-denominated bench loads


@dataclass(frozen=True)
class DeflectionRecord:
    """Equilibrium reached under one tip load."""

    applied_force: np.ndarray       # N, base frame
    equilibrium_config: Configuration
    tip_displacement: np.ndarray    # m, relative to the unloaded tip
    solver_iterations: int
    residual_norm: float            # re-evaluated, N*m scale
    converged: bool = True

    def __post_init__(self):
        object.__setattr__(self, "applied_force", _readonly(self.applied_force, (3,)))
        object.__setattr__(self, "tip_displacement", _readonly(self.tip_displacement, (3,)))


@dataclass(frozen=True)
class PerchingRecord:
    """Reaction wrench on the carrier for one base offset with the tip pinned."""

    base_offset: np.ndarray         # m
    reaction_force: np.ndarray      # N
    reaction_moment: np.ndarray     # N*m
    equilibrium_config: Configuration
    ik_residual_norm: float         # reachable-component positional residual, m
    iterations: int
    converged: bool = True

    def __post_init__(self):
        object.__setattr__(self, "base_offset", _readonly(self.base_offset, (3,)))
        object.__setattr__(self, "reaction_force", _readonly(self.reaction_force, (3,)))
        object.__setattr__(self, "reaction_moment", _readonly(self.reaction_moment, (3,)))


def finite_difference_oracle(f, x, step=1e-6):
    """Central-difference Jacobian of a vector map, column by column."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(x.size):
        dx = np.zeros_like(x)
        dx[k] = step
        plus = np.atleast_1d(np.asarray(f(x + dx), dtype=float))
        minus = np.atleast_1d(np.asarray(f(x - dx), dtype=float))
        cols.append((plus - minus) / (2.0 * step))
    return np.column_stack(cols)


def _bend_vector(psi):
    return psi.theta * math.cos(psi.delta), psi.theta * math.sin(psi.delta)


def _wrap_bend(wx, wy, fallback_delta):
    theta = math.hypot(wx, wy)
    delta = math.atan2(wy, wx) if theta > 0.0 else fallback_delta
    return wrap_configuration(theta, delta)


def _check_max_iter(max_iter):
    if (isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral)
            or max_iter < 0):
        raise ConfigurationError(f"max_iter must be a non-negative integer, got {max_iter!r}")


def _commanded_state(params, commanded_config, pretension):
    # Float tuples (q_cmd, tau0): the motor lengths and tensions held locked.
    q_cmd = configuration_to_joints(params, commanded_config).displacements
    tau0 = allocate_tensions(params, commanded_config, None, pretension).tensions
    return tuple(q_cmd.tolist()), tuple(tau0.tolist())


def _arm(params):
    # The arm constants of the deflection kernel, in its argument order.
    return (params.backbone_length, params.pitch_radius, params.tendon_division_angle,
            params.tendon_count, params.flexural_rigidity, params.tendon_axial_stiffness)


def _locked_motor_force(params, psi, q_cmd, tau0):
    # (g_theta, g_delta) = grad E - J_q^T tau with the motors locked at q_cmd,
    # tau = max(0, tau0 - k (q - q_cmd)), on floats.
    cos_v, sin_v = core.tendon_cos_sin(
        params.tendon_division_angle, params.tendon_count, psi.delta)
    r, k = params.pitch_radius, params.tendon_axial_stiffness
    rt = r * psi.theta
    pull_cos = pull_sin = 0.0
    for c, s, qc, t0 in zip(cos_v, sin_v, q_cmd, tau0):
        tau = max(0.0, t0 - k * (rt * c - qc))
        pull_cos += c * tau
        pull_sin += s * tau
    return (psi.theta * params.flexural_rigidity / params.backbone_length - r * pull_cos,
            rt * pull_sin)


def _jacobian_v_columns(params, psi):
    # The columns (c_theta, c_delta) of J_v, each a float 3-tuple.
    a, b, c, d, e, f = core.jac_v(params.backbone_length, psi.theta, psi.delta)
    return (a, c, e), (b, d, f)


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _equilibrium(params, commanded_config, q_cmd, tau0, f, max_iter, start=None):
    # The solve alone: returns (wx, wy, iterations, wrapped configuration).
    magnitude = math.hypot(*f)
    if magnitude > DEFAULT_FORCE_CAP:
        raise ConfigurationError(
            f"tip force {magnitude:.3g} N exceeds cap {DEFAULT_FORCE_CAP:.3g} N")
    wx, wy, iters, _, ok = core.solve_deflection(
        *_arm(params), q_cmd, tau0, f[0], f[1], f[2], *_bend_vector(commanded_config),
        0.5 * _DEFLECTION_TOL, max_iter, start,
    )
    if not ok:
        raise ConvergenceError(
            f"deflection solve did not converge in {max_iter} iterations",
            iterations=iters,
        )
    return wx, wy, iters, _wrap_bend(wx, wy, commanded_config.delta)


def _deflection_record(params, commanded_config, q_cmd, tau0, f, equilibrium):
    wx, wy, iters, psi_eq = equilibrium
    g_theta, g_delta = _locked_motor_force(params, psi_eq, q_cmd, tau0)
    c_theta, c_delta = _jacobian_v_columns(params, psi_eq)
    w0x, w0y = _bend_vector(commanded_config)
    p0 = core.bend_position(params.backbone_length, w0x, w0y)
    p1 = core.bend_position(params.backbone_length, wx, wy)
    return DeflectionRecord(
        applied_force=f,
        equilibrium_config=psi_eq,
        tip_displacement=[b - a for a, b in zip(p0, p1)],
        solver_iterations=iters,
        residual_norm=math.hypot(g_theta - _dot(c_theta, f), g_delta - _dot(c_delta, f)),
    )


def solve_deflection(params, commanded_config, tip_force, pretension=0.0, *,
                     max_iter=_MAX_ITER):
    """Equilibrium of the displacement-locked arm under a tip force.

    Motors hold the tendon lengths of commanded_config; tensions start from
    the pure-bending allocation at that configuration.  Newton iteration runs
    until the configuration-space residual drops below 1e-10 N*m.

    Returns a DeflectionRecord; raises ConvergenceError when the iteration
    budget runs out, ConfigurationError for a non-finite force, past the force
    cap, a bend of pi or a max_iter that is not a non-negative integer.
    """
    _check_max_iter(max_iter)
    f = tuple(np.asarray(tip_force, dtype=float).reshape(3).tolist())
    if not all(map(math.isfinite, f)):
        raise ConfigurationError(f"tip force must be finite, got {list(f)}")
    state = _commanded_state(params, commanded_config, pretension)
    return _deflection_record(params, commanded_config, *state, f,
                              _equilibrium(params, commanded_config, *state, f, max_iter))


def _direction_sign(direction):
    if direction not in ("inward", "outward"):
        raise ConfigurationError(f"direction must be 'inward' or 'outward', got {direction!r}")
    return 1.0 if direction == "inward" else -1.0


def _radial_direction(psi, sign):
    # Float 3-tuple; each entry is bitwise numpy's sign * array([...]).
    st, ct = math.sin(psi.theta), math.cos(psi.theta)
    sd, cd = math.sin(psi.delta), math.cos(psi.delta)
    return sign * (ct * cd), sign * (ct * sd), sign * -st


def radial_load_direction(psi, direction):
    """Unit in-plane load direction, perpendicular to the end-disk normal.

    "inward" points toward the arc center (it deepens the bend), "outward"
    is its opposite.  Any other direction raises ConfigurationError.
    """
    return np.array(_radial_direction(psi, _direction_sign(direction)))


def _solve_radial_load(params, config, state, start, load, sign, max_iter):
    # The bench rig re-aims the pull so it stays radial at the *deflected*
    # configuration: iterate direction and equilibrium to a joint fixed point.
    # Only the settled pass becomes a record.
    d = _radial_direction(config, sign)
    for _ in range(_MAX_REAIM):
        f = (load * d[0], load * d[1], load * d[2])
        equilibrium = _equilibrium(params, config, *state, f, max_iter, start)
        d_new = _radial_direction(equilibrium[-1], sign)
        if all(abs(a - b) < _REAIM_TOL for a, b in zip(d_new, d)):
            return _deflection_record(params, config, *state, f, equilibrium)
        d = d_new
    raise ConvergenceError("radial load direction did not settle while re-aiming")


def run_stiffness_sweep(params, configs, load_schedule, direction="inward",
                        pretension=0.0, *, strict=True, max_iter=_MAX_ITER):
    """Deflection records over configurations x load schedule (config-major).

    The load stays perpendicular to the end-disk normal within the bending
    plane, re-aimed at each equilibrium.  A failed point (no convergence, a
    load over the cap, an equilibrium past pi) raises with strict=True,
    annotated with (config, load); otherwise it is recorded with
    converged=False and NaN displacements.  A non-finite load, an unknown
    direction or a max_iter that is not a non-negative integer raises
    ConfigurationError before any point is solved.
    """
    _check_max_iter(max_iter)
    sign = _direction_sign(direction)
    loads = [float(load) for load in load_schedule]
    if not all(map(math.isfinite, loads)):
        raise ConfigurationError("sweep loads must be finite")
    records = []
    for config in configs:
        state = _commanded_state(params, config, pretension)
        # every solve of this configuration starts at its bend vector
        start = core.deflection_start(*_arm(params), *state, *_bend_vector(config))
        for load in loads:
            try:
                records.append(_solve_radial_load(
                    params, config, state, start, load, sign, max_iter))
            except _POINT_FAILURES as exc:
                if strict:
                    raise type(exc)(
                        f"sweep point theta={math.degrees(config.theta):.3g} deg, "
                        f"load={load:.4g} N: {exc}") from exc
                records.append(DeflectionRecord(
                    applied_force=load * radial_load_direction(config, direction),
                    equilibrium_config=config,
                    tip_displacement=np.full(3, np.nan),
                    solver_iterations=getattr(exc, "iterations", 0) or 0,
                    residual_norm=float("nan"),
                    converged=False,
                ))
    return records


def mirrored_schedule(increment, steps):
    """Load schedule increasing in equal steps and mirrored back to zero."""
    up = [increment * k for k in range(1, steps + 1)]
    down = [increment * k for k in range(steps - 1, -1, -1)]
    return up + down


def _reaction(params, psi, generalized):
    # -(J_v^T)^+ g in closed form.  J_v's columns are orthogonal, so
    # J_v^T J_v is diagonal and the pseudoinverse scales each column by
    # 1/|c|^2.  A column no longer than 1e-15 times the longer one is dropped,
    # numpy pinv's default cutoff: c_delta vanishes with theta.
    c_theta, c_delta = _jacobian_v_columns(params, psi)
    norms2 = (_dot(c_theta, c_theta), _dot(c_delta, c_delta))
    cutoff2 = _PINV_RCOND * _PINV_RCOND * max(norms2)
    a, b = (g / n2 if n2 > cutoff2 else 0.0 for g, n2 in zip(generalized, norms2))
    # + 0.0 turns -0.0 into 0.0: at delta = 0 the golden CSVs print fy as 0
    return tuple(-(a * t + b * d) + 0.0 for t, d in zip(c_theta, c_delta))


def _perch(params, commanded_config, state, anchor, offset, max_iter):
    # anchor and offset are float 3-lists
    target = [a - o for a, o in zip(anchor, offset)]
    length = params.backbone_length
    reach = math.hypot(*target)
    if reach > length * (1.0 + 1e-9):
        raise UnreachableTargetError(
            f"anchor at distance {reach:.4g} m exceeds the arm length {length:.4g} m"
        )
    w0x, w0y = _bend_vector(commanded_config)
    wx, wy, iters, reach_residual, ok = core.solve_tip_constraint(
        length, w0x, w0y, target[0], target[1], target[2], _IK_DAMPING, _IK_TOL, max_iter,
    )
    if not ok:
        raise ConvergenceError(
            f"constrained-tip IK did not converge in {max_iter} iterations",
            iterations=iters, residual=reach_residual,
        )
    psi = _wrap_bend(wx, wy, commanded_config.delta)

    fx, fy, fz = _reaction(params, psi, _locked_motor_force(params, psi, *state))
    # tip x force, each entry one product minus another as np.cross does it
    px, py, pz = core.bend_position(length, wx, wy)
    return PerchingRecord(
        base_offset=offset,
        reaction_force=(fx, fy, fz),
        reaction_moment=(py * fz - pz * fy, pz * fx - px * fz, px * fy - py * fx),
        equilibrium_config=psi,
        ik_residual_norm=float(reach_residual),
        iterations=iters,
    )


def solve_perching_reaction(params, commanded_config, tip_anchor, base_offset,
                            pretension=0.0):
    """Reaction wrench on the carrier with the tip pinned and the base moved.

    The tip must stay at tip_anchor while the base translates by base_offset,
    so the arm settles to the configuration whose tip is closest to
    tip_anchor - base_offset (least-squares positional IK, the bend has only
    two degrees of freedom).  The reaction transmitted to the carrier is
    -(J_v^T)^+ g with g = grad E - J_q^T tau, with the moment taken about the
    base origin at the tip position.  J_v's two columns are orthogonal, so
    the reaction is -(g_theta/|c_theta|^2) c_theta - (g_delta/|c_delta|^2)
    c_delta, computed in closed form; like numpy's pinv, it drops a column
    no longer than 1e-15 times the other, which near theta = 0 is c_delta.
    A non-finite anchor or offset raises ConfigurationError before the IK.
    """
    anchor = np.asarray(tip_anchor, dtype=float).reshape(3).tolist()
    offset = np.asarray(base_offset, dtype=float).reshape(3).tolist()
    if not all(map(math.isfinite, anchor + offset)):
        raise ConfigurationError(
            f"perching tip anchor and base offset must be finite, got {anchor} and {offset}")
    state = _commanded_state(params, commanded_config, pretension)
    return _perch(params, commanded_config, state, anchor, offset, _MAX_ITER)


def run_perching_sweep(params, commanded_config, base_offsets, pretension=0.0, *,
                       max_iter=_MAX_ITER):
    """Perching records over base offsets, the tip pinned at the commanded tip.

    The commanded state is built once for all offsets.  A failed point (IK
    not converged, anchor out of reach, an equilibrium bent past pi) is
    recorded with converged=False and NaN reaction force and moment; a
    non-finite offset or a max_iter that is not a non-negative integer raises
    ConfigurationError before any point is solved.
    """
    _check_max_iter(max_iter)
    offsets = np.asarray(base_offsets, dtype=float).reshape(-1, 3)
    if not np.isfinite(offsets).all():
        raise ConfigurationError("perching base offsets must be finite")
    anchor = forward_kinematics(params, commanded_config).position.tolist()
    state = _commanded_state(params, commanded_config, pretension)
    records = []
    for offset in offsets.tolist():
        try:
            records.append(_perch(params, commanded_config, state, anchor, offset, max_iter))
        except _POINT_FAILURES as exc:
            records.append(PerchingRecord(
                base_offset=offset,
                reaction_force=np.full(3, np.nan),
                reaction_moment=np.full(3, np.nan),
                equilibrium_config=commanded_config,
                ik_residual_norm=float("nan"),
                iterations=getattr(exc, "iterations", 0) or 0,
                converged=False,
            ))
    return records
