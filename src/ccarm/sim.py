"""Nonlinear quasi-static solvers replaying the two bench experiments.

Deflection sweeps load the arm tip with an in-plane radial force and track
the equilibrium against the commanded configuration; the perching benchmark
pins the tip in space, moves the base and reports the reaction wrench felt
by the carrier.  Motors are displacement-locked throughout: tendon tensions
follow tau(psi) = max(0, tau0 - K_q (q(psi) - q_cmd)).

Each experiment has one per-point core on Python floats
(``_solve_radial_load`` for a stiffness point, ``_perch`` for a perching
one) and one sweep loop over it (``_stiffness_points``,
``_perching_points``) that returns float rows.  Records are built from
those rows only at the API boundary: run_stiffness_sweep,
run_perching_sweep, solve_deflection and solve_perching_reaction.  The CLI
formats its CSV rows from the same float rows, so a sweep written to CSV
builds no record and no Configuration per point.  A perching point reads
the floats of its commanded state (arm constants, IK start, locked motors),
built once per state by ``_perching_state``, and one evaluation of the arc
quotients at its equilibrium serves J_v's columns and the moment's tip.

Solvers run in the smooth bend-vector chart internally (kernels module) and
every returned record carries a residual re-evaluated here, independently of
the solver's internal bookkeeping.  One helper gives the locked-motor
generalized force g = (g_theta, g_delta), which both the deflection residual
g - J_v^T f and the perching reaction -(J_v^T)^+ g start from; the reaction
is in closed form (see solve_perching_reaction).

The sweep loops and the per-point cores need no numpy: it is imported only
inside the functions that take or build arrays, so a CSV sweep loads none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ._kernels import core
from .errors import ConfigurationError, ConvergenceError, UnreachableTargetError
from .model import Configuration, _count, _real, _reals, _readonly, _wrapped_angles
from .statics import _allocation, _arm, _generalized_force

if TYPE_CHECKING:
    import numpy as np

# Newton loads beyond this are refused; the bench protocol stays around 1 N.
DEFAULT_FORCE_CAP = 2.0
_MAX_REAIM = 50      # deflection solves allowed per re-aimed sweep point
_REAIM_TOL = 1e-12   # re-aiming stops once no direction component moves more
_IK_DAMPING = 1e-6   # Levenberg damping floor of the constrained-tip IK
_IK_TOL = 1e-8       # m, reachable-component positional residual of the IK
_DEFLECTION_TOL = 1e-10  # N*m, configuration-space residual of a deflection
_MAX_ITER = 100      # default Newton/IK iteration budget of one solve
_PINV_RCOND = 1e-15  # relative cutoff of the perching reaction's J_v columns
_NAN3 = (math.nan, math.nan, math.nan)  # a failed point's force, displacement, moment

# Errors that mark one sweep point failed rather than abort the sweep.  The
# drivers validate their inputs and build the commanded state before the loop,
# so inside it a ConfigurationError can only be a load over the force cap, an
# equilibrium bent past pi or a perching reaction that is not finite.
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
    """Central-difference Jacobian of a vector map, column by column.

    A step that is not > 0 with 2 * step finite raises ConfigurationError.
    """
    import numpy as np

    x = np.array(_reals(x, -1, "x"))
    step = _real(step, "step")
    if not (step > 0.0 and math.isfinite(2.0 * step)):
        raise ConfigurationError(f"step must be > 0 with 2 * step finite, got {step!r}")
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


def _bend_angles(wx, wy, fallback_delta):
    # (theta, delta) of the bend vector w, canonical and checked as
    # wrap_configuration makes them; delta falls back where w = 0.
    theta = math.hypot(wx, wy)
    return _wrapped_angles(theta, math.atan2(wy, wx) if theta > 0.0 else fallback_delta)


def _commanded_state(params, commanded_config, pretension):
    # Float tuples (q_cmd, tau0): the motor lengths r theta cos(delta + i beta)
    # and the zero-wrench tensions held locked, from one allocation pass.
    tau0, cos_v, _, _ = _allocation(params, commanded_config, None, pretension)
    rt = params.pitch_radius * commanded_config.theta
    return tuple(rt * c for c in cos_v), tuple(tau0)


def _locked_motor_force(arm, theta, delta, q_cmd, tau0):
    # (g_theta, g_delta) = grad E - J_q^T tau with the motors locked at q_cmd,
    # tau = max(0, tau0 - k (q - q_cmd)), on floats; arm is _arm(params).
    _, radius, beta, count, _, k = arm
    cos_v, sin_v = core.tendon_cos_sin(beta, count, delta)
    rt = radius * theta
    # The pulls as statics._pulls sums them, summed in one pass: a tendon with
    # tau = 0 (t <= 0 or NaN) adds a signed zero there, which moves no bit of a
    # sum that starts at +0.0, so it is skipped here.
    pull_cos = pull_sin = 0.0
    for c, s, qc, t0 in zip(cos_v, sin_v, q_cmd, tau0):
        t = t0 - k * (rt * c - qc)
        if t > 0.0:
            pull_cos += c * t
            pull_sin += s * t
    return _generalized_force(arm, theta, pull_cos, pull_sin)


def _check_force_cap(f):
    magnitude = math.hypot(*f)
    if magnitude > DEFAULT_FORCE_CAP:
        raise ConfigurationError(
            f"tip force {magnitude:.3g} N exceeds cap {DEFAULT_FORCE_CAP:.3g} N")


def _unconverged(iters, max_iter):
    return ConvergenceError(f"deflection solve did not converge in {max_iter} iterations",
                            iterations=iters)


def _deflection_point(length, p0, f, wx, wy, iters, theta, delta):
    # The float row of a converged point at w, p0 being the unloaded tip:
    # (f, tip displacement, iterations, theta, delta, True).
    p1 = core.bend_position(length, wx, wy)
    return f, (p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]), iters, theta, delta, True


def _deflection_record(arm, state, point):
    f, disp, iters, theta, delta, converged = point
    residual = math.nan
    if converged:
        g_theta, g_delta = _locked_motor_force(arm, theta, delta, *state)
        c_theta, c_delta = core.jac_v_columns(arm[0], theta, delta, core.arc_quotients(theta))
        residual = math.hypot(g_theta - core.dot(c_theta, f), g_delta - core.dot(c_delta, f))
    return DeflectionRecord(
        applied_force=f,
        equilibrium_config=Configuration(theta, delta),
        tip_displacement=disp,
        solver_iterations=iters,
        residual_norm=residual,
        converged=converged,
    )


def solve_deflection(params, commanded_config, tip_force, pretension=0.0, *,
                     max_iter=_MAX_ITER):
    """Equilibrium of the displacement-locked arm under a tip force.

    Motors hold the tendon lengths of commanded_config; tensions start from
    the pure-bending allocation at that configuration.  Newton iteration runs
    until the configuration-space residual drops below 1e-10 N*m.

    Returns a DeflectionRecord; raises ConvergenceError when the iteration
    budget runs out, ConfigurationError past the force cap, at a bend of pi or
    for an argument the input contract refuses (see README): a max_iter that
    is not an integer >= 0, a tip_force that is not three finite numbers or a
    pretension that is not a real number >= 0.
    """
    max_iter = _count(max_iter, "max_iter", 0)
    f = tuple(_reals(tip_force, 3, "tip_force"))
    arm = _arm(params)
    state = _commanded_state(params, commanded_config, pretension)
    w0 = _bend_vector(commanded_config)
    _check_force_cap(f)
    wx, wy, iters, _, ok = core.solve_deflection(
        *arm, *state, *f, *w0, 0.5 * _DEFLECTION_TOL, max_iter)
    if not ok:
        raise _unconverged(iters, max_iter)
    length = arm[0]
    return _deflection_record(arm, state, _deflection_point(
        length, core.bend_position(length, *w0), f, wx, wy, iters,
        *_bend_angles(wx, wy, commanded_config.delta)))


def _direction_sign(direction):
    if direction not in ("inward", "outward"):
        raise ConfigurationError(f"direction must be 'inward' or 'outward', got {direction!r}")
    return 1.0 if direction == "inward" else -1.0


def _radial_direction(theta, delta, sign):
    # Float 3-tuple; each entry is bitwise numpy's sign * array([...]).
    st, ct = math.sin(theta), math.cos(theta)
    sd, cd = math.sin(delta), math.cos(delta)
    return sign * (ct * cd), sign * (ct * sd), sign * -st


def radial_load_direction(psi, direction):
    """Unit in-plane load direction, perpendicular to the end-disk normal.

    "inward" points toward the arc center (it deepens the bend), "outward"
    is its opposite.  Any other direction raises ConfigurationError.
    """
    import numpy as np

    return np.array(_radial_direction(psi.theta, psi.delta, _direction_sign(direction)))


def _solve_radial_load(arm, fallback_delta, w0, state, d0, load, sign, max_iter):
    # The bench rig re-aims the pull so it stays radial at the *deflected*
    # configuration: iterate direction and equilibrium to a joint fixed
    # point, from the commanded direction d0.  Returns the settled pass as
    # (f, wx, wy, iterations, theta, delta).
    length, radius, beta, count, flexural, k_tendon = arm
    q_cmd, tau0 = state
    w0x, w0y = w0
    tol = 0.5 * _DEFLECTION_TOL
    dx, dy, dz = d0
    for _ in range(_MAX_REAIM):
        f = fx, fy, fz = load * dx, load * dy, load * dz
        _check_force_cap(f)
        wx, wy, iters, _, ok = core.solve_deflection(
            length, radius, beta, count, flexural, k_tendon, q_cmd, tau0, fx, fy, fz,
            w0x, w0y, tol, max_iter)
        if not ok:
            raise _unconverged(iters, max_iter)
        theta, delta = _bend_angles(wx, wy, fallback_delta)
        nx, ny, nz = _radial_direction(theta, delta, sign)
        if abs(nx - dx) < _REAIM_TOL and abs(ny - dy) < _REAIM_TOL and abs(nz - dz) < _REAIM_TOL:
            return f, wx, wy, iters, theta, delta
        dx, dy, dz = nx, ny, nz
    raise ConvergenceError("radial load direction did not settle while re-aiming")


def _stiffness_points(params, configs, load_schedule, direction, pretension, max_iter,
                      strict):
    """Float rows of a stiffness sweep: (state, points) per configuration.

    points holds one row per load, (f, tip displacement, iterations, theta,
    delta, converged); a failed point keeps the first pass's force, NaN
    displacements and the commanded (theta, delta), or with strict=True
    raises, annotated with (config, load).  Inputs are validated before any
    point is solved.
    """
    max_iter = _count(max_iter, "max_iter", 0)
    sign = _direction_sign(direction)
    loads = _reals(load_schedule, -1, "load_schedule")
    arm = _arm(params)
    length = params.backbone_length
    sweep = []
    for config in configs:
        state = _commanded_state(params, config, pretension)
        w0 = _bend_vector(config)
        p0 = core.bend_position(length, *w0)
        d0 = _radial_direction(config.theta, config.delta, sign)
        points = []
        for load in loads:
            try:
                settled = _solve_radial_load(arm, config.delta, w0, state, d0, load, sign,
                                             max_iter)
            except _POINT_FAILURES as exc:
                if strict:
                    raise type(exc)(
                        f"sweep point theta={math.degrees(config.theta):.3g} deg, "
                        f"load_schedule entry {load:.4g} N: {exc}") from exc
                points.append(((load * d0[0], load * d0[1], load * d0[2]), _NAN3,
                               getattr(exc, "iterations", 0) or 0,
                               config.theta, config.delta, False))
            else:
                points.append(_deflection_point(length, p0, *settled))
        sweep.append((state, points))
    return sweep


def run_stiffness_sweep(params, configs, load_schedule, direction="inward",
                        pretension=0.0, *, strict=True, max_iter=_MAX_ITER):
    """Deflection records over configurations x load schedule (config-major).

    The load stays perpendicular to the end-disk normal within the bending
    plane, re-aimed at each equilibrium.  A failed point (no convergence, a
    load over the cap, an equilibrium past pi) raises with strict=True,
    annotated with (config, load); otherwise it is recorded with
    converged=False and NaN displacements.  A load that is not a finite real
    number (a bool included), an unknown direction or a max_iter that is not
    an integer >= 0 raises ConfigurationError before any point is solved.
    """
    sweep = _stiffness_points(params, configs, load_schedule, direction, pretension,
                              max_iter, strict)
    arm = _arm(params)
    return [_deflection_record(arm, state, point)
            for state, points in sweep for point in points]


def _out_and_back(items):
    """Items, then back through them to the first: both sweeps' protocol.

    The model is memoryless, so return-leg rows repeat the outward ones.
    """
    return items + items[-2::-1]


def mirrored_schedule(increment, steps):
    """Load schedule increasing in equal steps and mirrored back to zero."""
    _real(increment, "increment")
    return _out_and_back([increment * k for k in range(_count(steps, "steps", 0) + 1)])[1:]


def _reaction(columns, generalized):
    # -(J_v^T)^+ g in closed form from J_v's columns (c_theta, c_delta): they
    # are orthogonal, so the pseudoinverse scales each column by 1/|c|^2.  A
    # column no longer than 1e-15 times the longer one is dropped, numpy
    # pinv's default cutoff: c_delta vanishes with theta.
    (tx, ty, tz), (dx, dy, dz) = columns
    g_theta, g_delta = generalized
    n_theta = tx * tx + ty * ty + tz * tz
    n_delta = dx * dx + dy * dy + dz * dz
    cutoff2 = _PINV_RCOND * _PINV_RCOND * max(n_theta, n_delta)
    a = g_theta / n_theta if n_theta > cutoff2 else 0.0
    b = g_delta / n_delta if n_delta > cutoff2 else 0.0
    # + 0.0 turns -0.0 into 0.0: at delta = 0 the golden CSVs print fy as 0
    return -(a * tx + b * dx) + 0.0, -(a * ty + b * dy) + 0.0, -(a * tz + b * dz) + 0.0


def _perching_state(params, commanded_config, pretension):
    # The floats every perching point of one commanded state reads: the arm
    # constants, the IK start w0, the commanded delta (a straight equilibrium
    # keeps it) and the locked motors (q_cmd, tau0).
    return (_arm(params), *_bend_vector(commanded_config), commanded_config.delta,
            *_commanded_state(params, commanded_config, pretension))


def _perch(perching, tx, ty, tz, max_iter):
    # One perching point on floats, the tip pinned at t = anchor - offset and
    # perching being _perching_state's: returns the row (force, moment, theta,
    # delta, ik_residual, iterations, True), or raises the point's failure.
    arm, w0x, w0y, fallback_delta, q_cmd, tau0 = perching
    length = arm[0]
    reach = math.hypot(tx, ty, tz)
    if reach > length * (1.0 + 1e-9):
        raise UnreachableTargetError(
            f"tip_anchor - base_offset is {reach:.4g} m away, past the arm length {length:.4g} m")
    wx, wy, iters, reach_residual, ok = core.solve_tip_constraint(
        length, w0x, w0y, tx, ty, tz, _IK_DAMPING, _IK_TOL, max_iter)
    if not ok:
        raise ConvergenceError(f"constrained-tip IK did not converge in {max_iter} iterations",
                               iterations=iters, residual=reach_residual)
    theta, delta = _bend_angles(wx, wy, fallback_delta)
    quotients = core.arc_quotients(theta)  # theta is hypot(wx, wy): bend_position's too
    fx, fy, fz = _reaction(core.jac_v_columns(length, theta, delta, quotients),
                           _locked_motor_force(arm, theta, delta, q_cmd, tau0))
    # tip x force, each entry one product minus another as np.cross does it
    px, py, pz = core.bend_tip(length, wx, wy, quotients)
    mx, my, mz = py * fz - pz * fy, pz * fx - px * fz, px * fy - py * fx
    # NaN where the tendon stiffness k or k r^2 overflows: a failed point
    if not (math.isfinite(fx) and math.isfinite(fy) and math.isfinite(fz)
            and math.isfinite(mx) and math.isfinite(my) and math.isfinite(mz)):
        raise ConfigurationError("perching reaction is not finite")
    return (fx, fy, fz), (mx, my, mz), theta, delta, reach_residual, iters, True


def _perching_record(offset, point):
    force, moment, theta, delta, residual, iters, converged = point
    return PerchingRecord(
        base_offset=offset,
        reaction_force=force,
        reaction_moment=moment,
        equilibrium_config=Configuration(theta, delta),
        ik_residual_norm=residual,
        iterations=iters,
        converged=converged,
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
    An anchor or offset that is not three finite numbers raises
    ConfigurationError before the IK.
    """
    anchor = _reals(tip_anchor, 3, "tip_anchor")
    offset = _reals(base_offset, 3, "base_offset")
    (ax, ay, az), (ox, oy, oz) = anchor, offset
    return _perching_record(offset, _perch(
        _perching_state(params, commanded_config, pretension),
        ax - ox, ay - oy, az - oz, _MAX_ITER))


def _perching_points(params, commanded_config, base_offsets, pretension, max_iter):
    """Float rows of a perching sweep: _perch's row per base offset.

    base_offsets is a sequence of float 3-lists.  A failed point has NaN
    force, moment and IK residual and the commanded (theta, delta).  The tip
    stays pinned at the commanded tip.  Inputs are validated, and the
    commanded state built, before any point is solved.
    """
    max_iter = _count(max_iter, "max_iter", 0)
    if not all(math.isfinite(v) for offset in base_offsets for v in offset):
        raise ConfigurationError("perching base offsets must be finite")
    theta, delta = commanded_config.theta, commanded_config.delta
    ax, ay, az = core.position(params.backbone_length, theta, delta)
    perching = _perching_state(params, commanded_config, pretension)
    points = []
    for ox, oy, oz in base_offsets:
        try:
            point = _perch(perching, ax - ox, ay - oy, az - oz, max_iter)
        except _POINT_FAILURES as exc:
            point = (_NAN3, _NAN3, theta, delta, math.nan,
                     getattr(exc, "iterations", 0) or 0, False)
        points.append(point)
    return points


def run_perching_sweep(params, commanded_config, base_offsets, pretension=0.0, *,
                       max_iter=_MAX_ITER):
    """Perching records over base offsets, the tip pinned at the commanded tip.

    The commanded state is built once for all offsets.  A failed point (IK
    not converged, anchor out of reach, an equilibrium bent past pi) is
    recorded with converged=False and NaN reaction force and moment.
    base_offsets is an (n, 3) array-like or a flat sequence of 3n real
    numbers; a non-finite offset, any other shape or a max_iter that is not an
    integer >= 0 raises ConfigurationError before any point is solved.
    """
    # _perching_points refuses a non-finite offset, with the CLI's message
    offsets = _reals(base_offsets, (-1, 3), "base_offsets", finite=False)
    return [_perching_record(offset, point)
            for offset, point in zip(offsets, _perching_points(
                params, commanded_config, offsets, pretension, max_iter))]
