"""Elastic energy, quasi-static equilibrium and tendon tension allocation.

The virtual-work balance reads grad(E) = J_q^T tau + J_x^T w_ext.  Tendons
can only pull: allocation finds the minimum-norm tau >= pretension with
J_q^T tau = b.  Its rows scaled by 1/r and 1/(r theta) make tendon i's
column the unit vector a_i = (cos phi_i, -sin phi_i); the QP's KKT point
(Nocedal and Wright, Numerical Optimization, 2006, ch. 16) is
tau_i = max(floor, a_i . lam) with a_i . lam = |lam| cos(angle_i -
angle_lam), so for a floor >= 0 the tendons above it form one arc of the
ring sorted by angle.  The allocation tries the full ring, then the empty
set and the n(n-1) proper arcs, a 2x2 system each, and keeps the KKT point
among those with tau >= floor: an exact search, with no lstsq, SVD or
iteration budget.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import core
from .errors import ConfigurationError, InfeasibleTensionsError
from .kinematics import jacobian_q_psi, jacobian_x_psi
from .model import _readonly


@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of a tension allocation.

    residual is the configuration-space force imbalance re-evaluated from the
    returned tensions (never hidden); generalized_force is
    grad(E) - J_q^T tau, which at equilibrium equals J_x^T w_ext.
    """

    residual: np.ndarray           # N*m-scale 2-vector
    tensions: np.ndarray           # N
    generalized_force: np.ndarray  # 2-vector

    def __post_init__(self):
        object.__setattr__(self, "residual", _readonly(self.residual, (2,)))
        object.__setattr__(self, "tensions", _readonly(self.tensions, (-1,)))
        object.__setattr__(self, "generalized_force", _readonly(self.generalized_force, (2,)))


def elastic_energy(params, psi):
    """Bending energy stored in the backbone: theta^2 E_p I_p / (2 L), J."""
    return psi.theta ** 2 * params.flexural_rigidity / (2.0 * params.backbone_length)


def energy_gradient(params, psi):
    """Gradient of the elastic energy wrt (theta, delta)."""
    return np.array([psi.theta * params.flexural_rigidity / params.backbone_length, 0.0])


def _check_tensions(tensions, count):
    tau = np.asarray(tensions, dtype=float).reshape(-1)
    if tau.shape != (count,):
        raise ConfigurationError(f"expected {count} tensions, got {tau.shape[0]}")
    values = tau.tolist()
    if not all(map(math.isfinite, values)):
        raise ConfigurationError(f"tendon tensions must be finite, got {tau}")
    if min(values) < -1e-12:
        raise ConfigurationError(f"negative tendon tension: {min(values)!r}")
    return tau


def equilibrium_residual(params, psi, tensions, w_ext):
    """Configuration-space force imbalance grad(E) - J_q^T tau - J_x^T w_ext."""
    tau = _check_tensions(tensions, params.tendon_count)
    res = energy_gradient(params, psi) - jacobian_q_psi(params, psi).T @ tau
    if w_ext is not None:
        res -= jacobian_x_psi(params, psi).T @ w_ext.as_vector()
    return res


# A pretension past 2**500 N (about 3.3e150) would overflow squared tension norms.
_MAX_PRETENSION = 2.0 ** 500


def _solve_arc(gram, dx, dy, tol):
    """lam with H lam = d for an arc's Gram matrix gram = (hxx, hxy, hyy), or None.

    H with det <= 1e-14 trace^2 is rank one (one tendon, coincident or opposite
    ones, any arc at r theta = 0): pseudo-inverse, None if d is off its range.
    """
    hxx, hxy, hyy = gram
    trace = hxx + hyy
    det = hxx * hyy - hxy * hxy
    if det > 1e-14 * trace * trace:
        return (hyy * dx - hxy * dy) / det, (hxx * dy - hxy * dx) / det
    ux, uy = (hxx, hxy) if hxx >= hyy else (hxy, hyy)
    norm = math.hypot(ux, uy)
    if not abs(ux * dy - uy * dx) <= tol * norm:
        return None
    p = (ux * dx + uy * dy) / (trace * norm * norm)
    return p * ux, p * uy


def _best_arc(pts, n, c1, c2, lift):
    """(start, length, lam, gram) of the best arc of pts (the ring twice), or None.

    The full ring if it clears the floor lift, else of the empty set and the
    proper arcs that do, a KKT point (a_i . lam <= lift off the arc too) before
    the shortest: where the optimum is flat, rounding cannot rank the norms.
    """
    m = len(pts) // 2
    low, high = lift - 1e-12, lift + 1e-14
    gram = (sum(x * x for x, _ in pts[:m]), sum(x * y for x, y in pts[:m]),
            sum(y * y for _, y in pts[:m]))
    lam = _solve_arc(gram, c1, c2, 1e-12) if m else None  # m = 0: no moment arm at all
    if lam is not None and all(x * lam[0] + y * lam[1] >= low for x, y in pts[:m]):
        return 0, m, lam, gram
    tx, ty = sum(x for x, _ in pts[:m]), sum(y for _, y in pts[:m])
    best, best_key = None, (True, math.inf)
    if abs(c1 - lift * tx) <= 1e-12 and abs(c2 - lift * ty) <= 1e-12:
        best, best_key = (0, 0, None, None), (False, n * lift * lift)
    for start in range(m):
        hxx = hxy = hyy = sx = sy = 0.0
        for length in range(1, m):
            x, y = pts[start + length - 1]
            hxx, hxy, hyy, sx, sy = hxx + x * x, hxy + x * y, hyy + y * y, sx + x, sy + y
            lam = _solve_arc((hxx, hxy, hyy), c1 - lift * (tx - sx), c2 - lift * (ty - sy),
                             1e-12)
            if (lam is None or not pts[start][0] * lam[0] + pts[start][1] * lam[1] >= low
                    or not x * lam[0] + y * lam[1] >= low):
                continue  # an end of the arc is below the floor
            pulls = [px * lam[0] + py * lam[1] for px, py in pts[start:start + m]]
            if min(pulls[:length]) >= low:
                key = (not max(pulls[length:]) <= high,
                       sum(t * t for t in pulls[:length]) + (n - length) * lift * lift)
                if key < best_key:
                    best, best_key = (start, length, lam, (hxx, hxy, hyy)), key
    return best


def _arc_tensions(cos_v, sin_v, radius, theta, b1, b2, floor):
    """Minimum-norm tau >= floor with J_q^T tau = (b1, b2), as a list."""
    rt = radius * theta
    c1, c2 = b1 / radius, b2 / rt if rt else 0.0
    # a power of two at the problem's size: scaling by it is exact, the
    # tolerances become relative and squared norms cannot under- or overflow
    unit = math.ldexp(0.5, math.frexp(max(floor, math.hypot(c1, c2)))[1])
    if rt == 0.0 and abs(b2) > 1e-12 * unit * radius:
        raise InfeasibleTensionsError(
            "requested wrench lies outside the span of the tendon map at this configuration")
    c1, c2, lift = c1 / unit, c2 / unit, floor / unit
    # at r theta = 0 a moment arm below 1e-15 r is the rounding of cos(+-pi/2): zero
    cols = ([(x, -y) for x, y in zip(cos_v, sin_v)] if rt
            else [(x if abs(x) > 1e-15 else 0.0, 0.0) for x in cos_v])
    # sorted by angle also at r theta = 0; zero columns stay at the floor
    ring = [i for i in sorted(range(len(cols)), key=lambda i: math.atan2(-sin_v[i], cos_v[i]))
            if cols[i] != (0.0, 0.0)] * 2
    pts = [cols[i] for i in ring]
    best = _best_arc(pts, len(cols), c1, c2, lift)
    if best is None:
        raise InfeasibleTensionsError(
            f"no tension vector >= {floor!r} N realizes the requested wrench")
    start, length, lam, gram = best
    tau = [floor] * len(cols)
    if length:
        # one refinement step on the exact residual: error ~ cond(A_F), not its square
        loop = pts[start:start + len(pts) // 2]  # the ring, from the arc's start
        pulls = [x * lam[0] + y * lam[1] for x, y in loop[:length]] + [lift] * len(loop[length:])
        step = _solve_arc(gram, c1 - math.fsum(t * x for t, (x, _) in zip(pulls, loop)),
                          c2 - math.fsum(t * y for t, (_, y) in zip(pulls, loop)), math.inf)
        for i, (x, y) in zip(ring[start:start + length], loop):
            tau[i] = max(lift, x * (lam[0] + step[0]) + y * (lam[1] + step[1])) * unit
    return tau


def allocate_tensions(params, psi, w_ext, pretension=0.0):
    """Minimum-norm tau >= pretension with J_q^T tau = grad(E) - J_x^T w_ext.

    w_ext None means no wrench.  Raises ConfigurationError for a pretension
    < 0, non-finite or > 2**500 N, InfeasibleTensionsError when no tau does.
    """
    if not (math.isfinite(pretension) and pretension >= 0.0):
        raise ConfigurationError(
            f"pretension must be finite and >= 0, got {float(pretension)!r}")
    if pretension > _MAX_PRETENSION:
        raise ConfigurationError(
            f"pretension {pretension:.3g} N exceeds {_MAX_PRETENSION:.3g} N, past which "
            "the tension allocation's squared norms overflow")
    jq_t = jacobian_q_psi(params, psi).T
    grad = energy_gradient(params, psi)
    # A zero wrench (any signs of zero) projects to +0.0 entries, and
    # x - (+0.0) has the bits of x for every x, -0.0 included: skip it.
    external = None
    if w_ext is not None and (w_ext.force.any() or w_ext.moment.any()):
        external = jacobian_x_psi(params, psi).T @ w_ext.as_vector()
    b = grad if external is None else grad - external
    cos_v, sin_v = core.tendon_cos_sin(
        params.tendon_division_angle, params.tendon_count, psi.delta)
    tau = _check_tensions(_arc_tensions(cos_v, sin_v, params.pitch_radius, psi.theta,
                                        *b.tolist(), float(pretension)), params.tendon_count)
    # bitwise equilibrium_residual(params, psi, tau, w_ext), from the same products
    generalized = grad - jq_t @ tau
    residual = generalized if external is None else generalized - external
    return EquilibriumReport(residual=residual, tensions=tau, generalized_force=generalized)
