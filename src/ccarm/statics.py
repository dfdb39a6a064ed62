"""Elastic energy, quasi-static equilibrium and tendon tension allocation.

The virtual-work balance reads grad(E) = J_q^T tau + J_x^T w_ext.  Tendons
can only pull: allocation finds the minimum-norm tau >= pretension with
J_q^T tau = b.  Its rows scaled by 1/r and 1/(r theta) make tendon i's
column the unit vector a_i = (cos phi_i, -sin phi_i); the QP's KKT point
(Nocedal and Wright, Numerical Optimization, 2006, ch. 16) is
tau_i = max(floor, a_i . lam) with a_i . lam = |lam| cos(angle_i -
angle_lam), so for a floor >= 0 the tendons above it form one arc of the
ring sorted by angle.  The allocation tries the full ring, then the empty
set, then the n(n-1) proper arcs by start and length, a 2x2 system each,
and keeps the KKT point among those with tau >= floor: an exact search,
with no lstsq, SVD or iteration budget.  Every candidate is tried, in that
order, at O(1) for its solve and its end tests (Gram sums run per start)
and O(n) only for an arc whose ends clear the floor, so one allocation
costs O(n^2) to O(n^3) float operations; the winner gets one refinement
step on its exact residual.

Every float sum here is a loop from 0.0, left to right, and never the
builtin sum(): from Python 3.12 on, sum() of floats is compensated, and
the tensions would differ in the last bits between interpreters.  The loops
compute what sum() computes on 3.10 and 3.11.

The allocation, the generalized force and the residual run on Python floats
in one core, ``_allocate``, which the solvers in ``sim`` call directly;
numpy only builds the arrays a public function returns, and is imported
inside the functions that do so: the sweeps in ``sim`` load no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ._kernels import core
from .errors import ConfigurationError, InfeasibleTensionsError
from .model import _readonly, _real, _tensions

if TYPE_CHECKING:
    import numpy as np


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
    import numpy as np

    return np.array([psi.theta * params.flexural_rigidity / params.backbone_length, 0.0])


def _pulls(cos_v, sin_v, tau):
    # (sum c_i tau_i, sum s_i tau_i), summed in tendon order
    pull_cos = pull_sin = 0.0
    for c, s, t in zip(cos_v, sin_v, tau):
        pull_cos += c * t
        pull_sin += s * t
    return pull_cos, pull_sin


def _arm(params):
    # The arm constants as floats, in the deflection kernel's argument order.
    return (params.backbone_length, params.pitch_radius, params.tendon_division_angle,
            params.tendon_count, params.flexural_rigidity, params.tendon_axial_stiffness)


def _generalized_force(arm, theta, pull_cos, pull_sin):
    # grad(E) - J_q^T tau on floats from the pulls of tau, as _pulls sums them:
    # (theta EI/L - r sum c_i tau_i, r theta sum s_i tau_i)
    length, radius, _, _, flexural, _ = arm
    return theta * flexural / length - radius * pull_cos, radius * theta * pull_sin


def _external_force(params, psi, w_ext):
    # J_x^T w_ext on floats, or None for no wrench.  A zero wrench (any signs
    # of zero) would project to +0.0 entries, and x - (+0.0) has the bits of
    # x for every x, -0.0 included: it is None too.
    if w_ext is None:
        return None
    fx, fy, fz, mx, my, mz = w = w_ext.force.tolist() + w_ext.moment.tolist()
    if not any(w):
        return None
    v = core.jac_v(params.backbone_length, psi.theta, psi.delta)
    o = core.jac_w(psi.theta, psi.delta)
    return (v[0] * fx + v[2] * fy + v[4] * fz + o[0] * mx + o[2] * my + o[4] * mz,
            v[1] * fx + v[3] * fy + v[5] * fz + o[1] * mx + o[3] * my + o[5] * mz)


def _residual(generalized, external):
    if external is None:
        return generalized
    return generalized[0] - external[0], generalized[1] - external[1]


def equilibrium_residual(params, psi, tensions, w_ext):
    """Configuration-space force imbalance grad(E) - J_q^T tau - J_x^T w_ext."""
    import numpy as np

    tau = _tensions(tensions, params.tendon_count)
    cos_v, sin_v = core.tendon_cos_sin(
        params.tendon_division_angle, params.tendon_count, psi.delta)
    return np.array(_residual(_generalized_force(_arm(params), psi.theta,
                                                 *_pulls(cos_v, sin_v, tau)),
                              _external_force(params, psi, w_ext)))


# A pretension past 2**500 N (about 3.3e150) would overflow squared tension norms.
_MAX_PRETENSION = 2.0 ** 500


def _solve_arc(gram, dx, dy, tol):
    """lam with H lam = d for an arc's Gram matrix gram = (hxx, hxy, hyy), or None.

    H with det <= 1e-14 trace^2 is rank one (one tendon, coincident or opposite
    ones, any arc at r theta = 0): see _rank_one.
    """
    hxx, hxy, hyy = gram
    trace = hxx + hyy
    det = hxx * hyy - hxy * hxy
    if det > 1e-14 * trace * trace:
        return (hyy * dx - hxy * dy) / det, (hxx * dy - hxy * dx) / det
    return _rank_one(hxx, hxy, hyy, trace, dx, dy, tol)


def _rank_one(hxx, hxy, hyy, trace, dx, dy, tol):
    # H lam = d for a rank-one H: pseudo-inverse, None if d is off its range
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
    Each proper arc is one 2x2 solve on Gram sums kept running per start; its
    ends are tested first, and the on-arc and off-arc loops stop at the first
    failure.
    """
    m = len(pts) // 2
    low, high = lift - 1e-12, lift + 1e-14
    gxx = gxy = gyy = tx = ty = 0.0
    for x, y in pts[:m]:
        gxx, gxy, gyy, tx, ty = gxx + x * x, gxy + x * y, gyy + y * y, tx + x, ty + y
    gram = gxx, gxy, gyy
    lam = _solve_arc(gram, c1, c2, 1e-12) if m else None  # m = 0: no moment arm at all
    if lam is not None and all(x * lam[0] + y * lam[1] >= low for x, y in pts[:m]):
        return 0, m, lam, gram
    # the best so far, ranked by the tuple (not kkt, squared norm)
    best, kkt, best_norm = None, False, math.inf
    if abs(c1 - lift * tx) <= 1e-12 and abs(c2 - lift * ty) <= 1e-12:
        best, kkt, best_norm = (0, 0, None, None), True, n * lift * lift
    for start in range(m):
        x0, y0 = pts[start]
        hxx = hxy = hyy = sx = sy = 0.0
        for length in range(1, m):
            x, y = pts[start + length - 1]
            hxx += x * x
            hxy += x * y
            hyy += y * y
            sx += x
            sy += y
            dx, dy = c1 - lift * (tx - sx), c2 - lift * (ty - sy)
            trace = hxx + hyy
            det = hxx * hyy - hxy * hxy
            if det > 1e-14 * trace * trace:
                l0, l1 = (hyy * dx - hxy * dy) / det, (hxx * dy - hxy * dx) / det
            else:
                lam = _rank_one(hxx, hxy, hyy, trace, dx, dy, 1e-12)
                if lam is None:
                    continue
                l0, l1 = lam
            if not x0 * l0 + y0 * l1 >= low or not x * l0 + y * l1 >= low:
                continue  # an end of the arc is below the floor
            norm = 0.0
            for px, py in pts[start:start + length]:
                t = px * l0 + py * l1
                if not t >= low:
                    break  # a tendon on the arc is below the floor
                norm += t * t
            else:
                norm += (n - length) * lift * lift
                if kkt and not norm < best_norm:
                    continue  # only a KKT point of smaller norm beats a KKT point
                found = True
                for px, py in pts[start + length:start + m]:
                    if not px * l0 + py * l1 <= high:
                        found = False  # a tendon off the arc pulls above the floor
                        break
                if found or not kkt and norm < best_norm:
                    best, kkt, best_norm = (start, length, (l0, l1), (hxx, hxy, hyy)), found, norm
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
    angles = [math.atan2(-y, x) for x, y in zip(cos_v, sin_v)]
    ring = [i for i in sorted(range(len(cols)), key=angles.__getitem__)
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
        l0, l1 = lam
        loop = pts[start:start + len(pts) // 2]  # the ring, from the arc's start
        pulls = [x * l0 + y * l1 for x, y in loop[:length]] + [lift] * (len(loop) - length)
        s0, s1 = _solve_arc(gram, c1 - math.fsum([t * x for t, (x, _) in zip(pulls, loop)]),
                            c2 - math.fsum([t * y for t, (_, y) in zip(pulls, loop)]), math.inf)
        l0, l1 = l0 + s0, l1 + s1
        for i, (x, y) in zip(ring[start:start + length], loop):
            tau[i] = max(lift, x * l0 + y * l1) * unit
    return tau


def _allocate(params, psi, w_ext, pretension):
    """allocate_tensions on floats: (tensions, generalized force, residual).

    tensions is a list, the other two are float pairs re-evaluated from the
    tensions by the products equilibrium_residual uses, so they share its bits.
    """
    pretension = _real(pretension, "pretension")
    if not (math.isfinite(pretension) and pretension >= 0.0):
        raise ConfigurationError(f"pretension must be finite and >= 0, got {pretension!r}")
    if pretension > _MAX_PRETENSION:
        raise ConfigurationError(
            f"pretension {pretension:.3g} N exceeds {_MAX_PRETENSION:.3g} N, past which "
            "the tension allocation's squared norms overflow")
    theta = psi.theta
    cos_v, sin_v = core.tendon_cos_sin(
        params.tendon_division_angle, params.tendon_count, psi.delta)
    external = _external_force(params, psi, w_ext)
    grad = theta * params.flexural_rigidity / params.backbone_length
    b1, b2 = (grad, 0.0) if external is None else (grad - external[0], 0.0 - external[1])
    tau = _arc_tensions(cos_v, sin_v, params.pitch_radius, theta, b1, b2, pretension)
    if not all(map(math.isfinite, tau)):  # a result, so >= pretension and n long by construction
        raise ConfigurationError(f"allocated tendon tensions are not finite: {tau}")
    generalized = _generalized_force(_arm(params), theta, *_pulls(cos_v, sin_v, tau))
    return tau, generalized, _residual(generalized, external)


def allocate_tensions(params, psi, w_ext, pretension=0.0):
    """Minimum-norm tau >= pretension with J_q^T tau = grad(E) - J_x^T w_ext.

    w_ext None means no wrench.  Raises ConfigurationError for a pretension
    that is not a real number (bools included), < 0, non-finite or
    > 2**500 N, InfeasibleTensionsError when no tau does.
    """
    tau, generalized, residual = _allocate(params, psi, w_ext, pretension)
    return EquilibriumReport(residual=residual, tensions=tau, generalized_force=generalized)
