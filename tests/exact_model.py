"""The arm's model in 40-digit ``mpmath``: the one high-precision reference in ``tests/``.

``make_truth.py`` writes the truth files from it, and ``test_sim.py`` checks
the deflection kernel's Jacobian and equilibria against its residual.  From
``ccarm`` it takes only ``default_parameters()``, whose floats it reads as
exact numbers.  Every formula is written out here: the tip
p(w) = L (a w_x, a w_y, s) of the bend vector w = theta (cos delta,
sin delta); tendon i of n at phase phi_i = 2 pi i / n, pulling
tau_i = max(0, tau0_i - k (q_i - q_cmd_i)) with
q_i = r (cos phi_i w_x - sin phi_i w_y); and the bend-chart residual
k_bend w - sum_i tau_i grad q_i - J_p(w)^T f of a tip force f.  Roots are
found by ``mpmath.findroot`` (Newton with a numerical Jacobian) from the
commanded bend.  Imported, not collected.
"""

import functools
import math

import mpmath

from ccarm import default_parameters

DPS = 40
mp = mpmath.mpf


@functools.cache
def default_arm():
    """The default arm in the kernel's argument order: length, pitch radius,
    division angle, tendon count, flexural rigidity, tendon axial stiffness."""
    p = default_parameters()
    return (p.backbone_length, p.pitch_radius, p.tendon_division_angle, p.tendon_count,
            p.flexural_rigidity, p.tendon_axial_stiffness)


def arc_quotients(theta):
    # a = (1 - cos t)/t^2, s = sin(t)/t, b = a'/t and c = s'/t at the working
    # precision, in their textbook closed forms.
    if not theta:
        return mp(1) / 2, mp(1), mp(-1) / 12, mp(-1) / 3
    sn, cs = mpmath.sin(theta), mpmath.cos(theta)
    return ((1 - cs) / theta ** 2, sn / theta, (theta * sn - 2 + 2 * cs) / theta ** 4,
            (theta * cs - sn) / theta ** 3)


def bend_position(length, wx, wy):
    a, s, _, _ = arc_quotients(mpmath.hypot(wx, wy))
    return [length * a * wx, length * a * wy, length * s]


def bend_position_jacobian(length, wx, wy):
    # d(bend_position)/dw at the mpmath numbers wx, wy, as 3 rows of 2.
    a, _, b, c = arc_quotients(mpmath.hypot(wx, wy))
    return [[length * (a + wx * wx * b), length * wx * wy * b],
            [length * wx * wy * b, length * (a + wy * wy * b)],
            [length * wx * c, length * wy * c]]


@functools.cache
def _ring(count, prec):
    # cos and sin of the tendon phases 2 pi i / count at precision prec,
    # exact on the axes
    return tuple((mpmath.cospi(mp(2 * i) / count), mpmath.sinpi(mp(2 * i) / count))
                 for i in range(count))


def residual(arm, q_cmd, tau0, force, wx, wy):
    """k_bend w - g(w) - J_p(w)^T force at w = (wx, wy), as two mpmath numbers.

    arm is in the kernel's argument order, with the tendons on the even ring
    of its count; its floats, q_cmd, tau0 and force are read as exact numbers.
    """
    length, radius, _, _, flexural, k_tendon = map(mp, arm)
    wx, wy = mp(wx), mp(wy)
    rx, ry = flexural / length * wx, flexural / length * wy
    for (cp, sp), qc, t0 in zip(_ring(arm[3], mpmath.mp.prec), q_cmd, tau0):
        t = max(mp(0), t0 - k_tendon * (radius * (cp * wx - sp * wy) - qc))
        rx -= radius * t * cp
        ry += radius * t * sp
    for row, f in zip(bend_position_jacobian(length, wx, wy), force):
        rx -= row[0] * f
        ry -= row[1] * f
    return rx, ry


def psi_norm(rx, ry, wx, wy):
    """The norm of a bend-chart residual mapped to (theta, delta) coordinates."""
    theta = mpmath.hypot(wx, wy)
    if not theta:
        return mpmath.hypot(rx, ry)
    return mpmath.hypot((wx * rx + wy * ry) / theta, wx * ry - wy * rx)


def commanded_state(theta):
    """(q_cmd, tau0) of the default arm commanded to (theta, 0) at pretension 0.

    The zero-wrench allocation there is tendon 0 alone, holding
    tau0 = theta EI / (L r).  An arm other than four tendons a quarter turn
    apart is refused.
    """
    arm = default_arm()
    if arm[3] != 4 or arm[2] != math.pi / 2:
        raise ValueError("the exact commanded state is known for four tendons only")
    length, radius, _, _, flexural, _ = map(mp, arm)
    theta = mp(theta)
    return ([radius * theta * cp for cp, _ in _ring(4, mpmath.mp.prec)],
            [theta * flexural / (length * radius), 0, 0, 0])


def stiffness_displacement(theta, load):
    """Tip displacement of the default arm commanded to (theta, 0) under an
    inward radial load, radial at the deflected bend: the re-aim loop's fixed
    point, the root of the follower residual."""
    with mpmath.workdps(DPS):
        arm, state = default_arm(), commanded_state(theta)

        def follower(wx, wy):
            # load * (cos t cos d, cos t sin d, -sin t) at w; at w = 0 the
            # commanded delta = 0 gives (load, 0, 0)
            t = mpmath.hypot(wx, wy)
            if not t:
                return residual(arm, *state, (load, 0, 0), wx, wy)
            c = load * mpmath.cos(t) / t
            return residual(arm, *state, (c * wx, c * wy, -load * mpmath.sin(t)), wx, wy)

        w0 = mp(theta), mp(0)
        w = mpmath.findroot(follower, w0, maxsteps=50)
        p0, p1 = bend_position(arm[0], *w0), bend_position(arm[0], *w)
        return [b - a for a, b in zip(p0, p1)]


def perching_wrench(theta, offset):
    """(force, moment) on the carrier when the base of the default arm,
    commanded to (theta, 0), moves by offset with the tip pinned at the
    commanded tip.

    The arm takes the bend w whose tip is closest to the target, the root of
    J_p(w)^T (p(w) - target).  The force is -(J_v^T)^+ g: with
    J_v = J_p dw/dpsi, g = (dw/dpsi)^T r0 for the force-free residual r0, and
    dw/dpsi invertible at theta > 0, it is the least-norm F with
    J_p^T F = -r0.  The moment is the tip cross the force.
    """
    with mpmath.workdps(DPS):
        arm, state = default_arm(), commanded_state(theta)
        length = arm[0]
        w0 = mp(theta), mp(0)
        target = mpmath.matrix(bend_position(length, *w0)) - mpmath.matrix(offset)

        def closest(wx, wy):
            jp = mpmath.matrix(bend_position_jacobian(length, wx, wy))
            return list(jp.T * (mpmath.matrix(bend_position(length, wx, wy)) - target))

        w = mpmath.findroot(closest, w0, maxsteps=50)
        if not mpmath.hypot(*w):
            raise ValueError("J_v loses rank at a straight bend")
        jp = mpmath.matrix(bend_position_jacobian(length, *w))
        r0 = mpmath.matrix(residual(arm, *state, (0, 0, 0), *w))
        fx, fy, fz = force = list(-jp * mpmath.lu_solve(jp.T * jp, r0))
        px, py, pz = bend_position(length, *w)
        return force, [py * fz - pz * fy, pz * fx - px * fz, px * fy - py * fx]
