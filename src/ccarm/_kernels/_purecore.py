"""Scalar math kernels.

Everything here is plain ``math`` on scalars so the hot solver loops carry no
array overhead.  The two solvers (``solve_deflection``,
``solve_tip_constraint``) accept any real scalars and sequences, numpy ones
included, and coerce them to Python floats once at entry, so every Newton
step runs on floats and the results are floats.

The deflection solve is Newton's method with the closed-form 2x2 Jacobian
of its bend-chart residual: the bending stiffness, the Hessian of the tip
position contracted with the tip force, and the tendon term.  The tendon
term is exact where a tendon is taut or slack; at the slack kink it is the
central difference over the step 1e-7*(1+|w|), in closed form: the slope
the central-difference Jacobian that this replaced took there, which keeps
the default sweeps' Newton paths.  The residual and its Jacobian split into
a force-free part, evaluated as 21 flat floats, and the tip-force term,
which the Newton loop contracts itself: the residual at every point, the
Jacobian only where another step follows.  Every solve of one commanded
configuration starts at the same w with the same arm and motor state, so
the solve's constants and the evaluation at its start are memoized on
exactly those inputs: the loads of one configuration share one evaluation,
and a hit gives the bits of a fresh one.

Angles are radians, lengths meters.  Every arc quotient of the
constant-curvature kinematics comes from one source: ``arc_quotients`` gives
``a = (1 - cos t)/t^2``, ``s = sin(t)/t`` and their rates ``b = a'/t`` and
``c = s'/t``, and ``hessian_quotients`` adds ``e = b'/t`` and ``h = c'/t``.
``a`` is evaluated as ``(sin(t/2)/(t/2))^2 / 2``, which does not cancel, so
``a`` and ``s`` need their limits only where the half-angle is 0; ``b``,
``c``, ``e`` and ``h`` cancel near straight and take their Taylor expansions
below ``SMOOTH_THRESHOLD``.  The solvers work in "bend vector" coordinates
``w = theta * (cos(delta), sin(delta))``, the smooth chart that removes the
coordinate singularity of (theta, delta) at theta = 0.
"""

import functools
import math

# Below this bending angle b, c, e and h use their Taylor expansions (4th
# order in theta): their closed forms cancel to 2nd or 4th order.
SMOOTH_THRESHOLD = 0.05

_HALF_PI = 0.5 * math.pi

# Commanded configurations whose deflection start stays memoized: the default
# stiffness sweep solves at 5, each configuration's solves in a row.
_START_CACHE_SIZE = 32


def arc_quotients(theta):
    """Arc quotients (a, s, b, c) at theta >= 0; all four are even in theta.

    a = (1-cos t)/t^2 = (sin(t/2)/(t/2))^2 / 2 and s = sin(t)/t give the tip
    position in the bend chart; b = a'/t = (s - 2a)/t^2 and c = s'/t =
    (cos t - s)/t^2 its Jacobian.  A half-angle of 0 (theta = 0, or theta
    so small that theta/2 underflows) takes the limits.
    """
    half = 0.5 * theta
    if half == 0.0:
        return 0.5, 1.0, -1.0 / 12.0, -1.0 / 3.0
    q = math.sin(half) / half
    a = 0.5 * q * q
    s = math.sin(theta) / theta
    t2 = theta * theta
    if theta < SMOOTH_THRESHOLD:
        return (a, s, -1.0 / 12.0 + t2 / 180.0 - t2 * t2 / 6720.0,
                -1.0 / 3.0 + t2 / 30.0 - t2 * t2 / 840.0)
    return a, s, (s - 2.0 * a) / t2, (math.cos(theta) - s) / t2


def hessian_quotients(theta):
    """Arc quotients (a, s, b, c, e, h) at theta >= 0.

    Adds e = b'/t = (c - 4b)/t^2 and h = c'/t = -(s + 3c)/t^2 to
    ``arc_quotients``: the quotients of the tip position's second
    derivatives in the bend chart.
    """
    a, s, b, c = arc_quotients(theta)
    t2 = theta * theta
    if theta < SMOOTH_THRESHOLD:
        return (a, s, b, c, 1.0 / 90.0 - t2 / 1680.0 + t2 * t2 / 75600.0,
                1.0 / 15.0 - t2 / 210.0 + t2 * t2 / 7560.0)
    return a, s, b, c, (c - 4.0 * b) / t2, -(s + 3.0 * c) / t2


def arc_terms(theta):
    """Arc quotients (h, s, g, w) of the constant-curvature kinematics.

    h = (1-cos t)/t, s = sin(t)/t, g = (t sin t + cos t - 1)/t^2,
    w = (t cos t - sin t)/t^2.  h scales the in-plane tip offset, s the
    height, g and w are the bending-rate sensitivities of the position.
    With the quotients of ``arc_quotients`` they are h = t a, g = h' =
    a + t^2 b and w = s' = t c, so h and w are odd in t and s and g even,
    exactly, for either sign of theta.
    """
    return _arc_terms(theta, arc_quotients(abs(theta)))


def _arc_terms(theta, quotients):
    # arc_terms of theta from quotients = arc_quotients(|theta|)
    a, s, b, c = quotients
    return theta * a, s, a + theta * theta * b, theta * c


def rotation(theta, delta):
    """Gripper-frame rotation matrix, returned row-major as a 9-tuple.

    Equals RotZ(delta) @ RotY(theta) @ RotZ(-delta): a rotation by theta
    about the bending-plane normal (-sin d, cos d, 0).
    """
    st = math.sin(theta)
    ct = math.cos(theta)
    sd = math.sin(delta)
    cd = math.cos(delta)
    return (
        cd * cd * ct + sd * sd, cd * sd * (ct - 1.0), cd * st,
        sd * cd * (ct - 1.0), sd * sd * ct + cd * cd, sd * st,
        -st * cd, -st * sd, ct,
    )


def position(length, theta, delta):
    """Tip position (x, y, z) of a constant-curvature arc of given length."""
    h, s, _, _ = arc_terms(theta)
    sd = math.sin(delta)
    cd = math.cos(delta)
    return (length * cd * h, length * sd * h, length * s)


def jac_v(length, theta, delta):
    """Linear-velocity Jacobian d(position)/d(theta, delta), row-major 3x2."""
    (a, c, e), (b, d, f) = jac_v_columns(length, theta, delta, arc_quotients(abs(theta)))
    return a, b, c, d, e, f


def jac_v_columns(length, theta, delta, quotients):
    """``jac_v``'s columns (c_theta, c_delta), from quotients = arc_quotients(|theta|)."""
    h, _, g, w = _arc_terms(theta, quotients)
    sd = math.sin(delta)
    cd = math.cos(delta)
    return ((length * cd * g, length * sd * g, length * w),
            (-length * sd * h, length * cd * h, 0.0))


def dot(u, v):
    """Dot product of two 3-sequences, summed in index order."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def jac_w(theta, delta):
    """Angular-velocity Jacobian, row-major 3x2."""
    st = math.sin(theta)
    ct = math.cos(theta)
    sd = math.sin(delta)
    cd = math.cos(delta)
    return (-sd, -cd * st, cd, -sd * st, 0.0, 1.0 - ct)


def _bend_point(length, wx, wy):
    # The tip position at w and its Jacobian d/dw, row-major 3x2 and smooth
    # through w = 0, from one evaluation of the arc quotients: the IK needs
    # both at every trial point.  The position is bend_tip's, written out
    # because a call per trial would slow the IK by several percent.
    a, s, b, c = arc_quotients(math.hypot(wx, wy))
    off = length * wx * wy * b
    return ((length * wx * a, length * wy * a, length * s),
            (length * (a + wx * wx * b), off,
             off, length * (a + wy * wy * b),
             length * wx * c, length * wy * c))


def bend_position(length, wx, wy):
    """Tip position in bend-vector coordinates w = theta*(cos d, sin d)."""
    return bend_tip(length, wx, wy, arc_quotients(math.hypot(wx, wy)))


def bend_tip(length, wx, wy, quotients):
    """``bend_position`` from quotients = arc_quotients(hypot(wx, wy))."""
    a, s, _, _ = quotients
    return length * wx * a, length * wy * a, length * s


def tendon_cos_sin(beta, count, delta):
    """cos/sin of (delta + i*beta) for each tendon.

    For the evenly spaced four-tendon ring (beta = pi/2) the values come
    from quadrant identities, which makes opposite tendons cancel exactly
    in floating point.
    """
    cd = math.cos(delta)
    sd = math.sin(delta)
    if count == 4 and beta == _HALF_PI:
        return (cd, -sd, -cd, sd), (sd, cd, -sd, -cd)
    cos_v = tuple(math.cos(delta + i * beta) for i in range(count))
    sin_v = tuple(math.sin(delta + i * beta) for i in range(count))
    return cos_v, sin_v


def _force_free_part(model, wx, wy):
    # One evaluation at w of the force-free parts of the bend-chart residual
    # and its Jacobian, model being (length, radius, k_bend, k_tendon,
    # tendons).  Returns 21 floats: ax, ay = k_bend*w - g(w), the gradient of
    # the total potential; J_p(w), the tip Jacobian the force term contracts
    # with, row-major 3x2; k11, k12, k21, k22, the Jacobian of k_bend*w - g;
    # and the Hessian rows of bend_position, row-major like J_p: d2p/dwx2,
    # d2p/dwxdwy, d2p/dwy2, each holding the (x, y, z) components.
    #
    # With a, b, c, e and h from hessian_quotients, the Hessian divided by
    # the length is d2px/dwx2 = 3wx b + wx^3 e, d2px/dwxdwy = wy b + wx^2 wy e,
    # d2px/dwy2 = wx b + wx wy^2 e, the py entries with x and y swapped, and
    # d2pz/dwidwj = c delta_ij + wi wj h.  J_p repeats _bend_point's Jacobian
    # arithmetic inline, so that one evaluation of the quotients serves J_p
    # and the Hessian while the IK, which calls _bend_point, pays for no
    # Hessian.
    #
    # Tensions follow the locked-motor law tau = max(0, t), t = tau0 -
    # k*(q - q_cmd), linear in w with slope s along each axis.  At the kink
    # the slope of max(0, t) is the central difference that the Newton
    # stencil used to take, in closed form: with the stencil's step
    # h = 1e-7*(1+|w|) and m = |s|*h, it is s when t >= m, 0 when t <= -m and
    # s*(t + m)/(2m) in between.  tendons holds (cos phi, sin phi, q_cmd,
    # tau0, |s_x|, |s_y|, k r^2 cos phi, k r^2 sin phi) per tendon.
    length, radius, k_bend, k_tendon, tendons = model
    a, _, b, c, e, h = hessian_quotients(math.hypot(wx, wy))
    xx = wx * wx
    yy = wy * wy
    off = length * wx * wy * b
    bx = wx * b
    by = wy * b
    hxy = length * (by + xx * wy * e)       # d2px/dwxdwy = d2py/dwx2
    hyx = length * (bx + yy * wx * e)       # d2px/dwy2 = d2py/dwxdwy
    hx = 1e-7 * (1.0 + abs(wx))
    hy = 1e-7 * (1.0 + abs(wy))
    gx = 0.0
    gy = 0.0
    k11 = k22 = k_bend
    k12 = k21 = 0.0
    for cphi, sphi, q_cmd, tau0, slope_x, slope_y, kc, ks in tendons:
        q = radius * (cphi * wx - sphi * wy)
        t = tau0 - k_tendon * (q - q_cmd)
        mx = slope_x * hx
        my = slope_y * hy
        ux = kc if t >= mx else kc * (t + mx) / (2.0 * mx) if t > -mx else 0.0
        uy = ks if t >= my else ks * (t + my) / (2.0 * my) if t > -my else 0.0
        k11 += ux * cphi
        k21 -= ux * sphi
        k12 -= uy * cphi
        k22 += uy * sphi
        if t < 0.0:
            t = 0.0
        t *= radius
        gx += t * cphi
        gy -= t * sphi
    return (k_bend * wx - gx, k_bend * wy - gy,
            length * (a + xx * b), off,
            off, length * (a + yy * b),
            length * wx * c, length * wy * c,
            k11, k12, k21, k22,
            length * (3.0 * bx + xx * wx * e), hxy, length * (c + xx * h),
            hxy, hyx, length * wx * wy * h,
            hyx, length * (3.0 * by + yy * wy * e), length * (c + yy * h))


def _psi_residual_norm(rx, ry, wx, wy):
    # Norm of the residual mapped back to (theta, delta) coordinates.
    theta = math.hypot(wx, wy)
    if theta == 0.0:
        return math.hypot(rx, ry)
    r1 = (wx * rx + wy * ry) / theta
    r2 = wx * ry - wy * rx
    return math.hypot(r1, r2)


@functools.lru_cache(maxsize=_START_CACHE_SIZE)
def _deflection_model(length, radius, beta, count, flexural, k_tendon, q_cmd, tau0, wx0, wy0,
                      wx0_sign, wy0_sign):
    # The constants of a deflection solve and its evaluation at w0, as
    # (model, part): model is the constants _force_free_part takes, the
    # tendon tuple included, and part its 21 floats at w0.  Memoized on exactly
    # the ten inputs it reads, floats and float tuples, so the solves of one
    # commanded configuration share one evaluation and a start from other
    # inputs cannot be reused.  The signs of w0's components complete the
    # key: -0.0 == 0.0, but a solve from either can end on a zero of that
    # sign (a straight start with an in-plane force).
    kr = k_tendon * radius
    tendons = tuple(
        (cphi, sphi, qc, t0, abs(kr * cphi), abs(kr * sphi),
         kr * radius * cphi, kr * radius * sphi)
        for cphi, sphi, qc, t0 in zip(*tendon_cos_sin(beta, count, 0.0), q_cmd, tau0,
                                      strict=True))
    model = (length, radius, flexural / length, k_tendon, tendons)
    return model, _force_free_part(model, wx0, wy0)


def solve_deflection(length, radius, beta, count, flexural, k_tendon,
                     q_cmd, tau0, fx, fy, fz, wx0, wy0, tol, max_iter):
    """Newton solve of the locked-motor bending equilibrium under a tip force.

    Damped Newton iteration (closed-form 2x2 Jacobian, backtracking line
    search halving the step; Nocedal and Wright, Numerical Optimization,
    2006, ch. 11) on the bend-chart residual.  The start and every trial
    point take one 21-float force-free evaluation, with which the loop
    contracts the tip force itself: the residual at every point; at the
    start or an accepted trial, the convergence test on the residual norm
    in (theta, delta) coordinates; and only when another step follows, the
    Jacobian.  The Jacobian is exact except at a tendon's slack kink, where
    it takes the central difference over the step 1e-7*(1+|w|) in closed
    form.  The constants and the evaluation at w0 depend on every input but
    the force, tol and max_iter; they are memoized on those inputs, so
    solves that differ only in the force share them.

    Returns (wx, wy, iterations, residual_norm, converged).
    """
    nwx, nwy = float(wx0), float(wy0)
    model, part = _deflection_model(
        float(length), float(radius), float(beta), count, float(flexural), float(k_tendon),
        tuple(map(float, q_cmd)), tuple(map(float, tau0)), nwx, nwy,
        math.copysign(1.0, nwx), math.copysign(1.0, nwy))
    fx, fy, fz, tol = float(fx), float(fy), float(fz), float(tol)
    # The start is trial 0, taken as it is (alpha = 0); a later trial is
    # taken on sufficient decrease, and the line search gives up after 40.
    iters = -1
    alpha = 0.0
    while True:
        (ax, ay, p0, p1, p2, p3, p4, p5, k11, k12, k21, k22,
         h0, h1, h2, h3, h4, h5, h6, h7, h8) = part
        rx = ax - (p0 * fx + p2 * fy + p4 * fz)
        ry = ay - (p1 * fx + p3 * fy + p5 * fz)
        if not alpha or rx * rx + ry * ry <= phi0 * (1.0 - 1e-4 * alpha):
            wx, wy = nwx, nwy
            iters += 1
            res = _psi_residual_norm(rx, ry, wx, wy)
            if res < tol:
                return wx, wy, iters, res, 1
            if iters >= max_iter:
                return wx, wy, iters, res, 0
            cross = h3 * fx + h4 * fy + h5 * fz
            j11 = k11 - (h0 * fx + h1 * fy + h2 * fz)
            j12 = k12 - cross
            j21 = k21 - cross
            j22 = k22 - (h6 * fx + h7 * fy + h8 * fz)
            det = j11 * j22 - j12 * j21
            if not math.isfinite(det) or abs(det) < 1e-300:
                return wx, wy, iters, res, 0
            dx = -(j22 * rx - j12 * ry) / det
            dy = -(j11 * ry - j21 * rx) / det
            phi0 = rx * rx + ry * ry
            alpha = 1.0
        elif alpha == 0.5 ** 39:
            return wx, wy, iters, res, 0
        else:
            alpha *= 0.5
        nwx = wx + alpha * dx
        nwy = wy + alpha * dy
        part = _force_free_part(model, nwx, nwy)


def solve_tip_constraint(length, wx0, wy0, tx, ty, tz, damping, tol, max_iter):
    """Least-squares positional IK: bend vector whose tip is closest to target.

    Damped Gauss-Newton (Levenberg-style escalation when a step fails to
    reduce the positional error).  Converges when the residual component
    inside the reachable tangent plane drops below tol.

    Returns (wx, wy, iterations, reachable_residual, converged).
    """
    length, damping, tol = float(length), float(damping), float(tol)
    tx, ty, tz = float(tx), float(ty), float(tz)
    wx = float(wx0)
    wy = float(wy0)
    lam = damping
    iters = 0
    (px, py, pz), jp = _bend_point(length, wx, wy)
    ex = tx - px
    ey = ty - py
    ez = tz - pz
    err2 = ex * ex + ey * ey + ez * ez
    while True:
        a11 = jp[0] * jp[0] + jp[2] * jp[2] + jp[4] * jp[4]
        a12 = jp[0] * jp[1] + jp[2] * jp[3] + jp[4] * jp[5]
        a22 = jp[1] * jp[1] + jp[3] * jp[3] + jp[5] * jp[5]
        g1 = jp[0] * ex + jp[2] * ey + jp[4] * ez
        g2 = jp[1] * ex + jp[3] * ey + jp[5] * ez
        # residual projected onto the reachable tangent plane
        mu = 1e-12 * (a11 + a22) + 1e-300
        det0 = (a11 + mu) * (a22 + mu) - a12 * a12
        u1 = ((a22 + mu) * g1 - a12 * g2) / det0
        u2 = ((a11 + mu) * g2 - a12 * g1) / det0
        qx = jp[0] * u1 + jp[1] * u2
        qy = jp[2] * u1 + jp[3] * u2
        qz = jp[4] * u1 + jp[5] * u2
        reach = math.sqrt(qx * qx + qy * qy + qz * qz)
        if reach < tol:
            return wx, wy, iters, reach, 1
        if iters >= max_iter:
            return wx, wy, iters, reach, 0
        stepped = False
        for _ in range(25):
            det = (a11 + lam) * (a22 + lam) - a12 * a12
            if abs(det) < 1e-300:
                lam = lam * 10.0 + 1e-12
                continue
            dx = ((a22 + lam) * g1 - a12 * g2) / det
            dy = ((a11 + lam) * g2 - a12 * g1) / det
            nwx = wx + dx
            nwy = wy + dy
            (npx, npy, npz), njp = _bend_point(length, nwx, nwy)
            nex = tx - npx
            ney = ty - npy
            nez = tz - npz
            nerr2 = nex * nex + ney * ney + nez * nez
            if nerr2 <= err2:
                wx, wy, jp = nwx, nwy, njp
                ex, ey, ez = nex, ney, nez
                err2 = nerr2
                lam = max(damping, lam * 0.25)
                stepped = True
                break
            lam = lam * 10.0 + 1e-12
        if not stepped:
            # error already at its floor with reach >= tol: not converged
            return wx, wy, iters, reach, 0
        iters += 1
