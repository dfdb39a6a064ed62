"""Scalar math kernels.

Everything here is plain ``math`` on scalars so the hot solver loops carry no
array overhead.  The two solvers (``solve_deflection``,
``solve_tip_constraint``) accept any real scalars and sequences, numpy ones
included, and coerce them to Python floats once at entry, so every Newton
step runs on floats and the results are floats.

The deflection residual splits into a force-free part (the potential's
gradient and the tip Jacobian at w) and the tip-force term.  Every solve of
one commanded configuration starts at the same w, so ``deflection_start``
evaluates the force-free part there and at the four stencil points of the
first Newton step once; ``solve_deflection`` takes that start as an optional
last argument, checks that it was built from its own inputs, and builds one
itself when none is given.  The results are bitwise the same either way.

Angles are radians, lengths meters.  Near the straight configuration the
singular arc quotients switch to series expansions so every function stays
finite and smooth.  The solvers work in "bend vector" coordinates
``w = theta * (cos(delta), sin(delta))``, the smooth chart that removes the
coordinate singularity of (theta, delta) at theta = 0.
"""

import math

# Below this bending angle the arc quotients of the closed-form kinematics
# use their Taylor expansions (4th order in theta).
SERIES_THRESHOLD = 1e-4

# The bend-chart curvature terms cancel to 4th order, so they leave the
# direct formulas earlier to dodge roundoff blow-up.
SMOOTH_THRESHOLD = 0.05

_HALF_PI = 0.5 * math.pi


def arc_terms(theta):
    """Arc quotients (h, s, g, w) of the constant-curvature kinematics.

    h = (1-cos t)/t, s = sin(t)/t, g = (t sin t + cos t - 1)/t^2,
    w = (t cos t - sin t)/t^2.  h scales the in-plane tip offset, s the
    height, g and w are the bending-rate sensitivities of the position.
    """
    if abs(theta) < SERIES_THRESHOLD:
        t2 = theta * theta
        h = theta * (0.5 - t2 / 24.0 + t2 * t2 / 720.0)
        s = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        g = 0.5 - t2 / 8.0 + t2 * t2 / 144.0
        w = theta * (-1.0 / 3.0 + t2 / 30.0)
        return h, s, g, w
    st = math.sin(theta)
    ct = math.cos(theta)
    t2 = theta * theta
    h = (1.0 - ct) / theta
    s = st / theta
    g = (theta * st + ct - 1.0) / t2
    w = (theta * ct - st) / t2
    return h, s, g, w


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
    h, _, g, w = arc_terms(theta)
    sd = math.sin(delta)
    cd = math.cos(delta)
    return (
        length * cd * g, -length * sd * h,
        length * sd * g, length * cd * h,
        length * w, 0.0,
    )


def jac_w(theta, delta):
    """Angular-velocity Jacobian, row-major 3x2."""
    st = math.sin(theta)
    ct = math.cos(theta)
    sd = math.sin(delta)
    cd = math.cos(delta)
    return (-sd, -cd * st, cd, -sd * st, 0.0, 1.0 - ct)


def bend_position(length, wx, wy):
    """Tip position in bend-vector coordinates w = theta*(cos d, sin d)."""
    theta = math.hypot(wx, wy)
    t2 = theta * theta
    if theta < SERIES_THRESHOLD:
        a = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        s = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
    else:
        a = (1.0 - math.cos(theta)) / t2
        s = math.sin(theta) / theta
    return (length * wx * a, length * wy * a, length * s)


def bend_position_jacobian(length, wx, wy):
    """d(bend_position)/dw, row-major 3x2.  Smooth through w = 0."""
    theta = math.hypot(wx, wy)
    t2 = theta * theta
    if theta < SERIES_THRESHOLD:
        a = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    else:
        a = (1.0 - math.cos(theta)) / t2
    if theta < SMOOTH_THRESHOLD:
        b = -1.0 / 12.0 + t2 / 180.0 - t2 * t2 / 6720.0
        c = -1.0 / 3.0 + t2 / 30.0 - t2 * t2 / 840.0
    else:
        st = math.sin(theta)
        ct = math.cos(theta)
        b = (theta * st - 2.0 + 2.0 * ct) / (t2 * t2)
        c = (theta * ct - st) / (t2 * theta)
    off = length * wx * wy * b
    return (
        length * (a + wx * wx * b), off,
        off, length * (a + wy * wy * b),
        length * wx * c, length * wy * c,
    )


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


def tendon_phase_cos_sin(beta, count):
    """cos/sin of the fixed tendon phase angles i*beta."""
    if count == 4 and beta == _HALF_PI:
        return (1.0, 0.0, -1.0, 0.0), (0.0, 1.0, 0.0, -1.0)
    return (
        tuple(math.cos(i * beta) for i in range(count)),
        tuple(math.sin(i * beta) for i in range(count)),
    )


def _force_free_residual(length, radius, k_bend, k_tendon, tendons, wx, wy):
    # Force-free part of the bend-chart residual at w: the gradient of the
    # total potential, k_bend*w - g(w), and the tip Jacobian J_p(w) that the
    # force term contracts with.  tendons holds (cos phi, sin phi, q_cmd,
    # tau0) per tendon; tensions follow the locked-motor law
    # tau = max(0, tau0 - k*(q - q_cmd)).
    jp = bend_position_jacobian(length, wx, wy)
    gx = 0.0
    gy = 0.0
    for cphi, sphi, q_cmd, tau0 in tendons:
        q = radius * (cphi * wx - sphi * wy)
        t = tau0 - k_tendon * (q - q_cmd)
        if t < 0.0:
            t = 0.0
        t *= radius
        gx += t * cphi
        gy -= t * sphi
    return k_bend * wx - gx, k_bend * wy - gy, jp


def _with_force(part, fx, fy, fz):
    # The residual k_bend*w - g(w) - J_p(w)^T f.  Python evaluates the one
    # expression left to right, so adding the force to a stored force-free
    # part gives the same bits.
    ax, ay, jp = part
    return (ax - (jp[0] * fx + jp[2] * fy + jp[4] * fz),
            ay - (jp[1] * fx + jp[3] * fy + jp[5] * fz))


def _stencil(length, radius, k_bend, k_tendon, tendons, wx, wy):
    # Central-difference steps at w and the force-free parts at w +- h.
    hx = 1e-7 * (1.0 + abs(wx))
    hy = 1e-7 * (1.0 + abs(wy))
    return (hx, hy,
            _force_free_residual(length, radius, k_bend, k_tendon, tendons, wx + hx, wy),
            _force_free_residual(length, radius, k_bend, k_tendon, tendons, wx - hx, wy),
            _force_free_residual(length, radius, k_bend, k_tendon, tendons, wx, wy + hy),
            _force_free_residual(length, radius, k_bend, k_tendon, tendons, wx, wy - hy))


def _psi_residual_norm(rx, ry, wx, wy):
    # Norm of the residual mapped back to (theta, delta) coordinates.
    theta = math.hypot(wx, wy)
    if theta == 0.0:
        return math.hypot(rx, ry)
    r1 = (wx * rx + wy * ry) / theta
    r2 = wx * ry - wy * rx
    return math.hypot(r1, r2)


def _start_inputs(length, radius, beta, count, flexural, k_tendon, q_cmd, tau0, wx0, wy0):
    return (float(length), float(radius), float(beta), count, float(flexural),
            float(k_tendon), list(map(float, q_cmd)), list(map(float, tau0)),
            float(wx0), float(wy0))


class DeflectionStart:
    """The force-free part of a deflection solve at its start point.

    Built by ``deflection_start`` from the inputs of ``solve_deflection`` that
    do not involve the tip force.  ``inputs`` holds them as floats, so a solve
    can check that it was given the start of its own problem.
    """

    __slots__ = ("inputs", "model", "centre", "stencil")

    def __init__(self, inputs):
        length, radius, beta, count, flexural, k_tendon, q_cmd, tau0, wx, wy = inputs
        tendons = tuple(zip(*tendon_phase_cos_sin(beta, count), q_cmd, tau0, strict=True))
        self.inputs = inputs
        self.model = (length, radius, flexural / length, k_tendon, tendons)
        self.centre = _force_free_residual(*self.model, wx, wy)
        self.stencil = _stencil(*self.model, wx, wy)


def deflection_start(length, radius, beta, count, flexural, k_tendon, q_cmd, tau0,
                     wx0, wy0):
    """Force-free residual parts at the start w0 and its four stencil points.

    Every solve of one commanded configuration starts at the same w0, and its
    first Newton step evaluates the residual there and at w0 +- h along each
    axis.  Only the tip-force term differs between loads, so a start built
    once serves every ``solve_deflection`` of that configuration.
    """
    return DeflectionStart(_start_inputs(length, radius, beta, count, flexural, k_tendon,
                                         q_cmd, tau0, wx0, wy0))


def solve_deflection(length, radius, beta, count, flexural, k_tendon,
                     q_cmd, tau0, fx, fy, fz, wx0, wy0, tol, max_iter, start=None):
    """Newton solve of the locked-motor bending equilibrium under a tip force.

    Damped Newton iteration (finite-difference 2x2 Jacobian, backtracking
    line search halving the step) on the bend-chart residual.
    Convergence is judged on the residual norm in (theta, delta) coordinates.
    ``start``, from ``deflection_start`` with the same inputs, supplies the
    first step's force-free residual parts; without it the solve builds its
    own.  A start built from other inputs raises ValueError; inputs compare
    with ==, so a start built from a NaN input matches no solve.

    Returns (wx, wy, iterations, residual_norm, converged).
    """
    inputs = _start_inputs(length, radius, beta, count, flexural, k_tendon,
                           q_cmd, tau0, wx0, wy0)
    if start is None:
        start = DeflectionStart(inputs)
    elif start.inputs != inputs:
        raise ValueError("deflection start was built from other inputs")
    length, radius, k_bend, k_tendon, tendons = start.model
    fx, fy, fz, tol = float(fx), float(fy), float(fz), float(tol)
    wx, wy = inputs[-2:]
    rx, ry = _with_force(start.centre, fx, fy, fz)
    stencil = start.stencil
    iters = 0
    while True:
        res = _psi_residual_norm(rx, ry, wx, wy)
        if res < tol:
            return wx, wy, iters, res, 1
        if iters >= max_iter:
            return wx, wy, iters, res, 0
        if iters:
            stencil = _stencil(length, radius, k_bend, k_tendon, tendons, wx, wy)
        hx, hy, xp, xm, yp, ym = stencil
        axp, ayp = _with_force(xp, fx, fy, fz)
        axm, aym = _with_force(xm, fx, fy, fz)
        bxp, byp = _with_force(yp, fx, fy, fz)
        bxm, bym = _with_force(ym, fx, fy, fz)
        j11 = (axp - axm) / (2.0 * hx)
        j21 = (ayp - aym) / (2.0 * hx)
        j12 = (bxp - bxm) / (2.0 * hy)
        j22 = (byp - bym) / (2.0 * hy)
        det = j11 * j22 - j12 * j21
        if not math.isfinite(det) or abs(det) < 1e-300:
            return wx, wy, iters, res, 0
        dx = -(j22 * rx - j12 * ry) / det
        dy = -(j11 * ry - j21 * rx) / det
        phi0 = rx * rx + ry * ry
        alpha = 1.0
        accepted = False
        for _ in range(40):
            nwx = wx + alpha * dx
            nwy = wy + alpha * dy
            nrx, nry = _with_force(
                _force_free_residual(length, radius, k_bend, k_tendon, tendons, nwx, nwy),
                fx, fy, fz)
            if nrx * nrx + nry * nry <= phi0 * (1.0 - 1e-4 * alpha):
                wx, wy, rx, ry = nwx, nwy, nrx, nry
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            return wx, wy, iters, res, 0
        iters += 1


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
    px, py, pz = bend_position(length, wx, wy)
    ex = tx - px
    ey = ty - py
    ez = tz - pz
    err2 = ex * ex + ey * ey + ez * ez
    while True:
        jp = bend_position_jacobian(length, wx, wy)
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
            npx, npy, npz = bend_position(length, nwx, nwy)
            nex = tx - npx
            ney = ty - npy
            nez = tz - npz
            nerr2 = nex * nex + ney * ney + nez * nez
            if nerr2 <= err2:
                wx, wy = nwx, nwy
                ex, ey, ez = nex, ney, nez
                err2 = nerr2
                lam = max(damping, lam * 0.25)
                stepped = True
                break
            lam = lam * 10.0 + 1e-12
        if not stepped:
            # error already at its floor; report the reachable residual as-is
            return wx, wy, iters, reach, 1 if reach < tol else 0
        iters += 1
