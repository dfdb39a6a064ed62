"""Configuration-space and task-space stiffness of the bent arm.

The configuration-space stiffness combines the energy Hessian, the
contraction of the tendon-map derivative tensor with the tensions, and the
tendon elasticity felt through the tendon map:

    K_psi = H_psi - [d(J_q^T)/dpsi] tau - J_q^T K_q J_q

Note the sign convention: the tendon term enters with a minus, i.e. K_psi is
the derivative of the generalized force along the tension continuation
tau + K_q (q(psi) - q0).  The displacement-locked tension law used by the
nonlinear solvers in `sim` carries the opposite sign, so K_X predicts the
*reaction* force per unit tip displacement; see the cross-checks in the test
suite.

The task-space stiffness maps through pseudoinverses of the linear-velocity
Jacobian and needs its derivative tensor, computed analytically for the
full-column-rank case.  J_v's two columns are orthogonal, so M = J_v^T J_v
(+ damping I) is diagonal: sigma_min(J_v) is the shorter column's norm, and
(J_v^T)^+ = J_v M^-1 and its derivative slices are closed forms, with no
SVD or matrix inverse.  K_psi and K_X are computed once each on Python
floats by one core per quantity; configuration_stiffness, task_stiffness,
stiffness_set and jacobian_v_pinv_t_derivatives build arrays from them.
"""

import math

import numpy as np

from ._kernels import core
from .errors import ConfigurationError, SingularConfigurationError
from .model import StiffnessSet, _real, _reals, _tensions

# Damping added to J_v^T J_v by the explicitly requested damped variant.
DEFAULT_DAMPING = 1e-6


def hessian_energy(params, psi):
    """Hessian of the elastic energy: diag(E_p I_p / L, 0), constant in psi."""
    return np.array([
        [params.flexural_rigidity / params.backbone_length, 0.0],
        [0.0, 0.0],
    ])


def tendon_stiffness(params):
    """Diagonal tendon stiffness matrix diag(E_T A / L)."""
    return np.eye(params.tendon_count) * params.tendon_axial_stiffness


def jacobian_q_psi_derivative_tensor(params, psi):
    """Slices (d(J_q^T)/dtheta, d(J_q^T)/ddelta), each 2 x n."""
    cos_v, sin_v = core.tendon_cos_sin(
        params.tendon_division_angle, params.tendon_count, psi.delta
    )
    r = params.pitch_radius
    cos_v = np.asarray(cos_v)
    sin_v = np.asarray(sin_v)
    d_theta = np.vstack([np.zeros_like(sin_v), -r * sin_v])
    d_delta = np.vstack([-r * sin_v, -r * psi.theta * cos_v])
    return d_theta, d_delta


def _configuration_stiffness(params, psi, tau):
    # K_psi on floats, ((k11, k12), (k21, k22)), tau a checked tension list:
    # H_psi - [d(J_q^T)/dpsi] tau = [[EI/L, r sum s tau], [r sum s tau,
    # r theta sum c tau]], minus J_q^T K_q J_q = k sum_i (u_i, v_i)^T (u_i, v_i)
    # over the rows (u_i, v_i) = (r c_i, -r s_i theta) of jacobian_q_psi, summed
    # in tendon order in the loop that sums the pulls as statics._pulls does.
    # One off-diagonal sum serves both entries, so K_psi is exactly symmetric.
    cos_v, sin_v = core.tendon_cos_sin(
        params.tendon_division_angle, params.tendon_count, psi.delta)
    r = params.pitch_radius
    neg_r = -r
    theta = psi.theta
    pull_cos = pull_sin = uu = uv = vv = 0.0
    for c, s, t in zip(cos_v, sin_v, tau):
        pull_cos += c * t
        pull_sin += s * t
        u = r * c
        v = neg_r * s * theta
        uu += u * u
        uv += u * v
        vv += v * v
    k = params.tendon_axial_stiffness
    shear = r * pull_sin - k * uv
    return ((params.flexural_rigidity / params.backbone_length - k * uu, shear),
            (shear, r * theta * pull_cos - k * vv))


def configuration_stiffness(params, psi, tensions):
    """Configuration-space stiffness K_psi, 2x2."""
    tau = _tensions(tensions, params.tendon_count)
    return np.array(_configuration_stiffness(params, psi, tau))


def _jacobian_v_slices(length, theta, delta, quotients):
    # The columns of dJ_v/dtheta and of dJ_v/ddelta, float 3-tuples, from
    # quotients = core.hessian_quotients(|theta|).
    # Uses h' = g, the identity tying the tip-offset quotient to the bending
    # sensitivity.  With the kernel's arc quotients, h = t a and g = a + t^2 b
    # as in ``arc_terms``, and the derivatives of g and w = t c are
    # g' = t (3b + t^2 e) and w' = c + t^2 h_c, where h_c = c'/t.
    a, _, b, c, e, hc = quotients
    t2 = theta * theta
    h = theta * a
    g = a + t2 * b
    dg = theta * (3.0 * b + t2 * e)
    dw = c + t2 * hc
    sd, cd = math.sin(delta), math.cos(delta)
    d_theta = ((length * (cd * dg), length * (sd * dg), length * dw),
               (length * (-sd * g), length * (cd * g), 0.0))
    d_delta = ((length * (-sd * g), length * (cd * g), 0.0),
               (length * (-cd * h), length * (-sd * h), 0.0))
    return d_theta, d_delta


def jacobian_v_derivatives(params, psi):
    """Slices (dJ_v/dtheta, dJ_v/ddelta), each 3x2."""
    return tuple(np.array(columns).T for columns in _jacobian_v_slices(
        params.backbone_length, psi.theta, psi.delta, core.hessian_quotients(abs(psi.theta))))


def _pinv_t(columns, d_theta, d_delta, damping):
    # (J_v^T)^+ = J_v M^-1 and its theta and delta derivative slices, each as
    # two column 3-lists.  M = J_v^T J_v + damping I is diagonal, J_v's
    # columns being orthogonal, so (J_v^T)^+ scales column i by 1/m_i, and
    # d[(J_v^T)^+] = dJ M^-1 - J M^-1 dM M^-1 has the columns
    # (dc_j - sum_i p_i dM_ij) / m_j with dM_ij = dc_i . c_j + c_i . dc_j.
    c1, c2 = columns
    m1, m2 = core.dot(c1, c1) + damping, core.dot(c2, c2) + damping
    if m1 == 0.0 or m2 == 0.0:
        raise SingularConfigurationError(
            "J_v^T J_v is singular: a column of J_v vanishes at theta = 0; "
            "pass a damping > 0", sigma_min=0.0, tolerance=0.0)
    p1 = [x / m1 for x in c1]
    p2 = [x / m2 for x in c2]
    slices = []
    for e1, e2 in (d_theta, d_delta):
        dm11 = 2.0 * core.dot(e1, c1)
        dm12 = core.dot(e1, c2) + core.dot(c1, e2)
        dm22 = 2.0 * core.dot(e2, c2)
        slices.append(([(e - x * dm11 - y * dm12) / m1 for e, x, y in zip(e1, p1, p2)],
                       [(e - x * dm12 - y * dm22) / m2 for e, x, y in zip(e2, p1, p2)]))
    return (p1, p2), slices[0], slices[1]


def jacobian_v_pinv_t_derivatives(params, psi, damping=0.0):
    """(J_v^T)^+ and its analytic derivative slices wrt theta and delta.

    Valid for full-column-rank J_v: with M = J_v^T J_v (+ damping I), which
    is diagonal because J_v's columns are orthogonal, (J_v^T)^+ = J_v M^-1
    and d[(J_v^T)^+] = dJ M^-1 - J M^-1 dM M^-1, in closed form.  Returns
    (pinv_t, d_theta_slice, d_delta_slice), shapes 3x2 each; raises
    SingularConfigurationError where a column vanishes and damping is 0.
    """
    length, theta, delta = params.backbone_length, psi.theta, psi.delta
    quotients = core.hessian_quotients(abs(theta))
    return tuple(np.array(columns).T for columns in _pinv_t(
        core.jac_v_columns(length, theta, delta, quotients[:4]),
        *_jacobian_v_slices(length, theta, delta, quotients), _real(damping, "damping")))


def _task_stiffness(params, psi, k_psi, f_star, damped):
    # K_X on floats, a row-major list of 9, from K_psi and F* as float pairs.
    length, theta, delta = params.backbone_length, psi.theta, psi.delta
    # one evaluation of the arc quotients serves J_v and its derivative slices
    quotients = core.hessian_quotients(theta)
    columns = core.jac_v_columns(length, theta, delta, quotients[:4])
    # orthogonal columns: the singular values of J_v are the column norms
    sigma_min = min(math.hypot(*col) for col in columns)
    tol = 1e-8 * length
    if not damped and sigma_min < tol:
        raise SingularConfigurationError(
            f"task stiffness undefined: sigma_min(J_v) = {sigma_min:.3e} "
            f"below tolerance {tol:.3e} (straight-configuration singularity); "
            f"use damped=True for a regularized value",
            sigma_min=sigma_min,
            tolerance=tol,
        )
    (p1, p2), s_theta, s_delta = _pinv_t(
        columns, *_jacobian_v_slices(length, theta, delta, quotients),
        DEFAULT_DAMPING if damped else 0.0)
    f1, f2 = f_star
    (k11, k12), (k21, k22) = k_psi
    # K_X = u p1^T + v p2^T with u = [d(J_v^T)^+/dtheta] F* + (J_v^T)^+ K_psi[:, 0]
    # and v its delta counterpart with K_psi[:, 1]
    u = [a * f1 + b * f2 + k11 * x + k21 * y for a, b, x, y in zip(*s_theta, p1, p2)]
    v = [a * f1 + b * f2 + k12 * x + k22 * y for a, b, x, y in zip(*s_delta, p1, p2)]
    k_x = [ui * x + vi * y for ui, vi in zip(u, v) for x, y in zip(p1, p2)]
    if not all(map(math.isfinite, k_x)):
        raise ConfigurationError(
            f"task stiffness is not finite at theta = {theta!r}: f_star (F*) or the "
            "tensions are too large for K_X to be represented")
    return k_x


def task_stiffness(params, psi, tensions, f_star, *, damped=False):
    """Task-space stiffness K_X, 3x3.

    K_X = [d(J_v^T)^+/dpsi] F* J_v^+ + (J_v^T)^+ K_psi J_v^+.  When the
    linear-velocity Jacobian loses column rank (straight arm) the map is
    undefined and SingularConfigurationError is raised, carrying sigma_min;
    pass damped=True to get the damped-pseudoinverse variant instead.
    Negative or non-finite tensions, a non-finite F* and a K_X that overflows
    raise ConfigurationError, the first two before the singularity check.
    """
    tau = _tensions(tensions, params.tendon_count)
    f = _reals(f_star, 2, "f_star")
    k_x = _task_stiffness(params, psi, _configuration_stiffness(params, psi, tau), f, damped)
    return np.array(k_x).reshape(3, 3)


def stiffness_set(params, psi, tensions, f_star=None, *, damped=False):
    """Bundle K_psi, K_q and K_X (None at singular points) into a record."""
    tau = _tensions(tensions, params.tendon_count)
    f = (0.0, 0.0) if f_star is None else _reals(f_star, 2, "f_star")
    k_psi = _configuration_stiffness(params, psi, tau)
    try:
        k_x = _task_stiffness(params, psi, k_psi, f, damped)
    except SingularConfigurationError:
        k_x = None
    return StiffnessSet(
        k_psi=k_psi,
        k_q=tendon_stiffness(params),
        k_x=k_x,
        evaluated_at=psi,
        tensions_at_point=tau,
    )
