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
full-column-rank case.
"""

import math

import numpy as np

from ._kernels import core
from .errors import SingularConfigurationError
from .kinematics import jacobian_q_psi, jacobian_v_psi
from .model import StiffnessSet
from .statics import _check_tensions

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


def configuration_stiffness(params, psi, tensions):
    """Configuration-space stiffness K_psi, 2x2."""
    tau = _check_tensions(tensions, params.tendon_count)
    d_theta, d_delta = jacobian_q_psi_derivative_tensor(params, psi)
    tensor_term = np.column_stack([d_theta @ tau, d_delta @ tau])
    jq = jacobian_q_psi(params, psi)
    return hessian_energy(params, psi) - tensor_term - jq.T @ tendon_stiffness(params) @ jq


def jacobian_v_derivatives(params, psi):
    """Slices (dJ_v/dtheta, dJ_v/ddelta), each 3x2.

    Uses h' = g, the identity tying the tip-offset quotient to the bending
    sensitivity.  With the kernel's arc quotients, h = t a and g = a + t^2 b
    as in ``arc_terms``, and the derivatives of g and w = t c are
    g' = t (3b + t^2 e) and w' = c + t^2 h_c, where h_c = c'/t.
    """
    theta = psi.theta
    a, _, b, c, e, hc = core.hessian_quotients(abs(theta))
    t2 = theta * theta
    h = theta * a
    g = a + t2 * b
    dg = theta * (3.0 * b + t2 * e)
    dw = c + t2 * hc
    sd, cd = math.sin(psi.delta), math.cos(psi.delta)
    length = params.backbone_length
    d_theta = length * np.array([
        [cd * dg, -sd * g],
        [sd * dg, cd * g],
        [dw, 0.0],
    ])
    d_delta = length * np.array([
        [-sd * g, -cd * h],
        [cd * g, -sd * h],
        [0.0, 0.0],
    ])
    return d_theta, d_delta


def jacobian_v_pinv_t_derivatives(params, psi, damping=0.0):
    """(J_v^T)^+ and its analytic derivative slices wrt theta and delta.

    Valid for full-column-rank J_v: with M = J_v^T J_v,
    (J_v^T)^+ = J_v M^-1 and d[(J_v^T)^+] = dJ M^-1 - J M^-1 dM M^-1.
    Returns (pinv_t, d_theta_slice, d_delta_slice), shapes 3x2 each.
    """
    jv = jacobian_v_psi(params, psi)
    m = jv.T @ jv + damping * np.eye(2)
    m_inv = np.linalg.inv(m)
    pinv_t = jv @ m_inv
    slices = []
    for dj in jacobian_v_derivatives(params, psi):
        dm = dj.T @ jv + jv.T @ dj
        slices.append(dj @ m_inv - jv @ m_inv @ dm @ m_inv)
    return pinv_t, slices[0], slices[1]


def task_stiffness(params, psi, tensions, f_star, *, damped=False):
    """Task-space stiffness K_X, 3x3.

    K_X = [d(J_v^T)^+/dpsi] F* J_v^+ + (J_v^T)^+ K_psi J_v^+.  When the
    linear-velocity Jacobian loses column rank (straight arm) the map is
    undefined and SingularConfigurationError is raised, carrying sigma_min;
    pass damped=True to get the damped-pseudoinverse variant instead.
    Negative or non-finite tensions raise ConfigurationError first.
    """
    tau = _check_tensions(tensions, params.tendon_count)
    f_star = np.asarray(f_star, dtype=float).reshape(2)
    jv = jacobian_v_psi(params, psi)
    sigma_min = float(np.linalg.svd(jv, compute_uv=False)[-1])
    tol = 1e-8 * params.backbone_length
    if not damped and sigma_min < tol:
        raise SingularConfigurationError(
            f"task stiffness undefined: sigma_min(J_v) = {sigma_min:.3e} "
            f"below tolerance {tol:.3e} (straight-configuration singularity); "
            f"use damped=True for a regularized value",
            sigma_min=sigma_min,
            tolerance=tol,
        )
    k_psi = configuration_stiffness(params, psi, tau)
    pinv_t, d_theta, d_delta = jacobian_v_pinv_t_derivatives(
        params, psi, damping=DEFAULT_DAMPING if damped else 0.0
    )
    jv_pinv = pinv_t.T
    first = np.column_stack([d_theta @ f_star, d_delta @ f_star]) @ jv_pinv
    return first + pinv_t @ k_psi @ jv_pinv


def stiffness_set(params, psi, tensions, f_star=None, *, damped=False):
    """Bundle K_psi, K_q and K_X (None at singular points) into a record."""
    tau = _check_tensions(tensions, params.tendon_count)
    if f_star is None:
        f_star = np.zeros(2)
    try:
        k_x = task_stiffness(params, psi, tau, f_star, damped=damped)
    except SingularConfigurationError:
        k_x = None
    return StiffnessSet(
        k_psi=configuration_stiffness(params, psi, tau),
        k_q=tendon_stiffness(params),
        k_x=k_x,
        evaluated_at=psi,
        tensions_at_point=tau,
    )
