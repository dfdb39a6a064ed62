"""Forward kinematics, configuration-to-joint map and the three Jacobians.

The arm bends as a circular arc, so the tip pose is a closed form of the
configuration (theta, delta).  Two independent constructions of the angular
Jacobian are provided: the closed form (jacobian_w_psi) and a vectorized
rearrangement of dR = skew(omega) R (jacobian_w_psi_vectorized); they must
agree, which the test suite uses as a cross-check.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import core
from .model import JacobianSet, JointState, Pose, _readonly


@dataclass(frozen=True)
class BackboneSample:
    """One sampled backbone point: arc position s, point and unit tangent."""

    arc_position: float
    point: np.ndarray
    tangent: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", _readonly(self.point, (3,)))
        object.__setattr__(self, "tangent", _readonly(self.tangent, (3,)))


def forward_kinematics(params, psi):
    """Pose of the gripper frame for configuration psi.

    Rotation is RotZ(delta) RotY(theta) RotZ(-delta); position is the
    constant-curvature arc endpoint (L/theta)[cos d (1-cos t), sin d (1-cos t),
    sin t], from the arc quotients of ``_kernels.core.arc_quotients``, which
    take their limits only where theta/2 is 0.
    """
    rot = np.array(core.rotation(psi.theta, psi.delta)).reshape(3, 3)
    pos = np.array(core.position(params.backbone_length, psi.theta, psi.delta))
    return Pose(rotation=rot, position=pos)


def sample_backbone(params, psi, count):
    """Sample the backbone arc at `count` evenly spaced arc positions."""
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    length = params.backbone_length
    samples = []
    sd, cd = math.sin(psi.delta), math.cos(psi.delta)
    for k in range(count):
        frac = k / (count - 1)
        s = length * frac
        angle = psi.theta * frac
        point = np.array(core.position(s, angle, psi.delta))
        tangent = np.array([cd * math.sin(angle), sd * math.sin(angle), math.cos(angle)])
        samples.append(BackboneSample(arc_position=s, point=point, tangent=tangent))
    return samples


def configuration_to_joints(params, psi):
    """Tendon pull-in displacements q_i = r cos(delta + i*beta) * theta."""
    cos_v, _ = core.tendon_cos_sin(
        params.tendon_division_angle, params.tendon_count, psi.delta
    )
    rt = params.pitch_radius * psi.theta
    return JointState(displacements=np.array([rt * c for c in cos_v]))


def jacobian_q_psi(params, psi):
    """d(tendon displacements)/d(theta, delta), an n x 2 matrix."""
    cos_v, sin_v = core.tendon_cos_sin(
        params.tendon_division_angle, params.tendon_count, psi.delta
    )
    r = params.pitch_radius
    rows = [[r * c, -r * s * psi.theta] for c, s in zip(cos_v, sin_v)]
    return np.array(rows)


def jacobian_v_psi(params, psi):
    """d(tip position)/d(theta, delta), 3x2."""
    return np.array(core.jac_v(params.backbone_length, psi.theta, psi.delta)).reshape(3, 2)


def jacobian_w_psi(params, psi):
    """Angular-velocity Jacobian, 3x2 closed form."""
    return np.array(core.jac_w(psi.theta, psi.delta)).reshape(3, 2)


def _skew(v):
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def _rotz(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _roty(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_derivatives(psi):
    """Closed-form dR/dtheta and dR/ddelta of the gripper rotation.

    dR/dtheta conjugates the y-generator through the bending-plane rotation;
    dR/ddelta is the commutator [skew(e_z), R].
    """
    rz = _rotz(psi.delta)
    rzm = _rotz(-psi.delta)
    sy = _skew(np.array([0.0, 1.0, 0.0]))
    sz = _skew(np.array([0.0, 0.0, 1.0]))
    rot = np.array(core.rotation(psi.theta, psi.delta)).reshape(3, 3)
    d_theta = rz @ sy @ _roty(psi.theta) @ rzm
    d_delta = sz @ rot - rot @ sz
    return d_theta, d_delta


def jacobian_w_psi_vectorized(params, psi):
    """Angular-velocity Jacobian rebuilt from vectorized rotation rates.

    Column-stacking dR = skew(omega) R gives vec(dR) = D omega with D the
    9x3 stack of transposed skews of R's columns (D^T D = 2 I for any
    orthonormal frame); vec(dR) = E dpsi with E the stacked vec'd partial
    derivatives of R.  The Jacobian is the left-inverse product
    (D^T D)^-1 D^T E.
    """
    rot = np.array(core.rotation(psi.theta, psi.delta)).reshape(3, 3)
    d = np.vstack([_skew(rot[:, j]).T for j in range(3)])
    d_theta, d_delta = rotation_derivatives(psi)
    e = np.column_stack([d_theta.reshape(-1, order="F"), d_delta.reshape(-1, order="F")])
    return np.linalg.solve(d.T @ d, d.T @ e)


def jacobian_x_psi(params, psi):
    """Stacked 6x2 twist Jacobian [linear; angular]."""
    return np.vstack([jacobian_v_psi(params, psi), jacobian_w_psi(params, psi)])


def jacobian_set(params, psi):
    """All Jacobians of one configuration as a JacobianSet record."""
    return JacobianSet(
        j_q_psi=jacobian_q_psi(params, psi),
        j_v_psi=jacobian_v_psi(params, psi),
        j_w_psi=jacobian_w_psi(params, psi),
        evaluated_at=psi,
    )
