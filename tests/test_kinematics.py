import math

import numpy as np
import pytest

from ccarm import (Configuration, ConfigurationError, configuration_to_joints,
                   forward_kinematics, jacobian_q_psi, jacobian_set, jacobian_v_psi,
                   jacobian_w_psi, jacobian_w_psi_vectorized, jacobian_x_psi, sample_backbone)
from ccarm._kernels import core
from ccarm.sim import finite_difference_oracle

from conftest import random_configs


def _rotz(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _skew(v):
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0.0]])


# ---------------------------------------------------------------- forward map

def test_straight_configuration_limit(params):
    pose = forward_kinematics(params, Configuration(0.0, 0.7))
    assert np.allclose(pose.rotation, np.eye(3), atol=1e-15)
    assert np.allclose(pose.position, [0, 0, params.backbone_length], atol=1e-15)
    # just above the series threshold the formulas must agree smoothly
    below = forward_kinematics(params, Configuration(9e-5, 0.7)).position
    above = forward_kinematics(params, Configuration(1.1e-4, 0.7)).position
    assert np.linalg.norm(below - above) < 1e-5
    # inside the series branch the bend-vector chart agrees with (theta, delta)
    theta, delta, length = 5e-5, 0.7, params.backbone_length
    wx, wy = theta * math.cos(delta), theta * math.sin(delta)
    assert np.allclose(core.bend_position(length, wx, wy),
                       core.position(length, theta, delta), rtol=1e-14, atol=1e-18)
    dw_dpsi = np.array([[math.cos(delta), -wy], [math.sin(delta), wx]])
    jp = np.array(core._bend_point(length, wx, wy)[1]).reshape(3, 2)
    assert np.allclose(jp @ dw_dpsi, np.array(core.jac_v(length, theta, delta)).reshape(3, 2),
                       rtol=1e-12, atol=1e-18)


def test_quarter_circle_pose(params):
    L = params.backbone_length
    pose = forward_kinematics(params, Configuration(math.pi / 2, 0.0))
    assert np.allclose(pose.position, [2 * L / math.pi, 0, 2 * L / math.pi], rtol=1e-15)
    expected_rot = np.array([[0, 0, 1], [0, 1, 0], [-1, 0, 0.0]])  # RotY(pi/2)
    assert np.allclose(pose.rotation, expected_rot, atol=1e-15)


def test_rotated_bending_plane_pose(params):
    L = params.backbone_length
    pose = forward_kinematics(params, Configuration(math.pi / 2, math.pi / 2))
    assert np.allclose(pose.position, [0, 2 * L / math.pi, 2 * L / math.pi], atol=1e-16)
    # quarter turn about the bending-plane normal (-sin d, cos d, 0) = (-1, 0, 0)
    axis_rot = np.array([[1, 0, 0], [0, 0, 1], [0, -1, 0.0]])
    assert np.allclose(pose.rotation, axis_rot, atol=1e-15)


def test_rotations_are_special_orthogonal(params, rng):
    for psi in random_configs(rng, 200, theta_lo=0.0, theta_hi=math.pi):
        rot = forward_kinematics(params, psi).rotation
        assert np.linalg.norm(rot.T @ rot - np.eye(3)) < 1e-10
        assert abs(np.linalg.det(rot) - 1.0) < 1e-10


def test_chord_identity(params, rng):
    L = params.backbone_length
    for psi in random_configs(rng, 100, theta_lo=1e-3):
        chord = np.linalg.norm(forward_kinematics(params, psi).position)
        assert abs(chord - 2 * L / psi.theta * math.sin(psi.theta / 2)) < 1e-10 * L
    straight = np.linalg.norm(forward_kinematics(params, Configuration(0, 0)).position)
    assert straight == pytest.approx(L, rel=1e-15)


def test_delta_equivariance(params, rng):
    L = params.backbone_length
    for psi in random_configs(rng, 100):
        in_plane = forward_kinematics(params, Configuration(psi.theta, 0.0)).position
        rotated = _rotz(psi.delta) @ in_plane
        direct = forward_kinematics(params, psi).position
        assert np.allclose(direct, rotated, rtol=1e-14, atol=1e-16 * L)


# ------------------------------------------------------------- backbone shape

def test_backbone_straight_line(params):
    L = params.backbone_length
    pts = [s.point for s in sample_backbone(params, Configuration(0, 0.3), 3)]
    assert np.allclose(pts, [[0, 0, 0], [0, 0, L / 2], [0, 0, L]], atol=1e-15)


def test_backbone_half_circle_endpoint(params):
    L = params.backbone_length
    samples = sample_backbone(params, Configuration(math.pi, 0.0), 2)
    assert np.allclose(samples[-1].point, [2 * L / math.pi, 0, 0], atol=1e-15)


def test_backbone_endpoints_and_tangents(params, rng):
    for psi in random_configs(rng, 20):
        samples = sample_backbone(params, psi, 9)
        assert np.linalg.norm(samples[0].point) == 0.0
        tip = forward_kinematics(params, psi).position
        assert np.linalg.norm(samples[-1].point - tip) < 1e-12
        for s in samples:
            assert abs(np.linalg.norm(s.tangent) - 1.0) < 1e-12
        assert samples[0].arc_position == 0.0
        assert samples[-1].arc_position == pytest.approx(params.backbone_length)


def test_backbone_equal_chords(params, rng):
    # equal arc steps on a circle give equal chords
    for psi in random_configs(rng, 20, theta_lo=0.1):
        pts = np.array([s.point for s in sample_backbone(params, psi, 12)])
        chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert np.max(chords) - np.min(chords) < 1e-12


def test_backbone_count_validation(params):
    # a ConfigurationError, which is a ValueError too, naming the count
    for count in (1, -3, "3", 2.5, True, None):
        with pytest.raises(ConfigurationError, match="count"):
            sample_backbone(params, Configuration(0.3, 0.0), count)


# ------------------------------------------------------------------ joint map

def test_joint_map_in_plane(params, rng):
    r = params.pitch_radius
    theta = 0.37
    q = configuration_to_joints(params, Configuration(theta, 0.0)).displacements
    assert np.allclose(q, r * theta * np.array([1, 0, -1, 0]), atol=1e-18)
    q0 = configuration_to_joints(params, Configuration(0.0, rng.uniform(-3, 3))).displacements
    assert np.all(q0 == 0.0)


def test_joint_map_hand_value(params):
    # q1 = r cos(pi/4) * 0.5 with r = 20 mm
    q = configuration_to_joints(params, Configuration(0.5, math.pi / 4)).displacements
    assert q[0] == pytest.approx(7.0711e-3, rel=1e-4)


def test_antagonism_exact(params, rng):
    for psi in random_configs(rng, 200, theta_lo=0.0, theta_hi=math.pi):
        q = configuration_to_joints(params, psi).displacements
        assert q[0] + q[2] == 0.0
        assert q[1] + q[3] == 0.0
    # the evenly spaced four-tendon ring uses exact quadrant values
    assert core.tendon_cos_sin(math.pi / 2, 4, 0.0) \
        == ((1.0, 0.0, -1.0, 0.0), (0.0, 1.0, 0.0, -1.0))


# ------------------------------------------------------------------ Jacobians

def test_jacobian_q_at_home(params):
    r = params.pitch_radius
    jq = jacobian_q_psi(params, Configuration(0.0, 0.0))
    assert np.array_equal(jq, np.array([[r, 0], [0, 0], [-r, 0], [0, 0.0]]))


def test_jacobian_q_column_sums_vanish(params, rng):
    for psi in random_configs(rng, 50):
        jq = jacobian_q_psi(params, psi)
        assert np.max(np.abs(jq.sum(axis=0))) < 1e-15


def test_jacobian_q_matches_finite_differences(params, rng):
    for psi in random_configs(rng, 30):
        fd = finite_difference_oracle(
            lambda x: configuration_to_joints(
                params, Configuration(x[0], x[1])).displacements,
            [psi.theta, psi.delta], 1e-6)
        jq = jacobian_q_psi(params, psi)
        assert np.linalg.norm(jq - fd) / np.linalg.norm(jq) < 1e-6


def test_jacobian_v_straight_limit(params):
    L = params.backbone_length
    jv = jacobian_v_psi(params, Configuration(0.0, 0.0))
    assert np.allclose(jv, L * np.array([[0.5, 0], [0, 0], [0, 0.0]]), atol=1e-15)


def test_jacobian_v_quarter_circle_entry(params):
    L = params.backbone_length
    jv = jacobian_v_psi(params, Configuration(math.pi / 2, 0.0))
    assert jv[1, 1] == pytest.approx(2 * L / math.pi, rel=1e-15)


def test_jacobian_v_matches_finite_differences(params, rng):
    for psi in random_configs(rng, 30, theta_lo=0.1):
        fd = finite_difference_oracle(
            lambda x: forward_kinematics(params, Configuration(x[0], x[1])).position,
            [psi.theta, psi.delta], 1e-6)
        jv = jacobian_v_psi(params, psi)
        assert np.linalg.norm(jv - fd) / np.linalg.norm(jv) < 1e-6


def test_jacobian_w_closed_form_points(params):
    assert np.allclose(jacobian_w_psi(params, Configuration(math.pi / 2, 0.0)),
                       [[0, -1], [1, 0], [0, 1.0]], atol=1e-16)
    jw0 = jacobian_w_psi(params, Configuration(0.0, 1.1))
    assert np.all(jw0[:, 1] == 0.0)


def _angular_rate_oracle(params, psi, step=1e-6):
    # omega columns extracted from skew(dR R^T) under numeric differentiation
    cols = []
    rot = forward_kinematics(params, psi).rotation
    for k, (dt, dd) in enumerate(((step, 0.0), (0.0, step))):
        plus = forward_kinematics(
            params, Configuration(psi.theta + dt, psi.delta + dd)).rotation
        minus = forward_kinematics(
            params, Configuration(psi.theta - dt, psi.delta - dd)).rotation
        w = ((plus - minus) / (2 * step)) @ rot.T
        w = 0.5 * (w - w.T)
        cols.append([w[2, 1], w[0, 2], w[1, 0]])
    return np.array(cols).T


def test_jacobian_w_matches_rotation_rate_oracle(params, rng):
    for psi in random_configs(rng, 30):
        jw = jacobian_w_psi(params, psi)
        fd = _angular_rate_oracle(params, psi)
        assert np.linalg.norm(jw - fd) / np.linalg.norm(jw) < 1e-5


# --------------------------------------------- vectorized angular construction

def test_vectorized_left_inverse_identity(params, rng):
    # stacked transposed skews of an orthonormal frame satisfy D^T D = 2 I
    for psi in random_configs(rng, 100, theta_lo=0.0, theta_hi=math.pi):
        rot = forward_kinematics(params, psi).rotation
        d = np.vstack([_skew(rot[:, j]).T for j in range(3)])
        assert np.max(np.abs(d.T @ d - 2 * np.eye(3))) < 1e-12


def test_vectorized_matches_closed_form(params, rng):
    for psi in random_configs(rng, 200, theta_lo=0.0, theta_hi=math.pi):
        diff = jacobian_w_psi_vectorized(params, psi) - jacobian_w_psi(params, psi)
        assert np.max(np.abs(diff)) < 1e-10


def test_vectorized_home_column(params):
    j = jacobian_w_psi_vectorized(params, Configuration(0.0, 0.0))
    assert np.allclose(j[:, 0], [0, 1, 0], atol=1e-14)


# -------------------------------------------------------------- stacked twist

def test_twist_jacobian_stacking_and_rank(params):
    psi = Configuration(math.pi / 2, 0.0)
    jx = jacobian_x_psi(params, psi)
    assert np.array_equal(jx[:3], jacobian_v_psi(params, psi))
    assert np.array_equal(jx[3:], jacobian_w_psi(params, psi))
    assert np.linalg.matrix_rank(jx) == 2
    assert np.linalg.matrix_rank(jacobian_x_psi(params, Configuration(0, 0))) == 1


def test_jacobian_set_bundle(params):
    psi = Configuration(0.4, -1.0)
    bundle = jacobian_set(params, psi)
    assert bundle.evaluated_at == psi
    assert bundle.j_x_psi.shape == (6, 2)
    assert np.array_equal(bundle.j_x_psi[:3], bundle.j_v_psi)
