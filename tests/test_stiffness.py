import math

import numpy as np
import pytest

from ccarm import (Configuration, ConfigurationError, SingularConfigurationError,
                   Wrench, allocate_tensions, configuration_stiffness,
                   configuration_to_joints, energy_gradient, elastic_energy,
                   hessian_energy, jacobian_q_psi,
                   jacobian_q_psi_derivative_tensor, jacobian_v_derivatives,
                   jacobian_v_pinv_t_derivatives, jacobian_v_psi, stiffness_set,
                   task_stiffness, tendon_stiffness)
from ccarm.sim import finite_difference_oracle

from conftest import random_configs


def test_hessian_constant_and_symmetric(params, rng):
    expected = np.array([[params.flexural_rigidity / params.backbone_length, 0], [0, 0.0]])
    for psi in random_configs(rng, 10, theta_lo=0.0, theta_hi=math.pi):
        h = hessian_energy(params, psi)
        assert np.array_equal(h, expected)
        assert np.array_equal(h, h.T)


def test_hessian_matches_second_differences(params):
    psi = Configuration(0.7, 0.3)
    step = 1e-4

    def grad(x):
        return energy_gradient(params, Configuration(x[0], x[1]))

    fd = finite_difference_oracle(grad, [psi.theta, psi.delta], step)
    h = hessian_energy(params, psi)
    assert np.linalg.norm(h - fd) / np.linalg.norm(h) < 1e-6
    # and against the energy itself
    e0 = elastic_energy(params, psi)
    ep = elastic_energy(params, Configuration(psi.theta + step, psi.delta))
    em = elastic_energy(params, Configuration(psi.theta - step, psi.delta))
    assert (ep - 2 * e0 + em) / step ** 2 == pytest.approx(h[0, 0], rel=1e-6)


def test_tendon_stiffness_matrix(params):
    k = tendon_stiffness(params)
    assert k.shape == (4, 4)
    assert np.allclose(np.diag(k), 1580.0, rtol=1e-12)
    assert np.array_equal(k - np.diag(np.diag(k)), np.zeros((4, 4)))
    # scales linearly with the tendon cross section
    import dataclasses
    doubled = dataclasses.replace(params, tendon_cross_section=2 * params.tendon_cross_section)
    assert np.allclose(tendon_stiffness(doubled), 2 * k)


def test_tendon_map_derivative_structure(params, rng):
    for psi in random_configs(rng, 10):
        d_theta, d_delta = jacobian_q_psi_derivative_tensor(params, psi)
        assert np.array_equal(d_theta[0], np.zeros(4))
        phases = psi.delta + params.tendon_phases
        assert np.allclose(d_theta[1], -params.pitch_radius * np.sin(phases), atol=1e-15)
        assert np.allclose(d_delta[0], -params.pitch_radius * np.sin(phases), atol=1e-15)


def test_tendon_map_derivative_matches_finite_differences(params, rng):
    for psi in random_configs(rng, 20):
        fd = finite_difference_oracle(
            lambda x: jacobian_q_psi(params, Configuration(x[0], x[1])).T.ravel(),
            [psi.theta, psi.delta], 1e-6)
        d_theta, d_delta = jacobian_q_psi_derivative_tensor(params, psi)
        analytic = np.column_stack([d_theta.ravel(), d_delta.ravel()])
        assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-6


def test_zero_tension_contraction_vanishes(params):
    psi = Configuration(0.9, -0.4)
    k_tau0 = configuration_stiffness(params, psi, np.zeros(4))
    jq = jacobian_q_psi(params, psi)
    direct = hessian_energy(params, psi) - jq.T @ tendon_stiffness(params) @ jq
    assert np.array_equal(k_tau0, direct)
    assert np.allclose(k_tau0, k_tau0.T, atol=1e-15 * np.max(np.abs(k_tau0)))


def test_configuration_stiffness_straight_value(params):
    # hand evaluation at the straight configuration with slack tendons
    k = configuration_stiffness(params, Configuration(0.0, 0.0), np.zeros(4))
    k11 = (params.flexural_rigidity / params.backbone_length
           - 2.0 * params.pitch_radius ** 2 * params.tendon_axial_stiffness)
    assert np.allclose(k, [[k11, 0], [0, 0.0]], rtol=1e-14)


def test_configuration_stiffness_matches_generalized_force_map(params, rng):
    # oracle: differentiate psi -> grad E - J_q^T (tau + K_q (q - q0))
    k_q = tendon_stiffness(params)
    for psi0 in random_configs(rng, 15):
        tau = allocate_tensions(params, psi0, Wrench.zero(), 0.3).tensions
        q0 = configuration_to_joints(params, psi0).displacements

        def fstar(x):
            psi = Configuration(x[0], x[1])
            q = configuration_to_joints(params, psi).displacements
            t = tau + k_q @ (q - q0)
            return energy_gradient(params, psi) - jacobian_q_psi(params, psi).T @ t

        fd = finite_difference_oracle(fstar, [psi0.theta, psi0.delta], 1e-6)
        k = configuration_stiffness(params, psi0, tau)
        dominant = np.abs(fd) >= 0.1 * np.max(np.abs(fd))
        rel = np.abs(k - fd)[dominant] / np.abs(fd)[dominant]
        assert np.max(rel) < 1e-4


def test_configuration_stiffness_rejects_negative_tension(params):
    with pytest.raises(ConfigurationError):
        configuration_stiffness(params, Configuration(0.3, 0), np.array([-1.0, 0, 0, 0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_stiffness_rejects_non_finite_tensions(params, bad):
    tau = np.array([bad, 1.0, 1.0, 1.0])
    with pytest.raises(ConfigurationError, match="finite"):
        configuration_stiffness(params, Configuration(0.3, 0), tau)
    for theta in (0.3, 0.0):  # checked before the straight-arm singularity
        with pytest.raises(ConfigurationError, match="finite"):
            task_stiffness(params, Configuration(theta, 0), tau, np.zeros(2))


def test_jacobian_v_derivatives_match_finite_differences(params, rng):
    for psi in random_configs(rng, 20):
        fd = finite_difference_oracle(
            lambda x: jacobian_v_psi(params, Configuration(x[0], x[1])).ravel(),
            [psi.theta, psi.delta], 1e-6)
        d_theta, d_delta = jacobian_v_derivatives(params, psi)
        analytic = np.column_stack([d_theta.ravel(), d_delta.ravel()])
        assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-6


def test_pinv_transpose_derivatives_match_finite_differences(params, rng):
    for psi in random_configs(rng, 20, theta_lo=0.08):
        def pinv_t(x):
            jv = jacobian_v_psi(params, Configuration(x[0], x[1]))
            return (jv @ np.linalg.inv(jv.T @ jv)).ravel()

        fd = finite_difference_oracle(pinv_t, [psi.theta, psi.delta], 1e-6)
        _, d_theta, d_delta = jacobian_v_pinv_t_derivatives(params, psi)
        analytic = np.column_stack([d_theta.ravel(), d_delta.ravel()])
        assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-5


def test_task_stiffness_singular_at_straight(params):
    with pytest.raises(SingularConfigurationError) as info:
        task_stiffness(params, Configuration(0.0, 0.0), np.zeros(4), np.zeros(2))
    assert info.value.sigma_min is not None
    assert info.value.sigma_min < info.value.tolerance
    damped = task_stiffness(params, Configuration(0.0, 0.0), np.zeros(4),
                            np.zeros(2), damped=True)
    assert damped.shape == (3, 3) and np.all(np.isfinite(damped))


def test_task_stiffness_zero_fstar_is_pure_congruence(params, rng):
    for psi in random_configs(rng, 10, theta_lo=0.2):
        tau = allocate_tensions(params, psi, Wrench.zero(), 0.0).tensions
        k_x = task_stiffness(params, psi, tau, np.zeros(2))
        jv = jacobian_v_psi(params, psi)
        pinv_t = jv @ np.linalg.inv(jv.T @ jv)
        expected = pinv_t @ configuration_stiffness(params, psi, tau) @ pinv_t.T
        assert np.allclose(k_x, expected, rtol=1e-12, atol=1e-12)


def test_task_stiffness_congruence_reconstruction(params):
    psi = Configuration(math.radians(30), 0.0)
    tau = allocate_tensions(params, psi, Wrench.zero(), 0.0).tensions
    k_x = task_stiffness(params, psi, tau, np.zeros(2))
    jv = jacobian_v_psi(params, psi)
    k_psi = configuration_stiffness(params, psi, tau)
    rel = np.linalg.norm(jv.T @ k_x @ jv - k_psi) / np.linalg.norm(k_psi)
    assert rel < 1e-8


def test_task_stiffness_first_term_against_finite_differences(params, rng):
    # with a frozen nonzero F*, K_X must equal the FD derivative of
    # psi -> (J_v^T)^+ F* chained with J_v^+, plus the congruence part
    for psi in random_configs(rng, 5, theta_lo=0.3):
        tau = allocate_tensions(params, psi, Wrench.zero(), 0.2).tensions
        f_star = np.array([3e-3, -2e-3])

        def mapped(x):
            jv = jacobian_v_psi(params, Configuration(x[0], x[1]))
            return (jv @ np.linalg.inv(jv.T @ jv)) @ f_star

        fd = finite_difference_oracle(mapped, [psi.theta, psi.delta], 1e-6)
        jv = jacobian_v_psi(params, psi)
        pinv = np.linalg.inv(jv.T @ jv) @ jv.T
        expected = fd @ pinv + (jv @ np.linalg.inv(jv.T @ jv)) \
            @ configuration_stiffness(params, psi, tau) @ pinv
        k_x = task_stiffness(params, psi, tau, f_star)
        assert np.linalg.norm(k_x - expected) / np.linalg.norm(expected) < 1e-6


def test_sigma_min_monotone_near_straight(params):
    deltas = (-2.0, 0.0, 1.3)
    thetas = np.linspace(1e-4, 0.1, 12)
    for delta in deltas:
        sigmas = [np.linalg.svd(jacobian_v_psi(params, Configuration(t, delta)),
                                compute_uv=False)[-1] for t in thetas]
        assert all(a <= b + 1e-15 for a, b in zip(sigmas, sigmas[1:]))


def test_stiffness_set_bundle(params):
    psi = Configuration(math.radians(30), 0.0)
    tau = allocate_tensions(params, psi, Wrench.zero(), 0.0).tensions
    bundle = stiffness_set(params, psi, tau)
    assert bundle.k_x is not None and bundle.k_x.shape == (3, 3)
    assert np.allclose(np.diag(bundle.k_q), params.tendon_axial_stiffness)
    singular = stiffness_set(params, Configuration(0.0, 0.0), np.zeros(4))
    assert singular.k_x is None
