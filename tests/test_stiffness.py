import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import ccarm
from ccarm import (Configuration, ConfigurationError, SingularConfigurationError,
                   Wrench, allocate_tensions, configuration_stiffness,
                   configuration_to_joints, energy_gradient, elastic_energy,
                   hessian_energy, jacobian_q_psi,
                   jacobian_q_psi_derivative_tensor, jacobian_v_derivatives,
                   jacobian_v_pinv_t_derivatives, jacobian_v_psi, stiffness_set,
                   task_stiffness, tendon_stiffness)
from ccarm._kernels import core
from ccarm.sim import finite_difference_oracle, solve_deflection, solve_perching_reaction

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
    # at zero tension K_psi = H - J_q^T K_q J_q, here evaluated on floats by
    # explicit loops over jacobian_q_psi's rows, each sum in tendon order
    psi = Configuration(0.9, -0.4)
    k_tau0 = configuration_stiffness(params, psi, np.zeros(4)).tolist()
    jq = jacobian_q_psi(params, psi).tolist()
    k = params.tendon_axial_stiffness
    h = hessian_energy(params, psi).tolist()
    direct = [[0.0, 0.0], [0.0, 0.0]]
    for i in range(2):
        for j in range(2):
            contraction = 0.0
            for row in jq:
                contraction += row[i] * row[j]
            direct[i][j] = h[i][j] - k * contraction
    assert k_tau0 == direct
    assert k_tau0[0][1] == k_tau0[1][0]


@pytest.mark.parametrize("tendon_count", [4, 6])
def test_configuration_stiffness_exactly_symmetric(params, rng, tendon_count):
    arm = params if tendon_count == 4 else _six_tendon(params)
    for psi in random_configs(rng, 20):
        tau = allocate_tensions(arm, psi, Wrench.from_force([0.1, -0.2, 0.05]), 0.3).tensions
        k = configuration_stiffness(arm, psi, tau)
        assert k[0, 1] == k[1, 0]


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
    with pytest.raises(SingularConfigurationError):
        jacobian_v_pinv_t_derivatives(params, Configuration(0.0, 0.0))
    assert np.all(np.isfinite(jacobian_v_pinv_t_derivatives(
        params, Configuration(0.0, 0.0), damping=1e-6)))


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f_star", [[math.nan, 0.0], [0.0, math.inf], [-math.inf, math.nan]])
def test_task_stiffness_rejects_non_finite_fstar(params, f_star):
    psi = ccarm.wrap_configuration(0.5, 0.3)
    tau = allocate_tensions(params, psi, None, 0.0).tensions
    for theta in (0.5, 0.0):  # checked before the straight-arm singularity
        psi = Configuration(theta, 0.3)
        with pytest.raises(ConfigurationError, match="finite"):
            task_stiffness(params, psi, tau, f_star)
        with pytest.raises(ConfigurationError, match="finite"):
            stiffness_set(params, psi, tau, f_star)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f_star", [[1e308, 0.0], [0.0, -1e308], [1.7e308, 1.7e308]])
def test_task_stiffness_rejects_overflowing_kx(params, f_star):
    # a finite F* whose K_X does not fit a float raises, with no RuntimeWarning
    psi = ccarm.wrap_configuration(0.5, 0.3)
    tau = allocate_tensions(params, psi, None, 0.0).tensions
    with pytest.raises(ConfigurationError, match="not finite"):
        task_stiffness(params, psi, tau, f_star)
    with pytest.raises(ConfigurationError, match="not finite"):
        stiffness_set(params, psi, tau, f_star)


def _numpy_task_stiffness(params, psi, tensions, f_star, damped):
    """(sigma_min, K_X) by the numpy formula: svd, inv and column_stack.

    K_X is None where the undamped map is singular.
    """
    jv = jacobian_v_psi(params, psi)
    sigma_min = float(np.linalg.svd(jv, compute_uv=False)[-1])
    if not damped and sigma_min < 1e-8 * params.backbone_length:
        return sigma_min, None
    m_inv = np.linalg.inv(jv.T @ jv + (1e-6 if damped else 0.0) * np.eye(2))
    pinv_t = jv @ m_inv
    slices = []
    for dj in jacobian_v_derivatives(params, psi):
        dm = dj.T @ jv + jv.T @ dj
        slices.append(dj @ m_inv - jv @ m_inv @ dm @ m_inv)
    first = np.column_stack([slices[0] @ f_star, slices[1] @ f_star]) @ pinv_t.T
    return sigma_min, first + pinv_t @ configuration_stiffness(params, psi, tensions) @ pinv_t.T


def _six_tendon(params):
    return dataclasses.replace(params, tendon_count=6, tendon_division_angle=2.0 * math.pi / 6)


@pytest.mark.parametrize("tendon_count", [4, 6])
@pytest.mark.parametrize("damped", [False, True])
def test_float_task_stiffness_matches_numpy_formula(params, tendon_count, damped):
    # theta = 1.5e-8 and below is singular (sigma_min = L theta / 2 < 1e-8 L),
    # 2.5e-8 and above is not
    arm = params if tendon_count == 4 else _six_tendon(params)
    f_star = np.array([3e-3, -2e-3])
    for theta in (0.0, 1e-12, 1e-9, 1.5e-8, 2.5e-8, 1e-6, 1e-3, 0.3, 1.2, 2.8):
        for delta in (-2.9, -0.4, 0.0, 0.7, 1.9):
            psi = Configuration(theta, delta)
            tau = allocate_tensions(arm, psi, None, 0.2).tensions
            sigma_min, expected = _numpy_task_stiffness(arm, psi, tau, f_star, damped)
            if expected is None:
                with pytest.raises(SingularConfigurationError) as info:
                    task_stiffness(arm, psi, tau, f_star, damped=damped)
                assert abs(info.value.sigma_min - sigma_min) <= 4 * math.ulp(sigma_min)
                continue
            k_x = task_stiffness(arm, psi, tau, f_star, damped=damped)
            assert np.linalg.norm(k_x - expected) <= 1e-12 * np.linalg.norm(expected)
            bundle = stiffness_set(arm, psi, tau, f_star, damped=damped)
            assert np.array_equal(bundle.k_x, k_x)


def test_stiffness_set_evaluates_configuration_stiffness_once(params, monkeypatch):
    calls = []
    stiffness_core = ccarm.stiffness._configuration_stiffness

    def counting(*args):
        calls.append(1)
        return stiffness_core(*args)

    monkeypatch.setattr(ccarm.stiffness, "_configuration_stiffness", counting)
    psi = Configuration(math.radians(30), 0.4)
    tau = allocate_tensions(params, psi, None, 0.1).tensions
    bundle = stiffness_set(params, psi, tau, [1e-3, 2e-3])
    assert len(calls) == 1
    assert np.array_equal(bundle.k_psi, configuration_stiffness(params, psi, tau))
    assert np.array_equal(bundle.k_x, task_stiffness(params, psi, tau, [1e-3, 2e-3]))


def test_point_queries_run_without_lapack(params, monkeypatch):
    # svd, inv, lstsq and norm raise, and every single-call solver still returns
    psi = Configuration(math.radians(40), 0.6)
    six = _six_tendon(params)
    anchor = np.array(ccarm.forward_kinematics(params, psi).position)
    offset = anchor - np.array(ccarm.forward_kinematics(
        params, Configuration(psi.theta + 0.02, psi.delta - 0.03)).position)
    wrench = Wrench.from_force([0.1, -0.2, 0.05])

    def forbidden(*args, **kwargs):
        raise AssertionError("a single-call solver calls no numpy.linalg routine")

    for name in ("svd", "inv", "lstsq", "norm"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for arm in (params, six):
        report = allocate_tensions(arm, psi, wrench, 0.2)
        assert task_stiffness(arm, psi, report.tensions, report.generalized_force).shape == (3, 3)
        assert stiffness_set(arm, psi, report.tensions, damped=True).k_x.shape == (3, 3)
        assert solve_deflection(arm, psi, [0.1, 0.2, -0.3], 0.1).converged
    assert solve_perching_reaction(params, psi, anchor, offset, 0.1).converged


def test_algebra_modules_make_no_linalg_call():
    # statics and stiffness work on 2x2 and 3x2 operands in closed form
    source = Path(ccarm.__file__).resolve().parent
    for module in ("statics.py", "stiffness.py"):
        tree = ast.parse((source / module).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr != "linalg", f"{module}:{node.lineno} uses numpy.linalg"
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names] + [getattr(node, "module", "")]
                assert not any("linalg" in (name or "") for name in names), \
                    f"{module}:{node.lineno} imports numpy.linalg"
            elif isinstance(node, (ast.BinOp, ast.AugAssign)):
                assert not isinstance(node.op, ast.MatMult), \
                    f"{module}:{node.lineno} uses the matrix-multiply operator"


def test_only_model_decides_what_a_number_is():
    # the input contract is model's helpers: no other module imports numbers
    # or tests isinstance(..., bool) to keep a check of its own
    source = Path(ccarm.__file__).resolve().parent
    for path in sorted(source.rglob("*.py")):
        if path == source / "model.py":
            continue
        module = path.relative_to(source)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "numbers" not in [alias.name for alias in node.names], \
                    f"{module}:{node.lineno} imports numbers"
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "numbers", f"{module}:{node.lineno} imports numbers"
            elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
                  and len(node.args) == 2):
                assert "bool" not in ast.unparse(node.args[1]), \
                    f"{module}:{node.lineno} tests for a bool"


def test_task_stiffness_evaluates_the_arc_quotients_once(params, monkeypatch):
    # J_v's columns and their derivative slices share one evaluation
    calls = []
    arc_quotients = core.arc_quotients

    def counting(theta):
        calls.append(theta)
        return arc_quotients(theta)

    monkeypatch.setattr(core, "arc_quotients", counting)
    psi = Configuration(0.7, 0.3)
    tensions = allocate_tensions(params, psi, Wrench.zero(), 0.5).tensions
    calls.clear()
    task_stiffness(params, psi, tensions, np.zeros(2))
    assert calls == [0.7]
    calls.clear()
    jacobian_v_pinv_t_derivatives(params, psi)
    assert calls == [0.7]
