import math

import numpy as np
import pytest

import ccarm.sim
from ccarm import (Configuration, ConfigurationError, ConvergenceError,
                   UnreachableTargetError, Wrench, allocate_tensions,
                   configuration_to_joints, forward_kinematics, jacobian_q_psi,
                   jacobian_v_psi, mirrored_schedule, radial_load_direction,
                   run_perching_sweep, run_stiffness_sweep, solve_deflection,
                   solve_perching_reaction, task_stiffness, wrap_configuration)
from ccarm.sim import finite_difference_oracle


@pytest.fixture(scope="module")
def bend30():
    return wrap_configuration(math.radians(30), 0.0)


# ------------------------------------------------------------------ FD oracle

def test_oracle_identity():
    fd = finite_difference_oracle(lambda x: x.copy(), np.array([0.3, -1.2, 4.0]))
    assert np.allclose(fd, np.eye(3), atol=1e-12)


def test_oracle_recovers_velocity_jacobian(params, bend30):
    fd = finite_difference_oracle(
        lambda x: forward_kinematics(params, Configuration(x[0], x[1])).position,
        [bend30.theta, bend30.delta])
    jv = jacobian_v_psi(params, bend30)
    assert np.linalg.norm(fd - jv) / np.linalg.norm(jv) < 1e-8


def test_oracle_recovers_tendon_jacobian(params, bend30):
    fd = finite_difference_oracle(
        lambda x: configuration_to_joints(params, Configuration(x[0], x[1])).displacements,
        [bend30.theta, bend30.delta])
    jq = jacobian_q_psi(params, bend30)
    assert np.linalg.norm(fd - jq) / np.linalg.norm(jq) < 1e-8


# ------------------------------------------------------------- load direction

def test_radial_direction_geometry(params, rng):
    from conftest import random_configs
    for psi in random_configs(rng, 20, theta_lo=0.0, theta_hi=math.pi):
        d = radial_load_direction(psi, "inward")
        assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-15)
        normal = forward_kinematics(params, psi).rotation[:, 2]
        assert abs(d @ normal) < 1e-12          # perpendicular to the end disk
        binormal = np.array([-math.sin(psi.delta), math.cos(psi.delta), 0.0])
        assert abs(d @ binormal) < 1e-12        # inside the bending plane
        assert np.array_equal(radial_load_direction(psi, "outward"), -d)
    with pytest.raises(ValueError):
        radial_load_direction(Configuration(0.3, 0.0), "sideways")


# ------------------------------------------------------------- tip deflection

def test_unloaded_solve_is_exact(params, bend30):
    record = solve_deflection(params, bend30, np.zeros(3))
    assert np.array_equal(record.tip_displacement, np.zeros(3))
    assert record.solver_iterations == 0
    assert record.residual_norm < 1e-12
    assert abs(record.equilibrium_config.theta - bend30.theta) < 1e-15


def test_force_cap_enforced(params, bend30):
    with pytest.raises(ValueError, match="cap"):
        solve_deflection(params, bend30, [5.0, 0.0, 0.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_loads_rejected_before_solving(params, bend30, monkeypatch, bad):
    kernel_solves = []
    kernel = ccarm.sim.core.solve_deflection

    def counting_kernel(*args):
        kernel_solves.append(1)
        return kernel(*args)

    monkeypatch.setattr(ccarm.sim.core, "solve_deflection", counting_kernel)
    for strict in (True, False):
        with pytest.raises(ConfigurationError, match="finite"):
            run_stiffness_sweep(params, [bend30], [0.1, bad], strict=strict)
    with pytest.raises(ConfigurationError, match="finite"):
        solve_deflection(params, bend30, [bad, 0.0, 0.0])
    assert kernel_solves == []


def _kernel_inputs(params, config, force, target):
    # Kernel arguments as numpy arrays and numpy scalars wherever a caller may
    # pass them (sim passes q_cmd, tau0 and the force or target this way).
    q_cmd, tau0 = ccarm.sim._commanded_state(params, config, 0.0)
    w0x, w0y = np.array([config.theta * math.cos(config.delta),
                         config.theta * math.sin(config.delta)])
    deflection = (np.float64(params.backbone_length), params.pitch_radius,
                  params.tendon_division_angle, params.tendon_count,
                  params.flexural_rigidity, params.tendon_axial_stiffness,
                  q_cmd, tau0, force[0], force[1], force[2], w0x, w0y,
                  np.float64(5e-11), 100)
    tip = (np.float64(params.backbone_length), w0x, w0y,
           target[0], target[1], target[2], np.float64(1e-6), np.float64(1e-8), 100)
    return deflection, tip


def _as_plain(args):
    return [[float(v) for v in a] if isinstance(a, np.ndarray)
            else float(a) if isinstance(a, np.floating) else a for a in args]


def _bits(result):
    return [x.hex() if type(x) is float else x for x in result]


def test_kernels_compute_on_python_floats(params, bend30):
    # Numpy inputs are coerced once at kernel entry: the bend vector and the
    # residual come back as Python floats, bitwise equal to a plain-float call.
    force = 0.5 * radial_load_direction(bend30, "inward")
    target = forward_kinematics(params, wrap_configuration(0.55, 0.1)).position
    for kernel, args in zip((ccarm.sim.core.solve_deflection,
                             ccarm.sim.core.solve_tip_constraint),
                            _kernel_inputs(params, bend30, force, target)):
        result = kernel(*args)
        assert result[4] == 1
        assert [type(x) for x in result] == [float, float, int, float, int]
        assert _bits(result) == _bits(kernel(*_as_plain(args)))


@pytest.mark.filterwarnings("error")
def test_kernels_report_non_finite_inputs_as_not_converged(params, bend30):
    force = 0.5 * radial_load_direction(bend30, "inward")
    target = forward_kinematics(params, wrap_configuration(0.55, 0.1)).position
    deflection, tip = _kernel_inputs(params, bend30, force, target)
    nan_force = deflection[:8] + (math.nan,) + deflection[9:]
    inf_force = deflection[:8] + (math.inf,) + deflection[9:]
    nan_start = deflection[:11] + (math.nan, math.nan) + deflection[13:]
    nan_target = tip[:3] + (math.nan,) + tip[4:]
    for args in (nan_force, inf_force, nan_start):
        assert ccarm.sim.core.solve_deflection(*args)[4] == 0
    assert ccarm.sim.core.solve_tip_constraint(*nan_target)[4] == 0


def test_iteration_budget_reported(params, bend30):
    with pytest.raises(ConvergenceError):
        solve_deflection(params, bend30, 0.5 * radial_load_direction(bend30, "inward"),
                         max_iter=1)


def test_residual_reevaluated_independently(params, bend30, rng):
    for _ in range(5):
        force = rng.uniform(-0.4, 0.4, size=3)
        record = solve_deflection(params, bend30, force, pretension=0.2)
        psi = record.equilibrium_config
        q_cmd = configuration_to_joints(params, bend30).displacements
        tau0 = allocate_tensions(params, bend30, Wrench.zero(), 0.2).tensions
        q = configuration_to_joints(params, psi).displacements
        tau = np.maximum(0.0, tau0 - params.tendon_axial_stiffness * (q - q_cmd))
        from ccarm import energy_gradient
        residual = (energy_gradient(params, psi)
                    - jacobian_q_psi(params, psi).T @ tau
                    - jacobian_v_psi(params, psi).T @ force)
        assert np.linalg.norm(residual) < 1e-10
        assert record.residual_norm == pytest.approx(np.linalg.norm(residual), abs=1e-14)


def test_small_load_matches_task_stiffness(params, bend30):
    # linear prediction: displacement ~ pinv(K_X) applied to the reaction -f
    force = 0.05 * radial_load_direction(bend30, "inward")
    record = solve_deflection(params, bend30, force)
    tau = allocate_tensions(params, bend30, Wrench.zero(), 0.0).tensions
    k_x = task_stiffness(params, bend30, tau, np.zeros(2))
    predicted = np.linalg.pinv(k_x) @ (-force)
    dominant = int(np.argmax(np.abs(predicted)))
    rel = abs(record.tip_displacement[dominant] - predicted[dominant]) / abs(predicted[dominant])
    assert rel < 0.05


def test_solver_compliance_matches_task_stiffness(params, bend30):
    # FD force-displacement map from the nonlinear solver against -pinv(K_X);
    # pretension keeps every tendon on the taut branch of the tension law
    pre = 0.5
    tau = allocate_tensions(params, bend30, Wrench.zero(), pre).tensions
    k_x = task_stiffness(params, bend30, tau, np.zeros(2))
    df = 0.02
    compliance = np.zeros((3, 3))
    for k in range(3):
        probe = np.zeros(3)
        probe[k] = df
        plus = solve_deflection(params, bend30, probe, pretension=pre).tip_displacement
        minus = solve_deflection(params, bend30, -probe, pretension=pre).tip_displacement
        compliance[:, k] = (plus - minus) / (2 * df)
    expected = -np.linalg.pinv(k_x)
    dominant = np.abs(expected) >= 0.1 * np.max(np.abs(expected))
    rel = np.abs(compliance - expected)[dominant] / np.abs(expected)[dominant]
    assert np.max(rel) < 0.05


def test_inward_outward_bend_opposite(params, bend30):
    inward = solve_deflection(params, bend30, 0.3 * radial_load_direction(bend30, "inward"))
    outward = solve_deflection(params, bend30, 0.3 * radial_load_direction(bend30, "outward"))
    d_in = inward.equilibrium_config.theta - bend30.theta
    d_out = outward.equilibrium_config.theta - bend30.theta
    assert d_in > 0 > d_out


# --------------------------------------------------------------- sweep driver

def test_mirrored_schedule():
    assert mirrored_schedule(0.1, 3) == pytest.approx([0.1, 0.2, 0.3, 0.2, 0.1, 0.0])


def test_sweep_retraces_on_unload(params):
    config = wrap_configuration(math.radians(15), 0.0)
    schedule = mirrored_schedule(0.196133, 3)
    records = run_stiffness_sweep(params, [config], schedule, "inward")
    assert len(records) == len(schedule)
    # the model has no hysteresis and each point solves from scratch, so the
    # unload branch reproduces the load branch bitwise
    for up, down in ((0, 4), (1, 3)):
        assert np.array_equal(records[up].tip_displacement, records[down].tip_displacement)
    assert np.array_equal(records[-1].tip_displacement, np.zeros(3))


def test_sweep_strict_annotates_failures(params):
    config = wrap_configuration(math.radians(30), 0.0)
    with pytest.raises(ConvergenceError, match="theta=30"):
        run_stiffness_sweep(params, [config], [0.5], "inward", max_iter=1)
    records = run_stiffness_sweep(params, [config], [0.5], "inward",
                                  strict=False, max_iter=1)
    assert len(records) == 1 and not records[0].converged
    assert np.all(np.isnan(records[0].tip_displacement))


@pytest.mark.parametrize("deg,load,message", [
    (30, 3.0, "exceeds cap"),          # over DEFAULT_FORCE_CAP
    (175, 1.8, "exceeds theta_max"),   # equilibrium bent past pi
])
def test_sweep_out_of_domain_points(params, deg, load, message):
    config = wrap_configuration(math.radians(deg), 0.0)
    with pytest.raises(ConfigurationError, match=f"theta={deg} deg.*{message}"):
        run_stiffness_sweep(params, [config], [load], "inward")
    records = run_stiffness_sweep(params, [config], [0.0, load], "inward", strict=False)
    assert [r.converged for r in records] == [True, False]
    assert np.all(np.isnan(records[1].tip_displacement))


def test_sweep_builds_each_commanded_state_once(params, monkeypatch):
    calls = []

    def counting_allocation(*args, **kwargs):
        calls.append(args[1])
        return allocate_tensions(*args, **kwargs)

    monkeypatch.setattr(ccarm.sim, "allocate_tensions", counting_allocation)
    configs = [wrap_configuration(math.radians(deg), 0.0) for deg in (15, 45)]
    records = run_stiffness_sweep(params, configs, mirrored_schedule(0.196133, 3))
    assert len(records) == 12 and all(r.converged for r in records)
    assert calls == configs


def test_sweep_builds_one_record_per_point(params, monkeypatch):
    # Re-aim passes call the kernel alone; only the settled pass re-evaluates
    # its residual (one jacobian_v_psi call) to build the returned record.
    jacobian_calls = []
    kernel_solves = []
    kernel = ccarm.sim.core.solve_deflection

    def counting_jacobian(*args):
        jacobian_calls.append(1)
        return jacobian_v_psi(*args)

    def counting_kernel(*args):
        kernel_solves.append(1)
        return kernel(*args)

    monkeypatch.setattr(ccarm.sim, "jacobian_v_psi", counting_jacobian)
    monkeypatch.setattr(ccarm.sim.core, "solve_deflection", counting_kernel)
    configs = [wrap_configuration(math.radians(deg), 0.0) for deg in (15, 45)]
    records = run_stiffness_sweep(params, configs, [0.2, 0.6])
    assert len(records) == 4 and all(r.converged for r in records)
    assert len(jacobian_calls) == len(records)
    assert len(kernel_solves) > len(records)


def test_sweep_monotone_stiffening(params):
    # the straight arm moves the most under the max bench load
    max_load = 5 * 0.196133
    disps = []
    for deg in (0, 20, 40):
        config = wrap_configuration(math.radians(deg), 0.0)
        records = run_stiffness_sweep(params, [config], [max_load], "inward")
        disps.append(np.linalg.norm(records[0].tip_displacement))
    assert disps[0] > disps[1] > disps[2]


# ------------------------------------------------------------------- perching

def test_perching_unperturbed_is_quiet(params, bend30):
    anchor = forward_kinematics(params, bend30).position
    record = solve_perching_reaction(params, bend30, anchor, np.zeros(3))
    assert np.linalg.norm(record.reaction_force) < 1e-9
    assert np.linalg.norm(record.reaction_moment) < 1e-9
    assert record.ik_residual_norm < 1e-8


def test_perching_moment_consistency(params, bend30):
    anchor = forward_kinematics(params, bend30).position
    record = solve_perching_reaction(params, bend30, anchor, [0.004, 0, 0])
    tip = forward_kinematics(params, record.equilibrium_config).position
    assert np.allclose(record.reaction_moment,
                       np.cross(tip, record.reaction_force), atol=1e-12)


def test_perching_linearization(params, bend30):
    # reaction ~ K_X applied to the offset projected on the reachable plane;
    # pretension keeps the tension law on its smooth branch
    pre = 0.5
    anchor = forward_kinematics(params, bend30).position
    eps = np.array([1e-4, 0.0, 0.0])
    record = solve_perching_reaction(params, bend30, anchor, eps, pretension=pre)
    tau = allocate_tensions(params, bend30, Wrench.zero(), pre).tensions
    k_x = task_stiffness(params, bend30, tau, np.zeros(2))
    jv = jacobian_v_psi(params, bend30)
    projector = jv @ np.linalg.solve(jv.T @ jv, jv.T)
    predicted = k_x @ (-(projector @ eps))
    dominant = int(np.argmax(np.abs(predicted)))
    rel = abs(record.reaction_force[dominant] - predicted[dominant]) / abs(predicted[dominant])
    assert rel < 0.05


def test_perching_sweep_monotone_and_reversible(params, bend30):
    anchor = forward_kinematics(params, bend30).position
    offsets = [np.array([k * 5e-4, 0, 0]) for k in range(13)]
    out = [solve_perching_reaction(params, bend30, anchor, off) for off in offsets]
    back = [solve_perching_reaction(params, bend30, anchor, off)
            for off in offsets[-2::-1]]
    mags = [np.linalg.norm(r.reaction_force) for r in out]
    assert all(a < b for a, b in zip(mags, mags[1:]))
    for fwd, rev in zip(out[-2::-1], back):
        assert np.array_equal(fwd.reaction_force, rev.reaction_force)
    assert np.linalg.norm(back[-1].reaction_force) < 1e-9


def test_perching_sweep_matches_point_solves(params, bend30):
    anchor = forward_kinematics(params, bend30).position
    offsets = [np.array([k * 1e-3, 0.0, 0.0]) for k in (0, 2, 4, 2, 0)]
    offsets.append(np.array([-0.2, 0.0, 0.0]))  # out of reach
    records = run_perching_sweep(params, bend30, offsets, pretension=0.1)
    assert [r.converged for r in records] == [True] * 5 + [False]
    for offset, record in zip(offsets[:5], records):
        point = solve_perching_reaction(params, bend30, anchor, offset, pretension=0.1)
        assert np.array_equal(record.reaction_force, point.reaction_force)
        assert np.array_equal(record.reaction_moment, point.reaction_moment)
        assert record.equilibrium_config == point.equilibrium_config
    assert np.all(np.isnan(records[-1].reaction_force))
    assert np.all(np.isnan(records[-1].reaction_moment))


def test_perching_sweep_rejects_non_finite_offsets(params, bend30):
    with pytest.raises(ConfigurationError):
        run_perching_sweep(params, bend30, [np.zeros(3), np.array([np.inf, 0.0, 0.0])])


def test_perching_unreachable_anchor(params, bend30):
    anchor = forward_kinematics(params, bend30).position
    with pytest.raises(UnreachableTargetError):
        solve_perching_reaction(params, bend30, anchor, [-0.2, 0.0, 0.0])
