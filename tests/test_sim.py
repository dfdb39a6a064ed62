import ast
import dataclasses
import inspect
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ccarm.sim
import exact_model
from ccarm import (Configuration, ConfigurationError, ConvergenceError, JointState,
                   UnreachableTargetError, Wrench, allocate_tensions, configuration_stiffness,
                   configuration_to_joints, energy_gradient, forward_kinematics,
                   jacobian_q_psi, jacobian_v_psi, mirrored_schedule, radial_load_direction,
                   run_perching_sweep, run_stiffness_sweep, solve_deflection,
                   solve_perching_reaction, stiffness_set, task_stiffness,
                   wrap_configuration)
from ccarm.sim import finite_difference_oracle
from ccarm.stiffness import jacobian_v_derivatives

core = ccarm.sim.core


@pytest.fixture(scope="module")
def bend30():
    return wrap_configuration(math.radians(30), 0.0)


# ------------------------------------------------------------------ FD oracle

def test_oracle_identity():
    fd = finite_difference_oracle(lambda x: x.copy(), np.array([0.3, -1.2, 4.0]))
    assert np.allclose(fd, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("step", [0.0, -1e-6, math.nan, math.inf, 1e308, True])
def test_oracle_refuses_a_step_out_of_range(step):
    # a zero step divided by zero, 1e308 overflowed 2 * step and NaN gave an
    # all-NaN Jacobian; each is refused by name before f is called
    def f(x):
        raise AssertionError("f is not called")

    with pytest.raises(ConfigurationError, match="step"):
        finite_difference_oracle(f, [0.3, -1.2], step)


def test_oracle_default_step_keeps_its_bits():
    # the step check moves no bit of a Jacobian at the default 1e-6
    def f(v):
        return np.array([math.sin(v[0]) * v[2], v[1] ** 3, math.exp(v[0] - v[1])])

    x = np.array([0.3, -1.2, 4.0])
    columns = []
    for dx in np.eye(3) * 1e-6:
        columns.append((f(x + dx) - f(x - dx)) / (2.0 * 1e-6))
    expected = np.column_stack(columns).tobytes()
    assert finite_difference_oracle(f, x).tobytes() == expected
    assert finite_difference_oracle(f, x, 1e-6).tobytes() == expected


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


def _anchor(params, config):
    return forward_kinematics(params, config).position


@pytest.mark.parametrize("call, name", [
    (lambda p, c: allocate_tensions(p, c, None, "0.3"), "pretension"),
    (lambda p, c: allocate_tensions(p, c, None, None), "pretension"),
    (lambda p, c: allocate_tensions(p, c, None, True), "pretension"),
    (lambda p, c: solve_deflection(p, c, [0.1, 0.0, 0.0], "0.3"), "pretension"),
    (lambda p, c: solve_deflection(p, c, [0.1, 0.0, 0.0], None), "pretension"),
    (lambda p, c: solve_deflection(p, c, [0.1, 0.0, 0.0], True), "pretension"),
    (lambda p, c: solve_perching_reaction(p, c, _anchor(p, c), np.zeros(3), True),
     "pretension"),
    (lambda p, c: solve_deflection(p, c, [0.1, 0.0]), "tip_force"),
    (lambda p, c: solve_deflection(p, c, ["0.1 N", 0.0, 0.0]), "tip_force"),
    (lambda p, c: solve_perching_reaction(p, c, [0.0, 0.2], np.zeros(3)), "tip_anchor"),
    (lambda p, c: solve_perching_reaction(p, c, _anchor(p, c), [1e-3, 0.0]), "base_offset"),
    (lambda p, c: task_stiffness(p, c, np.full(4, 0.5), [0.0, 0.1, 0.0]), "f_star"),
    (lambda p, c: task_stiffness(p, c, ["a", 0.0, 0.0, 0.0], [0.0, 0.0]), "tensions"),
    (lambda p, c: ccarm.statics.equilibrium_residual(p, c, [{}, 0.0, 0.0, 0.0], None),
     "tensions"),
    (lambda p, c: Wrench(force=["x", 0.0, 0.0], moment=np.zeros(3)), "wrench force"),
    (lambda p, c: Wrench(force=[0.1, 0.0], moment=np.zeros(3)), "wrench force"),
    (lambda p, c: Wrench(force=np.zeros(3), moment=[0.0, 0.0, "m"]), "wrench moment"),
    (lambda p, c: run_perching_sweep(p, c, [[True, 0, 0]]), "base_offsets"),
    (lambda p, c: solve_deflection(p, c, [True, 0, 0]), "tip_force"),
    (lambda p, c: task_stiffness(p, c, np.full(4, 0.5), [True, 0.0]), "f_star"),
    (lambda p, c: stiffness_set(p, c, np.full(4, 0.5), [True, 0.0]), "f_star"),
    (lambda p, c: configuration_stiffness(p, c, [True, 0, 0, 0]), "tensions"),
    (lambda p, c: Wrench([True, 0, 0], np.zeros(3)), "wrench force"),
    (lambda p, c: JointState([True, 0, 0, 0]), "displacements"),
], ids=["allocate-str", "allocate-none", "allocate-bool", "deflection-str", "deflection-none",
        "deflection-bool", "perching-bool", "force-2", "force-str", "anchor-2", "offset-2",
        "fstar-3", "tensions-str", "residual-tensions-dict", "wrench-force-str",
        "wrench-force-2", "wrench-moment-str", "offsets-bool", "force-bool",
        "task-fstar-bool", "set-fstar-bool", "tensions-bool", "wrench-force-bool",
        "displacements-bool"])
def test_coerced_inputs_raise_typed_errors(params, bend30, call, name):
    # a string, None or bool pretension, and a non-numeric or wrongly sized
    # vector, raise ConfigurationError naming the argument, not a raw
    # TypeError or numpy's ValueError, and a bool is not a 1 N floor nor a
    # vector entry of 1
    with pytest.raises(ConfigurationError, match=name):
        call(params, bend30)


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


def _flat(result):
    # A kernel result with its tuple entries (the IK's quotients and tip)
    # spliced in, so that _bits sees every float.
    return [v for x in result for v in (x if type(x) is tuple else (x,))]


def test_kernels_compute_on_python_floats(params, bend30):
    # Numpy inputs are coerced once at kernel entry: the bend vector and the
    # residual come back as Python floats, bitwise equal to a plain-float call.
    force = 0.5 * radial_load_direction(bend30, "inward")
    target = forward_kinematics(params, wrap_configuration(0.55, 0.1)).position
    # The IK adds the arc quotients (a, s, b, c) and the tip at its result.
    for kernel, extra, args in zip((ccarm.sim.core.solve_deflection,
                                    ccarm.sim.core.solve_tip_constraint), (0, 7),
                                   _kernel_inputs(params, bend30, force, target)):
        result = kernel(*args)
        assert result[4] == 1
        types = [type(x) for x in _flat(result)]
        assert types == [float, float, int, float, int] + [float] * extra
        assert _bits(_flat(result)) == _bits(_flat(kernel(*_as_plain(args))))
    # The deflection kernel coerces its memoized inputs on a miss only.  After
    # a miss with float tuples, hits with q_cmd and tau0 as tuples of numpy
    # floats or of ints, or with a numpy-scalar length, give the miss's bits
    # as Python floats; lists and arrays key on their floats and hit the same
    # entry.
    length, *rest = ccarm.sim._arm(params)
    w0 = (bend30.theta, 0.0)
    integral = ((0.0, 0.0, 0.0, 0.0), (2.0, 1.0, 0.0, 1.0))

    def solve(length, q_cmd, tau0):
        return ccarm.sim.core.solve_deflection(length, *rest, q_cmd, tau0, *force.tolist(),
                                               *w0, 5e-11, 100)

    for state in (ccarm.sim._commanded_state(params, bend30, 0.0), integral):
        ccarm.sim.core._deflection_model.cache_clear()
        cold = solve(length, *state)
        assert cold[4] == 1
        hits = [(np.float64(length), *state),
                (length, *(tuple(map(np.float64, v)) for v in state)),
                (length, *map(list, state)), (length, *map(np.array, state))]
        if state is integral:
            hits.append((length, *(tuple(map(int, v)) for v in state)))
        for inputs in hits:
            info = ccarm.sim.core._deflection_model.cache_info()
            result = solve(*inputs)
            assert [type(x) for x in result] == [float, float, int, float, int]
            assert _bits(result) == _bits(cold)
            assert ccarm.sim.core._deflection_model.cache_info()[:2] == (info.hits + 1,
                                                                       info.misses)


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


_finite_component = st.floats(-1.5, 1.5)
_small_component = st.floats(-0.05, 0.05)
_force_component = _finite_component | st.sampled_from([math.nan, math.inf, -math.inf])
_forces = (st.tuples(_finite_component, _finite_component, _finite_component)
           | st.tuples(_small_component, _small_component, _small_component)
           | st.tuples(_force_component, _force_component, _force_component))


@st.composite
def _deflection_problems(draw):
    # Arm constants, (q_cmd, tau0), the start w0 (zero included) and two forces.
    count = draw(st.integers(3, 8))
    beta = 2.0 * math.pi / count    # exactly pi/2 for four tendons
    arm = (draw(st.floats(0.1, 0.5)), draw(st.floats(0.005, 0.04)), beta, count,
           draw(st.floats(5e-4, 1e-2)), draw(st.floats(100.0, 5000.0)))
    theta = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.8)))
    delta = draw(st.floats(-math.pi, math.pi))
    q_cmd = [arm[1] * theta * math.cos(delta + i * beta) for i in range(count)]
    tau0 = draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count))
    forces = draw(st.lists(_forces, min_size=2, max_size=2))
    w0 = (theta * math.cos(delta), theta * math.sin(delta))
    # the same inputs with every zero of w0 and q_cmd of the other sign: equal keys
    flipped = [-x if x == 0.0 else x for x in (*w0, *q_cmd)]
    return (arm, q_cmd, tau0, w0, forces, draw(st.sampled_from([0, 1, 100])),
            (flipped[:2], flipped[2:]))


# A straight start under a force in the xz (yz) plane: after one Newton step
# wy (wx) is a zero whose sign follows that of w0's component in the
# force-free part, so a part built at (0.0, 0.0) must not serve a start at
# (0.0, -0.0) or (-0.0, 0.0).
_ARM = (0.25, 0.02, math.pi / 2, 4, 2.4543692606170264e-03, 1580.0)


@given(problem=_deflection_problems())
@example(problem=(_ARM, [0.0] * 4, [0.0] * 4, (0.0, -0.0),
                  [(-0.5, 0.0, 0.5), (-0.25, 0.0, 0.5)], 1, ((0.0, 0.0), [-0.0] * 4)))
@example(problem=(_ARM, [0.0] * 4, [0.0] * 4, (-0.0, 0.0),
                  [(0.0, -0.5, 0.5), (0.0, -0.25, 0.5)], 1, ((0.0, 0.0), [-0.0] * 4)))
def test_kernel_equilibria_meet_the_exact_residual(problem):
    # A warm hit of the memoized start, numpy q_cmd and tau0 included, gives
    # the bits of a cold solve, also right after a solve whose zeros of w0
    # and q_cmd have the other sign.  Where the kernel converges, the exact
    # model's residual at its w is at most 1e-10 N*m in the (theta, delta)
    # norm, twice the kernel's stop; a non-finite force never converges.
    # Warnings are errors inside the test body only, so that hypothesis can
    # still report a failing example.
    #
    # The equilibrium is unique when the potential is strongly convex: the
    # tendon energy is convex, and sum_k u_k Hess(p_k) has spectral norm at
    # most length/3 for a unit u, so |f| * length < 1.5 * k_bend suffices
    # (margin 2).  There the convexity modulus is at least k_bend / 2, and
    # the residual bound puts w near the one equilibrium.  A larger load can
    # buckle the arm, and then the residual only says that w is an
    # equilibrium.
    arm, q_cmd, tau0, w0, forces, max_iter, (flipped_w0, flipped_q_cmd) = problem

    def solve(force, q, w):
        return core.solve_deflection(*arm, q, tau0, *force, *w, 5e-11, max_iter)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cold = []
        for force in forces:
            core._deflection_model.cache_clear()
            cold.append(solve(force, q_cmd, w0))
        core._deflection_model.cache_clear()
        solve(forces[0], flipped_q_cmd, flipped_w0)
        for k, (force, result) in enumerate(zip(forces, cold)):
            hits = core._deflection_model.cache_info().hits
            warm = core.solve_deflection(*arm, np.array(q_cmd), np.array(tau0), *force, *w0,
                                         5e-11, max_iter)
            assert _bits(warm) == _bits(result)
            if k:
                assert core._deflection_model.cache_info().hits == hits + 1
            if not all(map(math.isfinite, force)):
                assert result[4] == 0
            elif result[4]:
                with mpmath.workdps(exact_model.DPS):
                    rx, ry = exact_model.residual(arm, q_cmd, tau0, force, *result[:2])
                    assert exact_model.psi_norm(rx, ry, *result[:2]) <= 1e-10


# Around the old closed-form threshold of a (1e-4) and the series threshold.
_THRESHOLD_THETAS = [t * s for t in (1e-4, core.SMOOTH_THRESHOLD)
                     for s in (0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0)]


@st.composite
def _jacobian_problems(draw):
    # Arm constants, (q_cmd, tau0), a force and the point w: zero, random, or
    # on either side of the two series thresholds.  The commanded bend lies
    # near w, so tendons come out taut and slack; optionally one tendon sits
    # on its kink, within the Newton stencil's half-width along one axis.
    count = draw(st.integers(3, 8))
    beta = 2.0 * math.pi / count
    length, radius, k_tendon = (draw(st.floats(0.1, 0.5)), draw(st.floats(0.005, 0.04)),
                                draw(st.floats(100.0, 5000.0)))
    arm = (length, radius, beta, count, draw(st.floats(5e-4, 1e-2)), k_tendon)
    theta = draw(st.just(0.0) | st.sampled_from(_THRESHOLD_THETAS) | st.floats(0.0, 2.8))
    delta = draw(st.floats(-math.pi, math.pi))
    w = (theta * math.cos(delta), theta * math.sin(delta))
    theta_cmd = max(0.0, theta + draw(st.floats(-0.3, 0.3)))
    delta_cmd = delta + draw(st.floats(-0.5, 0.5))
    cphi, sphi = core.tendon_cos_sin(beta, count, 0.0)
    q_cmd = [radius * theta_cmd * math.cos(delta_cmd + i * beta) for i in range(count)]
    tau0 = draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count))
    kink = draw(st.none() | st.tuples(st.integers(0, count - 1), st.floats(-1.5, 1.5),
                                      st.sampled_from([0, 1])))
    if kink is not None:
        i, offset, axis = kink
        q = radius * (cphi[i] * w[0] - sphi[i] * w[1])
        slope = k_tendon * radius * abs((cphi[i], sphi[i])[axis])
        tau0[i] = k_tendon * (q - q_cmd[i]) + offset * slope * 1e-7 * (1.0 + abs(w[axis]))
    force = draw(st.tuples(*[st.floats(-1.5, 1.5)] * 3))
    return arm, q_cmd, tau0, force, w


@given(problem=_jacobian_problems())
def test_kernel_jacobian_matches_finite_differences(problem):
    # The closed-form Jacobian against central differences of the exact
    # residual, with the Newton stencil's step along each axis: the step the
    # kink rule reproduces.  (The kernel's own float residual is too noisy to
    # difference just above SERIES_THRESHOLD, where 1 - cos(theta) cancels.)
    arm, q_cmd, tau0, force, w = problem
    model = core._deflection_model(*arm, tuple(q_cmd), tuple(tau0), *w,
                                   math.copysign(1.0, w[0]), math.copysign(1.0, w[1]))[0]
    # The 21-float evaluation holds the force-free Jacobian at [8:12] and the
    # tip Hessian rows d2p/dwx2, d2p/dwxdwy, d2p/dwy2 at [12:]; the force
    # term is the Hessian contracted with the force.
    part = core._force_free_part(model, *w)
    second = np.reshape(part[12:], (3, 3)) @ np.array(force)
    jacobian = np.array(part[8:12]) - second[[0, 1, 1, 2]]

    def residual(x):
        # the exact residual less its value at w, at 60 digits, so that the
        # rounding to floats keeps the differences exact
        with mpmath.workdps(60):
            (rx, ry), (bx, by) = (exact_model.residual(arm, q_cmd, tau0, force, *v)
                                  for v in (x, w))
            return [float(rx - bx), float(ry - by)]

    fd = np.column_stack([
        finite_difference_oracle(residual, w, step=1e-7 * (1.0 + abs(w[axis])))[:, axis]
        for axis in (0, 1)])
    assert np.linalg.norm(jacobian.reshape(2, 2) - fd) <= 1e-6 * np.linalg.norm(fd)


def _relative_error(got, want, scale):
    return float(max(abs(mpmath.mpf(g) - w) for g, w in zip(got, want)) / scale)


# Log-uniform over [1e-6, 0.1], where the closed forms of the arc quotients
# cancel, or uniform over [0.1, pi), where they do not.
_arc_thetas = (st.floats(-6.0, -1.0).map(lambda x: 10.0 ** x)
               | st.floats(0.1, math.pi, exclude_max=True))


# Explicit examples: the old closed-form threshold of a, and either side of
# the series threshold.
@given(theta=_arc_thetas, delta=st.floats(-math.pi, math.pi))
@example(theta=1e-4, delta=0.3)
@example(theta=core.SMOOTH_THRESHOLD, delta=0.3)
@example(theta=math.nextafter(core.SMOOTH_THRESHOLD, 0.0), delta=0.3)
def test_arc_quotients_match_a_50_digit_model(params, theta, delta):
    # bend_position and its Jacobian to 1e-12 of their largest entry; g and
    # w of arc_terms, and the slopes g' and w' that jacobian_v_derivatives
    # uses, to 1e-11 of their own size.  g and w' pass through 0 near
    # t = 2.33 and 2.08, so their errors are measured against max(|g|, 0.1)
    # and max(|w'|, 0.1), which are |g| and |w'| wherever they cancel.
    # arc_terms is odd (h, w) or even (s, g) in theta, exactly.
    length = params.backbone_length
    wx, wy = theta * math.cos(delta), theta * math.sin(delta)
    with mpmath.workdps(50):
        mwx, mwy, t = mpmath.mpf(wx), mpmath.mpf(wy), mpmath.mpf(theta)
        position = exact_model.bend_position(length, mwx, mwy)
        jacobian = sum(exact_model.bend_position_jacobian(length, mwx, mwy), [])
        a, _, b, c = exact_model.arc_quotients(t)
        g, w = a + t * t * b, t * c
        sn, cs = mpmath.sin(t), mpmath.cos(t)
        dg = (t * t * cs - 2 * t * sn - 2 * cs + 2) / t ** 3
        dw = (2 * sn - t * t * sn - 2 * t * cs) / t ** 3
        got = core.bend_position(length, wx, wy)
        assert _relative_error(got, position, max(map(abs, position))) <= 1e-12
        got = core._bend_point(length, wx, wy)[1]
        assert _relative_error(got, jacobian, max(map(abs, jacobian))) <= 1e-12
        got_h, got_s, got_g, got_w = core.arc_terms(theta)
        assert core.arc_terms(-theta) == (-got_h, got_s, got_g, -got_w)
        assert _relative_error([got_g], [g], max(abs(g), 0.1)) <= 1e-11
        assert _relative_error([got_w], [w], abs(w)) <= 1e-11
        d_theta, _ = jacobian_v_derivatives(params, Configuration(theta, 0.0))
        assert _relative_error([d_theta[0, 0] / length], [dg], abs(dg)) <= 1e-11
        assert _relative_error([d_theta[2, 0] / length], [dw], max(abs(dw), 0.1)) <= 1e-11


# Straight, a half-angle that underflows, a tiny bend, either side of both
# series thresholds and just short of pi.
_INLINED_QUOTIENT_THETAS = [0.0, 5e-324, 1e-300, *_THRESHOLD_THETAS, math.pi - 1e-9]


@pytest.mark.parametrize("theta", _INLINED_QUOTIENT_THETAS)
def test_force_free_part_inlines_hessian_quotients(theta):
    # _force_free_part writes hessian_quotients out: its J_p and Hessian-row
    # slots are bitwise the same expressions built from hessian_quotients,
    # with w on an axis or off both.  (No tendon reaches those slots.)
    length = 0.25
    model = (length, 0.02, 0.0098, 1580.0, ())
    for wx, wy in ((theta, 0.0), (-0.0, -theta), (theta * math.cos(0.7), theta * math.sin(0.7))):
        a, _, b, c, e, h = core.hessian_quotients(math.hypot(wx, wy))
        off = length * wx * wy * b
        hxy = length * (wy * b + wx * wx * wy * e)
        hyx = length * (wx * b + wy * wy * wx * e)
        expected = (length * (a + wx * wx * b), off, off, length * (a + wy * wy * b),
                    length * wx * c, length * wy * c,
                    length * (3.0 * (wx * b) + wx * wx * wx * e), hxy, length * (c + wx * wx * h),
                    hxy, hyx, length * wx * wy * h,
                    hyx, length * (3.0 * (wy * b) + wy * wy * wy * e), length * (c + wy * wy * h))
        part = core._force_free_part(model, wx, wy)
        assert [v.hex() for v in part[2:8] + part[12:]] == [v.hex() for v in expected]


def _ulps(x, n):
    # x moved n units in the last place
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


@pytest.mark.parametrize("theta", [0.0, 5e-324,
                                   *(_ulps(core.SMOOTH_THRESHOLD, n) for n in range(-3, 4)),
                                   1.0, math.pi])
def test_bend_point_inlines_arc_quotients(theta):
    # _bend_point writes arc_quotients out: its quotients are bitwise
    # arc_quotients at hypot(wx, wy), its tip bend_tip's from them and its
    # J_p the deflection evaluation's, with w on an axis or off both.
    length = 0.25
    model = (length, 0.02, 0.0098, 1580.0, ())
    for wx, wy in ((theta, 0.0), (-0.0, -theta), (theta * math.cos(0.7), theta * math.sin(0.7))):
        tip, jp, quotients = core._bend_point(length, wx, wy)
        expected = core.arc_quotients(math.hypot(wx, wy))
        assert [v.hex() for v in quotients] == [v.hex() for v in expected]
        assert [v.hex() for v in tip] == [v.hex() for v in core.bend_tip(length, wx, wy,
                                                                          expected)]
        part = core._force_free_part(model, wx, wy)
        assert [v.hex() for v in jp] == [v.hex() for v in part[2:8]]


@pytest.mark.parametrize("theta", [0.0, 5e-324])
def test_arc_quotients_are_finite_at_straight(theta):
    # theta = 5e-324 halves to 0, the one other point where a = 1/2 by limit.
    h, s, g, w = core.arc_terms(theta)
    assert (s, g) == (1.0, 0.5)
    assert core.arc_terms(-theta) == (-h, s, g, -w)
    values = [h, w, *core.hessian_quotients(theta),
              *core.bend_position(0.25, theta, 0.0), *core.bend_position(0.25, 0.0, -theta),
              *core._bend_point(0.25, theta, 0.0)[1]]
    assert all(map(math.isfinite, values))


def _outcome(args):
    # The solve's bits, or the type of the error it raised.
    try:
        return _bits(core.solve_deflection(*args))
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("index,value", [
    (0, 0.3), (1, 0.021), (2, 1.5), (3, 5), (4, 2.5e-3), (5, 1500.0),
    (6, [0.0105, 0.0, -0.0105, 0.0]), (7, [0.25, 0.0, 0.0, 0.0]), (11, 0.52), (12, 0.01),
], ids=["length", "radius", "beta", "count", "flexural", "k_tendon", "q_cmd", "tau0", "wx0",
        "wy0"])
def test_kernel_rejects_start_of_other_inputs(index, value):
    # The start memoized for one solve is not reused by a solve that differs
    # in a single input of it: that solve gives what it gives with the cache
    # cleared, so the cache key holds every input.  Five tendons with four
    # motor states raise ValueError.
    args = [0.25, 0.02, math.pi / 2, 4, 2.4543692606170264e-03, 1580.0,
            [0.0104719755, 0.0, -0.0104719755, 0.0], [0.2454369261, 0.0, 0.0, 0.0],
            0.42, 0.0, -0.24, 0.5236, 0.0, 5e-11, 100]
    other = list(args)
    other[index] = value
    core._deflection_model.cache_clear()
    cold = _outcome(other)
    core._deflection_model.cache_clear()
    assert _outcome(args) != cold
    assert _outcome(other) == cold


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

@pytest.mark.parametrize("increment,steps,name", [
    (0.1, 2.5, "steps"), (0.1, "3", "steps"), (0.1, True, "steps"), (0.1, -1.0, "steps"),
    ("x", 2, "increment"), (True, 2, "increment"), (None, 2, "increment")])
def test_mirrored_schedule_rejects_what_is_no_number(increment, steps, name):
    with pytest.raises(ConfigurationError, match=name):
        mirrored_schedule(increment, steps)


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
    allocate = ccarm.sim._allocation

    def counting_allocation(*args, **kwargs):
        calls.append(args[1])
        return allocate(*args, **kwargs)

    monkeypatch.setattr(ccarm.sim, "_allocation", counting_allocation)
    configs = [wrap_configuration(math.radians(deg), 0.0) for deg in (15, 45)]
    records = run_stiffness_sweep(params, configs, mirrored_schedule(0.196133, 3))
    assert len(records) == 12 and all(r.converged for r in records)
    assert calls == configs


def test_sweep_builds_one_record_per_point(params, monkeypatch):
    # Re-aim passes call the kernel alone; only the settled pass re-evaluates
    # its residual (one locked-motor force) to build the returned record.
    force_calls = []
    kernel_solves = []
    kernel = ccarm.sim.core.solve_deflection
    locked_motor_force = ccarm.sim._locked_motor_force

    def counting_force(*args):
        force_calls.append(1)
        return locked_motor_force(*args)

    def counting_kernel(*args):
        kernel_solves.append(1)
        return kernel(*args)

    monkeypatch.setattr(ccarm.sim, "_locked_motor_force", counting_force)
    monkeypatch.setattr(ccarm.sim.core, "solve_deflection", counting_kernel)
    configs = [wrap_configuration(math.radians(deg), 0.0) for deg in (15, 45)]
    records = run_stiffness_sweep(params, configs, [0.2, 0.6])
    assert len(records) == 4 and all(r.converged for r in records)
    assert len(force_calls) == len(records)
    assert len(kernel_solves) > len(records)


def _default_protocol_sweep(params):
    # The distinct points of `ccarm sweep --experiment stiffness`: five bends,
    # five 20-gram increments and the unloaded point.
    configs = [wrap_configuration(math.radians(deg), 0.0) for deg in (0, 15, 30, 45, 60)]
    loads = [0.02 * ccarm.sim.STANDARD_GRAVITY * k for k in range(6)]
    records = run_stiffness_sweep(params, configs, loads)
    assert len(records) == 30 and all(r.converged for r in records)


def test_sweep_shares_one_start_per_bend(params, monkeypatch):
    # 200 kernel solves and 639 Newton iterations from 5 start builds, one
    # per commanded bend
    iterations = []
    kernel = core.solve_deflection

    def counting_kernel(*args):
        result = kernel(*args)
        iterations.append(result[2])
        return result

    monkeypatch.setattr(core, "solve_deflection", counting_kernel)
    core._deflection_model.cache_clear()
    _default_protocol_sweep(params)
    info = core._deflection_model.cache_info()
    assert (len(iterations), sum(iterations)) == (200, 639)
    assert (info.misses, info.hits) == (5, 195)


def test_sweep_evaluates_fewer_residuals(params, monkeypatch):
    # One evaluation of the residual and its Jacobian per start and per
    # line-search trial: 5 starts and 639 accepted trials, none rejected.  A
    # central-difference Jacobian made 2440 residual evaluations here, four
    # per Newton step on top of the trial points.
    evaluations = []
    evaluate = core._force_free_part

    def counting_evaluation(*args):
        evaluations.append(1)
        return evaluate(*args)

    monkeypatch.setattr(core, "_force_free_part", counting_evaluation)
    core._deflection_model.cache_clear()
    _default_protocol_sweep(params)
    assert len(evaluations) == 644


def test_newton_trial_calls_no_helpers():
    # A Newton trial is one flat evaluation: the loop of solve_deflection and
    # the body of _force_free_part call math functions, abs, _force_free_part
    # and _psi_residual_norm only.
    tree = ast.parse(inspect.getsource(core))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    loops = [node for node in functions["solve_deflection"].body if isinstance(node, ast.While)]
    assert len(loops) == 1
    allowed = {"abs", "_force_free_part", "_psi_residual_norm"}
    for body in (*loops, functions["_force_free_part"]):
        for node in ast.walk(body):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                assert name in allowed or (
                    name.startswith("math.") and name.count(".") == 1), ast.unparse(node)


@pytest.mark.parametrize("max_iter", [-1, True, False, math.nan, 2.0, "3", None])
def test_drivers_reject_bad_iteration_budget(params, bend30, monkeypatch, max_iter):
    def failing_kernel(*args):
        raise AssertionError("a driver solved with an invalid max_iter")

    monkeypatch.setattr(core, "solve_deflection", failing_kernel)
    monkeypatch.setattr(core, "solve_tip_constraint", failing_kernel)
    with pytest.raises(ConfigurationError, match="max_iter"):
        solve_deflection(params, bend30, [0.1, 0.0, 0.0], max_iter=max_iter)
    for strict in (True, False):
        with pytest.raises(ConfigurationError, match="max_iter"):
            run_stiffness_sweep(params, [bend30], [0.1], strict=strict, max_iter=max_iter)
    with pytest.raises(ConfigurationError, match="max_iter"):
        run_perching_sweep(params, bend30, [np.zeros(3)], max_iter=max_iter)


@pytest.mark.parametrize("loads", [["abc"], [None], [True], [0.1, False], [np.bool_(True)],
                                   0.1],
                         ids=["string", "none", "true", "false", "numpy-bool", "scalar"])
def test_sweep_rejects_loads_that_are_not_real_numbers(params, bend30, monkeypatch, loads):
    # a bool is no load: True would be a load of 1 N
    def failing_kernel(*args):
        raise AssertionError("a sweep solved with a load that is not a number")

    monkeypatch.setattr(core, "solve_deflection", failing_kernel)
    with pytest.raises(ConfigurationError, match="load_schedule"):
        run_stiffness_sweep(params, [bend30], loads)


def test_sweep_takes_a_generator_schedule(params, bend30):
    loads = [0.0, 0.05, np.float64(0.1), 1]
    records = run_stiffness_sweep(params, [bend30], (load for load in loads))
    expected = run_stiffness_sweep(params, [bend30], [float(load) for load in loads])
    assert [r.tip_displacement.tolist() for r in records] == [
        r.tip_displacement.tolist() for r in expected]


@pytest.mark.parametrize("configs,loads", [([0.5], [0.1]), ([0.5], []), ([], [0.1])],
                         ids=["points", "no-loads", "no-configs"])
@pytest.mark.parametrize("strict", [True, False])
def test_sweep_rejects_unknown_direction(params, monkeypatch, configs, loads, strict):
    def failing_kernel(*args):
        raise AssertionError("a sweep solved with an unknown direction")

    monkeypatch.setattr(core, "solve_deflection", failing_kernel)
    configs = [wrap_configuration(theta, 0.0) for theta in configs]
    with pytest.raises(ConfigurationError, match="direction"):
        run_stiffness_sweep(params, configs, loads, direction="sideways", strict=strict)


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


@pytest.mark.parametrize("tendon_count", [4, 6])
@pytest.mark.parametrize("theta", [0.0, 1e-16, 1e-12, 5e-5, 0.5, 3.0])
def test_perching_reaction_matches_the_pseudoinverse(params, tendon_count, theta):
    # The closed-form reaction against -pinv(J_v^T) g, away from the commanded
    # bend so the locked motors leave some tendons slack.  5e-5 rad is on the
    # arc quotients' series branch.  pinv drops c_delta where it is no longer
    # than 1e-15 |c_theta|, about theta <= 1e-15; the closed form must too.
    arm = dataclasses.replace(params, tendon_count=tendon_count,
                              tendon_division_angle=2.0 * math.pi / tendon_count)
    commanded = Configuration(0.4, 0.3)
    q_cmd = configuration_to_joints(arm, commanded).displacements
    tau0 = allocate_tensions(arm, commanded, Wrench.zero(), 0.2).tensions
    for delta in (0.0, 0.7, -2.0, math.pi):
        psi = Configuration(theta, delta)
        q = configuration_to_joints(arm, psi).displacements
        pull = tau0 - arm.tendon_axial_stiffness * (q - q_cmd)
        assert pull.min() < 0.0
        generalized = (energy_gradient(arm, psi)
                       - jacobian_q_psi(arm, psi).T @ np.maximum(0.0, pull))
        jv_t = jacobian_v_psi(arm, psi).T
        singular = np.linalg.svd(jv_t, compute_uv=False)
        assert (singular.min() > 1e-15 * singular.max()) == (theta >= 1e-12)
        expected = -np.linalg.pinv(jv_t) @ generalized
        columns = core.jac_v_columns(arm.backbone_length, theta, delta,
                                     core.arc_quotients(theta))
        force = ccarm.sim._reaction(columns, ccarm.sim._locked_motor_force(
            ccarm.sim._arm(arm), theta, delta, q_cmd.tolist(), tau0.tolist()))
        assert np.linalg.norm(np.subtract(force, expected)) <= 1e-13 * np.linalg.norm(expected)
        if delta == 0.0:
            assert all(math.copysign(1.0, v) > 0.0 for v in force if v == 0.0), force


def test_perching_sweep_calls_no_pseudoinverse(params, bend30, monkeypatch):
    # The per-point reaction stays off LAPACK; the commanded state's one
    # allocation may still use its least-squares solves.
    def failing_pinv(*args, **kwargs):
        raise AssertionError("a perching point called np.linalg.pinv")

    monkeypatch.setattr(np.linalg, "pinv", failing_pinv)
    for axis in ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]):
        offsets = [k * 5e-4 * np.array(axis) for k in range(21)]
        records = run_perching_sweep(params, bend30, offsets)
        assert all(record.converged for record in records)


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


def test_perching_sweep_rejects_non_finite_offsets(params, bend30, monkeypatch):
    # in every offset form, and in the float loop under run_perching_sweep,
    # before any IK solve
    ik_solves = []
    kernel = core.solve_tip_constraint

    def counting_kernel(*args):
        ik_solves.append(1)
        return kernel(*args)

    monkeypatch.setattr(core, "solve_tip_constraint", counting_kernel)
    message = "perching base offsets must be finite"
    for bad in (math.nan, math.inf):
        rows = [[0.0, 0.0, 0.0], [1e-3, bad, 0.0]]
        with pytest.raises(ConfigurationError, match=message):
            ccarm.sim._perching_points(params, bend30, rows, 0.0, 100)
        for offsets in (rows, [np.array(row) for row in rows], np.array(rows),
                        [v for row in rows for v in row]):
            with pytest.raises(ConfigurationError, match=message):
                run_perching_sweep(params, bend30, offsets)
    assert ik_solves == []


@pytest.mark.parametrize("offsets", [[[0.0, 0.001]], [["x", 0, 0]], [[0.0] * 3, [0.0] * 2]],
                         ids=["short-row", "string", "ragged"])
def test_perching_sweep_rejects_malformed_offsets(params, bend30, offsets):
    with pytest.raises(ConfigurationError, match="base_offsets"):
        run_perching_sweep(params, bend30, offsets)


def test_perching_sweep_offset_forms(params, bend30):
    # run_perching_sweep takes (n, 3) array-likes or flat sequences of 3n
    # floats; the sweep loop under it takes float 3-lists, as the CLI passes.
    rows = [[k * 1e-3, 0.0, -2e-4 * k] for k in range(4)]
    points = ccarm.sim._perching_points(params, bend30, rows, 0.0, 100)
    assert len(points) == len(rows)
    for offsets in (rows, np.array(rows), [v for row in rows for v in row]):
        records = run_perching_sweep(params, bend30, offsets)
        assert [record.base_offset.tolist() for record in records] == rows
        for record, point in zip(records, points):
            force, moment, theta, delta, residual, iterations, converged = point
            assert record.reaction_force.tolist() == list(force)
            assert record.reaction_moment.tolist() == list(moment)
            assert record.equilibrium_config == Configuration(theta, delta)
            assert (record.ik_residual_norm, record.iterations, record.converged) == (
                residual, iterations, converged)


@pytest.mark.parametrize("anchor_shift,offset", [
    ([math.nan, 0.0, 0.0], [0.0, 0.0, 0.0]),
    ([0.0, 0.0, 0.0], [0.0, math.nan, 0.0]),
    ([math.inf, 0.0, 0.0], [0.0, 0.0, 0.0]),
    ([0.0, 0.0, 0.0], [0.0, 0.0, -math.inf]),
], ids=["nan-anchor", "nan-offset", "inf-anchor", "inf-offset"])
def test_perching_rejects_non_finite_anchor_or_offset(params, bend30, monkeypatch,
                                                      anchor_shift, offset):
    ik_solves = []
    kernel = core.solve_tip_constraint

    def counting_kernel(*args):
        ik_solves.append(1)
        return kernel(*args)

    monkeypatch.setattr(core, "solve_tip_constraint", counting_kernel)
    anchor = forward_kinematics(params, bend30).position + anchor_shift
    with pytest.raises(ConfigurationError, match="finite"):
        solve_perching_reaction(params, bend30, anchor, offset)
    assert ik_solves == []


@pytest.mark.parametrize("change", [{"pitch_radius": 1e308}], ids=["k-r2-overflows"])
def test_perching_reaction_that_is_not_finite_fails_the_point(params, bend30, change):
    # k r^2 overflows: the reaction comes out NaN, and the point fails rather
    # than report a converged NaN wrench (an infinite k is refused on load)
    arm = dataclasses.replace(params, **change)
    anchor = forward_kinematics(arm, bend30).position
    with pytest.raises(ConfigurationError, match="not finite"):
        solve_perching_reaction(arm, bend30, anchor, [1e-3, 0.0, 0.0])
    record, = run_perching_sweep(arm, bend30, [[1e-3, 0.0, 0.0]])
    assert not record.converged
    assert np.isnan(record.reaction_force).all() and np.isnan(record.reaction_moment).all()


def test_perching_unreachable_anchor(params, bend30):
    anchor = forward_kinematics(params, bend30).position
    with pytest.raises(UnreachableTargetError):
        solve_perching_reaction(params, bend30, anchor, [-0.2, 0.0, 0.0])


def test_perching_target_at_the_base_is_unreachable(params):
    # The IK converges to a full circle, a bend of 2 pi: the target is out of
    # reach within theta_max, not a bad configuration argument.
    bend = wrap_configuration(0.5, 0.3)
    with pytest.raises(UnreachableTargetError, match=r"\(0, 0, 0\) m .* past theta_max"):
        solve_perching_reaction(params, bend, [0, 0, 0], [0, 0, 0])
    anchor = forward_kinematics(params, bend).position
    records = run_perching_sweep(params, bend, [[0.0, 0.0, 0.0], anchor.tolist()])
    assert [record.converged for record in records] == [True, False]
    assert np.isnan(records[1].reaction_force).all()
    assert records[1].equilibrium_config == bend


def _ik(length, w0, target):
    return core.solve_tip_constraint(length, *w0, *target, 1e-6, 1e-8, 100)


def test_ik_start_memo_gives_the_cold_bits(params):
    # A hit on the memoized IK start gives the bits of a cold start, for a
    # numpy length or start too (an array keys on its floats), and a zero
    # start of either sign keeps its own: the straight target is met at the
    # start, returned as it is.
    length = params.backbone_length
    straight = (0.0, 0.0, length)
    bent = forward_kinematics(params, wrap_configuration(0.55, 0.1)).position.tolist()
    starts = [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.5236, 0.0), (0.3, -0.2)]
    for target in (straight, bent):
        cold = []
        for w0 in starts:
            core._tip_start.cache_clear()
            cold.append(_bits(_flat(_ik(length, w0, target))))
        core._tip_start.cache_clear()
        for w0, bits in zip(starts, cold):
            assert _bits(_flat(_ik(length, w0, target))) == bits  # fills the memo
        for w0, bits in zip(starts, cold):
            info = core._tip_start.cache_info()
            for args in ((length, w0), (np.float64(length), w0),
                         (length, tuple(map(np.float64, w0))), (np.array(length), w0)):
                assert _bits(_flat(_ik(*args, target))) == bits
            assert core._tip_start.cache_info()[:2] == (info.hits + 4, info.misses)
        if target is straight:
            assert [b[:2] for b in cold[:4]] == [[x.hex() for x in w0] for w0 in starts[:4]]
            assert len({tuple(b) for b in cold[:4]}) == 4
