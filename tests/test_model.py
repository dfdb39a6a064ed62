import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ccarm import (ArmParameters, CcarmError, Configuration, ConfigurationError,
                   ConvergenceError, InfeasibleTensionsError, JointState, ParameterError, Pose,
                   SingularConfigurationError, UnreachableTargetError, Wrench, allocate_tensions,
                   default_parameters, dump_parameters, forward_kinematics, load_parameters,
                   parameters_from_mapping, parse_parameter_text, wrap_configuration,
                   wrap_delta)
from ccarm.model import _SCHEMA

DEFAULT_DOC = {
    "backbone_length_m": 0.25,
    "pitch_radius_m": 0.02,
    "tendon_division_angle_rad": math.pi / 2,
    "tendon_count": 4,
    "backbone_youngs_modulus_pa": 50e9,
    "backbone_diameter_m": 1e-3,
    "tendon_youngs_modulus_pa": 5e9,
    "tendon_cross_section_m2": 7.9e-8,
}


def test_default_parameters_derived_quantities():
    p = default_parameters()
    # I = pi d^4 / 64 for the 1 mm backbone, hand value ~4.909e-14 m^4
    assert p.backbone_second_moment == pytest.approx(math.pi * (1e-3) ** 4 / 64, rel=1e-12)
    assert p.backbone_second_moment == pytest.approx(4.909e-14, rel=1e-4)
    assert p.tendon_axial_stiffness == pytest.approx(1580.0, rel=1e-12)
    assert p.flexural_rigidity == pytest.approx(2.4544e-3, rel=1e-4)
    assert p.tendon_count == 4


def test_diameter_route_matches_explicit_moment():
    doc = dict(DEFAULT_DOC)
    del doc["backbone_diameter_m"]
    doc["backbone_second_moment_m4"] = math.pi * (1e-3) ** 4 / 64
    assert parameters_from_mapping(doc) == parameters_from_mapping(DEFAULT_DOC)


def test_missing_field_errors():
    doc = dict(DEFAULT_DOC)
    del doc["pitch_radius_m"]
    with pytest.raises(ParameterError, match="pitch_radius_m"):
        parameters_from_mapping(doc)


def test_non_positive_length_errors():
    doc = dict(DEFAULT_DOC, backbone_length_m=0.0)
    with pytest.raises(ParameterError, match="non-positive backbone_length"):
        parameters_from_mapping(doc)


def test_uneven_division_angle_warns_but_loads():
    doc = dict(DEFAULT_DOC, tendon_division_angle_rad=math.pi / 3)
    with pytest.warns(UserWarning, match="unevenly"):
        p = parameters_from_mapping(doc)
    assert p.tendon_division_angle == pytest.approx(math.pi / 3)


def test_both_inertia_keys_rejected():
    doc = dict(DEFAULT_DOC, backbone_second_moment_m4=5e-14)
    with pytest.raises(ParameterError, match="not both"):
        parameters_from_mapping(doc)


def test_unknown_key_rejected():
    doc = dict(DEFAULT_DOC, backbone_lenght_m=0.3)
    with pytest.raises(ParameterError, match="unknown"):
        parameters_from_mapping(doc)


def test_tendon_count_floor():
    doc = dict(DEFAULT_DOC, tendon_count=2, tendon_division_angle_rad=math.pi)
    with pytest.raises(ParameterError, match="tendon_count"):
        parameters_from_mapping(doc)


@pytest.mark.parametrize("count", [65, 10**5])
def test_tendon_count_ceiling(count):
    # the allocation's n x n SVD would ask for some 80 GB at 100000 tendons
    with pytest.raises(ParameterError, match="tendon_count must be <= 64"):
        dataclasses.replace(default_parameters(), tendon_count=count,
                            tendon_division_angle=2.0 * math.pi / count)
    doc = dict(DEFAULT_DOC, tendon_count=count, tendon_division_angle_rad=2.0 * math.pi / count)
    with pytest.raises(ParameterError, match="<= 64"):
        parameters_from_mapping(doc)
    assert dataclasses.replace(default_parameters(), tendon_count=64,
                               tendon_division_angle=2.0 * math.pi / 64).tendon_count == 64


@pytest.mark.parametrize("count", [4.5, 6.0, "6", None])
def test_tendon_count_must_be_an_integer(count):
    # a float count used to pass here and fail at the first allocation
    with pytest.raises(ParameterError, match="tendon_count must be an integer"):
        dataclasses.replace(default_parameters(), tendon_count=count)
    six = dataclasses.replace(default_parameters(), tendon_count=np.int64(6),
                              tendon_division_angle=2.0 * math.pi / 6)
    assert six.tendon_count == 6


@pytest.mark.parametrize("value", ["0.25", None, [0.25]])
def test_real_fields_must_be_real_numbers(value):
    # a string used to escape as TypeError from math.isfinite
    with pytest.raises(ParameterError, match="backbone_length must be a real number"):
        dataclasses.replace(default_parameters(), backbone_length=value)
    arm = dataclasses.replace(default_parameters(), backbone_length=np.float64(0.3),
                              pitch_radius=np.int64(1))
    assert (arm.backbone_length, arm.pitch_radius) == (0.3, 1)


@pytest.mark.parametrize("key", ["backbone_length_m", "backbone_diameter_m", "tendon_count"])
@pytest.mark.parametrize("value", ["abc", None, [4]])
def test_mapping_values_must_be_numbers(key, value):
    # float() used to raise a raw ValueError or TypeError here
    with pytest.raises(ParameterError, match=f"{key} must be a number"):
        parameters_from_mapping(dict(DEFAULT_DOC, **{key: value}))


def test_booleans_are_not_numbers():
    # True used to load as a 1.0 m backbone
    with pytest.raises(ParameterError, match="backbone_length must be a real number"):
        dataclasses.replace(default_parameters(), backbone_length=True)
    for key in ("backbone_length_m", "backbone_diameter_m", "tendon_count"):
        with pytest.raises(ParameterError, match=f"{key} must be a number"):
            parameters_from_mapping(dict(DEFAULT_DOC, **{key: True}))


@pytest.mark.parametrize("count", [math.inf, math.nan])
def test_mapped_tendon_count_must_be_finite(count):
    # int(count) used to raise a raw OverflowError or ValueError
    with pytest.raises(ParameterError, match="tendon_count must be an integer"):
        parameters_from_mapping(dict(DEFAULT_DOC, tendon_count=count))


def test_parse_text_formats(tmp_path):
    text = "\n".join([
        "# comment",
        "backbone_length_m = 0.25",
        "pitch_radius_m: 0.02   # trailing comment",
        "",
    ])
    mapping = parse_parameter_text(text)
    assert mapping == {"backbone_length_m": 0.25, "pitch_radius_m": 0.02}
    with pytest.raises(ParameterError, match="duplicate"):
        parse_parameter_text("a = 1\na = 2")
    with pytest.raises(ParameterError, match="bad number"):
        parse_parameter_text("backbone_length_m = soft")


def test_round_trip_is_bit_for_bit(tmp_path):
    first = parameters_from_mapping(DEFAULT_DOC)
    path = tmp_path / "arm.params"
    path.write_text(dump_parameters(first))
    second = parameters_from_mapping(parse_parameter_text(path.read_text()))
    assert first == second
    assert dump_parameters(second) == dump_parameters(first)


def test_schema_lists_every_field_in_order():
    assert [name for name, _ in _SCHEMA] == [
        field.name for field in dataclasses.fields(ArmParameters)]


def test_dump_of_the_default_arm():
    # field order, the second moment given directly, floats by repr
    assert dump_parameters(default_parameters()) == (
        "backbone_length_m = 0.25\n"
        "pitch_radius_m = 0.02\n"
        "tendon_division_angle_rad = 1.5707963267948966\n"
        "tendon_count = 4\n"
        "backbone_youngs_modulus_pa = 50000000000.0\n"
        "backbone_second_moment_m4 = 4.908738521234053e-14\n"
        "tendon_youngs_modulus_pa = 5000000000.0\n"
        "tendon_cross_section_m2 = 7.9e-08\n")


def test_dump_writes_numpy_scalars_as_plain_numbers(tmp_path):
    # numpy 2 reprs a float64 as np.float64(0.25), which the loader rejects
    arm = dataclasses.replace(default_parameters(), backbone_length=np.float64(0.3),
                              tendon_count=np.int64(6), tendon_division_angle=math.pi / 3)
    text = dump_parameters(arm)
    assert "backbone_length_m = 0.3\n" in text
    assert "tendon_count = 6\n" in text
    path = tmp_path / "arm.params"
    path.write_text(text)
    loaded = load_parameters(path)
    assert loaded == arm
    assert dump_parameters(loaded) == text


def test_wrap_configuration_examples():
    c = wrap_configuration(-math.pi / 4, 0.0)
    assert (c.theta, c.delta) == (math.pi / 4, math.pi)
    c = wrap_configuration(math.pi / 4, 3 * math.pi)
    assert (c.theta, c.delta) == (math.pi / 4, math.pi)
    c = wrap_configuration(0.0, 1.2)
    assert (c.theta, c.delta) == (0.0, 1.2)


@pytest.mark.parametrize("theta_max", ["x", True, np.True_, None, math.nan],
                         ids=["string", "true", "numpy-bool", "none", "nan"])
def test_wrap_configuration_checks_theta_max(theta_max):
    # True would be a 1 rad limit and a NaN limit would bound nothing
    for theta in (0.5, 0.0, -0.5):
        with pytest.raises(ConfigurationError, match="theta_max"):
            wrap_configuration(theta, 0.0, theta_max)


def test_wrap_configuration_takes_an_infinite_theta_max():
    # the CLI's jacobians --check passes math.inf to let its stencil bend past pi
    assert wrap_configuration(4.0, 0.5, math.inf) == Configuration(4.0, 0.5)
    assert wrap_configuration(-4.0, 0.5, math.inf) == Configuration(4.0, wrap_delta(0.5 + math.pi))


def test_wrap_delta_interval():
    for delta in (-math.pi, math.pi, 0.0, 5.5, -9.1, 2 * math.pi):
        w = wrap_delta(delta)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.cos(w), math.cos(delta), abs_tol=1e-12)
        assert math.isclose(math.sin(w), math.sin(delta), abs_tol=1e-12)


def test_wrap_preserves_forward_kinematics(params, rng):
    # wrapped configuration must land on the same tip as the raw formulas
    for _ in range(50):
        theta = rng.uniform(-math.pi, math.pi)
        delta = rng.uniform(-10.0, 10.0)
        pose = forward_kinematics(params, wrap_configuration(theta, delta))
        L = params.backbone_length
        if abs(theta) > 1e-6:
            raw = (L / theta) * np.array([
                math.cos(delta) * (1 - math.cos(theta)),
                math.sin(delta) * (1 - math.cos(theta)),
                math.sin(theta),
            ])
        else:
            raw = np.array([0.0, 0.0, L])
        assert np.linalg.norm(pose.position - raw) < 1e-12


def test_wrap_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        wrap_configuration(float("nan"), 0.0)
    with pytest.raises(ConfigurationError):
        wrap_configuration(3.5, 0.0)  # beyond default theta_max = pi
    c = wrap_configuration(3.5, 0.0, theta_max=4.0)
    assert c.theta == 3.5


def test_configuration_errors_print_plain_numbers():
    for make, message in ((lambda: Configuration(np.float64(-0.5), 0.0), "got -0.5)"),
                          (lambda: Configuration(np.float64("nan"), np.float64(1.0)),
                           "(nan, 1.0)"),
                          (lambda: wrap_configuration(np.float64("inf"), np.float64(0.25)),
                           "(inf, 0.25)")):
        with pytest.raises(ConfigurationError) as info:
            make()
        assert message in str(info.value)
        assert "np.float64" not in str(info.value)


def test_configuration_validation():
    with pytest.raises(ConfigurationError):
        Configuration(-0.1, 0.0)
    with pytest.raises(ConfigurationError):
        Configuration(0.1, float("inf"))


@pytest.mark.parametrize("bad", ["abc", None, True, False, np.True_, [0.1]],
                         ids=["string", "none", "true", "false", "numpy-bool", "list"])
@pytest.mark.parametrize("field", ["theta", "delta"])
def test_configuration_angles_must_be_real_numbers(field, bad):
    # a bool is no bend: Configuration(True, 0.0) would be a bend of 1 rad
    angles = {"theta": 0.5, "delta": 0.25, field: bad}
    for make in (Configuration, wrap_configuration):
        with pytest.raises(ConfigurationError, match=f"{field} must be a real number"):
            make(angles["theta"], angles["delta"])


def test_an_int_past_the_largest_float_is_refused_by_name(params):
    # float(10**400) raises OverflowError, which is no CcarmError
    huge = 10 ** 400
    for make, name in ((lambda: Configuration(huge, 0.0), "theta"),
                       (lambda: wrap_configuration(0.5, huge), "delta"),
                       (lambda: Wrench([huge, 0, 0], np.zeros(3)), "wrench force"),
                       (lambda: allocate_tensions(params, Configuration(0.5, 0.0), None, huge),
                        "pretension")):
        with pytest.raises(ConfigurationError, match=name):
            make()


def test_configuration_keeps_real_angles_as_given():
    for theta, delta in ((np.float64(0.5), 1), (1, np.float32(0.25)), (0.0, -0.0)):
        config = Configuration(theta, delta)
        assert (config.theta, config.delta) == (theta, delta)
        assert type(config.theta) is type(theta) and type(config.delta) is type(delta)
    assert wrap_configuration(-1, 0) == Configuration(1, math.pi)


def test_pose_validation():
    with pytest.raises(ConfigurationError):
        Pose(rotation=np.eye(3) * 1.1, position=np.zeros(3))
    flipped = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ConfigurationError):
        Pose(rotation=flipped, position=np.zeros(3))


def test_joint_state_and_wrench_validation():
    with pytest.raises(ConfigurationError):
        JointState(displacements=np.zeros(4), tensions=np.array([1.0, -0.5, 0.0, 0.0]))
    state = JointState(displacements=np.zeros(4), tensions=np.zeros(4))
    with pytest.raises(ValueError):
        state.displacements[0] = 1.0  # records are read-only
    with pytest.raises(ConfigurationError):
        Wrench(force=np.array([np.inf, 0, 0]), moment=np.zeros(3))
    assert Wrench.zero().as_vector().shape == (6,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", range(6))
def test_wrench_rejects_non_finite_entries(slot, bad):
    values = [0.1, -0.2, 0.3, -0.01, 0.02, -0.03]
    values[slot] = bad
    with pytest.raises(ConfigurationError, match="non-finite wrench"):
        Wrench(force=values[:3], moment=values[3:])


def test_wrench_accepts_extreme_finite_entries():
    values = [1e308, -1e308, 1e308, -1e308, 1e308, -1e308]
    wrench = Wrench(force=np.array(values[:3]), moment=values[3:])
    assert wrench.as_vector().tolist() == values
    for array in (wrench.force, wrench.moment):
        assert array.dtype == float and not array.flags.writeable


def test_zero_wrench_is_one_shared_immutable_instance():
    zero = Wrench.zero()
    assert zero is Wrench.zero()
    assert zero.as_vector().tolist() == [0.0] * 6
    for array in (zero.force, zero.moment):
        assert array.dtype == float and not array.flags.writeable
        with pytest.raises(ValueError):
            array.setflags(write=True)
        with pytest.raises(ValueError):
            array[0] = 1.0
    assert Wrench.zero().force.tolist() == [0.0, 0.0, 0.0]


def test_zero_wrench_of_a_subclass_is_a_new_instance():
    class Load(Wrench):
        pass

    first, second = Load.zero(), Load.zero()
    assert type(first) is Load and first is not second
    assert first.as_vector().tolist() == [0.0] * 6


def test_arm_parameters_frozen(params):
    with pytest.raises(AttributeError):
        params.backbone_length = 0.3


# ------------------------------------------------------------- input contract

def _contract_table():
    # (argument, base, call): every public numeric argument of model, sim,
    # statics, stiffness and kinematics, with call(params, config, value).  A
    # vector argument has a valid base vector, whose first entry the value
    # replaces; a scalar's base is None.
    import ccarm

    def tensions(p, c):
        return ccarm.allocate_tensions(p, c, None).tensions

    two, three, four = [0.0] * 2, [0.0] * 3, [0.0] * 4
    anchor = [0.0, 0.0, 0.25]
    return [
        ("theta", None, lambda p, c, v: Configuration(v, 0.3)),
        ("delta", None, lambda p, c, v: Configuration(0.3, v)),
        ("theta", None, lambda p, c, v: wrap_configuration(v, 0.3)),
        ("delta", None, lambda p, c, v: wrap_configuration(0.3, v)),
        ("theta_max", None, lambda p, c, v: wrap_configuration(0.3, 0.1, v)),
        ("delta", None, lambda p, c, v: wrap_delta(v)),
        ("displacements", four, lambda p, c, v: JointState(v)),
        ("tensions", four, lambda p, c, v: JointState(np.zeros(4), v)),
        ("rotation", np.eye(3).ravel().tolist(), lambda p, c, v: Pose(v, np.zeros(3))),
        ("position", three, lambda p, c, v: Pose(np.eye(3), v)),
        ("wrench force", three, lambda p, c, v: Wrench(v, np.zeros(3))),
        ("wrench moment", three, lambda p, c, v: Wrench(np.zeros(3), v)),
        ("wrench force", three, lambda p, c, v: Wrench.from_force(v)),
        ("x", two, lambda p, c, v: ccarm.finite_difference_oracle(lambda x: x, v)),
        ("step", None, lambda p, c, v: ccarm.finite_difference_oracle(lambda x: x, two, v)),
        ("tip_force", three, lambda p, c, v: ccarm.solve_deflection(p, c, v)),
        ("pretension", None, lambda p, c, v: ccarm.solve_deflection(p, c, three, v)),
        ("max_iter", None, lambda p, c, v: ccarm.solve_deflection(p, c, three, max_iter=v)),
        ("load_schedule", two, lambda p, c, v: ccarm.run_stiffness_sweep(p, [c], v)),
        ("pretension", None,
         lambda p, c, v: ccarm.run_stiffness_sweep(p, [c], [0.1], "inward", v)),
        ("max_iter", None, lambda p, c, v: ccarm.run_stiffness_sweep(p, [c], [0.1], max_iter=v)),
        ("increment", None, lambda p, c, v: ccarm.mirrored_schedule(v, 2)),
        ("steps", None, lambda p, c, v: ccarm.mirrored_schedule(0.1, v)),
        ("tip_anchor", anchor, lambda p, c, v: ccarm.solve_perching_reaction(p, c, v, three)),
        ("base_offset", three, lambda p, c, v: ccarm.solve_perching_reaction(p, c, anchor, v)),
        ("pretension", None,
         lambda p, c, v: ccarm.solve_perching_reaction(p, c, anchor, three, v)),
        ("base_offsets", three, lambda p, c, v: ccarm.run_perching_sweep(p, c, [v])),
        ("pretension", None, lambda p, c, v: ccarm.run_perching_sweep(p, c, [three], v)),
        ("max_iter", None, lambda p, c, v: ccarm.run_perching_sweep(p, c, [three], max_iter=v)),
        ("pretension", None, lambda p, c, v: ccarm.allocate_tensions(p, c, None, v)),
        ("tensions", four, lambda p, c, v: ccarm.equilibrium_residual(p, c, v, None)),
        ("tensions", four, lambda p, c, v: ccarm.configuration_stiffness(p, c, v)),
        ("tensions", four, lambda p, c, v: ccarm.task_stiffness(p, c, v, two)),
        ("f_star", two, lambda p, c, v: ccarm.task_stiffness(p, c, tensions(p, c), v)),
        ("tensions", four, lambda p, c, v: ccarm.stiffness_set(p, c, v)),
        ("f_star", two, lambda p, c, v: ccarm.stiffness_set(p, c, tensions(p, c), v)),
        ("damping", None, lambda p, c, v: ccarm.jacobian_v_pinv_t_derivatives(p, c, v)),
        ("count", None, lambda p, c, v: ccarm.sample_backbone(p, c, v)),
    ]


_CONTRACT_TABLE = _contract_table()
_OUTCOMES = (ConvergenceError, InfeasibleTensionsError, SingularConfigurationError,
             UnreachableTargetError)
_ODD_VALUES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -1.0, 0.0,
               True, np.bool_(True), None, "1.0"]


def _on_every_row(test):
    # one explicit example per row, so every argument meets every odd value
    for row in _CONTRACT_TABLE:
        test = example(row=row, drawn=0.5)(test)
    return test


@_on_every_row
@given(row=st.sampled_from(_CONTRACT_TABLE), drawn=st.floats())
def test_every_numeric_argument_returns_or_raises_a_typed_error(row, drawn):
    # Each odd value, and a drawn float, in each argument, and a vector of the
    # wrong size in each vector argument: the call returns or raises a
    # CcarmError, and nothing else escapes, a RuntimeWarning included.  A
    # refusal names the argument (an underscore may read as a space); the
    # solvers' outcomes on accepted input (no convergence, an unreachable or
    # infeasible point, a singular one, an equilibrium bent past pi) name
    # what happened instead.
    name, base, call = row
    params, config = default_parameters(), Configuration(0.5, 0.3)
    values = _ODD_VALUES + [drawn]
    if base is not None:
        values = [[v] + base[1:] for v in values] + [base[:-1], base + [0.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in values:
            try:
                call(params, config, value)
            except _OUTCOMES:
                pass
            except CcarmError as exc:
                message = str(exc)
                assert (name in message or name.replace("_", " ") in message
                        or "exceeds theta_max" in message and name != "theta_max"), \
                    (value, message)
