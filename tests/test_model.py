import dataclasses
import math

import numpy as np
import pytest

from ccarm import (Configuration, ConfigurationError, JointState,
                   ParameterError, Pose, Wrench, default_parameters,
                   dump_parameters, forward_kinematics, parameters_from_mapping,
                   parse_parameter_text, wrap_configuration, wrap_delta)

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


def test_wrap_configuration_examples():
    c = wrap_configuration(-math.pi / 4, 0.0)
    assert (c.theta, c.delta) == (math.pi / 4, math.pi)
    c = wrap_configuration(math.pi / 4, 3 * math.pi)
    assert (c.theta, c.delta) == (math.pi / 4, math.pi)
    c = wrap_configuration(0.0, 1.2)
    assert (c.theta, c.delta) == (0.0, 1.2)


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


def test_arm_parameters_frozen(params):
    with pytest.raises(AttributeError):
        params.backbone_length = 0.3
