"""Domain types, arm parameters and parameter-file ingestion.

All records are frozen dataclasses, so they can be shared across threads
freely.  ArmParameters and Configuration hold floats; the other records hold
read-only numpy arrays.  Angles are radians and every quantity is SI.

numpy is imported only where an array is built or read, so that loading
the parameters and the configurations loads no numpy.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigurationError, ParameterError

if TYPE_CHECKING:
    import numpy as np

DEFAULT_THETA_MAX = math.pi

# The tension allocation solves a 2x2 system for each of the n(n-1) arcs of
# the tendon ring: an allocation takes about 3 ms at 64 tendons and 19 ms at
# 128 (pure Python, one core), and a count of 100000 would run for hours.
MAX_TENDON_COUNT = 64

_REQUIRED_KEYS = (
    "backbone_length_m",
    "pitch_radius_m",
    "tendon_division_angle_rad",
    "tendon_count",
    "backbone_youngs_modulus_pa",
    "tendon_youngs_modulus_pa",
    "tendon_cross_section_m2",
)
_INERTIA_KEYS = ("backbone_second_moment_m4", "backbone_diameter_m")


def _readonly(values, shape=None):
    import numpy as np

    arr = np.array(values, dtype=float)
    if shape is not None:
        arr = arr.reshape(shape)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ArmParameters:
    """Geometric and material constants of the single-segment arm."""

    backbone_length: float          # L, m
    pitch_radius: float             # r, m (tendon pitch circle)
    tendon_division_angle: float    # beta, rad
    tendon_count: int
    backbone_youngs_modulus: float  # E_p, Pa
    backbone_second_moment: float   # I_p, m^4
    tendon_youngs_modulus: float    # E_T, Pa
    tendon_cross_section: float     # A, m^2

    def __post_init__(self):
        names = {
            "backbone_length": self.backbone_length,
            "pitch_radius": self.pitch_radius,
            "tendon_division_angle": self.tendon_division_angle,
            "backbone_youngs_modulus": self.backbone_youngs_modulus,
            "backbone_second_moment": self.backbone_second_moment,
            "tendon_youngs_modulus": self.tendon_youngs_modulus,
            "tendon_cross_section": self.tendon_cross_section,
        }
        for name, value in names.items():
            if not (math.isfinite(value) and value > 0.0):
                raise ParameterError(f"non-positive {name}: {value!r}")
        count = self.tendon_count
        if isinstance(count, bool) or not isinstance(count, numbers.Integral):
            raise ParameterError(f"tendon_count must be an integer, got {count!r}")
        if count < 3:
            raise ParameterError(
                f"tendon_count must be >= 3 to span the bending plane, got {count}")
        if count > MAX_TENDON_COUNT:
            raise ParameterError(f"tendon_count must be <= {MAX_TENDON_COUNT}, got {count}")
        even = 2.0 * math.pi / count
        if not math.isclose(self.tendon_division_angle, even, rel_tol=1e-9):
            warnings.warn(
                "tendon_division_angle %.6g rad is not 2*pi/tendon_count = %.6g rad; "
                "tendons are unevenly distributed" % (self.tendon_division_angle, even),
                stacklevel=3,
            )

    @property
    def flexural_rigidity(self):
        """Backbone bending rigidity E_p * I_p, N*m^2."""
        return self.backbone_youngs_modulus * self.backbone_second_moment

    @property
    def tendon_axial_stiffness(self):
        """Axial stiffness of one tendon over the segment, E_T * A / L, N/m."""
        return self.tendon_youngs_modulus * self.tendon_cross_section / self.backbone_length

    @property
    def tendon_phases(self):
        """Fixed angular offsets i*beta of the tendons on the pitch circle."""
        import numpy as np

        return self.tendon_division_angle * np.arange(self.tendon_count)


@dataclass(frozen=True)
class Configuration:
    """Bending state: in-plane bending angle theta and bending-plane angle delta.

    theta must be non-negative; a negative bend is represented by rotating the
    bending plane half a turn (see wrap_configuration).  delta is stored as
    given; wrap_configuration produces the canonical value in (-pi, pi].
    """

    theta: float
    delta: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.delta)):
            raise ConfigurationError(
                f"non-finite configuration ({float(self.theta)!r}, {float(self.delta)!r})"
            )
        if self.theta < 0.0:
            raise ConfigurationError(
                f"theta must be >= 0 (got {float(self.theta)!r}); use wrap_configuration"
            )


def wrap_delta(delta):
    """Wrap an angle to the interval (-pi, pi]; a no-op for canonical input."""
    if -math.pi < delta <= math.pi:
        return delta
    w = math.fmod(delta + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def wrap_configuration(theta, delta, theta_max=DEFAULT_THETA_MAX):
    """Canonicalize (theta, delta): theta >= 0 and delta in (-pi, pi].

    A negative theta maps to (-theta, delta + pi), the same physical bend.
    Raises ConfigurationError for non-finite input or theta beyond theta_max.
    """
    return Configuration(*_wrapped_angles(theta, delta, theta_max))


def _wrapped_angles(theta, delta, theta_max=DEFAULT_THETA_MAX):
    # wrap_configuration's (theta, delta) and errors, without the record.
    if not (math.isfinite(theta) and math.isfinite(delta)):
        raise ConfigurationError(
            f"non-finite configuration ({float(theta)!r}, {float(delta)!r})")
    if theta < 0.0:
        theta = -theta
        delta = delta + math.pi
    if theta > theta_max + 1e-12:
        raise ConfigurationError(
            f"bending angle {theta:.6g} rad exceeds theta_max {theta_max:.6g} rad"
        )
    return theta, wrap_delta(delta)


@dataclass(frozen=True)
class JointState:
    """Tendon pull-in displacements and, optionally, tensions."""

    displacements: np.ndarray       # m
    tensions: np.ndarray = None     # N, >= 0 when present

    def __post_init__(self):
        import numpy as np

        q = _readonly(self.displacements, (-1,))
        if not np.all(np.isfinite(q)):
            raise ConfigurationError("non-finite tendon displacements")
        object.__setattr__(self, "displacements", q)
        if self.tensions is not None:
            tau = _readonly(self.tensions, (-1,))
            if tau.shape != q.shape:
                raise ConfigurationError("tensions and displacements length mismatch")
            if not np.all(np.isfinite(tau)) or np.min(tau) < -1e-12:
                raise ConfigurationError("tendon tensions must be finite and >= 0")
            object.__setattr__(self, "tensions", tau)


@dataclass(frozen=True)
class Pose:
    """Rigid pose of the gripper frame in the base frame."""

    rotation: np.ndarray   # 3x3
    position: np.ndarray   # m

    def __post_init__(self):
        import numpy as np

        rot = _readonly(self.rotation, (3, 3))
        pos = _readonly(self.position, (3,))
        if np.linalg.norm(rot.T @ rot - np.eye(3)) > 1e-10:
            raise ConfigurationError("rotation is not orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > 1e-10:
            raise ConfigurationError("rotation determinant is not +1")
        if not np.all(np.isfinite(pos)):
            raise ConfigurationError("non-finite position")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "position", pos)


@dataclass(frozen=True)
class Wrench:
    """Force/moment pair acting on the end disk, expressed in the base frame."""

    force: np.ndarray    # N
    moment: np.ndarray   # N*m

    def __post_init__(self):
        f = _readonly(self.force, (3,))
        m = _readonly(self.moment, (3,))
        if not all(map(math.isfinite, f.tolist() + m.tolist())):
            raise ConfigurationError("non-finite wrench")
        object.__setattr__(self, "force", f)
        object.__setattr__(self, "moment", m)

    @classmethod
    def zero(cls):
        return cls((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))

    @classmethod
    def from_force(cls, force):
        return cls(force, (0.0, 0.0, 0.0))

    def as_vector(self):
        """Stacked 6-vector [force; moment]."""
        import numpy as np

        return np.concatenate([self.force, self.moment])


@dataclass(frozen=True)
class JacobianSet:
    """All differential maps of one configuration, bundled for convenience."""

    j_q_psi: np.ndarray   # n x 2, tendon rates per configuration rates
    j_v_psi: np.ndarray   # 3 x 2, linear velocity
    j_w_psi: np.ndarray   # 3 x 2, angular velocity
    evaluated_at: Configuration

    def __post_init__(self):
        object.__setattr__(self, "j_q_psi", _readonly(self.j_q_psi))
        object.__setattr__(self, "j_v_psi", _readonly(self.j_v_psi, (3, 2)))
        object.__setattr__(self, "j_w_psi", _readonly(self.j_w_psi, (3, 2)))

    @property
    def j_x_psi(self):
        """Stacked 6x2 twist Jacobian [j_v_psi; j_w_psi]."""
        import numpy as np

        return np.vstack([self.j_v_psi, self.j_w_psi])


@dataclass(frozen=True)
class StiffnessSet:
    """Stiffness matrices linearized at one configuration and tension state."""

    k_psi: np.ndarray              # 2x2 configuration-space stiffness
    k_q: np.ndarray                # n x n diagonal tendon stiffness
    k_x: np.ndarray                # 3x3 task-space stiffness, None if singular
    evaluated_at: Configuration
    tensions_at_point: np.ndarray  # N

    def __post_init__(self):
        import numpy as np

        k_q = _readonly(self.k_q)
        diag = np.diag(k_q)
        if np.any(k_q - np.diag(diag)) or not np.allclose(diag, diag[0], rtol=1e-12):
            raise ConfigurationError("k_q must be diagonal with equal entries")
        object.__setattr__(self, "k_psi", _readonly(self.k_psi, (2, 2)))
        object.__setattr__(self, "k_q", k_q)
        if self.k_x is not None:
            object.__setattr__(self, "k_x", _readonly(self.k_x, (3, 3)))
        object.__setattr__(self, "tensions_at_point", _readonly(self.tensions_at_point, (-1,)))


def parse_parameter_text(text):
    """Parse the flat key/value parameter document into a dict of floats."""
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
        elif ":" in line:
            key, _, value = line.partition(":")
        else:
            raise ParameterError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ParameterError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key in mapping:
            raise ParameterError(f"line {lineno}: duplicate key {key!r}")
        try:
            mapping[key] = float(value)
        except ValueError as exc:
            raise ParameterError(f"line {lineno}: bad number for {key!r}: {value!r}") from exc
    return mapping


def parameters_from_mapping(mapping):
    """Validate a parameter mapping and build an ArmParameters record.

    The second moment of area may be given directly
    (backbone_second_moment_m4) or derived from a circular-backbone diameter
    (backbone_diameter_m, I = pi d^4 / 64); supplying both is rejected.
    """
    known = set(_REQUIRED_KEYS) | set(_INERTIA_KEYS)
    unknown = sorted(set(mapping) - known)
    if unknown:
        raise ParameterError(f"unknown parameter keys: {', '.join(unknown)}")
    missing = sorted(k for k in _REQUIRED_KEYS if k not in mapping)
    if missing:
        raise ParameterError(f"missing parameter keys: {', '.join(missing)}")

    has_moment = "backbone_second_moment_m4" in mapping
    has_diameter = "backbone_diameter_m" in mapping
    if has_moment and has_diameter:
        raise ParameterError(
            "provide either backbone_second_moment_m4 or backbone_diameter_m, not both"
        )
    if has_moment:
        second_moment = float(mapping["backbone_second_moment_m4"])
    elif has_diameter:
        d = float(mapping["backbone_diameter_m"])
        if not (math.isfinite(d) and d > 0.0):
            raise ParameterError(f"non-positive backbone_diameter: {d!r}")
        second_moment = math.pi * d ** 4 / 64.0
    else:
        raise ParameterError(
            "missing parameter keys: backbone_second_moment_m4 or backbone_diameter_m"
        )

    count = float(mapping["tendon_count"])
    if count != int(count):
        raise ParameterError(f"tendon_count must be an integer, got {count!r}")

    return ArmParameters(
        backbone_length=float(mapping["backbone_length_m"]),
        pitch_radius=float(mapping["pitch_radius_m"]),
        tendon_division_angle=float(mapping["tendon_division_angle_rad"]),
        tendon_count=int(count),
        backbone_youngs_modulus=float(mapping["backbone_youngs_modulus_pa"]),
        backbone_second_moment=second_moment,
        tendon_youngs_modulus=float(mapping["tendon_youngs_modulus_pa"]),
        tendon_cross_section=float(mapping["tendon_cross_section_m2"]),
    )


def load_parameters(path):
    """Load and validate an arm parameter file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParameterError(f"cannot read parameter file {path}: {exc}") from exc
    return parameters_from_mapping(parse_parameter_text(text))


def dump_parameters(params):
    """Serialize parameters to the flat key/value document format.

    Floats are written with repr, so a load/dump/load round trip is
    bit-for-bit stable.
    """
    lines = [
        f"backbone_length_m = {params.backbone_length!r}",
        f"pitch_radius_m = {params.pitch_radius!r}",
        f"tendon_division_angle_rad = {params.tendon_division_angle!r}",
        f"tendon_count = {params.tendon_count}",
        f"backbone_youngs_modulus_pa = {params.backbone_youngs_modulus!r}",
        f"backbone_second_moment_m4 = {params.backbone_second_moment!r}",
        f"tendon_youngs_modulus_pa = {params.tendon_youngs_modulus!r}",
        f"tendon_cross_section_m2 = {params.tendon_cross_section!r}",
    ]
    return "\n".join(lines) + "\n"


@functools.cache  # the file ships with the package and the record is frozen
def default_parameters():
    """Arm parameters shipped with the package.

    Desk-scale plausible values (0.25 m NiTi backbone, 20 mm pitch circle,
    braided-line tendons); they are stand-ins, not measurements of any
    particular prototype.  The file is read once per process and every call
    returns the same record.
    """
    from importlib.resources import files

    text = files("ccarm").joinpath("data/default.params").read_text(encoding="utf-8")
    return parameters_from_mapping(parse_parameter_text(text))
