"""Domain types, arm parameters and parameter-file ingestion.

All records are frozen dataclasses, so they can be shared across threads
freely.  ArmParameters and Configuration hold floats; the other records hold
read-only numpy arrays.  Angles are radians and every quantity is SI.

numpy is imported only where an array is built or read, so that loading
the parameters and the configurations loads no numpy.

The library's input contract is here: every public function of model, sim,
statics, stiffness and kinematics checks its numeric arguments with _real,
_reals, _count and _tensions, to which a bool is no number, and what they
refuse raises ConfigurationError naming the argument.  ArmParameters and
parameters_from_mapping (ParameterError) and the result records are outside it.
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

# The parameter file's schema: one (ArmParameters field, file key) pair per
# field, in field order.  backbone_diameter_m may stand in for the second
# moment of area (I = pi d^4 / 64).
_SCHEMA = (
    ("backbone_length", "backbone_length_m"),
    ("pitch_radius", "pitch_radius_m"),
    ("tendon_division_angle", "tendon_division_angle_rad"),
    ("tendon_count", "tendon_count"),
    ("backbone_youngs_modulus", "backbone_youngs_modulus_pa"),
    ("backbone_second_moment", "backbone_second_moment_m4"),
    ("tendon_youngs_modulus", "tendon_youngs_modulus_pa"),
    ("tendon_cross_section", "tendon_cross_section_m2"),
)
_DIAMETER_KEY = "backbone_diameter_m"


def _readonly(values, shape=None):
    """values as a new read-only float array, reshaped only to a shape it lacks.

    A shape of (-1,) takes any flat length.  The records store their arrays
    through it; an entry that is not a number, or a size that does not fit
    the shape, raises ConfigurationError.
    """
    import numpy as np

    try:
        arr = np.array(values, dtype=float)
        if shape is not None and arr.shape != shape and (shape != (-1,) or arr.ndim != 1):
            arr = arr.reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid array: {exc}") from None
    arr.setflags(write=False)
    return arr


def _real(value, name):
    """value as a float; a bool or anything but a real number raises
    ConfigurationError naming the argument."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigurationError(
            f"{name} must be finite, got an int past the largest float") from None


def _reals(values, shape, name, finite=True):
    """values, an array-like or an iterator of real numbers, as a list of floats.

    The list nests as shape does: a size, -1 for any, or a tuple such as
    (-1, 3).  A flat list of floats is taken as it is, with no numpy, and a
    numeric array converts in one step; anything else is checked entry by
    entry.  A bool or non-number entry, a scalar, a size that does not fit and,
    if finite, a non-finite entry raise ConfigurationError naming the argument.
    """
    if type(values) is list and shape in (-1, len(values)) and {*map(type, values)} <= {float}:
        floats = flat = values
    else:
        import numpy as np

        if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
            try:
                if iter(values) is values:  # an iterator, a generator say: read it once
                    values = list(values)
                entries = np.array(values, dtype=object)
            except (TypeError, ValueError):  # not iterable (a scalar, None) or ragged
                entries = None
            if entries is None or entries.ndim == 0:
                raise ConfigurationError(f"{name} must be an array of numbers, got {values!r}")
            for value in entries.flat:
                _real(value, f"each {name} entry")
        try:
            array = np.asarray(values, dtype=float).reshape(shape)
        except ValueError as exc:
            raise ConfigurationError(f"invalid {name}: {exc}") from None
        floats = array.tolist()
        flat = floats if array.ndim == 1 else array.ravel().tolist()
    if finite and not all(map(math.isfinite, flat)):
        raise ConfigurationError(f"non-finite {name}: {floats}")
    return floats


def _count(value, name, least):
    """value as an int >= least; a bool, a float or anything but an integer
    raises ConfigurationError naming the argument."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _tensions(values, count):
    """values as count tendon tensions: a list of floats, each finite and >= 0
    (to 1e-12); anything else raises ConfigurationError naming the tensions."""
    tau = _reals(values, count, "tensions", finite=False)
    if not all(map(math.isfinite, tau)):
        raise ConfigurationError(f"tendon tensions must be finite, got {tau}")
    if min(tau, default=0.0) < -1e-12:
        raise ConfigurationError(
            f"tensions must be >= 0, got a negative tendon tension: {min(tau)!r}")
    return tau


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
        for name, _ in _SCHEMA:
            value = getattr(self, name)
            if name == "tendon_count":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ParameterError(f"{name} must be a real number, got {value!r}")
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
        # Finite positive fields can still multiply to inf or 0: an infinite
        # tendon stiffness turns a locked tendon's tension into inf * 0 = NaN.
        for name in ("flexural_rigidity", "tendon_axial_stiffness"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ParameterError(f"derived {name} must be finite and > 0, got {value!r}")
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
        if type(self.theta) is not float or type(self.delta) is not float:
            _real(self.theta, "theta")
            _real(self.delta, "delta")
        if not (math.isfinite(self.theta) and math.isfinite(self.delta)):
            raise ConfigurationError(f"non-finite configuration (theta, delta) = "
                                     f"({float(self.theta)!r}, {float(self.delta)!r})")
        if self.theta < 0.0:
            raise ConfigurationError(
                f"theta must be >= 0 (got {float(self.theta)!r}); use wrap_configuration"
            )


def wrap_delta(delta):
    """Wrap an angle to the interval (-pi, pi]; a no-op for canonical input.

    An angle that is not a finite real number raises ConfigurationError.
    """
    if type(delta) is not float:
        _real(delta, "delta")
    if -math.pi < delta <= math.pi:
        return delta
    if not math.isfinite(delta):
        raise ConfigurationError(f"delta must be finite, got {float(delta)!r}")
    w = math.fmod(delta + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def wrap_configuration(theta, delta, theta_max=DEFAULT_THETA_MAX):
    """Canonicalize (theta, delta): theta >= 0 and delta in (-pi, pi].

    A negative theta maps to (-theta, delta + pi), the same physical bend.
    Raises ConfigurationError for non-finite angles, theta beyond theta_max
    or a theta_max that is not a real number or is NaN; math.inf bounds
    nothing.
    """
    return Configuration(*_wrapped_angles(theta, delta, theta_max))


def _wrapped_angles(theta, delta, theta_max=DEFAULT_THETA_MAX):
    # wrap_configuration's (theta, delta) and errors, without the record.
    if type(theta) is not float or type(delta) is not float:
        _real(theta, "theta")
        _real(delta, "delta")
    if type(theta_max) is not float:
        theta_max = _real(theta_max, "theta_max")
    if not (math.isfinite(theta) and math.isfinite(delta)):
        raise ConfigurationError(f"non-finite configuration (theta, delta) = "
                                 f"({float(theta)!r}, {float(delta)!r})")
    if theta < 0.0:
        theta = -theta
        delta = delta + math.pi
    if not theta <= theta_max + 1e-12:  # a NaN theta_max is refused here too
        raise ConfigurationError(
            f"bending angle theta = {theta:.6g} rad exceeds theta_max {theta_max:.6g} rad"
        )
    return theta, delta if -math.pi < delta <= math.pi else wrap_delta(delta)


@dataclass(frozen=True)
class JointState:
    """Tendon pull-in displacements and, optionally, tensions."""

    displacements: np.ndarray       # m
    tensions: np.ndarray = None     # N, >= 0 when present

    def __post_init__(self):
        q = _reals(self.displacements, -1, "displacements")
        object.__setattr__(self, "displacements", _readonly(q))
        if self.tensions is not None:
            object.__setattr__(self, "tensions", _readonly(_tensions(self.tensions, len(q))))


@dataclass(frozen=True)
class Pose:
    """Rigid pose of the gripper frame in the base frame."""

    rotation: np.ndarray   # 3x3
    position: np.ndarray   # m

    def __post_init__(self):
        import numpy as np

        rot = _readonly(_reals(self.rotation, 9, "rotation"), (3, 3))
        # entries past 1 fail first, so that the product cannot overflow
        if np.abs(rot).max() > 1.0 + 1e-10 or np.linalg.norm(rot.T @ rot - np.eye(3)) > 1e-10:
            raise ConfigurationError("rotation is not orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > 1e-10:
            raise ConfigurationError("rotation determinant is not +1")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "position", _readonly(_reals(self.position, 3, "position")))


@dataclass(frozen=True)
class Wrench:
    """Force/moment pair acting on the end disk, expressed in the base frame."""

    force: np.ndarray    # N
    moment: np.ndarray   # N*m

    def __post_init__(self):
        object.__setattr__(self, "force", _readonly(_reals(self.force, 3, "wrench force")))
        object.__setattr__(self, "moment", _readonly(_reals(self.moment, 3, "wrench moment")))

    @classmethod
    def zero(cls):
        """The zero wrench: for Wrench itself one shared instance, whose arrays
        are read-only views of an immutable buffer and cannot be made writable."""
        if cls is Wrench:
            return _zero_wrench()
        return cls((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))

    @classmethod
    def from_force(cls, force):
        return cls(force, (0.0, 0.0, 0.0))

    def as_vector(self):
        """Stacked 6-vector [force; moment]."""
        import numpy as np

        return np.concatenate([self.force, self.moment])


@functools.cache
def _zero_wrench():
    import numpy as np

    base = np.frombuffer(bytes(48))  # read-only, and its buffer is immutable
    force, moment = base[:3], base[3:]
    wrench = Wrench(force, moment)
    object.__setattr__(wrench, "force", force)
    object.__setattr__(wrench, "moment", moment)
    return wrench


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


def _mapped_number(mapping, key):
    # float(mapping[key]), or ParameterError naming the key; True is no number
    value = mapping[key]
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ParameterError(f"{key} must be a number, got {value!r}")


def parameters_from_mapping(mapping):
    """Validate a parameter mapping and build an ArmParameters record.

    The second moment of area may be given directly
    (backbone_second_moment_m4) or derived from a circular-backbone diameter
    (backbone_diameter_m, I = pi d^4 / 64); supplying both is rejected.
    """
    keys = dict(_SCHEMA)
    moment_key = keys["backbone_second_moment"]
    unknown = sorted(set(mapping) - set(keys.values()) - {_DIAMETER_KEY})
    if unknown:
        raise ParameterError(f"unknown parameter keys: {', '.join(unknown)}")
    missing = sorted(k for k in keys.values() if k != moment_key and k not in mapping)
    if missing:
        raise ParameterError(f"missing parameter keys: {', '.join(missing)}")

    has_moment = moment_key in mapping
    has_diameter = _DIAMETER_KEY in mapping
    if has_moment and has_diameter:
        raise ParameterError(
            "provide either backbone_second_moment_m4 or backbone_diameter_m, not both"
        )
    if has_moment:
        second_moment = _mapped_number(mapping, moment_key)
    elif has_diameter:
        d = _mapped_number(mapping, _DIAMETER_KEY)
        if not (math.isfinite(d) and d > 0.0):
            raise ParameterError(f"non-positive backbone_diameter: {d!r}")
        second_moment = math.pi * d ** 4 / 64.0
    else:
        raise ParameterError(
            "missing parameter keys: backbone_second_moment_m4 or backbone_diameter_m"
        )

    count = _mapped_number(mapping, keys["tendon_count"])
    if not count.is_integer():
        raise ParameterError(f"tendon_count must be an integer, got {count!r}")

    values = {name: _mapped_number(mapping, key) for name, key in _SCHEMA if key in mapping}
    values.update(tendon_count=int(count), backbone_second_moment=second_moment)
    return ArmParameters(**values)


def load_parameters(path):
    """Load and validate an arm parameter file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParameterError(f"cannot read parameter file {path}: {exc}") from exc
    return parameters_from_mapping(parse_parameter_text(text))


def dump_parameters(params):
    """Serialize parameters to the flat key/value document format.

    One line per field, in field order, the second moment of area given
    directly.  The tendon count is written as an integer and every other
    field as repr(float(value)), so numpy scalars write plain numbers and a
    load/dump/load round trip is bit-for-bit stable.
    """
    lines = []
    for name, key in _SCHEMA:
        value = getattr(params, name)
        text = str(int(value)) if name == "tendon_count" else repr(float(value))
        lines.append(f"{key} = {text}")
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
