"""Modeling library for a single-segment, four-tendon constant-curvature arm.

Kinematics (pose, Jacobians), quasi-statics (tension allocation, equilibrium)
and stiffness (configuration- and task-space) of a tendon-driven continuum
segment, plus nonlinear solvers replaying the bench experiments: tip-load
deflection sweeps and the constrained-tip perching benchmark.

The hot numeric kernels are plain-Python scalar math in ccarm._kernels;
ccarm.backend_name() names them.

Public names and submodules load on first access (PEP 562, as in the
Scientific Python SPEC 1): ``import ccarm`` imports no submodule, and the
sweeps and ``default_parameters()`` run without numpy.  numpy loads with
``kinematics`` or ``stiffness``, or where a function builds an array.
"""

import importlib

__version__ = "0.1.0"

# The public names each submodule defines.
_EXPORTS = {
    "_kernels": ("backend_name",),
    "errors": ("CcarmError", "ConfigurationError", "ConvergenceError",
               "InfeasibleTensionsError", "ParameterError", "SingularConfigurationError",
               "UnreachableTargetError"),
    "kinematics": ("BackboneSample", "configuration_to_joints", "forward_kinematics",
                   "jacobian_q_psi", "jacobian_set", "jacobian_v_psi", "jacobian_w_psi",
                   "jacobian_w_psi_vectorized", "jacobian_x_psi", "sample_backbone"),
    "model": ("ArmParameters", "Configuration", "JacobianSet", "JointState", "Pose",
              "StiffnessSet", "Wrench", "default_parameters", "dump_parameters",
              "load_parameters", "parameters_from_mapping", "parse_parameter_text",
              "wrap_configuration", "wrap_delta"),
    "sim": ("DeflectionRecord", "PerchingRecord", "finite_difference_oracle",
            "mirrored_schedule", "radial_load_direction", "run_perching_sweep",
            "run_stiffness_sweep", "solve_deflection", "solve_perching_reaction"),
    "statics": ("EquilibriumReport", "allocate_tensions", "elastic_energy",
                "energy_gradient", "equilibrium_residual"),
    "stiffness": ("configuration_stiffness", "hessian_energy",
                  "jacobian_q_psi_derivative_tensor", "jacobian_v_derivatives",
                  "jacobian_v_pinv_t_derivatives", "stiffness_set", "task_stiffness",
                  "tendon_stiffness"),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it on the package, so this runs once
        return importlib.import_module(f"{__name__}.{name}")
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # bound as an eager import would bind it
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
