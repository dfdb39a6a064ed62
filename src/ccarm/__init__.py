"""Modeling library for a single-segment, four-tendon constant-curvature arm.

Kinematics (pose, Jacobians), quasi-statics (tension allocation, equilibrium)
and stiffness (configuration- and task-space) of a tendon-driven continuum
segment, plus nonlinear solvers replaying the bench experiments: tip-load
deflection sweeps and the constrained-tip perching benchmark.

The hot numeric kernels are plain-Python scalar math in ccarm._kernels;
ccarm.backend_name() names them.
"""

from ._kernels import backend_name
from .errors import (CcarmError, ConfigurationError, ConvergenceError,
                     InfeasibleTensionsError, ParameterError,
                     SingularConfigurationError, UnreachableTargetError)
from .kinematics import (BackboneSample, configuration_to_joints,
                         forward_kinematics, jacobian_q_psi, jacobian_set,
                         jacobian_v_psi, jacobian_w_psi,
                         jacobian_w_psi_vectorized, jacobian_x_psi,
                         sample_backbone)
from .model import (ArmParameters, Configuration, JacobianSet, JointState,
                    Pose, StiffnessSet, Wrench, default_parameters,
                    dump_parameters, load_parameters, parameters_from_mapping,
                    parse_parameter_text, wrap_configuration, wrap_delta)
from .sim import (DeflectionRecord, PerchingRecord, finite_difference_oracle,
                  mirrored_schedule, radial_load_direction, run_perching_sweep,
                  run_stiffness_sweep, solve_deflection, solve_perching_reaction)
from .statics import (EquilibriumReport, allocate_tensions, elastic_energy,
                      energy_gradient, equilibrium_residual)
from .stiffness import (configuration_stiffness, hessian_energy,
                        jacobian_q_psi_derivative_tensor,
                        jacobian_v_derivatives, jacobian_v_pinv_t_derivatives,
                        stiffness_set, task_stiffness, tendon_stiffness)

__version__ = "0.1.0"

__all__ = [
    "ArmParameters", "BackboneSample", "CcarmError", "Configuration",
    "ConfigurationError", "ConvergenceError", "DeflectionRecord",
    "EquilibriumReport", "InfeasibleTensionsError", "JacobianSet",
    "JointState", "ParameterError", "PerchingRecord", "Pose",
    "SingularConfigurationError", "StiffnessSet", "UnreachableTargetError",
    "Wrench", "allocate_tensions", "backend_name", "configuration_stiffness",
    "configuration_to_joints", "default_parameters", "dump_parameters",
    "elastic_energy", "energy_gradient", "equilibrium_residual",
    "finite_difference_oracle", "forward_kinematics", "hessian_energy",
    "jacobian_q_psi", "jacobian_q_psi_derivative_tensor", "jacobian_set",
    "jacobian_v_derivatives", "jacobian_v_pinv_t_derivatives",
    "jacobian_v_psi", "jacobian_w_psi", "jacobian_w_psi_vectorized",
    "jacobian_x_psi", "load_parameters", "mirrored_schedule",
    "parameters_from_mapping", "parse_parameter_text", "radial_load_direction",
    "run_perching_sweep", "run_stiffness_sweep", "sample_backbone", "solve_deflection",
    "solve_perching_reaction", "stiffness_set", "task_stiffness",
    "tendon_stiffness", "wrap_configuration", "wrap_delta",
]
