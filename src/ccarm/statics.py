"""Elastic energy, quasi-static equilibrium and tendon tension allocation.

The virtual-work balance reads grad(E) = J_q^T tau + J_x^T w_ext: the
backbone's elastic gradient is carried by the tendon pulls plus the external
wrench.  Tendons can only pull, so allocation solves for the minimum-norm
non-negative tension vector, lifting along the null space of J_q^T when the
unconstrained optimum would go slack.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InfeasibleTensionsError
from .kinematics import jacobian_q_psi, jacobian_x_psi
from .model import Wrench, _readonly


@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of a tension allocation.

    residual is the configuration-space force imbalance re-evaluated from the
    returned tensions (never hidden); generalized_force is
    grad(E) - J_q^T tau, which at equilibrium equals J_x^T w_ext.
    """

    residual: np.ndarray           # N*m-scale 2-vector
    tensions: np.ndarray           # N
    generalized_force: np.ndarray  # 2-vector

    def __post_init__(self):
        object.__setattr__(self, "residual", _readonly(self.residual, (2,)))
        object.__setattr__(self, "tensions", _readonly(self.tensions, (-1,)))
        object.__setattr__(self, "generalized_force", _readonly(self.generalized_force, (2,)))


def elastic_energy(params, psi):
    """Bending energy stored in the backbone: theta^2 E_p I_p / (2 L), J."""
    return psi.theta ** 2 * params.flexural_rigidity / (2.0 * params.backbone_length)


def energy_gradient(params, psi):
    """Gradient of the elastic energy wrt (theta, delta)."""
    return np.array([psi.theta * params.flexural_rigidity / params.backbone_length, 0.0])


def _check_tensions(tensions, count):
    tau = np.asarray(tensions, dtype=float).reshape(-1)
    if tau.shape != (count,):
        raise ConfigurationError(f"expected {count} tensions, got {tau.shape[0]}")
    if not np.isfinite(tau).all():
        raise ConfigurationError(f"tendon tensions must be finite, got {tau}")
    if np.min(tau) < -1e-12:
        raise ConfigurationError(f"negative tendon tension: {np.min(tau)!r}")
    return tau


def equilibrium_residual(params, psi, tensions, w_ext):
    """Configuration-space force imbalance grad(E) - J_q^T tau - J_x^T w_ext."""
    tau = _check_tensions(tensions, params.tendon_count)
    res = energy_gradient(params, psi) - jacobian_q_psi(params, psi).T @ tau
    if w_ext is not None:
        res -= jacobian_x_psi(params, psi).T @ w_ext.as_vector()
    return res


def _min_norm_shift(constraints, deficit, scale):
    """Smallest z (2-norm) with constraints @ z >= deficit, or None.

    Exact active-set enumeration: the optimizer of this tiny QP activates at
    most dim(z) constraints, so trying every subset of that size is both
    exhaustive and deterministic.
    """
    n, dim = constraints.shape
    eq_tol = 1e-10 * scale
    feas_tol = 1e-12 * scale
    best = None
    best_norm2 = np.inf
    for size in range(0, dim + 1):
        for idx in itertools.combinations(range(n), size):
            if size == 0:
                z = np.zeros(dim)
            else:
                rows = constraints[list(idx)]
                rhs = deficit[list(idx)]
                z, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
                if np.linalg.norm(rows @ z - rhs) > eq_tol:
                    continue
            if np.all(constraints @ z >= deficit - feas_tol):
                norm2 = float(z @ z)
                if norm2 < best_norm2 - 1e-30:
                    best = z
                    best_norm2 = norm2
    return best


def _solve_tension_qp(jq_t, b, floor):
    """Minimum-norm tau with jq_t @ tau = b and tau >= floor.

    Raises InfeasibleTensionsError when b leaves the row space of jq_t or no
    tension vector clears the floor.
    """
    scale = max(1.0, float(np.linalg.norm(b)))
    tau, *_ = np.linalg.lstsq(jq_t, b, rcond=None)
    if np.linalg.norm(jq_t @ tau - b) > 1e-9 * scale:
        raise InfeasibleTensionsError(
            "requested wrench lies outside the span of the tendon map at this configuration"
        )
    if np.min(tau) < floor - 1e-15:
        _, singulars, vt = np.linalg.svd(jq_t)
        rank = int(np.sum(singulars > singulars[0] * 1e-12)) if singulars.size else 0
        null_basis = vt[rank:].T                   # n x d, orthonormal columns
        if null_basis.shape[1] == 0:
            raise InfeasibleTensionsError("tendon map has no null space to lift tensions")
        shift = _min_norm_shift(null_basis, floor - tau, max(scale, floor, 1.0))
        if shift is None:
            raise InfeasibleTensionsError(
                f"no tension vector >= {floor!r} N realizes the requested wrench"
            )
        tau = tau + null_basis @ shift
    # scrub sub-rounding negatives so reports honor the pull-only contract
    tau[(tau < floor) & (tau > floor - 1e-12)] = floor
    return tau


def allocate_tensions(params, psi, w_ext, pretension=0.0):
    """Tensions realizing equilibrium for the given wrench, pull-only.

    Solves J_q^T tau = grad(E) - J_x^T w_ext for the minimum-norm tau, then,
    if any entry falls below the pretension floor, adds the smallest
    null-space combination restoring tau >= pretension.  Raises
    ConfigurationError for a negative or non-finite pretension and
    InfeasibleTensionsError when no non-negative solution exists.
    """
    if not (math.isfinite(pretension) and pretension >= 0.0):
        raise ConfigurationError(f"pretension must be finite and >= 0, got {pretension!r}")
    if w_ext is None:
        w_ext = Wrench.zero()
    jq_t = jacobian_q_psi(params, psi).T
    b = energy_gradient(params, psi) - jacobian_x_psi(params, psi).T @ w_ext.as_vector()
    tau = _solve_tension_qp(jq_t, b, float(pretension))
    report = EquilibriumReport(
        residual=equilibrium_residual(params, psi, tau, w_ext),
        tensions=tau,
        generalized_force=energy_gradient(params, psi) - jq_t @ tau,
    )
    return report
