"""Elastic energy, quasi-static equilibrium and tendon tension allocation.

The virtual-work balance reads grad(E) = J_q^T tau + J_x^T w_ext: the
backbone's elastic gradient is carried by the tendon pulls plus the external
wrench.  Tendons can only pull, so allocation solves for the minimum-norm
non-negative tension vector, lifting along the null space of J_q^T when the
unconstrained optimum would go slack.  The smallest lift is located by an
exact least-distance solve (Lawson-Hanson NNLS); the subset check that used
to try every active set then runs only over the near-active constraints, so
the tensions are bitwise those of the exhaustive enumeration.
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


_NEAR_ACTIVE_BAND = 1e-4  # slack at the least-distance point, relative to scale


def _nnls(a, b):
    """Lawson-Hanson NNLS: x >= 0 minimizing ||a @ x - b||, or None.

    Active-set method of Lawson and Hanson (Solving Least Squares Problems,
    1974, ch. 23).  Each pass solves one least-squares problem on the passive
    columns; None means the budget of 3 * columns solves ran out.
    """
    m, n = a.shape
    tol = 10.0 * np.finfo(float).eps * max(m, n) * max(1.0, float(np.abs(a).max()))
    x = np.zeros(n)
    passive = []
    w = (a.T @ b).tolist()
    solves = 0
    while len(passive) < n:
        j = max((i for i in range(n) if i not in passive), key=w.__getitem__)
        if w[j] <= tol:
            break
        passive.append(j)
        entering = True
        while True:
            solves += 1
            if solves > 3 * n:
                return None
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if entering and s[j] <= 0.0:
                break
            entering = False
            if all(s[i] > 0.0 for i in passive):
                break
            alpha, k = min((x[i] / (x[i] - s[i]), i) for i in passive if s[i] <= 0.0)
            x += alpha * (s - x)
            passive = [i for i in passive if i != k and x[i] > tol]
            x[[i for i in range(n) if i not in passive]] = 0.0
        if entering:
            # rounding made the best column useless: drop it for this pass
            passive.pop()
            w[j] = 0.0
            continue
        x = s
        w = (a.T @ (b - a @ x)).tolist()
    return x


def _near_active(constraints, deficit, scale):
    """Rows of constraints @ z >= deficit that can be active at the optimum.

    Least-distance programming via NNLS (Lawson and Hanson, ch. 23): with
    E = [constraints^T; bound^T] and f = e_last, the NNLS residual
    r = E u - f gives the min-norm feasible z = -r[:-1] / r[-1], and r = 0
    means no z is feasible.  The bound is the deficit scaled to order one and
    relaxed by the feasibility tolerance _min_norm_shift accepts.  Returns
    the rows within _NEAR_ACTIVE_BAND of equality at that z; none when
    infeasible (z = 0, the only subset left to try, then fails the
    feasibility check), all when the NNLS budget runs out.
    """
    n, dim = constraints.shape
    bound = deficit / scale
    e = np.empty((dim + 1, n))
    e[:dim] = constraints.T
    e[dim] = bound - 1e-12
    f = np.zeros(dim + 1)
    f[dim] = 1.0
    u = _nnls(e, f)
    if u is None:
        return range(n)
    r = e @ u - f
    if not -r[dim] > 1e-24:  # -r[-1] = ||r||^2 = 1 / (1 + ||z||^2)
        return []
    slack = constraints @ (r[:dim] / -r[dim]) - bound
    return [i for i in range(n) if slack[i] <= _NEAR_ACTIVE_BAND]


def _min_norm_shift(constraints, deficit, scale):
    """Smallest z (2-norm) with constraints @ z >= deficit, or None.

    The optimizer of this tiny QP activates at most dim(z) constraints.  An
    exact least-distance (NNLS) solve locates it, then every subset of at
    most dim(z) near-active constraints is tried in ascending size order,
    with the same solves, tolerances and tie rule as trying every subset of
    all constraints.  A subset holding a row that is slack at the optimum by
    more than the band gives a z at least band * scale from it (rows have
    norm <= 1: the null basis has orthonormal columns), so its ||z||^2 is at
    least (band * scale)^2 above the minimum, far more than the feasibility
    tolerance moves it: such a candidate neither wins nor blocks one that
    does.  The result is bitwise that of the exhaustive enumeration, from
    far fewer solves.
    """
    n, dim = constraints.shape
    eq_tol = 1e-10 * scale
    feas_tol = 1e-12 * scale
    best = None
    best_norm2 = np.inf
    near = _near_active(constraints, deficit, scale)
    for size in range(0, dim + 1):
        for idx in itertools.combinations(near, size):
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
    grad = energy_gradient(params, psi)
    external = jacobian_x_psi(params, psi).T @ w_ext.as_vector()
    tau = _check_tensions(_solve_tension_qp(jq_t, grad - external, float(pretension)),
                          params.tendon_count)
    # bitwise equilibrium_residual(params, psi, tau, w_ext), from the same products
    generalized = grad - jq_t @ tau
    return EquilibriumReport(
        residual=generalized - external,
        tensions=tau,
        generalized_force=generalized,
    )
