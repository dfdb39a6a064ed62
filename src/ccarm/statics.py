"""Elastic energy, quasi-static equilibrium and tendon tension allocation.

The virtual-work balance reads grad(E) = J_q^T tau + J_x^T w_ext: the
backbone's elastic gradient is carried by the tendon pulls plus the external
wrench.  Tendons can only pull, so allocation solves for the minimum-norm
non-negative tension vector, lifting along the null space of J_q^T when the
unconstrained optimum would go slack.  The smallest lift is a least-distance
QP: the positive set of one NNLS (Lawson-Hanson, on Python floats with an
orthogonal factorization) is its active set, one lstsq on those rows gives
the lift, and a feasibility check guards it.  The result is a KKT point of
the QP, not bitwise the pick of an enumeration over subsets.  An allocation
makes one NNLS, at most one svd and at most two lstsq calls for every
tendon count.
"""

import itertools
import math
import sys
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import ConfigurationError, ConvergenceError, InfeasibleTensionsError
from .kinematics import jacobian_q_psi, jacobian_x_psi
from .model import _readonly


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
    values = tau.tolist()
    if not all(map(math.isfinite, values)):
        raise ConfigurationError(f"tendon tensions must be finite, got {tau}")
    if min(values) < -1e-12:
        raise ConfigurationError(f"negative tendon tension: {min(values)!r}")
    return tau


def equilibrium_residual(params, psi, tensions, w_ext):
    """Configuration-space force imbalance grad(E) - J_q^T tau - J_x^T w_ext."""
    tau = _check_tensions(tensions, params.tendon_count)
    res = energy_gradient(params, psi) - jacobian_q_psi(params, psi).T @ tau
    if w_ext is not None:
        res -= jacobian_x_psi(params, psi).T @ w_ext.as_vector()
    return res


# The allocation squares tension-sized numbers (z @ z, norms); a pretension
# past 2**500 N (about 3.3e150) could overflow them and fake an infeasible QP.
_MAX_PRETENSION = 2.0 ** 500

_EPS = sys.float_info.epsilon

# A Gram-Schmidt pivot below this, relative to its column, counts as
# dependent: the float NNLS then trades that column in or leaves it out.
_MIN_PIVOT = 1e-8


def _dot(u, v):
    return sum(map(mul, u, v))


def _back_substitute(factor, y):
    """Solve R x = y for the triangular R held in factor."""
    x = [0.0] * len(factor)
    for k in reversed(range(len(factor))):
        x[k] = (y[k] - sum(factor[j][2][k] * x[j] for j in range(k + 1, len(factor)))
                ) / factor[k][2][k]
    return x


def _passive_solve(a, b, passive, factor):
    """Least squares over the passive columns of a, by Gram-Schmidt QR run twice.

    factor holds (column, q, column of R, q @ b) for a prefix of passive and
    is brought up to date in place.  Returns (coefficients, None), or (None,
    weights) when a column is numerically dependent on the factored ones
    before it, which the weights combine into it.
    """
    keep = 0
    while keep < min(len(factor), len(passive)) and factor[keep][0] == passive[keep]:
        keep += 1
    del factor[keep:]
    for i in passive[keep:]:
        v = a[i]
        coeffs = [0.0] * len(factor)
        for _ in range(2):
            for k, f in enumerate(factor):
                c = _dot(f[1], v)
                coeffs[k] += c
                v = [vi - c * qi for vi, qi in zip(v, f[1])]
        pivot = math.sqrt(_dot(v, v))
        if not pivot > _MIN_PIVOT * math.sqrt(_dot(a[i], a[i])):
            return None, _back_substitute(factor, coeffs)
        q = [vi / pivot for vi in v]
        factor.append((i, q, coeffs + [pivot], _dot(q, b)))
    return _back_substitute(factor, [f[3] for f in factor]), None


def _nnls(a, b):
    """Lawson-Hanson NNLS on floats: x >= 0 minimizing ||A x - b||, or None.

    a is the list of A's columns and b a list, all Python floats.  Active-set
    method of Lawson and Hanson (Solving Least Squares Problems, 1974,
    ch. 23).  Each pass solves one least-squares problem on the passive
    columns by an orthogonal factorization (normal equations would square
    the condition number, which an ill-scaled least-distance point cannot
    afford).  Removals cannot shrink a pivot, so a column turns out
    dependent on entry: it then takes the place of the passive column that
    moving along its combination zeroes first (a twin), or sits out the pass
    when none exists.  None means the budget of 3 * columns solves ran out
    or a column was dependent after such a trade.
    """
    n = len(a)
    tol = 10.0 * _EPS * max(len(b), n) * max(1.0, max(map(abs, itertools.chain(*a))))
    x = [0.0] * n
    passive = []
    factor = []
    w = [_dot(col, b) for col in a]
    solves = 0
    while len(passive) < n:
        j = max(range(n), key=w.__getitem__)
        if w[j] <= tol:
            break
        passive.append(j)
        entering = True
        while True:
            solves += 1
            if solves > 3 * n:
                return None
            coeffs, weights = _passive_solve(a, b, passive, factor)
            if coeffs is None:
                if not entering:  # removals cannot shrink a pivot; a trade can
                    return None
                # j combines the other passive columns, so walking x along the
                # combination keeps A x: trade j for the first column (a twin)
                # the walk zeroes, or leave j out if the walk zeroes none
                steps = [(x[f[0]] / wt, f[0]) for f, wt in zip(factor, weights) if wt > 0.0]
                if not steps:
                    break
                alpha, k = min(steps)
                for f, wt in zip(factor, weights):
                    x[f[0]] -= alpha * wt
                x[j] = alpha
                passive = [i for i in passive if i != k and x[i] > tol]
                x = [x[i] if i in passive else 0.0 for i in range(n)]
                entering = False
                continue
            s = [0.0] * n
            for i, c in zip(passive, coeffs):
                s[i] = c
            if entering and s[j] <= 0.0:
                break
            entering = False
            if all(s[i] > 0.0 for i in passive):
                break
            alpha, k = min((x[i] / (x[i] - s[i]), i) for i in passive if s[i] <= 0.0)
            x = [xi + alpha * (si - xi) for xi, si in zip(x, s)]
            passive = [i for i in passive if i != k and x[i] > tol]
            x = [x[i] if i in passive else 0.0 for i in range(n)]
        if entering:
            # j is dependent, or rounding made it useless: drop it for this pass
            passive.pop()
            w[j] = 0.0
            continue
        x = s
        r = b  # b - A x = b - Q Q^T b
        for _, q, _, qb in factor:
            r = [ri - qb * qi for ri, qi in zip(r, q)]
        w = [-math.inf if s[i] else _dot(col, r) for i, col in enumerate(a)]  # skip passive
    return x


def _active_set(rows, deficit, scale):
    """Rows active at the smallest z with rows @ z >= deficit; None if infeasible.

    rows and deficit are Python floats.  Least-distance programming via NNLS
    (Lawson and Hanson, ch. 23): with E = [rows^T; bound^T], f = e_last and
    r = E u - f, the min-norm feasible z is -r[:-1] / r[-1], and r = 0 means
    no z is feasible.  The bound is the deficit scaled to order one, relaxed
    by the feasibility tolerance.  Rows with u_i > 0 hold with equality at z
    with multipliers u_i / -r[-1] > 0: the positive set is the active set.
    Raises ConvergenceError when the NNLS does not converge.
    """
    dim = len(rows[0])
    e = [row + [d / scale - 1e-12] for row, d in zip(rows, deficit)]  # the columns of E
    u = _nnls(e, [0.0] * dim + [1.0])
    if u is None:
        raise ConvergenceError(
            "tension allocation's NNLS did not converge (its budget of "
            f"{3 * len(e)} solves ran out or a pivot was dependent)")
    # -r[-1] = ||r||^2 = 1 / (1 + ||z||^2)
    if not 1.0 - sum(col[dim] * ui for col, ui in zip(e, u) if ui) > 1e-24:
        return None
    return [i for i, ui in enumerate(u) if ui > 0.0]


def _min_norm_shift(constraints, deficit, scale):
    """Smallest z (2-norm) with constraints @ z >= deficit, or None.

    One lstsq on the NNLS positive set (see _active_set), then a feasibility
    check: a KKT point of the QP (Nocedal and Wright, Numerical Optimization,
    2006, ch. 16) to rounding, not bitwise an enumeration's pick.  None when
    the NNLS finds no feasible z or the solve fails either check.
    """
    feas_tol = 1e-12 * scale
    deficits = deficit.tolist()
    if all(d - feas_tol <= 0.0 for d in deficits):
        return np.zeros(constraints.shape[1])
    active = _active_set(constraints.tolist(), deficits, scale)
    if active is None:
        return None
    sub = constraints[active]
    rhs = deficit[active]
    z, *_ = np.linalg.lstsq(sub, rhs, rcond=None)
    if np.linalg.norm(sub @ z - rhs) > 1e-10 * scale:
        return None
    if not np.all(constraints @ z >= deficit - feas_tol):
        return None
    return z


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
    taus = tau.tolist()
    if min(taus) < floor - 1e-15:
        _, singulars, vt = np.linalg.svd(jq_t)
        singulars = singulars.tolist()
        rank = sum(s > singulars[0] * 1e-12 for s in singulars) if singulars else 0
        null_basis = vt[rank:].T                   # n x d, orthonormal columns
        if null_basis.shape[1] == 0:
            raise InfeasibleTensionsError("tendon map has no null space to lift tensions")
        shift = _min_norm_shift(null_basis, floor - tau, max(scale, floor, 1.0))
        if shift is None:
            raise InfeasibleTensionsError(
                f"no tension vector >= {floor!r} N realizes the requested wrench"
            )
        tau = tau + null_basis @ shift
        taus = tau.tolist()
    # scrub sub-rounding negatives so reports honor the pull-only contract
    if any(floor - 1e-12 < t < floor for t in taus):
        tau[(tau < floor) & (tau > floor - 1e-12)] = floor
    return tau


def allocate_tensions(params, psi, w_ext, pretension=0.0):
    """Tensions realizing equilibrium for the given wrench, pull-only.

    Solves J_q^T tau = grad(E) - J_x^T w_ext for the minimum-norm tau, then,
    if any entry falls below the pretension floor, adds the smallest
    null-space combination restoring tau >= pretension.  w_ext None means no
    wrench.  Raises ConfigurationError for a negative or non-finite
    pretension or one above 2**500 N (about 3.3e150, where the allocation's
    squared norms could overflow) and InfeasibleTensionsError when no
    non-negative solution exists.
    """
    if not (math.isfinite(pretension) and pretension >= 0.0):
        raise ConfigurationError(
            f"pretension must be finite and >= 0, got {float(pretension)!r}")
    if pretension > _MAX_PRETENSION:
        raise ConfigurationError(
            f"pretension {pretension:.3g} N exceeds {_MAX_PRETENSION:.3g} N, past which "
            "the tension allocation's squared norms overflow")
    jq_t = jacobian_q_psi(params, psi).T
    grad = energy_gradient(params, psi)
    # A zero wrench (any signs of zero) projects to +0.0 entries, and
    # x - (+0.0) has the bits of x for every x, -0.0 included: skip it.
    external = None
    if w_ext is not None and (w_ext.force.any() or w_ext.moment.any()):
        external = jacobian_x_psi(params, psi).T @ w_ext.as_vector()
    b = grad if external is None else grad - external
    tau = _check_tensions(_solve_tension_qp(jq_t, b, float(pretension)), params.tendon_count)
    # bitwise equilibrium_residual(params, psi, tau, w_ext), from the same products
    generalized = grad - jq_t @ tau
    return EquilibriumReport(
        residual=generalized if external is None else generalized - external,
        tensions=tau,
        generalized_force=generalized,
    )
