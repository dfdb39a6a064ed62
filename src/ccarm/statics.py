"""Elastic energy, quasi-static equilibrium and tendon tension allocation.

The virtual-work balance reads grad(E) = J_q^T tau + J_x^T w_ext: the
backbone's elastic gradient is carried by the tendon pulls plus the external
wrench.  Tendons can only pull, so allocation solves for the minimum-norm
non-negative tension vector, lifting along the null space of J_q^T when the
unconstrained optimum would go slack.  The smallest lift is located by an
exact least-distance solve (Lawson-Hanson NNLS, on Python floats with an
orthogonal factorization).  A multiplier bound on the near-active rows it
finds then proves most of their subsets infeasible on floats, with a margin
that covers the rounding of the float and numpy solves; only the rest go
through the subset check that used to try every active set, with the same
lstsq solves, tolerances and tie rule, so the tensions are bitwise those of
the exhaustive enumeration.  LAPACK runs for the min-norm lstsq, the SVD
null basis and each subset left to check (one, for a lift off a
nondegenerate vertex).
"""

import itertools
import math
import sys
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import ConfigurationError, InfeasibleTensionsError
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


_NEAR_ACTIVE_BAND = 1e-4  # slack at the least-distance point, relative to scale

# The allocation squares tension-sized numbers (z @ z, norms); a pretension
# past 2**500 N (about 3.3e150) could overflow them and fake an infeasible QP.
_MAX_PRETENSION = 2.0 ** 500

_EPS = sys.float_info.epsilon


def _rounding(count):
    """Bound on a dot product's rounding, relative to the sum of |terms|.

    A float and a numpy dot product of length count each err by at most
    (count + 2) eps of that sum, so they differ by at most twice that; this
    doubles it again.
    """
    return 4.0 * (count + 2) * _EPS


# A subset's float solve and LAPACK's lstsq both have a forward error of a
# few hundred eps times the condition number at these sizes; the subset
# certificate allows _SOLVE_MARGIN per unit of condition number, and past
# _MAX_CONDITION it certifies nothing.
_SOLVE_MARGIN = 1e-10
_MAX_CONDITION = 1e6

# A Gram-Schmidt pivot below this, relative to its column, counts as
# dependent: the float NNLS then gives up, as when its budget runs out.
_MIN_PIVOT = 1e-8


def _dot(u, v):
    return sum(map(mul, u, v))


def _orthogonalize(basis, v):
    """v less its projection on an orthonormal basis, by Gram-Schmidt run twice.

    Returns (coefficients on the basis, remainder, remainder's norm).
    """
    coeffs = [0.0] * len(basis)
    for _ in range(2):
        for j, q in enumerate(basis):
            c = _dot(q, v)
            coeffs[j] += c
            v = [vi - c * qi for vi, qi in zip(v, q)]
    return coeffs, v, math.sqrt(_dot(v, v))


def _passive_solve(a, b, passive, factor):
    """Least squares over the passive columns of a, by Gram-Schmidt QR.

    factor holds (column, q, column of R, q @ b) for a prefix of passive and
    is brought up to date in place.  Returns the coefficients, or None when
    a column is numerically dependent on the ones before it.
    """
    keep = 0
    while keep < min(len(factor), len(passive)) and factor[keep][0] == passive[keep]:
        keep += 1
    del factor[keep:]
    for i in passive[keep:]:
        coeffs, v, pivot = _orthogonalize([f[1] for f in factor], a[i])
        if not pivot > _MIN_PIVOT * math.sqrt(_dot(a[i], a[i])):
            return None
        q = [vi / pivot for vi in v]
        factor.append((i, q, coeffs + [pivot], _dot(q, b)))
    x = [0.0] * len(factor)
    for k in reversed(range(len(factor))):
        x[k] = (factor[k][3] - sum(factor[j][2][k] * x[j] for j in range(k + 1, len(factor)))
                ) / factor[k][2][k]
    return x


def _nnls(a, b):
    """Lawson-Hanson NNLS on floats: x >= 0 minimizing ||A x - b||, or None.

    a is the list of A's columns and b a list, all Python floats.  Active-set
    method of Lawson and Hanson (Solving Least Squares Problems, 1974,
    ch. 23).  Each pass solves one least-squares problem on the passive
    columns by an orthogonal factorization (normal equations would square
    the condition number, which an ill-scaled least-distance point cannot
    afford); None means the budget of 3 * columns solves ran out or a
    passive column was numerically dependent on the others.
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
            coeffs = _passive_solve(a, b, passive, factor)
            if coeffs is None:
                return None
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
            # rounding made the best column useless: drop it for this pass
            passive.pop()
            w[j] = 0.0
            continue
        x = s
        r = b  # b - A x = b - Q Q^T b
        for _, q, _, qb in factor:
            r = [ri - qb * qi for ri, qi in zip(r, q)]
        w = [-math.inf if s[i] else _dot(col, r) for i, col in enumerate(a)]  # skip passive
    return x


def _near_active(rows, deficit, scale):
    """Rows of rows @ z >= deficit that can be active at the optimum.

    rows and deficit are Python floats.  Least-distance programming via NNLS
    (Lawson and Hanson, ch. 23): with E = [rows^T; bound^T] and f = e_last,
    the NNLS residual r = E u - f gives the min-norm feasible z =
    -r[:-1] / r[-1], and r = 0 means no z is feasible.  The bound is the
    deficit scaled to order one and relaxed by the feasibility tolerance
    _min_norm_shift accepts.  Returns the rows within _NEAR_ACTIVE_BAND of
    equality at that z (the band is far wider than the NNLS's rounding) and
    the rows with a positive NNLS weight, the active set it found; no rows
    when infeasible (z = 0, the only subset left to try, then fails the
    feasibility check), all rows and no active set when the NNLS gives up.
    """
    n, dim = len(rows), len(rows[0])
    bound = [d / scale for d in deficit]
    e = [row + [b - 1e-12] for row, b in zip(rows, bound)]  # the columns of E
    u = _nnls(e, [0.0] * dim + [1.0])
    if u is None:
        return range(n), ()
    used = [(col, ui) for col, ui in zip(e, u) if ui]
    r = [sum(col[k] * ui for col, ui in used) for k in range(dim + 1)]
    r[dim] -= 1.0
    if not -r[dim] > 1e-24:  # -r[-1] = ||r||^2 = 1 / (1 + ||z||^2)
        return [], ()
    z = [v / -r[dim] for v in r[:dim]]
    near = [i for i in range(n) if _dot(rows[i], z) - bound[i] <= _NEAR_ACTIVE_BAND]
    return near, tuple(i for i in range(n) if u[i] > 0.0)


def _extend(state, row, rhs):
    """Min-norm solution of one more equality row, by Gram-Schmidt on floats.

    state is (orthonormal rows Q, rows of L^-1 where Q = L^-1 S, the min-norm
    z of S z = rhs, its coordinates on Q, ||L^-1||_F^2, ||S||_F^2, and
    kappa = ||S||_F ||L^-1||_F, which bounds S's condition number).  Returns
    None when kappa passes _MAX_CONDITION.
    """
    basis, inverse, z, coords, inverse2, norm2, _ = state
    row_norm = math.sqrt(_dot(row, row))
    coeffs, v, pivot = _orthogonalize(basis, row)
    if not pivot * _MAX_CONDITION > row_norm:
        return None
    q = [vi / pivot for vi in v]
    # q = (row - sum_j coeffs[j] q_j) / pivot, and q_j = sum_l inverse[j][l] row_l
    new = [-sum(coeffs[j] * inverse[j][col] for j in range(col, len(basis))) / pivot
           for col in range(len(basis))] + [1.0 / pivot]
    inverse2 += _dot(new, new)
    norm2 += row_norm * row_norm
    kappa = math.sqrt(inverse2 * norm2)
    if kappa > _MAX_CONDITION:
        return None
    step = (rhs - _dot(row, z)) / pivot  # row @ q = pivot
    return (basis + [q], inverse + [new], [zi + step * qi for zi, qi in zip(z, q)],
            coords + [step], inverse2, norm2, kappa)


def _core_rows(rows, rhs, feas_tol):
    """Positions of rows P of rows S that every feasible subset of S holds.

    With z_S = S^T lam the min-norm solution of S z = rhs, R a subset of S
    and T the rest, the min-norm z_R = P_R z_S violates each row t of T by
    v_t = S_t (z_S - z_R), and lam_T @ v = D^2 with D = ||z_S - z_R|| >=
    sigma_min(S) ||lam_T||.  Split S into P, whose multipliers are at least
    lam_p > 0, and Z, whose |multipliers| sum to lam_z.  When R misses a
    row of P, the rows of T in P carry lam @ v >= D (D - norm_max lam_z), so
    one of them is violated by at least sigma (sigma lam_p - norm_max lam_z).
    Subsets of S have condition numbers at most kappa (see _extend), so
    lstsq's z_R is within _SOLVE_MARGIN * kappa * ||z_S|| of z_R, and the
    numpy products checking it differ from exact ones by rounding; the
    float multipliers and sigma_min are given _SOLVE_MARGIN * kappa^2
    relative.  Returns the largest such P whose bound clears the
    feasibility tolerance, or None (also when S is too ill-conditioned).
    """
    state = ([], [], [0.0] * len(rows[0]), [], 0.0, 0.0, 1.0)
    for row, r in zip(rows, rhs):
        state = _extend(state, row, r)
        if state is None:
            return None
    _, inverse, z, coords, inverse2, _, kappa = state
    size = len(coords)
    lam = [sum(inverse[j][col] * coords[j] for j in range(col, size)) for col in range(size)]
    drift = _SOLVE_MARGIN * kappa * kappa
    spread = drift * math.sqrt(_dot(lam, lam))
    sigma = 1.0 / math.sqrt(inverse2 * (1.0 + drift))
    norm_max = max(math.sqrt(_dot(row, row)) for row in rows)
    z_size = math.sqrt(_dot(z, z))
    need = feas_tol + (2.0 * _SOLVE_MARGIN * kappa + _rounding(len(z))) * z_size * norm_max
    ranked = sorted(range(size), key=lam.__getitem__, reverse=True)
    for count in range(size, 0, -1):
        lam_p = lam[ranked[count - 1]] - spread
        lam_z = sum(abs(lam[i]) + spread for i in ranked[count:])
        if lam_p > 0.0 and sigma * (sigma * lam_p - norm_max * lam_z) > need:
            return sorted(ranked[:count])
    return None


def _uncovered(near, group, core, dim):
    """Subsets of near with 1 to dim rows, in the enumeration's order.

    Leaves out the subsets of group that miss a row of core.
    """
    loose = [i for i in group if i not in core]
    others = [i for i in near if i not in group]
    found = []
    for size in range(1, dim + 1):
        for count in range(min(size, len(others)) + 1):
            for extra in itertools.combinations(others, count):
                if count:
                    parts = itertools.combinations(group, size - count)
                elif size >= len(core):
                    parts = (core + more for more in itertools.combinations(
                        loose, size - len(core)))
                else:
                    continue
                found += [tuple(sorted(extra + part)) for part in parts]
    return sorted(found, key=lambda idx: (len(idx), idx))


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
    does.

    The near-active rows, or failing that the NNLS's positive set, usually
    prove on floats that every subset of theirs missing one of their core
    rows is infeasible (see _core_rows, whose margin covers the float
    solve's error, lstsq's and the rounding of the feasibility check), so
    those subsets are never solved.  Where the rows tie (more near-active
    rows than dim(z)) and the positive set does not certify, every subset
    is still tried.  The result is bitwise that of the exhaustive
    enumeration, from far fewer solves.
    """
    dim = constraints.shape[1]
    eq_tol = 1e-10 * scale
    feas_tol = 1e-12 * scale
    rows = constraints.tolist()
    deficits = deficit.tolist()
    if all(d - feas_tol <= 0.0 for d in deficits):
        return np.zeros(dim)  # z = 0 is tried first, and no norm2 < 0 follows
    near, active = _near_active(rows, deficits, scale)
    subsets = (idx for size in range(1, dim + 1) for idx in itertools.combinations(near, size))
    for group in dict.fromkeys((tuple(near), active)):
        if 1 < len(group) <= dim and set(group).issubset(near):
            core = _core_rows([rows[i] for i in group], [deficits[i] for i in group], feas_tol)
            if core is not None:
                subsets = _uncovered(near, group, tuple(group[k] for k in core), dim)
                break
    best = None
    best_norm2 = np.inf
    for idx in subsets:
        sub = constraints[list(idx)]
        rhs = deficit[list(idx)]
        z, *_ = np.linalg.lstsq(sub, rhs, rcond=None)
        if np.linalg.norm(sub @ z - rhs) > eq_tol:
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
