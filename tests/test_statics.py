import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccarm import (Configuration, ConfigurationError, ConvergenceError,
                   InfeasibleTensionsError, Wrench, allocate_tensions, cli, elastic_energy,
                   energy_gradient, equilibrium_residual, jacobian_q_psi, jacobian_x_psi,
                   statics)
from ccarm.sim import finite_difference_oracle
from ccarm.statics import _min_norm_shift, _solve_tension_qp

from conftest import random_configs


def test_energy_examples(params):
    assert elastic_energy(params, Configuration(0.0, 0.4)) == 0.0
    # hand value: (pi/2)^2 * E_p I_p / (2 L) with the default constants
    e = elastic_energy(params, Configuration(math.pi / 2, 0.0))
    assert e == pytest.approx(1.2112e-2, rel=1e-4)


def test_energy_is_delta_independent(params, rng):
    for _ in range(20):
        theta = rng.uniform(0, math.pi)
        e1 = elastic_energy(params, Configuration(theta, rng.uniform(-3, 3)))
        e2 = elastic_energy(params, Configuration(theta, rng.uniform(-3, 3)))
        assert e1 == e2


def test_gradient_matches_finite_differences(params, rng):
    for psi in random_configs(rng, 20, theta_lo=0.01):
        fd = finite_difference_oracle(
            lambda x: elastic_energy(params, Configuration(x[0], x[1])),
            [psi.theta, psi.delta], 1e-6)
        grad = energy_gradient(params, psi)
        assert np.linalg.norm(grad - fd.ravel()) / np.linalg.norm(grad) < 1e-8
        assert grad[1] == 0.0


def test_residual_trivial_cases(params):
    zero = equilibrium_residual(params, Configuration(0, 0), np.zeros(4), Wrench.zero())
    assert np.array_equal(zero, [0.0, 0.0])
    res = equilibrium_residual(params, Configuration(0.3, 0.0), np.zeros(4), Wrench.zero())
    expected = 0.3 * params.flexural_rigidity / params.backbone_length
    assert np.allclose(res, [expected, 0.0], rtol=1e-15)


def test_residual_rejects_negative_tension(params):
    with pytest.raises(ConfigurationError, match="negative"):
        equilibrium_residual(params, Configuration(0.3, 0.0),
                             np.array([1.0, -0.2, 0.0, 0.0]), Wrench.zero())


def test_allocation_straight_unloaded(params):
    report = allocate_tensions(params, Configuration(0, 0), Wrench.zero(), 0.0)
    assert np.array_equal(report.tensions, np.zeros(4))
    assert np.linalg.norm(report.residual) == 0.0


def test_allocation_pure_bend_hand_case(params):
    # at delta = 0 the constraint reduces to r (tau1 - tau3) = grad E_theta and
    # tau2 = tau4; the non-negativity lift lands on tau = [gradE/r, 0, 0, 0]
    psi = Configuration(0.5, 0.0)
    report = allocate_tensions(params, psi, Wrench.zero(), 0.0)
    expected = energy_gradient(params, psi)[0] / params.pitch_radius
    assert np.allclose(report.tensions, [expected, 0, 0, 0], atol=1e-12)
    assert np.linalg.norm(report.residual) < 1e-9


def _qp_grid_oracle(jq_t, b, floor, rounds=12, grid=41):
    """Brute-force grid refinement over the null space of jq_t."""
    tau_star, *_ = np.linalg.lstsq(jq_t, b, rcond=None)
    _, singulars, vt = np.linalg.svd(jq_t)
    rank = int(np.sum(singulars > singulars[0] * 1e-12))
    basis = vt[rank:].T
    dim = basis.shape[1]
    center = np.zeros(dim)
    half = 2.0 * (np.linalg.norm(tau_star) + abs(floor) + 1.0)
    best = None
    for _ in range(rounds):
        axes = np.meshgrid(*[np.linspace(c - half, c + half, grid) for c in center],
                           indexing="ij")
        zs = np.column_stack([a.ravel() for a in axes])
        taus = tau_star + zs @ basis.T
        feasible = np.min(taus, axis=1) >= floor - 1e-12
        assert np.any(feasible), "oracle grid missed the feasible set"
        costs = np.einsum("ij,ij->i", taus, taus)
        costs[~feasible] = np.inf
        winner = int(np.argmin(costs))
        if best is None or costs[winner] <= best[0]:
            best = (costs[winner], zs[winner])
        center = best[1]
        # keep several coarse-grid cells inside the next window so the
        # refinement cannot strand on a constraint facet
        half *= 8.0 / (grid - 1)
    return tau_star + basis @ best[1]


def test_allocation_matches_grid_oracle(params, rng):
    for psi in random_configs(rng, 5, theta_lo=0.2):
        w = Wrench(force=rng.uniform(-0.5, 0.5, 3), moment=rng.uniform(-0.02, 0.02, 3))
        report = allocate_tensions(params, psi, w, 0.0)
        jq_t = jacobian_q_psi(params, psi).T
        b = energy_gradient(params, psi) - jacobian_x_psi(params, psi).T @ w.as_vector()
        oracle = _qp_grid_oracle(jq_t, b, 0.0)
        assert np.allclose(report.tensions, oracle, atol=2e-4)
        assert np.linalg.norm(report.tensions) <= np.linalg.norm(oracle) + 1e-6


def test_allocation_round_trip(params, rng):
    for psi in random_configs(rng, 40):
        w = Wrench(force=rng.uniform(-1, 1, 3), moment=rng.uniform(-0.05, 0.05, 3))
        report = allocate_tensions(params, psi, w, 0.0)
        assert np.min(report.tensions) >= 0.0
        res = equilibrium_residual(params, psi, report.tensions, w)
        assert np.linalg.norm(res) < 1e-9
        # at equilibrium the generalized force equals the projected wrench
        projected = jacobian_x_psi(params, psi).T @ w.as_vector()
        assert np.linalg.norm(report.generalized_force - projected) < 1e-9


def test_allocation_pretension_floor(params, rng):
    for psi in random_configs(rng, 10):
        report = allocate_tensions(params, psi, Wrench.zero(), 0.4)
        assert np.min(report.tensions) >= 0.4 - 1e-9
        assert np.linalg.norm(report.residual) < 1e-9


def test_allocation_scaling_linearity(params):
    # zero wrench reproduces the pure-bending allocation
    psi = Configuration(0.8, 1.1)
    a = allocate_tensions(params, psi, Wrench.zero(), 0.0).tensions
    b = allocate_tensions(params, psi,
                          Wrench(force=np.zeros(3), moment=np.zeros(3)), 0.0).tensions
    assert np.array_equal(a, b)


def test_allocation_rejects_negative_pretension(params):
    with pytest.raises(ConfigurationError):
        allocate_tensions(params, Configuration(0.3, 0), Wrench.zero(), -0.1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pretension", [math.nan, math.inf])
def test_allocation_rejects_non_finite_pretension(params, pretension):
    with pytest.raises(ConfigurationError, match="pretension"):
        allocate_tensions(params, Configuration(0.3, 0), Wrench.zero(), pretension)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pretension", [1e150, 1e155, 1e308])
def test_allocation_huge_pretension(params, pretension):
    # A uniform lift lies in the null space, so any finite floor is feasible;
    # past 2**500 N the allocation's squared norms could overflow, and such a
    # floor is a usage error rather than an infeasible (or warning) one.
    config = Configuration(math.radians(30), 0.0)
    if pretension > 2.0 ** 500:
        with pytest.raises(ConfigurationError, match="pretension"):
            allocate_tensions(params, config, Wrench.zero(), pretension)
        return
    tensions = allocate_tensions(params, config, Wrench.zero(), pretension).tensions
    assert np.isfinite(tensions).all()
    assert np.min(tensions) >= pretension * (1.0 - 1e-12)


def test_infeasible_out_of_span_target():
    # the public wrench path cannot leave the row space, so exercise the
    # shift solver directly with an unsatisfiable constraint set
    constraints = np.array([[1.0], [-1.0]])
    deficit = np.array([1.0, 1.0])
    assert _min_norm_shift(constraints, deficit, 1.0) is None


def test_min_norm_shift_known_solution():
    constraints = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    deficit = np.array([0.3, -1.0, -1.0, -1.0])
    z = _min_norm_shift(constraints, deficit, 1.0)
    assert np.allclose(z, [0.3, 0.0], atol=1e-12)


def test_infeasible_out_of_span_rhs(params):
    # at the straight configuration the tendon map cannot carry any
    # delta-direction generalized force; such a right-hand side must be
    # reported as infeasible, not silently clamped
    jq_t = jacobian_q_psi(params, Configuration(0.0, 0.0)).T
    with pytest.raises(InfeasibleTensionsError, match="outside the span"):
        _solve_tension_qp(jq_t, np.array([0.0, 1.0]), 0.0)


def _exhaustive_min_norm_shift(constraints, deficit, scale):
    """Reference: the minimum-norm shift from trying every active set.

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


def _assert_kkt(constraints, deficit, scale, z):
    """z = C_S^T lam with lam >= 0 for some set S of at most dim tight rows.

    The KKT conditions of min ||z||^2 / 2 subject to C z >= d (Nocedal and
    Wright, Numerical Optimization, 2006, ch. 16), to a normwise backward
    error of 1e-12: a float lam leaves a residual of order eps ||C_S|| ||lam||,
    which passes 1e-12 ||z|| where nearly dependent tight rows need large
    multipliers.  The subsets are searched by hand because the package does
    not depend on scipy.
    """
    tight = np.flatnonzero(constraints @ z - deficit <= 1e-9 * scale)
    for size in range(min(constraints.shape[1], len(tight)) + 1):
        for idx in itertools.combinations(tight, size):
            rows_t = constraints[list(idx)].T
            lam, *_ = np.linalg.lstsq(rows_t, z, rcond=None)
            magnitude = max(1.0, np.linalg.norm(z), np.linalg.norm(rows_t) * np.linalg.norm(lam))
            if np.all(lam >= -1e-12) and np.linalg.norm(rows_t @ lam - z) <= 1e-12 * magnitude:
                return
    pytest.fail(f"no non-negative multipliers on the tight rows {tight.tolist()} give z = {z}")


def _assert_like_enumeration(constraints, deficit, scale, z):
    # the same verdict, feasible, as short as the enumeration's pick and a KKT point
    z_ref = _exhaustive_min_norm_shift(constraints, deficit, scale)
    assert (z is None) == (z_ref is None)
    if z is not None:
        assert np.all(constraints @ z >= deficit - 1e-12 * scale)
        assert abs(np.linalg.norm(z) - np.linalg.norm(z_ref)) <= 4e-12 * scale
        _assert_kkt(constraints, deficit, scale, z)


def _shift_problem(seed, count, rows, degenerate):
    # orthonormal columns like a null basis; twin rows and many constraints
    # tight at one point are where an active-set shortcut would pick the
    # other twin or miss a tie
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, count - 1))
    constraints, _ = np.linalg.qr(rng.normal(size=(count, dim)))
    i, j = rng.choice(count, 2, replace=False)
    if rows == "duplicate":
        constraints[j] = constraints[i]
    elif rows in ("parallel", "stricter twin"):
        constraints[j] = constraints[i] * rng.uniform(0.2, 1.0)
    if degenerate:
        deficit = constraints @ rng.normal(size=dim)
        deficit[rng.random(count) < 0.5] -= 0.1
    else:
        deficit = rng.normal(size=count) * 10.0 ** rng.integers(-3, 2)
    scale = max(1.0, float(np.abs(deficit).max()))
    if rows == "stricter twin":
        # stricter than its partner by more than the feasibility tolerance,
        # yet so little that the twin enters the NNLS dependent on it
        deficit[j] = deficit[i] * (constraints[j] @ constraints[i]) / (
            constraints[i] @ constraints[i]) + 1e-10 * scale
    return constraints, deficit, scale


def _arm(params, tendon_count):
    return dataclasses.replace(params, tendon_count=tendon_count,
                               tendon_division_angle=2.0 * math.pi / tendon_count)


def _tensions_or_error(*args):
    try:
        return allocate_tensions(*args).tensions
    except InfeasibleTensionsError as exc:
        return type(exc)


_DELTAS = [k * math.pi / 4 for k in range(-4, 5)] + [math.pi / 6]


@settings(max_examples=200)
@given(tendon_count=st.integers(3, 8),
       theta=st.one_of(st.just(0.0), st.floats(0.0, math.pi)),
       delta=st.one_of(st.sampled_from(_DELTAS), st.floats(-math.pi, math.pi)),
       force=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       moment=st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3),
       pretension=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
def test_allocation_matches_exhaustive_enumeration(params, tendon_count, theta, delta,
                                                   force, moment, pretension):
    args = (_arm(params, tendon_count), Configuration(theta, delta),
            Wrench(force=np.array(force), moment=np.array(moment)), pretension)
    shifts = []

    def exhaustive(constraints, deficit, scale):
        shifts.append((constraints, deficit, scale))
        return _exhaustive_min_norm_shift(constraints, deficit, scale)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statics, "_min_norm_shift", exhaustive)
        expected = _tensions_or_error(*args)
    got = _tensions_or_error(*args)
    if isinstance(expected, type):
        assert got is expected
    else:
        assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))
    for constraints, deficit, scale in shifts:
        _assert_like_enumeration(constraints, deficit, scale,
                                 _min_norm_shift(constraints, deficit, scale))


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(3, 10),
       rows=st.sampled_from(["distinct", "duplicate", "parallel"]),
       degenerate=st.booleans())
def test_min_norm_shift_matches_exhaustive_enumeration(seed, count, rows, degenerate):
    constraints, deficit, scale = _shift_problem(seed, count, rows, degenerate)
    _assert_like_enumeration(constraints, deficit, scale,
                             _min_norm_shift(constraints, deficit, scale))


def test_min_norm_shift_keeps_a_dependent_twin_out_of_the_active_set(monkeypatch):
    # rows tied at one point, a parallel twin among them, enter the NNLS
    # dependent on the passive ones; each trades places with one of them or
    # sits out the pass, and one lstsq solves the positive set
    constraints, deficit, scale = _shift_problem(1, 9, "parallel", True)
    calls = _count_lapack(monkeypatch)
    z = _min_norm_shift(constraints, deficit, scale)
    assert calls["lstsq"] <= 1
    monkeypatch.undo()
    _assert_like_enumeration(constraints, deficit, scale, z)


@pytest.mark.parametrize("stricter", [0, 1])
def test_min_norm_shift_takes_the_stricter_of_two_parallel_rows(monkeypatch, stricter):
    # the twin 1e-10 stricter enters the NNLS dependent on the looser one;
    # dropping it would return z = 1, which violates it by 1e-10
    constraints = np.array([[1.0], [0.5]])
    deficit = np.array([1.0, 0.5]) + 1e-10 * (np.arange(2) == stricter)
    calls = _count_lapack(monkeypatch)
    z = _min_norm_shift(constraints, deficit, 1.0)
    assert calls["lstsq"] <= 1
    monkeypatch.undo()
    _assert_like_enumeration(constraints, deficit, 1.0, z)
    assert z[0] >= deficit[1] / 0.5 - 1e-12 and z[0] >= deficit[0] - 1e-12


@pytest.mark.parametrize("seed", [344, 355])
def test_min_norm_shift_with_a_slightly_stricter_twin(seed):
    # the stricter twin enters the NNLS dependent on several rows tied with
    # it and must trade places with one of them
    constraints, deficit, scale = _shift_problem(seed, 9, "stricter twin", True)
    _assert_like_enumeration(constraints, deficit, scale,
                             _min_norm_shift(constraints, deficit, scale))


@pytest.mark.parametrize("delta", [0.9327003222544674, 0.15048498492511886])
def test_uneven_three_tendon_arm_where_two_floor_bounds_cross(params, delta):
    # one null direction makes all three rows parallel; at these deltas two
    # tendons' bounds d_i / v_i differ by about 1e-10 and the looser one
    # enters the NNLS first, which once made a feasible allocation fail
    with pytest.warns(UserWarning, match="unevenly"):
        arm = dataclasses.replace(params, tendon_count=3, tendon_division_angle=2.6)
    args = (arm, Configuration(1.5, delta), None, 0.3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statics, "_min_norm_shift", _exhaustive_min_norm_shift)
        expected = allocate_tensions(*args).tensions
    got = allocate_tensions(*args).tensions
    assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


def test_min_norm_shift_raises_when_nnls_budget_runs_out(monkeypatch, params, capsys):
    # no enumeration to fall back on: an exhausted NNLS is a solver failure (exit 5)
    monkeypatch.setattr(statics, "_nnls", lambda a, b: None)
    constraints = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    deficit = np.array([0.3, -1.0, -1.0, -1.0])
    with pytest.raises(ConvergenceError, match="NNLS"):
        _min_norm_shift(constraints, deficit, 1.0)
    with pytest.raises(ConvergenceError):
        allocate_tensions(params, Configuration(0.6, 0.7), None, 0.3)
    assert cli.main(["stiffness", "--theta-deg", "30", "--delta-deg", "40",
                     "--pretension", "0.3"]) == 5
    assert "NNLS" in capsys.readouterr().err


@pytest.mark.parametrize("delta", [math.pi / 6, 1.234])
def test_six_tendon_allocation_solves_few_least_squares(params, monkeypatch, delta):
    # one lstsq for the min-norm tensions, one on the NNLS positive set
    calls = []
    lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(statics.np.linalg, "lstsq", counting_lstsq)
    report = allocate_tensions(_arm(params, 6), Configuration(math.radians(30), delta),
                               Wrench.zero(), 0.3)
    assert np.min(report.tensions) >= 0.3
    assert len(calls) <= 2


def _count_lapack(monkeypatch):
    calls = {"lstsq": 0, "svd": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(statics.np.linalg, name, counting)
    return calls


@pytest.mark.parametrize("pretension", [0.0, 0.3])
def test_allocation_calls_lapack_only_for_returned_bits(params, monkeypatch, pretension):
    # min-norm lstsq, the null basis and one lstsq on the NNLS positive set;
    # the NNLS runs on floats
    calls = _count_lapack(monkeypatch)
    report = allocate_tensions(params, Configuration(0.6, 0.7), None, pretension)
    assert np.min(report.tensions) >= pretension
    assert calls["lstsq"] <= 2 and calls["svd"] <= 1


@pytest.mark.parametrize("theta_deg", [0, 15, 30, 45, 60])
def test_default_stiffness_bends_call_lapack_no_more(params, monkeypatch, theta_deg):
    # at delta = 0 three tendons tie at the floor; the NNLS positive set
    # breaks the tie, so one lstsq follows the min-norm one (none at 0,
    # where no tendon goes slack)
    calls = _count_lapack(monkeypatch)
    allocate_tensions(params, Configuration(math.radians(theta_deg), 0.0), None, 0.0)
    assert calls["lstsq"] <= (1 if theta_deg == 0 else 2)
    assert calls["svd"] <= (0 if theta_deg == 0 else 1)


@pytest.mark.parametrize("tendon_count", [12, 32])
def test_floor_tie_calls_lapack_twice(params, monkeypatch, tendon_count):
    # at 5 deg and delta = 0 half the tendons tie at the 0.3 N floor; the
    # cost must not grow with the subsets of the tied rows
    calls = _count_lapack(monkeypatch)
    report = allocate_tensions(_arm(params, tendon_count), Configuration(math.radians(5), 0.0),
                               None, 0.3)
    assert np.min(report.tensions) >= 0.3
    assert calls["lstsq"] <= 2 and calls["svd"] <= 1


def test_min_norm_shift_large_optimum_with_parallel_rows():
    # a parallel-rows problem whose optimum has norm ~3000: the least-distance
    # residual is ~1e-7, so an NNLS that squared the condition number (normal
    # equations) could lose the active set here and return no shift
    rng = np.random.default_rng(1082)
    count = int(rng.integers(3, 11))
    dim = int(rng.integers(1, count - 1))
    constraints, _ = np.linalg.qr(rng.normal(size=(count, dim)))
    i, j = rng.choice(count, 2, replace=False)
    constraints[j] = constraints[i] * rng.uniform(0.2, 1.0)
    deficit = rng.normal(size=count) * 10.0 ** rng.integers(-3, 2)
    scale = max(1.0, float(np.abs(deficit).max()))
    z_ref = _exhaustive_min_norm_shift(constraints, deficit, scale)
    assert constraints.shape == (7, 4) and 2900.0 < np.linalg.norm(z_ref) < 3100.0
    _assert_like_enumeration(constraints, deficit, scale,
                             _min_norm_shift(constraints, deficit, scale))


@pytest.mark.parametrize("theta, delta, pretension", [
    (0.6, 0.7, 0.0), (0.6, 0.7, 0.3), (math.radians(30), 0.0, 0.0), (-0.0, 0.0, 0.0),
    (0.0, 1.1, 0.2), (2.5, -2.9, 0.05)])
def test_allocation_zero_wrench_shortcut_keeps_bits(params, theta, delta, pretension):
    # a zero wrench of any sign projects to +0.0 entries, and x - (+0.0) has
    # the bits of x, -0.0 included, so skipping the projection changes nothing
    psi = Configuration(theta, delta)
    negative_zero = Wrench(force=np.full(3, -0.0), moment=np.full(3, -0.0))
    reports = [allocate_tensions(params, psi, w, pretension)
               for w in (None, Wrench.zero(), negative_zero)]
    for report in reports:
        for field in ("tensions", "residual", "generalized_force"):
            assert np.array_equal(getattr(report, field), getattr(reports[0], field))
            assert getattr(report, field).tobytes() == getattr(reports[0], field).tobytes()
    residual = equilibrium_residual(params, psi, reports[0].tensions, Wrench.zero())
    assert residual.tobytes() == reports[0].residual.tobytes()
    signed = np.array([-0.0, 0.0, -1.5])
    assert (signed - np.zeros(3)).tobytes() == signed.tobytes()
