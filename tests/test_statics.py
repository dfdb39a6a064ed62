import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccarm import (Configuration, ConfigurationError, InfeasibleTensionsError,
                   Wrench, allocate_tensions, elastic_energy, energy_gradient,
                   equilibrium_residual, jacobian_q_psi, jacobian_x_psi, statics)
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
        assert np.array_equal(got, expected)
    for constraints, deficit, scale in shifts:
        z = _min_norm_shift(constraints, deficit, scale)
        z_ref = _exhaustive_min_norm_shift(constraints, deficit, scale)
        assert (z is None and z_ref is None) or np.array_equal(z, z_ref)


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(3, 10),
       rows=st.sampled_from(["distinct", "duplicate", "parallel"]),
       degenerate=st.booleans())
def test_min_norm_shift_matches_exhaustive_enumeration(seed, count, rows, degenerate):
    # orthonormal columns like a null basis; twin rows and many constraints
    # tight at one point are where an active-set shortcut would pick the
    # other twin or miss a tie
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, count - 1))
    constraints, _ = np.linalg.qr(rng.normal(size=(count, dim)))
    i, j = rng.choice(count, 2, replace=False)
    if rows == "duplicate":
        constraints[j] = constraints[i]
    elif rows == "parallel":
        constraints[j] = constraints[i] * rng.uniform(0.2, 1.0)
    if degenerate:
        deficit = constraints @ rng.normal(size=dim)
        deficit[rng.random(count) < 0.5] -= 0.1
    else:
        deficit = rng.normal(size=count) * 10.0 ** rng.integers(-3, 2)
    scale = max(1.0, float(np.abs(deficit).max()))
    z = _min_norm_shift(constraints, deficit, scale)
    z_ref = _exhaustive_min_norm_shift(constraints, deficit, scale)
    assert (z is None and z_ref is None) or np.array_equal(z, z_ref)


def test_min_norm_shift_without_nnls_tries_every_subset(monkeypatch):
    # when the NNLS budget runs out every constraint counts as near-active
    monkeypatch.setattr(statics, "_nnls", lambda a, b: None)
    constraints = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    deficit = np.array([0.3, -1.0, -1.0, -1.0])
    assert np.array_equal(_min_norm_shift(constraints, deficit, 1.0),
                          _exhaustive_min_norm_shift(constraints, deficit, 1.0))
    assert _min_norm_shift(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]), 1.0) is None


@pytest.mark.parametrize("delta", [math.pi / 6, 1.234])
def test_six_tendon_allocation_solves_few_least_squares(params, monkeypatch, delta):
    # trying every subset of at most four of six constraints takes 56 solves
    calls = []
    lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(statics.np.linalg, "lstsq", counting_lstsq)
    report = allocate_tensions(_arm(params, 6), Configuration(math.radians(30), delta),
                               Wrench.zero(), 0.3)
    assert np.min(report.tensions) >= 0.3
    assert len(calls) < 25
