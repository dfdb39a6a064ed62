import dataclasses
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccarm import (Configuration, ConfigurationError, InfeasibleTensionsError, Wrench,
                   allocate_tensions, cli, elastic_energy, energy_gradient,
                   equilibrium_residual, jacobian_q_psi, jacobian_x_psi, statics)
from ccarm._kernels import core
from ccarm.sim import finite_difference_oracle
from ccarm.statics import _arc_tensions

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


def test_infeasible_out_of_span_target(params):
    # the three tendons of this uneven arm pull within a half-plane; the
    # pure bend's generalized force points out of the cone they span, so no
    # pull-only tension vector realizes it
    with pytest.warns(UserWarning, match="unevenly"):
        arm = dataclasses.replace(params, tendon_count=3, tendon_division_angle=1.5)
    with pytest.raises(InfeasibleTensionsError, match="no tension vector"):
        allocate_tensions(arm, Configuration(0.3, -3.07), None, 0.0)
    with pytest.raises(InfeasibleTensionsError):
        _reference_tensions(arm, Configuration(0.3, -3.07), None, 0.0)


def test_infeasible_out_of_span_rhs():
    # at the straight configuration the tendon map cannot carry any
    # delta-direction generalized force; such a right-hand side must be
    # reported as infeasible, not silently clamped
    cos_v, sin_v = core.tendon_cos_sin(math.pi / 2, 4, 0.0)
    with pytest.raises(InfeasibleTensionsError, match="outside the span"):
        _arc_tensions(cos_v, sin_v, 0.02, 0.0, 0.0, 1.0, 0.0)


def _exhaustive_min_norm_shift(constraints, deficit, scale):
    """Reference: the minimum-norm shift from trying every active set.

    Exact active-set enumeration: the optimizer of this tiny QP activates at
    most dim(z) constraints, so trying every subset of that size is both
    exhaustive and deterministic.  A subset whose z is also a KKT point (z =
    C_S^T mu with mu >= 0; Nocedal and Wright, Numerical Optimization, 2006,
    ch. 16) wins over a shorter one that is not: where the optimum is flat,
    norms a rounding apart can lie far apart in z.
    """
    n, dim = constraints.shape
    eq_tol = 1e-10 * scale
    feas_tol = 1e-12 * scale
    best = None
    best_key = (True, np.inf)
    for size in range(0, dim + 1):
        for idx in itertools.combinations(range(n), size):
            if size == 0:
                z = np.zeros(dim)
                kkt = True
            else:
                rows = constraints[list(idx)]
                rhs = deficit[list(idx)]
                z, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
                if np.linalg.norm(rows @ z - rhs) > eq_tol:
                    continue
                mu, *_ = np.linalg.lstsq(rows.T, z, rcond=None)
                kkt = bool(np.all(mu >= -1e-14 * scale))
            if np.all(constraints @ z >= deficit - feas_tol):
                key = (not kkt, float(z @ z))
                if key < best_key:
                    best, best_key = z, key
    return best


def _reference_tensions(params, psi, w_ext, floor):
    """Reference allocation: min-norm lstsq, svd null basis, exhaustive shift.

    The rows of J_q^T are scaled by 1/r and 1/(r theta), to unit tendon
    columns, and the right-hand side and floor by the problem's size, so the
    rank decisions and tolerances hold at every bend; when r theta = 0 the
    second row is zero and a moment arm below 1e-15 r counts as zero, as in
    the allocation.  Raises InfeasibleTensionsError like the allocation.
    """
    cos_v, sin_v = core.tendon_cos_sin(params.tendon_division_angle, params.tendon_count,
                                       psi.delta)
    b = energy_gradient(params, psi)
    if w_ext is not None:
        b = b - jacobian_x_psi(params, psi).T @ w_ext.as_vector()
    rt = params.pitch_radius * psi.theta
    if rt == 0.0:
        a = np.array([[x if abs(x) > 1e-15 else 0.0 for x in cos_v], [0.0] * len(cos_v)])
        c = np.array([b[0] / params.pitch_radius, b[1]])
    else:
        a = np.array([cos_v, np.negative(sin_v)])
        c = np.array([b[0] / params.pitch_radius, b[1] / rt])
    scale = max(floor, math.hypot(*c)) or 1.0
    c, floor = c / scale, floor / scale
    tau, *_ = np.linalg.lstsq(a, c, rcond=None)
    if np.linalg.norm(a @ tau - c) > 1e-9:
        raise InfeasibleTensionsError("outside the span")
    if np.min(tau) < floor - 1e-12:
        _, singulars, vt = np.linalg.svd(a)
        null_basis = vt[int(np.sum(singulars > singulars[0] * 1e-12)):].T
        shift = _exhaustive_min_norm_shift(null_basis, floor - tau, 1.0)
        if shift is None:
            raise InfeasibleTensionsError("no tension vector")
        tau = tau + null_basis @ shift
    return np.maximum(tau, floor) * scale


def _arm(params, tendon_count, division=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an uneven division warns
        return dataclasses.replace(params, tendon_count=tendon_count,
                                   tendon_division_angle=division or 2.0 * math.pi / tendon_count)


def _tensions_or_error(allocate, *args):
    try:
        return allocate(*args)
    except InfeasibleTensionsError as exc:
        return type(exc)


def _assert_like_reference(args):
    # the same verdict, and tensions within 1e-12 of the reference's scale
    expected = _tensions_or_error(_reference_tensions, *args)
    got = _tensions_or_error(lambda *a: allocate_tensions(*a).tensions, *args)
    if isinstance(expected, type):
        assert got is expected
    else:
        assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


_DELTAS = [k * math.pi / 4 for k in range(-4, 5)] + [math.pi / 6]


@settings(max_examples=200)
@given(tendon_count=st.integers(3, 8),
       division=st.one_of(st.none(), st.floats(0.5, 2.5)),
       theta=st.one_of(st.just(0.0), st.floats(0.0, 1e-9), st.floats(0.0, math.pi)),
       delta=st.one_of(st.sampled_from(_DELTAS), st.floats(-math.pi, math.pi)),
       force=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       moment=st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3),
       pretension=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
def test_allocation_matches_exhaustive_enumeration(params, tendon_count, division, theta, delta,
                                                   force, moment, pretension):
    # even and uneven arms, tiny bends included, against the reference
    _assert_like_reference((_arm(params, tendon_count, division), Configuration(theta, delta),
                            Wrench(force=np.array(force), moment=np.array(moment)), pretension))


@pytest.mark.parametrize("delta", [0.9327003222544674, 0.15048498492511886])
def test_uneven_three_tendon_arm_where_two_floor_bounds_cross(params, delta):
    # one null direction makes all three rows parallel; at these deltas two
    # tendons' bounds d_i / v_i differ by about 1e-10, which once made a
    # feasible allocation fail
    _assert_like_reference((_arm(params, 3, 2.6), Configuration(1.5, delta), None, 0.3))


def test_tiny_bend_allocation(params):
    # about 1e-12 N of tension: the tolerances are relative to the problem's
    # size, so this bend is feasible like 0 and 1e-6 deg
    psi = Configuration(4.539573390586897e-12, -1.1224350202195152)
    report = allocate_tensions(params, psi, None, 0.0)
    assert np.min(report.tensions) >= 0.0 and 0.0 < np.max(report.tensions) < 1e-11
    assert np.max(np.abs(report.tensions - _reference_tensions(params, psi, None, 0.0))) <= (
        1e-12 * np.max(report.tensions))
    assert np.linalg.norm(report.residual) <= 1e-12 * np.linalg.norm(energy_gradient(params, psi))


@pytest.mark.parametrize("tendon_count", [4, 5])
@pytest.mark.parametrize("pretension", [0.0, 0.3])
def test_subnormal_bend_takes_the_straight_path(params, tendon_count, pretension):
    # r * theta underflows to 0 at theta = 5e-324: the second row of J_q^T
    # drops out as at theta = 0, and a wrench gives the same tensions
    arm = _arm(params, tendon_count)
    wrench = Wrench(force=np.array([0.3, -0.2, 0.1]), moment=np.array([0.01, 0.02, -0.01]))
    for w in (None, wrench):
        straight = allocate_tensions(arm, Configuration(0.0, 0.4), w, pretension).tensions
        tiny = allocate_tensions(arm, Configuration(5e-324, 0.4), w, pretension).tensions
        assert np.array_equal(tiny, straight)


def test_straight_arm_without_a_moment_arm(params):
    # tendons pi apart at delta = pi/2: at theta = 0 every moment arm is the
    # rounding of cos(pi/2), so only the floor is feasible, and only when
    # nothing loads theta
    arm = _arm(params, 3, math.pi)
    straight = Configuration(0.0, math.pi / 2)
    assert np.array_equal(allocate_tensions(arm, straight, None, 0.3).tensions, [0.3] * 3)
    push = Wrench(force=np.array([0.0, 0.3, 0.0]), moment=np.zeros(3))
    with pytest.raises(InfeasibleTensionsError):
        allocate_tensions(arm, straight, push, 0.3)
    for w in (None, push):
        _assert_like_reference((arm, straight, w, 0.3))


def _count_arc_solves(monkeypatch):
    calls = []
    solve = statics._solve_arc

    def counting(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(statics, "_solve_arc", counting)
    return calls


@pytest.mark.parametrize("tendon_count", [12, 32, 64])
def test_floor_tie_solves_at_most_every_arc(params, monkeypatch, tendon_count):
    # at 5 deg and delta = 0 half the tendons tie at the 0.3 N floor; the
    # search solves the full ring, each of the n(n-1) proper arcs and the
    # winner once more, whatever the ties
    calls = _count_arc_solves(monkeypatch)
    report = allocate_tensions(_arm(params, tendon_count), Configuration(math.radians(5), 0.0),
                               None, 0.3)
    assert np.min(report.tensions) >= 0.3
    assert len(calls) <= tendon_count * (tendon_count - 1) + 2


def _forbid_lapack(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the tension allocation calls no least squares or SVD")

    for name in ("lstsq", "svd"):
        monkeypatch.setattr(np.linalg, name, forbidden)


@pytest.mark.parametrize("delta", [math.pi / 6, 1.234])
def test_six_tendon_allocation_solves_few_least_squares(params, monkeypatch, delta):
    # no lstsq at all: 2x2 systems, one for each arc of the ring at most
    _forbid_lapack(monkeypatch)
    calls = _count_arc_solves(monkeypatch)
    report = allocate_tensions(_arm(params, 6), Configuration(math.radians(30), delta),
                               Wrench.zero(), 0.3)
    assert np.min(report.tensions) >= 0.3
    assert len(calls) <= 6 * 5 + 2


@pytest.mark.parametrize("theta_deg", [0, 15, 30, 45, 60])
def test_default_stiffness_bends_call_lapack_no_more(params, monkeypatch, theta_deg):
    # at delta = 0 three tendons tie at the floor; the arc search breaks the
    # tie without lstsq or svd
    _forbid_lapack(monkeypatch)
    report = allocate_tensions(params, Configuration(math.radians(theta_deg), 0.0), None, 0.0)
    assert np.min(report.tensions) >= 0.0
    assert np.linalg.norm(report.residual) < 1e-12


@pytest.mark.parametrize("experiment, extra", [
    ("stiffness", []), ("perching", ["--axis", "x"]), ("perching", ["--axis", "z"])])
def test_default_sweeps_run_without_lapack_solves(monkeypatch, tmp_path, capsys,
                                                  experiment, extra):
    # lstsq and svd raise, and the default sweeps still write their golden bytes
    _forbid_lapack(monkeypatch)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--experiment", experiment, "--out", str(out), *extra]) == 0
    golden = "stiffness.csv" if experiment == "stiffness" else f"perching_{extra[1]}.csv"
    assert out.read_bytes() == (Path(__file__).resolve().parent / "data" / golden).read_bytes()
    capsys.readouterr()


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
