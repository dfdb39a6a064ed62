"""Bitwise oracle for the deflection kernel's Newton loop.

The oracle below is the earlier form of ``core.solve_deflection``: its
force-free evaluation returned (ax, ay, jp, k, hess) as nested tuples, a
separate ``_with_force`` contracted the tip force into the residual and the
full Jacobian at every trial point, and the line search was a loop of its
own inside the Newton loop.  The kernel now evaluates 21 flat floats per
point and contracts the Jacobian only when another step follows.  Every
float operation kept its operands and its order, so each solve must return
the oracle's 5-tuple bit for bit, zero signs included.
"""

import dataclasses
import math
import random

import pytest

import ccarm.sim
from ccarm import Configuration, default_parameters, wrap_configuration

core = ccarm.sim.core


# ------------------------------------------------------------------ oracle

def _oracle_phase_cos_sin(beta, count):
    # cos/sin of the tendon phases i*beta, exact quadrant values on the
    # four-tendon ring.  The kernel takes them from tendon_cos_sin at
    # delta = 0, which puts -0.0 in two of the ring's slots; the oracle keeps
    # these, so its solves check that the zero signs change no bit.
    if count == 4 and beta == 0.5 * math.pi:
        return (1.0, 0.0, -1.0, 0.0), (0.0, 1.0, 0.0, -1.0)
    return (
        tuple(math.cos(i * beta) for i in range(count)),
        tuple(math.sin(i * beta) for i in range(count)),
    )


def _oracle_force_free_part(length, radius, k_bend, k_tendon, tendons, wx, wy):
    a, _, b, c, e, h = core.hessian_quotients(math.hypot(wx, wy))
    off = length * wx * wy * b
    jp = (
        length * (a + wx * wx * b), off,
        off, length * (a + wy * wy * b),
        length * wx * c, length * wy * c,
    )
    xx = wx * wx
    yy = wy * wy
    bx = wx * b
    by = wy * b
    hxy = length * (by + xx * wy * e)
    hyx = length * (bx + yy * wx * e)
    hess = (
        length * (3.0 * bx + xx * wx * e), hxy, length * (c + xx * h),
        hxy, hyx, length * wx * wy * h,
        hyx, length * (3.0 * by + yy * wy * e), length * (c + yy * h),
    )
    hx = 1e-7 * (1.0 + abs(wx))
    hy = 1e-7 * (1.0 + abs(wy))
    gx = 0.0
    gy = 0.0
    k11 = k22 = k_bend
    k12 = k21 = 0.0
    for cphi, sphi, q_cmd, tau0, slope_x, slope_y, kc, ks in tendons:
        q = radius * (cphi * wx - sphi * wy)
        t = tau0 - k_tendon * (q - q_cmd)
        mx = slope_x * hx
        my = slope_y * hy
        ux = kc if t >= mx else kc * (t + mx) / (2.0 * mx) if t > -mx else 0.0
        uy = ks if t >= my else ks * (t + my) / (2.0 * my) if t > -my else 0.0
        k11 += ux * cphi
        k21 -= ux * sphi
        k12 -= uy * cphi
        k22 += uy * sphi
        if t < 0.0:
            t = 0.0
        t *= radius
        gx += t * cphi
        gy -= t * sphi
    return k_bend * wx - gx, k_bend * wy - gy, jp, (k11, k12, k21, k22), hess


def _oracle_with_force(part, fx, fy, fz):
    ax, ay, jp, k, hess = part
    cross = hess[3] * fx + hess[4] * fy + hess[5] * fz
    return (ax - (jp[0] * fx + jp[2] * fy + jp[4] * fz),
            ay - (jp[1] * fx + jp[3] * fy + jp[5] * fz),
            k[0] - (hess[0] * fx + hess[1] * fy + hess[2] * fz),
            k[1] - cross,
            k[2] - cross,
            k[3] - (hess[6] * fx + hess[7] * fy + hess[8] * fz))


def _oracle_solve(length, radius, beta, count, flexural, k_tendon,
                  q_cmd, tau0, fx, fy, fz, wx0, wy0, tol, max_iter):
    # The oracle's (wx, wy, iterations, residual_norm, converged), its exit
    # and the number of line-search trials it rejected.
    length, radius, beta = float(length), float(radius), float(beta)
    flexural, k_tendon = float(flexural), float(k_tendon)
    kr = k_tendon * radius
    tendons = tuple(
        (cphi, sphi, qc, t0, abs(kr * cphi), abs(kr * sphi),
         kr * radius * cphi, kr * radius * sphi)
        for cphi, sphi, qc, t0 in zip(*_oracle_phase_cos_sin(beta, count),
                                      map(float, q_cmd), map(float, tau0), strict=True))
    model = (length, radius, flexural / length, k_tendon, tendons)
    wx, wy = float(wx0), float(wy0)
    fx, fy, fz, tol = float(fx), float(fy), float(fz), float(tol)
    rx, ry, j11, j12, j21, j22 = _oracle_with_force(
        _oracle_force_free_part(*model, wx, wy), fx, fy, fz)
    iters = 0
    rejected = 0
    while True:
        res = core._psi_residual_norm(rx, ry, wx, wy)
        if res < tol:
            return (wx, wy, iters, res, 1), "converged", rejected
        if iters >= max_iter:
            return (wx, wy, iters, res, 0), "budget", rejected
        det = j11 * j22 - j12 * j21
        if not math.isfinite(det) or abs(det) < 1e-300:
            return (wx, wy, iters, res, 0), "singular", rejected
        dx = -(j22 * rx - j12 * ry) / det
        dy = -(j11 * ry - j21 * rx) / det
        phi0 = rx * rx + ry * ry
        alpha = 1.0
        for _ in range(40):
            nwx = wx + alpha * dx
            nwy = wy + alpha * dy
            trial = _oracle_with_force(_oracle_force_free_part(*model, nwx, nwy), fx, fy, fz)
            nrx, nry = trial[0], trial[1]
            if nrx * nrx + nry * nry <= phi0 * (1.0 - 1e-4 * alpha):
                wx, wy = nwx, nwy
                rx, ry, j11, j12, j21, j22 = trial
                break
            rejected += 1
            alpha *= 0.5
        else:
            return (wx, wy, iters, res, 0), "line search", rejected
        iters += 1


def _same(got, want):
    # Equal types and values, NaN matching NaN, zeros matching in sign.
    def same(x, y):
        if type(x) is not type(y):
            return False
        if type(x) is not float:
            return x == y
        if math.isnan(x) or math.isnan(y):
            return math.isnan(x) and math.isnan(y)
        return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)

    return len(got) == len(want) and all(map(same, got, want))


def _check(args):
    # The kernel against the oracle on one solve; returns the oracle's exit,
    # its rejected trials and the signs of the zeros in the returned w.
    want, exit_reason, rejected = _oracle_solve(*args)
    got = core.solve_deflection(*args)
    assert _same(got, want), (args, got, want)
    return exit_reason, rejected, {math.copysign(1.0, x) for x in got[:2] if x == 0.0}


# ------------------------------------------------------------ default sweep

def test_default_sweep_solves_match_the_oracle(params, monkeypatch):
    # The 200 kernel solves of the default stiffness sweep's distinct points.
    calls = []
    kernel = core.solve_deflection

    def recording_kernel(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(core, "solve_deflection", recording_kernel)
    configs = [wrap_configuration(math.radians(deg), 0.0) for deg in (0, 15, 30, 45, 60)]
    loads = [0.02 * ccarm.sim.STANDARD_GRAVITY * k for k in range(6)]
    records = ccarm.sim.run_stiffness_sweep(params, configs, loads)
    assert all(r.converged for r in records)
    monkeypatch.undo()
    assert len(calls) == 200
    core._deflection_model.cache_clear()
    assert {_check(args)[0] for args in calls} == {"converged"}


# ---------------------------------------------------------- seeded random

_ARM_4 = (0.25, 0.02, math.pi / 2, 4, 2.4543692606170264e-03, 1580.0)
_TOLS = (5e-11, 5e-11, 5e-11, 1e-13, 1e-16)
_BUDGETS = (100, 100, 100, 0, 1, 2, 5)


def _random_theta(rng):
    # zero, either side of SMOOTH_THRESHOLD (also within a few ulps), or large
    t = core.SMOOTH_THRESHOLD
    return rng.choice([
        lambda: 0.0,
        lambda: rng.uniform(0.0, t),
        lambda: t * rng.choice([1.0 - 1e-9, 1.0, 1.0 + 1e-9, 0.5, 2.0]),
        lambda: rng.uniform(t, 2.8),
    ])()


def _random_force(rng):
    return rng.choice([
        lambda: tuple(rng.uniform(-1.5, 1.5) for _ in range(3)),
        lambda: tuple(rng.uniform(-0.05, 0.05) for _ in range(3)),
        # in the xz or yz plane, so a zero of the start can keep its sign
        lambda: (rng.uniform(-1.0, 1.0), rng.choice([0.0, -0.0]), rng.uniform(-1.0, 1.0)),
        lambda: (rng.choice([0.0, -0.0]), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
        # loads past buckling: the line search backtracks
        lambda: tuple(rng.uniform(-20.0, 20.0) for _ in range(3)),
        # a non-finite component: the determinant is not finite
        lambda: (rng.choice([math.nan, math.inf, -math.inf]), rng.uniform(-1.0, 1.0),
                 rng.uniform(-1.0, 1.0)),
    ])()


def _random_problem(rng):
    # Kernel arguments but the force: a 3-, 4- or 6-tendon arm; the motor
    # state the sweeps build (pretension 0 or above), or random zero or
    # positive tensions; a start at (+-0.0, +-0.0) or near the commanded
    # bend; and optionally one tendon on its slack kink at the start.
    count = rng.choice([3, 4, 6])
    beta = 2.0 * math.pi / count
    length, radius = rng.uniform(0.1, 0.5), rng.uniform(0.005, 0.04)
    theta, delta = _random_theta(rng), rng.uniform(-math.pi, math.pi)
    if rng.random() < 0.4:
        params = dataclasses.replace(
            default_parameters(), tendon_count=count, tendon_division_angle=beta,
            backbone_length=length, pitch_radius=radius,
            backbone_youngs_modulus=rng.uniform(1e9, 2e11))
        pretension = rng.choice([0.0, rng.uniform(0.05, 1.0)])
        q_cmd, tau0 = map(list, ccarm.sim._commanded_state(
            params, Configuration(theta, delta), pretension))
        arm = ccarm.sim._arm(params)
    else:
        arm = (length, radius, beta, count, rng.uniform(5e-4, 1e-2),
               rng.uniform(100.0, 5000.0))
        q_cmd = [radius * theta * math.cos(delta + i * beta) for i in range(count)]
        if rng.random() < 0.3:
            tau0 = [0.0] * count
        else:
            tau0 = [rng.uniform(0.0, 1.0) for _ in range(count)]
    k_tendon = arm[5]
    if rng.random() < 0.25:
        w0 = (rng.choice([0.0, -0.0]), rng.choice([0.0, -0.0]))
    else:
        near = _random_theta(rng)
        w0 = (near * math.cos(delta), near * math.sin(delta))
    if rng.random() < 0.3:
        cphi, sphi = _oracle_phase_cos_sin(beta, count)
        i, axis = rng.randrange(count), rng.randrange(2)
        q = radius * (cphi[i] * w0[0] - sphi[i] * w0[1])
        slope = k_tendon * radius * abs((cphi[i], sphi[i])[axis])
        tau0[i] = (k_tendon * (q - q_cmd[i])
                   + rng.uniform(-1.5, 1.5) * slope * 1e-7 * (1.0 + abs(w0[axis])))
    return arm, q_cmd, tau0, w0, rng.choice(_TOLS), rng.choice(_BUDGETS)


def test_random_solves_match_the_oracle():
    # 12,000 seeded solves, two forces per start so that every second solve
    # is a hit of the memoized start.  The draws reach every exit of the
    # loop, rejected line-search trials, and tendons taut, slack and on the
    # kink at the start; and w comes back with zeros of either sign.
    rng = random.Random(20261019)
    exits = {}
    rejected = 0
    tendons = set()
    zero_signs = set()
    for _ in range(6000):
        arm, q_cmd, tau0, w0, tol, budget = _random_problem(rng)
        length, radius, beta, count, flexural, k_tendon = arm
        cphi, sphi = _oracle_phase_cos_sin(beta, count)
        for i in range(count):
            t = tau0[i] - k_tendon * (radius * (cphi[i] * w0[0] - sphi[i] * w0[1]) - q_cmd[i])
            tendons.add("taut" if t > 1e-6 else "slack" if t < -1e-6 else "kink")
        for _ in range(2):
            args = (*arm, q_cmd, tau0, *_random_force(rng), *w0, tol, budget)
            exit_reason, count_rejected, signs = _check(args)
            exits[exit_reason] = exits.get(exit_reason, 0) + 1
            rejected += count_rejected
            zero_signs |= signs
    assert set(exits) == {"converged", "budget", "singular", "line search"}, exits
    assert rejected > 0
    assert tendons == {"taut", "slack", "kink"}
    assert zero_signs == {-1.0, 1.0}


@pytest.mark.parametrize("force", [
    (math.nan, 0.0, 0.5), (math.inf, 0.0, 0.0), (0.0, -math.inf, 0.3), (1e300, 1e300, 1e300),
], ids=["nan", "inf", "-inf", "overflow"])
@pytest.mark.parametrize("max_iter", [0, 1, 100])
def test_non_finite_determinant_exit(force, max_iter):
    q_cmd, tau0 = [0.0104719755, 0.0, -0.0104719755, 0.0], [0.2454369261, 0.0, 0.0, 0.0]
    args = (*_ARM_4, q_cmd, tau0, *force, 0.5236, 0.0, 5e-11, max_iter)
    assert _check(args)[0] == ("budget" if max_iter == 0 else "singular")


@pytest.mark.parametrize("w0", [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
@pytest.mark.parametrize("max_iter", [0, 1, 100])
def test_singular_jacobian_exit(w0, max_iter):
    # No bending stiffness, every tendon slack and no axial tip force: the
    # Jacobian at the straight start is exactly zero, the residual is not.
    length, radius, beta, count, _, k_tendon = _ARM_4
    args = (length, radius, beta, count, 0.0, k_tendon, [-0.01] * 4, [0.0] * 4,
            0.3, -0.2, 0.0, *w0, 5e-11, max_iter)
    assert _check(args)[0] == ("budget" if max_iter == 0 else "singular")


@pytest.mark.parametrize("max_iter", [0, 1, 2, 100])
def test_budget_exits(max_iter):
    # The default arm at 30 degrees under a 0.42 N pull, cold and warm.
    q_cmd, tau0 = [0.0104719755, 0.0, -0.0104719755, 0.0], [0.2454369261, 0.0, 0.0, 0.0]
    args = (*_ARM_4, q_cmd, tau0, 0.42, 0.0, -0.24, 0.5236, 0.0, 5e-11, max_iter)
    core._deflection_model.cache_clear()
    cold = _check(args)
    assert _check(args) == cold
    assert cold[0] == ("budget" if max_iter < 3 else "converged")


def test_line_search_gives_up():
    # At a tolerance below the rounding floor every trial is eventually
    # rejected: the solve ends on an exhausted line search.
    q_cmd, tau0 = [0.0104719755, 0.0, -0.0104719755, 0.0], [0.2454369261, 0.0, 0.0, 0.0]
    args = (*_ARM_4, q_cmd, tau0, 0.42, 0.0, -0.24, 0.5236, 0.0, 0.0, 100)
    exit_reason, rejected, _ = _check(args)
    assert exit_reason == "line search" and rejected >= 40
