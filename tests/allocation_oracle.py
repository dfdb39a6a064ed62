"""Bitwise oracle for the tension allocation's arc search, numpy-free.

``oracle_arc_tensions`` is the earlier form of ``statics._arc_tensions``.
It differs from the library in how, not in what, it computes:

- each proper arc goes through ``_solve_arc``, rank-one branch included,
  builds its lam and Gram tuples and the list of all its pulls, and takes
  min, max and a sum over slices of it;
- the full ring's Gram sums are generator sums and its floor test is
  ``all()`` over a generator;
- the ring is sorted by a key that calls atan2, built as a doubled index
  list with every zero column filtered out, at any r theta;
- the refinement builds a pull list and two generators over it for its two
  ``fsum`` calls, and each tension is ``max(lift, t)``.

Its builtin ``sum()`` calls are written here as left-to-right loops, which
is what ``sum()`` computes on Python 3.10 and 3.11 (3.12 compensates it).
The library tries the same candidates in the same order with the same float
operations, so every case of the seeded corpus must give the oracle's
tensions bit for bit, zero signs included, and the same
InfeasibleTensionsError verdicts.

Run as a script (``PYTHONPATH=src python3 tests/allocation_oracle.py``) it
needs neither numpy nor pytest; it prints the number of cases, of
infeasible verdicts and of mismatches, and a digest of the library's
results, which is the same on every interpreter.  It exits 1 on a mismatch
or when the digest differs from ``DIGEST``, the one recorded.
"""

import hashlib
import math
import random

from ccarm import statics
from ccarm._kernels import core
from ccarm.errors import InfeasibleTensionsError

# compare(corpus())'s digest, recorded on Python 3.10.13, 3.11.7, 3.12.1 and
# 3.13.0: a change of any tension bit or verdict changes it
DIGEST = "b20c168f73aa0f06a40e34a4a108fb2a2289b7c7b4db7574e7f5f6a6ae241f88"


def _oracle_solve_arc(gram, dx, dy, tol):
    hxx, hxy, hyy = gram
    trace = hxx + hyy
    det = hxx * hyy - hxy * hxy
    if det > 1e-14 * trace * trace:
        return (hyy * dx - hxy * dy) / det, (hxx * dy - hxy * dx) / det
    ux, uy = (hxx, hxy) if hxx >= hyy else (hxy, hyy)
    norm = math.hypot(ux, uy)
    if not abs(ux * dy - uy * dx) <= tol * norm:
        return None
    p = (ux * dx + uy * dy) / (trace * norm * norm)
    return p * ux, p * uy


def _oracle_sum(values):
    # builtin sum() of floats as 3.10 and 3.11 compute it
    total = 0
    for value in values:
        total = total + value
    return total


def _oracle_best_arc(pts, n, c1, c2, lift):
    m = len(pts) // 2
    low, high = lift - 1e-12, lift + 1e-14
    gram = (_oracle_sum(x * x for x, _ in pts[:m]), _oracle_sum(x * y for x, y in pts[:m]),
            _oracle_sum(y * y for _, y in pts[:m]))
    lam = _oracle_solve_arc(gram, c1, c2, 1e-12) if m else None
    if lam is not None and all(x * lam[0] + y * lam[1] >= low for x, y in pts[:m]):
        return 0, m, lam, gram
    tx, ty = _oracle_sum(x for x, _ in pts[:m]), _oracle_sum(y for _, y in pts[:m])
    best, best_key = None, (True, math.inf)
    if abs(c1 - lift * tx) <= 1e-12 and abs(c2 - lift * ty) <= 1e-12:
        best, best_key = (0, 0, None, None), (False, n * lift * lift)
    for start in range(m):
        hxx = hxy = hyy = sx = sy = 0.0
        for length in range(1, m):
            x, y = pts[start + length - 1]
            hxx, hxy, hyy, sx, sy = hxx + x * x, hxy + x * y, hyy + y * y, sx + x, sy + y
            lam = _oracle_solve_arc((hxx, hxy, hyy), c1 - lift * (tx - sx),
                                    c2 - lift * (ty - sy), 1e-12)
            if (lam is None or not pts[start][0] * lam[0] + pts[start][1] * lam[1] >= low
                    or not x * lam[0] + y * lam[1] >= low):
                continue
            pulls = [px * lam[0] + py * lam[1] for px, py in pts[start:start + m]]
            if min(pulls[:length]) >= low:
                key = (not max(pulls[length:]) <= high,
                       _oracle_sum(t * t for t in pulls[:length]) + (n - length) * lift * lift)
                if key < best_key:
                    best, best_key = (start, length, lam, (hxx, hxy, hyy)), key
    return best


def oracle_arc_tensions(cos_v, sin_v, radius, theta, b1, b2, floor):
    """The earlier statics._arc_tensions, with its sums as explicit loops."""
    rt = radius * theta
    c1, c2 = b1 / radius, b2 / rt if rt else 0.0
    unit = math.ldexp(0.5, math.frexp(max(floor, math.hypot(c1, c2)))[1])
    if rt == 0.0 and abs(b2) > 1e-12 * unit * radius:
        raise InfeasibleTensionsError("outside the span")
    c1, c2, lift = c1 / unit, c2 / unit, floor / unit
    cols = ([(x, -y) for x, y in zip(cos_v, sin_v)] if rt
            else [(x if abs(x) > 1e-15 else 0.0, 0.0) for x in cos_v])
    ring = [i for i in sorted(range(len(cols)), key=lambda i: math.atan2(-sin_v[i], cos_v[i]))
            if cols[i] != (0.0, 0.0)] * 2
    pts = [cols[i] for i in ring]
    best = _oracle_best_arc(pts, len(cols), c1, c2, lift)
    if best is None:
        raise InfeasibleTensionsError("no tension vector")
    start, length, lam, gram = best
    tau = [floor] * len(cols)
    if length:
        loop = pts[start:start + len(pts) // 2]
        pulls = [x * lam[0] + y * lam[1] for x, y in loop[:length]] + [lift] * len(loop[length:])
        step = _oracle_solve_arc(gram, c1 - math.fsum(t * x for t, (x, _) in zip(pulls, loop)),
                                 c2 - math.fsum(t * y for t, (_, y) in zip(pulls, loop)),
                                 math.inf)
        for i, (x, y) in zip(ring[start:start + length], loop):
            tau[i] = max(lift, x * (lam[0] + step[0]) + y * (lam[1] + step[1])) * unit
    return tau


def _theta(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return 0.0
    if kind == 1:
        return 5e-324
    if kind == 2:
        return 10.0 ** rng.uniform(-300.0, -9.0)
    if kind == 3:
        return math.pi - 10.0 ** rng.uniform(-15.0, -1.0)
    return rng.uniform(0.0, math.pi)


def _floor(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return 0.0
    if kind == 1:
        return rng.uniform(0.0, 1.0)
    if kind == 2:
        return 2.0 ** 500
    return 2.0 ** rng.uniform(-60.0, 500.0)


def corpus(seed=20231, count=20000):
    """Seeded _arc_tensions inputs: (beta, count, delta, radius, theta, b1, b2, floor).

    Tendon counts 3-12, and 64 in every 1000th case; an even division in
    about half the cases, else a perturbed, random or half-turn one; theta
    0, subnormal, at most 1e-9, near pi or generic; delta on a multiple of
    pi/4 or random; floors 0, random, 2**500 or up to it; b2 zero in half
    the cases, and a zero-wrench bend (b1 = theta EI / L) in a quarter.
    """
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        n = 64 if k % 1000 == 999 else rng.randint(3, 12)
        even = 2.0 * math.pi / n
        beta = rng.choice([even, even, even * rng.uniform(0.5, 1.5),
                           rng.uniform(0.05, 3.1), math.pi])
        delta = (rng.randint(-4, 4) * math.pi / 4 if rng.random() < 0.4
                 else rng.uniform(-math.pi, math.pi))
        radius = rng.choice([0.0135, rng.uniform(1e-3, 0.1)])
        theta = _theta(rng)
        floor = _floor(rng)
        scale = radius * max(floor, 1e-3) * 2.0 ** rng.uniform(-20.0, 20.0)
        if rng.random() < 0.25:
            b1, b2 = theta * 0.59 / 0.2, 0.0
        else:
            b1 = scale * rng.uniform(-1.0, 1.0)
            b2 = 0.0 if rng.random() < 0.5 else radius * theta * scale * rng.uniform(-1.0, 1.0)
            if b2 == 0.0 and rng.random() < 0.1:
                b2 = rng.uniform(-1e-6, 1e-6)
        cases.append((beta, n, delta, radius, theta, b1, b2, floor))
    return cases


def outcome(arc_tensions, case):
    """The tensions as float.hex strings, or "infeasible"."""
    beta, n, delta, radius, theta, b1, b2, floor = case
    cos_v, sin_v = core.tendon_cos_sin(beta, n, delta)
    try:
        tau = arc_tensions(cos_v, sin_v, radius, theta, b1, b2, floor)
    except InfeasibleTensionsError:
        return "infeasible"
    return " ".join(map(float.hex, tau))


def compare(cases):
    """(infeasible count, mismatching case indices, digest of the library's results)."""
    digest = hashlib.sha256()
    infeasible, mismatches = 0, []
    for index, case in enumerate(cases):
        library = outcome(statics._arc_tensions, case)
        if library != outcome(oracle_arc_tensions, case):
            mismatches.append(index)
        infeasible += library == "infeasible"
        digest.update(library.encode() + b"\n")
    return infeasible, mismatches, digest.hexdigest()


if __name__ == "__main__":
    import sys

    cases = corpus()
    infeasible, mismatches, digest = compare(cases)
    print(f"python {sys.version.split()[0]}: {len(cases)} cases, {infeasible} infeasible, "
          f"{len(mismatches)} mismatches, sha256 {digest}"
          f"{'' if digest == DIGEST else ' (recorded: ' + DIGEST + ')'}")
    sys.exit(1 if mismatches or digest != DIGEST else 0)
