"""One workload in one process: timed untraced phase, or traced per-layer phase.

Started by run.py with ccarm's source on PYTHONPATH and BLAS pinned to one
thread.  Prints one JSON document as its last line of output.
"""

import time

_IMPORT_START = time.perf_counter()
import ccarm  # noqa: E402  (timed: this is the per-layer import cost)

IMPORT_S = time.perf_counter() - _IMPORT_START

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import ccarm.cli  # noqa: E402
import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402

# Counts the seed code produces per traced unit, from profiling it; a later
# change may move them on purpose, so a difference is reported, not failed.
SEED_COUNTS = {
    "stiffness_sweep": {
        "statics.allocate_tensions.calls": 1745,
        "statics.allocate_tensions.distinct": 5,
        "kernels.solve_deflection.calls": 1745,
        "kernels.solve_deflection.newton_iters": 5505,
    },
    "perching_sweep": {  # first request of the unit: the --axis x sweep
        "statics.allocate_tensions.calls": 41,
        "statics.allocate_tensions.distinct": 1,
        "kernels.solve_tip_constraint.calls": 41,
        "kernels.solve_tip_constraint.iters": 126,
    },
}


@dataclasses.dataclass
class Outcome:
    """One timed request: latency of the ccarm call and a deferred output check."""

    latency: float
    family: str
    check: Callable[[], tuple]   # () -> (points, failed points)
    csv_bytes: int = 0


# ---------------------------------------------------------------- workloads

def _call_cli(argv, out_path):
    if out_path.exists():
        out_path.unlink()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = ccarm.cli.main(argv)
        latency = time.perf_counter() - start
    text = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
    return code, latency, text


class Sweep:
    """Default `ccarm sweep` protocols through ccarm.cli.main, checked against seed CSVs."""

    def __init__(self, experiments, workdir):
        self.requests = []
        for experiment, extra, reference, columns in experiments:
            out = workdir / reference
            argv = ["sweep", "--experiment", experiment, "--out", str(out)] + extra
            self.requests.append((argv, out, checks.read_reference(reference), columns))
        self.unit_size = len(self.requests)

    def request(self, i):
        argv, out, reference, columns = self.requests[i % self.unit_size]
        code, latency, text = _call_cli(argv, out)
        points = reference.count("\n") - 1

        def check():
            if code not in (0, 5) or not text:
                return points, points
            return points, checks.compare_sweep(text, reference, columns)

        return Outcome(latency, "sweep", check, len(text.encode("utf-8")))


def stiffness_sweep(seed, workdir):
    # 5 bends x 10 loads x 5 cycles; heavy reuse of commanded states.
    return Sweep([("stiffness", [], "stiffness.csv", checks.STIFFNESS_COLUMNS)], workdir)


def perching_sweep(seed, workdir):
    # 41 offsets per axis, one commanded state, no re-aim and no cycles.
    return Sweep([("perching", ["--axis", axis], f"perching_{axis}.csv", checks.PERCHING_COLUMNS)
                  for axis in ("x", "z")], workdir)


class PointQueries:
    """Seeded single calls; no two queries share a commanded state.

    Query i calls family i % 3 on the six-tendon arm when i % 4 == 3 and with
    a pretension floor when (i // 4) % 2 == 1, so every block of 24 queries
    holds the same mix whatever the seed.  Its continuous inputs come from
    its own generator seeded with (seed, i).
    """

    FAMILIES = ("deflection", "perching", "stiffness")
    unit_size = 24

    def __init__(self, seed):
        self.seed = seed
        self.paper_arm = ccarm.default_parameters()
        self.six_tendon_arm = dataclasses.replace(
            self.paper_arm, tendon_count=6, tendon_division_angle=2.0 * math.pi / 6)
        # Built up front so that a traced unit records no calls made by the
        # benchmark itself.
        self.unit_queries = [self.query(i) for i in range(self.unit_size)]

    def query(self, i):
        rng = np.random.default_rng([self.seed, i])
        params = self.six_tendon_arm if i % 4 == 3 else self.paper_arm
        config = ccarm.wrap_configuration(math.radians(rng.uniform(5.0, 75.0)),
                                          rng.uniform(-math.pi, math.pi))
        pretension = float(rng.uniform(0.05, 0.5)) if (i // 4) % 2 else 0.0
        query = {"family": self.FAMILIES[i % 3], "params": params, "config": config,
                 "pretension": pretension}
        if query["family"] == "deflection":
            direction = rng.normal(size=3)
            query["force"] = direction / np.linalg.norm(direction) * rng.uniform(0.05, 1.0)
        elif query["family"] == "perching":
            # The target is the tip of a nearby configuration, so it is reachable.
            near = ccarm.wrap_configuration(config.theta + rng.uniform(-0.03, 0.03),
                                            config.delta + rng.uniform(-0.05, 0.05))
            query["anchor"] = ccarm.kinematics.forward_kinematics(params, config).position
            query["target"] = ccarm.kinematics.forward_kinematics(params, near).position
        return query

    @staticmethod
    def call(query):
        params, config, pretension = query["params"], query["config"], query["pretension"]
        if query["family"] == "deflection":
            return ccarm.sim.solve_deflection(params, config, query["force"], pretension)
        if query["family"] == "perching":
            return ccarm.sim.solve_perching_reaction(
                params, config, query["anchor"], query["anchor"] - query["target"], pretension)
        report = ccarm.statics.allocate_tensions(params, config, ccarm.Wrench.zero(), pretension)
        return report.tensions, ccarm.stiffness.task_stiffness(
            params, config, report.tensions, report.generalized_force)

    def request(self, i):
        query = self.unit_queries[i] if i < self.unit_size else self.query(i)
        start = time.perf_counter()
        try:
            result = self.call(query)
            error = None
        except ccarm.CcarmError as exc:
            result, error = None, exc
        latency = time.perf_counter() - start

        def check():
            ok = error is None and checks.CHECKS[query["family"]](query, result)
            return 1, 0 if ok else 1

        return Outcome(latency, query["family"], check)

    def self_test_queries(self):
        return [self.query(k) for k in range(3)]


WORKLOADS = {
    "stiffness_sweep": stiffness_sweep,
    "perching_sweep": perching_sweep,
    "point_queries": lambda seed, workdir: PointQueries(seed),
}


# ------------------------------------------------------------------ phases

def _percentile(values, q):
    return float(np.percentile(np.asarray(values), q)) if values else float("nan")


def _tail(values):
    """Highest of p99/p90 that leaves at least ten samples beyond it."""
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return q, _percentile(values, q)
    return None, None


# A core shared with other tenants can slow down by up to 2x for seconds at
# a time, under load from outside the process.  A fixed calibration loop,
# independent of ccarm and mixing interpreted Python with small LAPACK calls
# as ccarm's hot paths do, runs between units.  The gated times are scaled by CALIBRATION_REF_S /
# (mean of the calibrations either side of the unit): time on a reference
# core on which the loop takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.5e-3
_CAL_A = np.array([[0.3, 0.7, 1.1, -0.5], [1.2, -0.4, 0.2, 0.9]])
_CAL_B = np.array([0.2, -0.1])


def calibration_s():
    """Best of three timings of the calibration loop."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(30):
            x = _CAL_A * (1.0 + 1e-3 * i)
            z, *_ = np.linalg.lstsq(x, _CAL_B, rcond=None)
            acc += float(np.linalg.norm(x @ z - _CAL_B)) + sum(math.cos(v) for v in x.ravel())
        best = min(best, time.perf_counter() - start)
    return best


def timed_phase(workload, seconds):
    """Untraced: whole units back to back for `seconds`, after one warm-up unit."""
    for i in range(workload.unit_size):
        workload.request(i).check()
    next_index = workload.unit_size
    # Each output is checked as it arrives, outside its latency, so memory
    # does not grow with the number of requests.
    latencies, scaled, families, calibrations = [], [], [], [calibration_s()]
    unit_rates = []
    attempted = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not unit_rates:
        unit, unit_points = [], 0
        for _ in range(workload.unit_size):
            outcome = workload.request(next_index)
            next_index += 1
            points, bad = outcome.check()
            unit_points += points
            failed += bad
            unit.append(outcome.latency)
            families.append(outcome.family)
        calibrations.append(calibration_s())
        factor = CALIBRATION_REF_S / (0.5 * (calibrations[-2] + calibrations[-1]))
        attempted += unit_points
        latencies += unit
        scaled += [t * factor for t in unit]
        unit_rates.append(unit_points / (sum(unit) * factor))

    report = {
        "requests": len(latencies), "units": len(unit_rates), "fail_frac": failed / attempted,
        "calibration_us": {"n": len(calibrations), "p50": _percentile(calibrations, 50) * 1e6,
                           "min": min(calibrations) * 1e6, "max": max(calibrations) * 1e6},
        "unscaled": {"points_per_s": attempted / sum(latencies),
                     "request_p50_ms": _percentile(latencies, 50) * 1e3},
    }
    for family in sorted(set(families)):
        values = [t * 1e6 for t, f in zip(latencies, families) if f == family]
        entry = {"n": len(values), "p50_us": _percentile(values, 50)}
        q, tail = _tail(values)
        if q is not None:
            entry[f"p{q}_us"] = tail
        report[f"latency.{family}"] = entry
    metrics = {
        "points_per_s": (statistics.median(unit_rates), "1/s", len(unit_rates)),
        "request_p50_ms": (_percentile(scaled, 50) * 1e3, "ms", len(scaled)),
    }
    return attempted, failed, metrics, report


def _run_unit(workload, tracer=None):
    """Run one unit; with a tracer, snapshot its counters after every request."""
    outcomes, snapshots = [], []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for i in range(workload.unit_size):
            outcomes.append(workload.request(i))
            if tracer is not None:
                snapshots.append(tracer.snapshot())
    finally:
        if tracer is not None:
            tracer.restore()
    return outcomes, snapshots


def _kernel_probe(seconds=0.25):
    """Per-call times of the fixed kernel calls in benchmarks/bench_backends.py."""
    core = ccarm._kernels.core
    length, radius, beta, count = 0.25, 0.02, math.pi / 2, 4
    flex, k_t = 2.4543692606170264e-03, 1580.0
    q_cmd = np.array([0.0104719755, 0.0, -0.0104719755, 0.0])
    tau0 = np.array([0.2454369261, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(42)
    angles = rng.uniform(0.05, 3.0, size=64)
    deltas = rng.uniform(-3.0, 3.0, size=64)

    def kinematics_x64():
        for th, de in zip(angles, deltas):
            core.position(length, th, de)
            core.jac_v(length, th, de)
            core.jac_w(th, de)

    probes = {
        "kinematics_x64": kinematics_x64,
        "solve_deflection": lambda: core.solve_deflection(
            length, radius, beta, count, flex, k_t, q_cmd, tau0,
            0.42, 0.0, -0.24, 0.5236, 0.0, 5e-11, 100),
        "solve_tip_constraint": lambda: core.solve_tip_constraint(
            length, 0.5236, 0.0, 0.115, 0.0, 0.24, 1e-6, 1e-8, 100),
    }
    out = {}
    for name, fn in probes.items():
        fn()
        batches = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(batches) < 5:
            start = time.perf_counter()
            for _ in range(10):
                fn()
            batches.append((time.perf_counter() - start) / 10)
        out[name] = (statistics.median(batches) * 1e6, len(batches) * 10)
    return out


# Spans whose ".s" is self time: they nest within themselves, so inclusive
# times would count nested calls twice.
SELF_TIMED = ("kinematics", "model")
SPANS = ("cli.main", "sim.solve_deflection", "sim.solve_perching_reaction",
         "statics.allocate_tensions", "kernels.solve_deflection",
         "kernels.solve_tip_constraint", "stiffness.task_stiffness") + SELF_TIMED


def traced_phase(workload, workload_name, seconds):
    """Alternate untraced and traced units for `seconds`; at least two of each.

    Counts come from the first traced unit, times are medians over traced
    units, and every value is per unit.
    """
    _run_unit(workload)  # warm-up
    tracer = Tracer()
    untraced, traced, units = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(units) < 2:
        outcomes, _ = _run_unit(workload)
        untraced.append(sum(o.latency for o in outcomes))
        outcomes, snapshots = _run_unit(workload, tracer)
        traced.append(sum(o.latency for o in outcomes))
        units.append((outcomes, snapshots))
    checked = [o.check() for outcomes, _ in units for o in outcomes]
    attempted = sum(p for p, _ in checked)
    failed = sum(f for _, f in checked)

    first_outcomes, first_snaps = units[0]
    per_unit = [snaps[-1] for _, snaps in units]
    first = per_unit[0]["counts"]
    mismatches = sorted({k for snap in per_unit[1:] for k in snap["counts"].keys() | first.keys()
                         if snap["counts"].get(k) != first.get(k)})

    def count(name):
        return first.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def seconds_of(kind, span):
        return statistics.median(s[kind].get(span, 0.0) for s in per_unit)

    n = len(units)
    metrics = {"import.s": (IMPORT_S, "s", 1)}
    for span in SPANS:
        metrics[f"{span}.calls"] = (count(f"{span}.calls"), "count", 1)
        metrics[f"{span}.s"] = (seconds_of("self" if span in SELF_TIMED else "total", span), "s", n)
    for span in ("cli.main", "sim.solve_deflection", "sim.solve_perching_reaction"):
        metrics[f"{span}.self_s"] = (seconds_of("self", span), "s", n)
    allocations = count("statics.allocate_tensions.calls")
    solves = count("kernels.solve_deflection.calls")
    probe = _kernel_probe()
    metrics.update({
        "cli.csv_bytes": (sum(o.csv_bytes for o in first_outcomes), "bytes", 1),
        "sim.reaim_passes_per_row": (ratio(count("sim.reaim_passes"), count("sim.rows")),
                                     "ratio", 1),
        "statics.allocate_tensions.per_point": (allocations / (attempted / n), "ratio", 1),
        "statics.allocate_tensions.distinct_ratio": (
            ratio(count("statics.allocate_tensions.distinct"), allocations), "ratio", 1),
        "kernels.solve_deflection.iters_per_solve": (
            ratio(count("kernels.solve_deflection.newton_iters"), solves), "ratio", 1),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s", n),
        "trace.repeat_mismatches": (len(mismatches), "count", n),
    })
    for name in ("kernels.solve_deflection.newton_iters", "kernels.solve_deflection.failures",
                 "kernels.solve_tip_constraint.iters", "kernels.solve_tip_constraint.failures"):
        metrics[name] = (count(name), "count", 1)
    for name, (per_call_us, samples) in probe.items():
        metrics[f"kernels.probe.{name}_us"] = (per_call_us, "us", samples)

    report = {
        "unit": {"requests": workload.unit_size, "points": attempted / n},
        "traced_units": n,
        "untraced_unit_s": statistics.median(untraced),
        "traced_unit_s": statistics.median(traced),
        "repeat_mismatches": mismatches,
        "fail_frac": failed / attempted,
    }
    expected = SEED_COUNTS.get(workload_name)
    if expected:
        got = {name: first_snaps[0]["counts"].get(name, 0) for name in expected}
        report["seed_counts"] = {"match": got == expected, "expected": expected, "got": got}
    return attempted, failed, metrics, report


# --------------------------------------------------------------- provenance

def provenance():
    core = ccarm._kernels.core
    backend = ccarm.backend_name()
    build = "none"
    if backend == "compiled":
        marker = Path(core.__file__).with_name("_fastcore.build")
        build = (marker.read_text(encoding="utf-8").strip() if marker.exists()
                 else "cython (setup.py build_ext)")
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "ccarm_version": ccarm.__version__,
        "ccarm_path": str(Path(ccarm.__file__).resolve().parent),
        "backend": backend,
        "backend_build": build,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu": sorted(os.sched_getaffinity(0)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    # How much a neighbour's load slows the calibration loop relative to
    # ccarm differs between CPUs by up to 10%; running every workload on
    # the same CPU keeps that ratio from changing between runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    point_probe = PointQueries(args.seed)
    missed = checks.self_test(point_probe.self_test_queries(), point_probe.call)
    if missed:
        print("output checker missed perturbed outputs: " + ", ".join(missed), file=sys.stderr)
        return 3

    if args.trace:
        attempted, failed, metrics, report = traced_phase(workload, args.workload, args.seconds)
    else:
        attempted, failed, metrics, report = timed_phase(workload, args.seconds)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MB", 1)
    print(json.dumps({
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "report": report, "provenance": provenance(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
