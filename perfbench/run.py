#!/usr/bin/env python3
"""ccarm benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a ccarm checkout:

    python3 perfbench/run.py --workload stiffness_sweep --seed 1 --seconds 10 --trace 0

Imports ccarm from ./src (or --src), measures set-up time in fresh
interpreters, then runs the workload in one child process with BLAS pinned
to one thread.  Prints a human-readable report, then one JSON line with
"correct", "attempted", "failed" and "metrics": the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("stiffness_sweep", "perching_sweep", "point_queries")
SETUP_REPEATS = 6  # before and again after the workload, to span its run
# The probe reports its own end time against the parent's start time, so the
# measurement does not depend on how often the parent polls for its exit.
SETUP_CODE = ("import time; import ccarm; ccarm.default_parameters(); "
              "print(time.time() - {start!r})")
BARE_CODE = "import time; print(time.time() - {start!r})"
TIME_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s", "points_per_s": "1/s", "request_p50_ms": "ms", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.s": "s",
    "cli.main.calls": "count", "cli.main.s": "s", "cli.main.self_s": "s",
    "cli.csv_bytes": "bytes",
    "sim.solve_deflection.calls": "count", "sim.solve_deflection.s": "s",
    "sim.solve_deflection.self_s": "s", "sim.reaim_passes_per_row": "ratio",
    "sim.solve_perching_reaction.calls": "count", "sim.solve_perching_reaction.s": "s",
    "sim.solve_perching_reaction.self_s": "s",
    "statics.allocate_tensions.calls": "count", "statics.allocate_tensions.s": "s",
    "statics.allocate_tensions.per_point": "ratio",
    "statics.allocate_tensions.distinct_ratio": "ratio",
    "kernels.solve_deflection.calls": "count", "kernels.solve_deflection.s": "s",
    "kernels.solve_deflection.newton_iters": "count",
    "kernels.solve_deflection.iters_per_solve": "ratio",
    "kernels.solve_deflection.failures": "count",
    "kernels.solve_tip_constraint.calls": "count", "kernels.solve_tip_constraint.s": "s",
    "kernels.solve_tip_constraint.iters": "count",
    "kernels.solve_tip_constraint.failures": "count",
    "kernels.probe.solve_deflection_us": "us", "kernels.probe.solve_tip_constraint_us": "us",
    "kernels.probe.kinematics_x64_us": "us",
    "kinematics.calls": "count", "kinematics.s": "s",
    "model.calls": "count", "model.s": "s",
    "stiffness.task_stiffness.calls": "count", "stiffness.task_stiffness.s": "s",
    "trace.overhead_s": "s", "trace.repeat_mismatches": "count",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + str(HERE)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("CCARM_PURE_PYTHON", None)
    return env


def measure_setup(env, deadline, samples):
    """Time fresh interpreters: bare, and running `import ccarm` plus the parameters."""
    for _ in range(SETUP_REPEATS):
        for name, code in (("bare", BARE_CODE), ("setup", SETUP_CODE)):
            probe = subprocess.run(
                [sys.executable, "-c", code.format(start=time.time())], env=env, check=True,
                capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
            samples[name].append(float(probe.stdout))


def source_digest(src):
    digest = hashlib.sha256()
    for path in sorted((src / "ccarm").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def check_benchmark_json(root):
    """The metric lists here and in BENCHMARK.json must name the same metrics."""
    path = root / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text(encoding="utf-8"))
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec.get(key, [])}
        if listed != names:
            fail(f"BENCHMARK.json {key} does not match the metrics perfbench reports")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", type=Path, default=Path("src"),
                        help="directory holding the ccarm package (default: ./src)")
    args = parser.parse_args()

    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd()
    src = args.src.resolve()
    if not (src / "ccarm" / "__init__.py").is_file():
        fail(f"no ccarm package under {src}; run from the root of a ccarm checkout")
    check_benchmark_json(root)
    env = child_env(src)

    setup = {"setup": [], "bare": []}
    if not args.trace:
        measure_setup(env, deadline, setup)

    workdir = root / ".perfbench_work" / str(os.getpid())
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    try:
        child = subprocess.run(cmd, env=env, capture_output=True, text=True,
                               timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("workload did not finish in time")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.exists() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    sys.stderr.write(child.stderr)
    if child.returncode != 0:
        fail(f"workload exited with code {child.returncode}")
    if not args.trace:
        measure_setup(env, deadline, setup)
    result = json.loads(child.stdout.strip().splitlines()[-1])

    metrics = result["metrics"]
    if setup["setup"]:
        metrics["setup_s"] = {"value": statistics.median(setup["setup"]), "unit": "s",
                              "n": len(setup["setup"])}
    wanted = PER_LAYER if args.trace else END_TO_END
    wrong = sorted(n for n, unit in wanted.items() if metrics.get(n, {}).get("unit") != unit)
    if wrong:
        fail("workload did not report, or mislabelled, " + ", ".join(wrong))

    provenance = dict(result["provenance"], git_sha=git_sha(root), source_sha256=source_digest(src),
                      nproc=os.cpu_count(), seed=args.seed, workload=args.workload)
    report = dict(result["report"])
    if setup["bare"]:
        report["bare_interpreter_s"] = statistics.median(setup["bare"])
    attempted, failed = result["attempted"], result["failed"]
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"backend={provenance['backend']} (build: {provenance['backend_build']})")
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    print("# report " + json.dumps(report, sort_keys=True))
    for name, m in sorted(metrics.items()):
        print(f"# {name} = {m['value']:.6g} {m['unit']} (n={m['n']})")
    print(f"# fail_frac = {failed / attempted:.6g} ({failed} of {attempted} points)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": unit}
                    for name, unit in wanted.items()},
    }))


if __name__ == "__main__":
    main()
