"""Write the truth files: the default sweeps' distinct points, solved tightly.

Run from the repository root:

    PYTHONPATH=src python tests/make_truth.py

It writes ``tests/data/stiffness_truth.csv`` and ``tests/data/perching_truth.csv``.
The points are those of ``ccarm sweep --experiment stiffness`` (five bends,
the unloaded point and five 20-gram increments) and of ``ccarm sweep
--experiment perching`` on both axes (21 base offsets at a 30 degree bend).
They are solved through the library drivers with the solver tolerances in
``TIGHT``, set on ``ccarm.sim`` for the duration of the solve only, and
written at 17 significant digits.  The sweep CSVs are checked against these
files, so a solver change can show that it moved its output toward the
equilibrium rather than away from it.  ``tests/test_truth.py`` re-runs this
generator and requires the committed files to match it string for string,
so a change that moves the truth in any digit must regenerate them.

The truth comes from the library's own kernel, so an error that the kernel
and the truth share does not show.  The arc quotients, the likeliest such
error, are checked separately against a 50-digit ``mpmath`` model in
``tests/test_sim.py``.

The IK cannot go much tighter than ``TIGHT["_IK_TOL"]``: below about 2e-10 m
its line search stops resolving tangential progress and some default points
exhaust their iteration budget.
"""

import contextlib
import math
from pathlib import Path

import numpy as np

import ccarm.sim as sim
from ccarm import (default_parameters, run_perching_sweep, run_stiffness_sweep,
                   wrap_configuration)

DATA = Path(__file__).resolve().parent / "data"
STIFFNESS_TRUTH = DATA / "stiffness_truth.csv"
PERCHING_TRUTH = DATA / "perching_truth.csv"

TIGHT = {"_REAIM_TOL": 1e-15, "_DEFLECTION_TOL": 1e-14, "_IK_TOL": 3e-10}

STIFFNESS_CONFIGS_DEG = (0, 15, 30, 45, 60)
STIFFNESS_LOADS = [0.02 * sim.STANDARD_GRAVITY * k for k in range(6)]
PERCHING_THETA_DEG = 30
PERCHING_AXES = {"x": (1.0, 0.0, 0.0), "z": (0.0, 0.0, 1.0)}
PERCHING_OFFSETS = [k * 0.5 * 1e-3 for k in range(21)]

STIFFNESS_HEADER = ["config_theta_deg", "load_N", "disp_x_m", "disp_y_m", "disp_z_m"]
PERCHING_HEADER = ["axis", "offset_m", "fx_N", "fy_N", "fz_N", "mx_Nm", "my_Nm", "mz_Nm"]


def _fmt(x):
    return format(float(x), ".17g")


@contextlib.contextmanager
def tight_tolerances():
    """Set ``ccarm.sim``'s solver tolerances to ``TIGHT``, then restore them."""
    saved = {name: getattr(sim, name) for name in TIGHT}
    try:
        for name, value in TIGHT.items():
            setattr(sim, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(sim, name, value)


def stiffness_rows():
    """Truth rows of the default stiffness sweep's distinct points, as strings."""
    params = default_parameters()
    rows = []
    with tight_tolerances():
        for deg in STIFFNESS_CONFIGS_DEG:
            config = wrap_configuration(math.radians(deg), 0.0)
            records = run_stiffness_sweep(params, [config], STIFFNESS_LOADS)
            rows += [[_fmt(deg), _fmt(load), *map(_fmt, record.tip_displacement)]
                     for load, record in zip(STIFFNESS_LOADS, records)]
    return rows


def perching_rows():
    """Truth rows of the default perching sweeps' distinct points, as strings."""
    params = default_parameters()
    config = wrap_configuration(math.radians(PERCHING_THETA_DEG), 0.0)
    rows = []
    with tight_tolerances():
        for axis in PERCHING_AXES:
            direction = np.array(PERCHING_AXES[axis])
            records = run_perching_sweep(params, config,
                                         [offset * direction for offset in PERCHING_OFFSETS])
            if not all(record.converged for record in records):
                raise RuntimeError(f"a perching truth point on {axis} did not converge")
            rows += [[axis, _fmt(offset), *map(_fmt, record.reaction_force),
                      *map(_fmt, record.reaction_moment)]
                     for offset, record in zip(PERCHING_OFFSETS, records)]
    return rows


def _write(path, header, rows):
    path.write_text("\n".join(",".join(row) for row in [header, *rows]) + "\n",
                    encoding="utf-8")


def main():
    _write(STIFFNESS_TRUTH, STIFFNESS_HEADER, stiffness_rows())
    _write(PERCHING_TRUTH, PERCHING_HEADER, perching_rows())
    print(f"wrote {STIFFNESS_TRUTH} and {PERCHING_TRUTH}")


if __name__ == "__main__":
    main()
