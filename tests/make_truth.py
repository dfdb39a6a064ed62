"""Write the truth files: the default sweeps' distinct points, from the exact model.

Run from the repository root:

    PYTHONPATH=src python tests/make_truth.py

It writes ``tests/data/stiffness_truth.csv`` and ``tests/data/perching_truth.csv``.
The points are those of ``ccarm sweep --experiment stiffness`` (five bends,
the unloaded point and five 20-gram increments) and of ``ccarm sweep
--experiment perching`` on both axes (21 base offsets at a 30 degree bend).
They are solved at 40 digits by ``tests/exact_model.py``, which uses none of
the library's solvers, and written at 17 significant digits.  At offset 0 the
exact reaction is 0; the file holds the model's rounding there, about 1e-40.
The sweep CSVs are checked against these files, so a solver change can show
that it moved its output toward the equilibrium rather than away from it.
``tests/test_truth.py`` re-runs this generator and requires the committed
files to match it string for string.
"""

import math
from pathlib import Path

import exact_model
from ccarm.sim import STANDARD_GRAVITY

DATA = Path(__file__).resolve().parent / "data"
STIFFNESS_TRUTH = DATA / "stiffness_truth.csv"
PERCHING_TRUTH = DATA / "perching_truth.csv"

STIFFNESS_CONFIGS_DEG = (0, 15, 30, 45, 60)
STIFFNESS_LOADS = [0.02 * STANDARD_GRAVITY * k for k in range(6)]
PERCHING_THETA_DEG = 30
PERCHING_AXES = {"x": (1.0, 0.0, 0.0), "z": (0.0, 0.0, 1.0)}
PERCHING_OFFSETS = [k * 0.5 * 1e-3 for k in range(21)]

STIFFNESS_HEADER = ["config_theta_deg", "load_N", "disp_x_m", "disp_y_m", "disp_z_m"]
PERCHING_HEADER = ["axis", "offset_m", "fx_N", "fy_N", "fz_N", "mx_Nm", "my_Nm", "mz_Nm"]


def _fmt(x):
    return format(float(x), ".17g")


def stiffness_rows():
    """Truth rows of the default stiffness sweep's distinct points, as strings."""
    return [[_fmt(deg), _fmt(load),
             *map(_fmt, exact_model.stiffness_displacement(math.radians(deg), load))]
            for deg in STIFFNESS_CONFIGS_DEG for load in STIFFNESS_LOADS]


def perching_rows():
    """Truth rows of the default perching sweeps' distinct points, as strings."""
    theta = math.radians(PERCHING_THETA_DEG)
    rows = []
    for axis, direction in PERCHING_AXES.items():
        for offset in PERCHING_OFFSETS:
            force, moment = exact_model.perching_wrench(theta, [offset * v for v in direction])
            rows.append([axis, _fmt(offset), *map(_fmt, force), *map(_fmt, moment)])
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
