#!/usr/bin/env python3
"""Build the compiled kernel backend with gcc, without Cython, in a copy of src/.

    python3 perfbench/build_fastcore.py DEST
    python3 perfbench/run.py --src DEST/src --workload stiffness_sweep --seed 1 \\
        --seconds 10 --trace 1

Copies ./src to DEST/src and compiles the committed, Cython-generated
src/ccarm/_kernels/_fastcore.c there into the extension module, next to a
``_fastcore.build`` marker that the benchmark reports as the backend's build.
The checkout itself is never written to, so DEST must lie outside it.
"""

import argparse
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

GCC_FLAGS = ["-O2", "-shared", "-fPIC"]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dest", type=Path, help="directory outside the checkout")
    args = parser.parse_args()

    root = Path.cwd().resolve()
    dest = args.dest.resolve()
    source = root / "src" / "ccarm" / "_kernels" / "_fastcore.c"
    if not source.is_file():
        sys.exit(f"build_fastcore: {source} not found; run from the root of a ccarm checkout")
    if dest == root or root in dest.parents:
        sys.exit("build_fastcore: DEST must lie outside the checkout")

    target_src = dest / "src"
    if target_src.exists():
        shutil.rmtree(target_src)
    shutil.copytree(root / "src", target_src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.egg-info"))
    kernels = target_src / "ccarm" / "_kernels"
    module = kernels / ("_fastcore" + sysconfig.get_config_var("EXT_SUFFIX"))
    command = (["gcc", *GCC_FLAGS, "-I" + sysconfig.get_paths()["include"],
                str(kernels / "_fastcore.c"), "-o", str(module)])
    subprocess.run(command, check=True, timeout=600)
    (kernels / "_fastcore.build").write_text(
        f"gcc {' '.join(GCC_FLAGS)} from the committed _fastcore.c\n", encoding="utf-8")
    print(f"built {module}")


if __name__ == "__main__":
    main()
