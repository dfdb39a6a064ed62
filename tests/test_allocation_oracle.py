"""The arc search against its frozen earlier form, and sums that keep bits.

``allocation_oracle`` holds the oracle and the seeded corpus; it also runs
as a numpy-free script, so the same corpus can be checked on interpreters
without numpy or pytest.
"""

import ast
from pathlib import Path

import ccarm

from allocation_oracle import compare, corpus


def test_arc_search_matches_the_oracle_bit_for_bit():
    # 20,000 seeded cases: tensions equal by float.hex, zero signs included,
    # and the same InfeasibleTensionsError verdicts
    cases = corpus()
    infeasible, mismatches, _ = compare(cases)
    assert mismatches == []
    assert 0 < infeasible < len(cases) // 2


def test_solver_modules_call_no_builtin_sum():
    # Python 3.12 made sum() of floats compensated, so a builtin sum would give
    # other bits there than on 3.10 and 3.11; the float cores sum in loops
    package = Path(ccarm.__file__).parent
    paths = [package / name for name in ("statics.py", "sim.py", "stiffness.py")]
    paths += sorted((package / "_kernels").glob("*.py"))
    calls = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "sum"]
    assert calls == []
