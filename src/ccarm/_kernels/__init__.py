"""Numeric kernels: the scalar math and the Newton / Gauss-Newton inner loops.

Callers reach the kernels as ``core.<name>``.
"""

from . import _purecore as core


def backend_name():
    """Name of the kernel implementation: always 'pure-python'."""
    return "pure-python"
