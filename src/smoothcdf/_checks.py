"""The scalar argument checks every module shares.

Each number check converts its value to a Python number, rejects NaN and
the infinities, and raises one ValueError that names the argument.  A
value that does not convert at all is rejected the same way.  ``flag``
takes a bool and nothing else.
"""

from __future__ import annotations

import math

import numpy as np


def _float(v):
    try:
        return float(v)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def integer(name, v, lo=1):
    """v as an int >= lo; integral floats such as 2.0 count, 2.5, NaN and inf do not.

    Integers, NumPy's too, come back exact past 2**53, as 64-bit seeds need.
    """
    f = _float(v)
    if not (f.is_integer() and f >= lo):
        raise ValueError(f"{name} must be a positive integer" if lo == 1
                         else f"{name} must be an integer >= {lo}")
    return int(v) if isinstance(v, (int, np.integer)) else int(f)


def positive(name, v):
    """v as a float in (0, inf)."""
    f = _float(v)
    if not 0.0 < f < math.inf:
        raise ValueError(f"{name} must be positive and finite")
    return f


def nonnegative(name, v):
    """v as a float in [0, inf)."""
    f = _float(v)
    if not 0.0 <= f < math.inf:
        raise ValueError(f"{name} must be >= 0 and finite")
    return f


def flag(name, v):
    """v if it is a bool; 1, "false" and None are not."""
    if not isinstance(v, bool):
        raise ValueError(f"{name} must be true or false")
    return v
