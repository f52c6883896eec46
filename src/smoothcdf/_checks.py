"""The argument checks every module shares.

Each number check converts its value to a Python number, rejects NaN and
the infinities, and raises one ValueError that names the argument.  A
value that does not convert at all, or is a string, "20" included, is
rejected the same way.  ``floats`` takes numbers of any shape, a scalar,
list or array, by the same rule: a string, or a list or array holding one,
is rejected.  ``number`` takes one number by that rule, and no list or
array of them.  ``flag`` takes a bool and nothing else.  ``seed`` takes any
integer and reduces it modulo 2**64, the one place a seed is reduced.

``spec`` reads the ``{"kind": ..., <keys>}`` dicts of the estimator and
distribution configs: each kind takes exactly its own required and
optional keys, and a value that is no such dict, an unknown kind, a key
the kind does not take and a missing required key each raise one
ValueError that names them.
"""

from __future__ import annotations

import math

import numpy as np


def _float(v):
    # a number as a float; a string is no number, even one that spells one
    if isinstance(v, (str, bytes)):
        return math.nan
    try:
        return float(v)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def integer(name, v, lo=1):
    """v as an int >= lo, or any int for lo=None; integral floats such as 2.0
    count, 2.5, NaN and inf do not.

    Integers, NumPy's too, come back exact past 2**53, as 64-bit seeds need.
    """
    f = _float(v)
    if not (f.is_integer() and (lo is None or f >= lo)):
        raise ValueError(f"{name} must be a positive integer" if lo == 1 else
                         f"{name} must be an integer" + ("" if lo is None else f" >= {lo}"))
    return int(v) if isinstance(v, (int, np.integer)) else int(f)


def seed(name, v):
    """v as a 64-bit seed: any integer, taken modulo 2**64 (-1 is 2**64 - 1)."""
    return integer(name, v, lo=None) % 2**64


def finite(name, v):
    """v as a float in (-inf, inf)."""
    f = _float(v)
    if not math.isfinite(f):
        raise ValueError(f"{name} must be finite")
    return f


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


def floats(name, v):
    """v as a float array of v's shape, its numbers' bits kept."""
    a = np.asarray(v)
    if a.dtype.kind in "SU" or (a.dtype.kind == "O"
                                and any(isinstance(e, (str, bytes)) for e in a.flat)):
        raise ValueError(f"{name} must be numeric: a string is no number")
    return a.astype(float, copy=False)


def number(name, v):
    """v as one float by the rule of ``floats``; a list or an array, even of
    one number, is not one."""
    a = floats(name, v)
    if a.ndim:
        raise ValueError(f"{name} must be a single number, not an array of shape {a.shape}")
    return float(a)


def flag(name, v):
    """v if it is a bool; 1, "false" and None are not."""
    if not isinstance(v, bool):
        raise ValueError(f"{name} must be true or false")
    return v


def spec(what, value, keys):
    """The kind of the ``what`` spec ``value``, once its keys are checked.

    ``keys`` maps each kind to its (required, optional) key names; the
    value must be a dict with a "kind" among them and, besides "kind",
    every required key of that kind and no key it does not take.
    """
    if not isinstance(value, dict) or "kind" not in value:
        raise ValueError(f"{what} spec must be a dict with a 'kind' key")
    kind = value["kind"]
    if kind not in tuple(keys):  # a tuple, so an unhashable kind is no TypeError
        raise ValueError(f"unknown {what} kind: {kind!r}")
    required, optional = keys[kind]
    unknown = set(value) - {"kind", *required, *optional}
    if unknown:
        raise ValueError(f"unknown {kind} spec keys: {', '.join(sorted(map(repr, unknown)))}")
    for key in required:
        if key not in value:
            raise ValueError(f"{kind} spec is missing {key!r}")
    return kind
