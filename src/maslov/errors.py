"""Exception types shared across the package, and the one intake rule each
for arrays and for scalars that come in from callers.

Every error carries a machine-readable ``code`` so the CLI can map failures
to exit codes without string matching.
"""

import math

import numpy as np


class MaslovError(Exception):
    """Base class for all package errors."""

    code = "ERROR"


class BadInput(MaslovError):
    """Input violates a structural precondition (shape, symmetry, schema)."""

    code = "BAD_INPUT"


class Undersampled(MaslovError):
    """A sampled path is too coarse to lift reliably and cannot be refined."""

    code = "UNDERSAMPLED"


class IllConditioned(MaslovError):
    """A rank or signature decision fell inside the tolerance ambiguity band."""

    code = "ILL_CONDITIONED"


def numeric_array(data, what: str, dtype=float) -> np.ndarray:
    """``data`` as a float (or complex) array by the one intake rule for
    caller arrays: numpy must read it as one rectangular array of numbers,
    complex ones only for dtype complex.  Strings and booleans, which numpy
    would convert, ragged nests and other objects raise BadInput naming
    ``what``.  The result may share memory with ``data``."""
    try:
        arr = np.asarray(data)
        kind = arr.dtype.kind
        if kind == "O" and {type(x) for x in arr.flat} <= {int, float}:
            kind = "f"  # integer literals too large for int64
        if kind not in ("iufc" if dtype is complex else "iuf"):
            raise BadInput(f"{what}: entries must be numbers")
        return arr.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadInput(f"{what}: not a numeric array ({exc})")


def scalar(x, what: str, integer: bool = False):
    """``x`` by the one intake rule for caller scalars: a plain Python int or
    float (numpy's float64 is a float), not a bool, and finite; an int when
    ``integer``.  Strings, arrays, numpy integers and the rest raise
    BadInput naming ``what``.  ``x`` is returned unchanged."""
    kinds = int if integer else (int, float)
    if isinstance(x, bool) or not isinstance(x, kinds):
        raise BadInput(f"{what} must be an int" + ("" if integer else " or a float"))
    try:
        finite = integer or math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise BadInput(f"{what} must be finite")
    return x
