"""Exception hierarchy and the four checks of outside numbers.

``DesignError`` marks bad user input (unknown columns, invalid responses,
degenerate designs); ``NumericalError`` marks failures of the numerics
(non-convergence, singular information blocks).  The CLI maps them to
exit codes 2 and 3 respectively.  Every public function converts the
numbers it is given through the checks below, which refuse, never cast
or flatten, and name the argument in their DesignError.
"""

import operator

import numpy as np


class SignFlipError(Exception):
    """Base class for all errors raised by this package."""


class DesignError(SignFlipError, ValueError):
    """Invalid user input: columns, responses, model specification."""


class NumericalError(SignFlipError, RuntimeError):
    """Numerical failure: non-convergence or a singular/indefinite matrix."""


def real_array(name, value, ndim=None):
    """``value`` as a float array, the array itself if it is float64 already.

    DesignError for ragged nesting, for values other than integers and
    floats, and, given ``ndim``, for another number of dimensions.
    """
    try:
        values = np.asarray(value)
    except ValueError:  # ragged nesting
        raise DesignError(f"{name} must be a rectangular array of numbers") from None
    if values.dtype.kind not in "iuf":
        raise DesignError(f"{name} must be numeric, got {values.dtype} values")
    if ndim is not None and values.ndim != ndim:
        need = "a single number" if ndim == 0 else f"{ndim}-dimensional"
        raise DesignError(f"{name} must be {need}, got shape {values.shape}")
    return values.astype(float, copy=False)


def finite_array(name, value, ndim=None):
    """``real_array`` of ``value``; DesignError if it holds NaN or an infinity."""
    values = real_array(name, value, ndim)
    if not np.isfinite(values).all():
        raise DesignError(f"{name} must be finite: values of shape {values.shape} "
                          "hold NaN or infinite entries")
    return values


def integer(name, value, low=None):
    """``value`` as an int, numpy integers included.

    DesignError for anything else, bool and floats included, and for a
    value below ``low`` when it is given.
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if low is not None and value < low:
                raise DesignError(f"{name} must be at least {low}, got {value}")
            return value
    raise DesignError(f"{name} must be an integer, got {value!r}")


def check_alpha(alpha):
    """DesignError unless ``alpha`` is one number in (0, 1)."""
    if not 0.0 < real_array("alpha", alpha, ndim=0) < 1.0:
        raise DesignError(f"alpha must be in (0, 1), got {alpha!r}")
