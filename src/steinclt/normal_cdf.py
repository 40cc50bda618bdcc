"""Standard normal CDF, Phi(x) = erfc(-x/sqrt(2))/2, on the standard library's erfc.

``math.erfc`` (the platform C library's) is taken once per element of an
array, and a NaN gives NaN.  The unit tests compare Phi with a shipped
high-precision reference table.
"""

import math

import numpy as np

__all__ = ["normal_cdf"]

_SQRT2 = math.sqrt(2.0)


def normal_cdf(x):
    """Phi(x) = P[Z <= x] for Z standard normal: a float for a scalar, else an array of x's shape."""
    if np.ndim(x) == 0:
        return 0.5 * math.erfc(-float(x) / _SQRT2)
    z = -np.asarray(x, dtype=np.float64) / _SQRT2
    return 0.5 * np.fromiter(map(math.erfc, z.ravel()), np.float64, z.size).reshape(z.shape)
