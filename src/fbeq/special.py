"""Exponential integral E1 for positive real arguments.

A thin wrapper around :func:`scipy.special.exp1` that enforces the domain
``x > 0`` the LSA gain rule relies on and returns a Python float for scalar
input.  ``scipy.special`` is imported on the first call rather than at module
import, so ``import fbeq`` does not pay for loading it.
"""

from __future__ import annotations

import numpy as np

# scipy.special.exp1, bound on the first call.
_exp1 = None


def exp_integral_e1(x):
    """Exponential integral ``E1(x) = int_x^inf exp(-t)/t dt`` for ``x > 0``.

    Parameters
    ----------
    x : float or array_like
        Strictly positive argument(s).

    Returns
    -------
    float or numpy.ndarray
        ``E1`` evaluated elementwise with :func:`scipy.special.exp1`; a
        Python float for scalar input, the input's shape otherwise.

    Raises
    ------
    ValueError
        If any argument is not strictly positive (NaN included).
    """
    global _exp1
    if _exp1 is None:
        from scipy.special import exp1 as _exp1

    arr = np.asarray(x, dtype=float)
    # A NaN minimum fails too.  The ufunc reduce skips ndarray.all's Python
    # wrapper; its initial value lets an empty input pass.
    if not np.minimum.reduce(arr, axis=None, initial=np.inf) > 0.0:
        raise ValueError("exp_integral_e1 requires x > 0")
    out = _exp1(arr)
    if arr.ndim == 0:
        return float(out)
    return out
