"""Central-difference oracle for checking analytic gradients and Jacobians.

The step h = 1e-6 and the pass tolerance 1e-5 are fixed.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_STEP = 1e-6
_REL_TOL = 1e-5


def fd_jacobian(fn: Callable, x) -> np.ndarray:
    """Central-difference derivative of fn at x, column i (fn(x + h e_i) - fn(x - h e_i)) / (2h).

    h = 1e-6.  A scalar fn gives its gradient, shape (n,); a vector fn of
    m outputs gives its (m, n) Jacobian, (0, n) when m = 0.  fn is called
    exactly 2n times and never at x itself.  Perturbed points are not
    projected; fn must be defined near x in all of R^n.  A non-finite value
    raises ValueError naming the coordinate.
    """
    x = np.asarray(x, dtype=float)
    columns = []
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = _STEP
        hi = np.asarray(fn(x + step), dtype=float)
        lo = np.asarray(fn(x - step), dtype=float)
        if not (np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))):
            raise ValueError(f"non-finite function value while perturbing coordinate {i}")
        columns.append((hi - lo) / (2.0 * _STEP))
    return np.stack(columns, axis=-1)


def compare(analytic, numeric) -> tuple[float, bool]:
    """Elementwise max of |a - b| / (1 + |a|), and whether it is <= 1e-5."""
    a = np.asarray(analytic, dtype=float)
    b = np.asarray(numeric, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0, True
    err = float(np.max(np.abs(a - b) / (1.0 + np.abs(a))))
    return err, err <= _REL_TOL
