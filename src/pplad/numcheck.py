"""Finite-difference oracles for checking analytic gradients and Jacobians."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np


@dataclass(frozen=True)
class FdSettings:
    """Central-difference step size and pass tolerance."""

    step: float = 1e-6
    rel_tol: float = 1e-5

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")


class CompareResult(NamedTuple):
    max_rel_error: float
    passed: bool


def _central_differences(fn: Callable, x: np.ndarray, settings: FdSettings | None,
                         out: np.ndarray) -> np.ndarray:
    """Fill column i of ``out`` with (fn(x + h e_i) - fn(x - h e_i)) / (2h), for every i."""
    h = (settings or FdSettings()).step
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = h
        hi = np.asarray(fn(x + step), dtype=float)
        lo = np.asarray(fn(x - step), dtype=float)
        if not (np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))):
            raise ValueError(f"non-finite function value while perturbing coordinate {i}")
        out[..., i] = (hi - lo) / (2.0 * h)
    return out


def fd_gradient(fn: Callable, x, settings: FdSettings | None = None) -> np.ndarray:
    """Central-difference gradient of a scalar function at x.

    (fn(x + h e_i) - fn(x - h e_i)) / (2h) per coordinate.  Perturbed points
    are not projected; fn must be defined near x in all of R^n.  A non-finite
    value raises ValueError naming the coordinate, here and in ``fd_jacobian``.
    """
    x = np.asarray(x, dtype=float)
    return _central_differences(fn, x, settings, np.empty(x.size))


def fd_jacobian(fn: Callable, x, settings: FdSettings | None = None) -> np.ndarray:
    """Central-difference Jacobian of a vector function at x, one row per output."""
    x = np.asarray(x, dtype=float)
    rows = np.asarray(fn(x), dtype=float).size
    return _central_differences(fn, x, settings, np.empty((rows, x.size)))


def compare(analytic, numeric, rel_tol: float = 1e-5) -> CompareResult:
    """Elementwise max of |a - b| / (1 + |a|); passes iff it is <= rel_tol."""
    a = np.asarray(analytic, dtype=float)
    b = np.asarray(numeric, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return CompareResult(0.0, True)
    err = float(np.max(np.abs(a - b) / (1.0 + np.abs(a))))
    return CompareResult(err, err <= rel_tol)
