"""Built-in test problems, a dense QCQP constructor and the QCQP text format.

All three built-ins violate the linear-independence constraint
qualification at their solutions, which is exactly the regime the dual
damping is designed for: the multiplier set is unbounded, yet the solver's
dual iterates stay bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (Ball, Box, DimensionMismatch, NonnegativeOrthant, Problem,
                    ProjectionKind, WholeSpace)


@dataclass(frozen=True)
class QcqpSpec:
    """Dense data for min 0.5 x'Qx + q'x s.t. 0.5 x'Qj x + qj'x + bj = 0, x in X.

    Q and every Qj are symmetrized on construction ((M + M') / 2) so the
    gradients are exactly Qx + q and Qj x + qj.
    """

    Q: np.ndarray
    q: np.ndarray
    Qj: tuple
    qj: tuple
    bj: tuple
    projection: ProjectionKind

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise DimensionMismatch("objective matrix", "square matrix", Q.shape)
        n = Q.shape[0]
        if q.shape != (n,):
            raise DimensionMismatch("objective linear term", (n,), q.shape)
        Qj = tuple(np.asarray(M, dtype=float) for M in self.Qj)
        qj = tuple(np.asarray(v, dtype=float) for v in self.qj)
        bj = tuple(float(b) for b in self.bj)
        if not (len(Qj) == len(qj) == len(bj)):
            raise DimensionMismatch("constraint data lengths",
                                    len(Qj), (len(qj), len(bj)))
        for j, (M, v) in enumerate(zip(Qj, qj)):
            if M.shape != (n, n):
                raise DimensionMismatch(f"constraint matrix {j}", (n, n), M.shape)
            if v.shape != (n,):
                raise DimensionMismatch(f"constraint linear term {j}", (n,), v.shape)
        object.__setattr__(self, "Q", 0.5 * (Q + Q.T))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "Qj", tuple(0.5 * (M + M.T) for M in Qj))
        object.__setattr__(self, "qj", qj)
        object.__setattr__(self, "bj", bj)

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return len(self.Qj)


def from_qcqp(spec: QcqpSpec, name: str = "qcqp") -> Problem:
    """Wrap a QcqpSpec into a Problem with exact quadratic-form derivatives.

    The constraint matrices are stacked once into an (m n, n) array, and c
    and J share one product ``Mx`` (row j is Qj x) per point: J = Mx + qj
    row-wise and c_j = 0.5 <Qj x, x> + qj'x + bj.  The solver asks for c
    and J at the same x, so the last product is kept in a one-entry cache
    keyed on the exact bits of x; a hit returns what a fresh evaluation
    would, and the cached array itself is never handed out.
    """
    Q, q = spec.Q, spec.q
    n, m = spec.n, spec.m

    def objective(x):
        return float(0.5 * (x @ Q @ x) + q @ x)

    def objective_gradient(x):
        return Q @ x + q

    if m:
        stacked = np.concatenate(spec.Qj)  # (m n, n): Q1 on top of Q2 ...
        linear = np.array(spec.qj)         # (m, n)
        offset = np.array(spec.bj)         # (m,)
        last = None                        # (key of x, Mx), replaced whole

        def products(x):
            nonlocal last
            x = np.asarray(x, dtype=float)
            key = (x.shape, x.tobytes())
            entry = last
            if entry is None or entry[0] != key:
                entry = last = (key, (stacked @ x).reshape(m, n))
            return x, entry[1]

        def constraints(x):
            x, Mx = products(x)
            return 0.5 * np.vecdot(Mx, x) + linear @ x + offset

        def constraint_jacobian(x):
            _, Mx = products(x)
            return Mx + linear
    else:
        def constraints(x):
            return np.zeros(0)

        def constraint_jacobian(x):
            return np.zeros((0, n))

    return Problem(n=n, m=m, objective=objective,
                   objective_gradient=objective_gradient,
                   constraints=constraints,
                   constraint_jacobian=constraint_jacobian,
                   projection=spec.projection, name=name)


# ---------------------------------------------------------------------------
# QCQP text format
# ---------------------------------------------------------------------------
#
# Line-oriented and whitespace-separated, '#' starting a comment anywhere:
# a ``dim n m`` line; section ``Q`` (n rows of n numbers) and section ``q``
# (one row of n); for j = 1..m the sections ``Qj`` (n rows), ``qj`` (one row)
# and ``bj`` (one number); finally a ``projection <name>`` line followed by
# one line per field of the projection kind.

# projection name -> (kind, its fields in file order: "n" numbers or 1)
_PROJECTIONS = {
    "whole": (WholeSpace, {}),
    "nonneg": (NonnegativeOrthant, {}),
    "box": (Box, {"lo": "n", "hi": "n"}),
    "ball": (Ball, {"center": "n", "radius": 1}),
}


class QcqpParseError(ValueError):
    """Bad QCQP problem file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"{message} (line {line})")


def _parse_numbers(lineno: int, text: str, count: int, what: str) -> np.ndarray:
    parts = text.split()
    if len(parts) != count:
        raise QcqpParseError(f"{what}: expected {count} numbers, got {len(parts)}", lineno)
    try:
        return np.array(parts, dtype=float)
    except ValueError:
        raise QcqpParseError(f"{what}: non-numeric token in {text!r}", lineno) from None


def load_qcqp_spec(path: str) -> QcqpSpec:
    """Parse the plain-text QCQP format into a QcqpSpec."""
    with open(path, "r", encoding="utf-8") as fh:
        stripped = ((lineno, raw.split("#", 1)[0].strip())
                    for lineno, raw in enumerate(fh, start=1))
        lines = [item for item in stripped if item[1]]
    pos = 0

    def next_line(expect: str):
        nonlocal pos
        if pos >= len(lines):
            lastno = lines[-1][0] if lines else 0
            raise QcqpParseError(f"unexpected end of file, expected {expect}", lastno)
        pos += 1
        return lines[pos - 1]

    def read_rows(count: int, width: int, what: str) -> np.ndarray:
        return np.vstack([_parse_numbers(*next_line(what), width, what)
                          for _ in range(count)])

    def read_section(tag: str, count: int, width: int) -> np.ndarray:
        lineno, text = next_line(f"section {tag!r}")
        if text != tag:
            raise QcqpParseError(f"expected section {tag!r}, got {text!r}", lineno)
        return read_rows(count, width, f"row of {tag}")

    lineno, text = next_line("'dim n m'")
    parts = text.split()
    if len(parts) != 3 or parts[0] != "dim":
        raise QcqpParseError(f"expected 'dim n m', got {text!r}", lineno)
    try:
        n, m = int(parts[1]), int(parts[2])
    except ValueError:
        raise QcqpParseError(f"non-integer dimensions in {text!r}", lineno) from None
    if n < 1 or m < 0:
        raise QcqpParseError(f"invalid dimensions n={n}, m={m}", lineno)

    Q = read_section("Q", n, n)
    q = read_section("q", 1, n)[0]
    Qj, qj, bj = [], [], []
    for j in range(1, m + 1):
        Qj.append(read_section(f"Q{j}", n, n))
        qj.append(read_section(f"q{j}", 1, n)[0])
        bj.append(read_section(f"b{j}", 1, 1)[0, 0])

    lineno, text = next_line("'projection <kind>'")
    parts = text.split()
    if len(parts) != 2 or parts[0] != "projection":
        raise QcqpParseError(f"expected 'projection <kind>', got {text!r}", lineno)
    name = parts[1]
    if name not in _PROJECTIONS:
        raise QcqpParseError(f"unknown projection kind {name!r}", lineno)
    kind, sizes = _PROJECTIONS[name]
    fields = {}
    for field, size in sizes.items():
        row = read_rows(1, n if size == "n" else 1, f"{name} {field}")[0]
        fields[field] = row if size == "n" else float(row[0])
    projection = kind(**fields)

    if pos < len(lines):
        lineno, text = lines[pos]
        raise QcqpParseError(f"trailing content {text!r}", lineno)
    return QcqpSpec(Q=Q, q=q, Qj=tuple(Qj), qj=tuple(qj), bj=tuple(bj),
                    projection=projection)


def load_qcqp(path: str, name: str | None = None) -> Problem:
    """Load a QCQP problem file and construct the Problem."""
    return from_qcqp(load_qcqp_spec(path), name=name or str(path))


def save_qcqp(spec: QcqpSpec, path: str) -> None:
    """Serialize a QcqpSpec in the plain-text format read by ``load_qcqp``."""
    def fmt(values) -> str:
        return " ".join("%.17g" % v for v in np.atleast_1d(values))

    lines = [f"dim {spec.n} {spec.m}", "Q", *map(fmt, spec.Q), "q", fmt(spec.q)]
    for j, (M, v, b) in enumerate(zip(spec.Qj, spec.qj, spec.bj), start=1):
        lines += [f"Q{j}", *map(fmt, M), f"q{j}", fmt(v), f"b{j}", fmt(b)]
    kind = spec.projection
    for name, (cls, sizes) in _PROJECTIONS.items():
        if isinstance(kind, cls):
            break
    else:
        raise TypeError(f"unknown projection kind: {type(kind).__name__}")
    lines.append(f"projection {name}")
    for field, size in sizes.items():
        value = getattr(kind, field)
        lines.append(fmt(np.broadcast_to(value, (spec.n,)) if size == "n" else value))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# built-in instances
# ---------------------------------------------------------------------------

def example1() -> Problem:
    """Two circles meeting at a single point, concave objective, box constraints.

        min -(x1 - 1)^2 + x2^2
        s.t. x1^2 + x2^2 - 1 = 0,  (x1 - 2)^2 + x2^2 - 1 = 0,  -3 <= x1, x2 <= 3

    (1, 0) is the only feasible point; both constraint gradients are
    parallel there, so LICQ fails.  Over the box the constraint map has
    Lipschitz constant at most sqrt(208) (Frobenius bound at a corner).
    """

    def objective(x):
        return float(-(x[0] - 1.0) ** 2 + x[1] ** 2)

    def objective_gradient(x):
        return np.array([-2.0 * (x[0] - 1.0), 2.0 * x[1]])

    def constraints(x):
        return np.array([x[0] ** 2 + x[1] ** 2 - 1.0,
                         (x[0] - 2.0) ** 2 + x[1] ** 2 - 1.0])

    def constraint_jacobian(x):
        return np.array([[2.0 * x[0], 2.0 * x[1]],
                         [2.0 * (x[0] - 2.0), 2.0 * x[1]]])

    return Problem(
        n=2, m=2,
        objective=objective, objective_gradient=objective_gradient,
        constraints=constraints, constraint_jacobian=constraint_jacobian,
        projection=Box(lo=[-3.0, -3.0], hi=[3.0, 3.0]),
        lipschitz_c=math.sqrt(208.0),
        name="example1")


def example2_spec() -> QcqpSpec:
    """Data of the three-variable indefinite QCQP over the nonnegative orthant."""
    return QcqpSpec(
        Q=[[-2.0, 10.0, 2.0],
           [10.0, 4.0, 1.0],
           [2.0, 1.0, -7.0]],
        q=[-12.0, -6.0, 56.0],
        Qj=([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 4.0]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        qj=([0.0, 0.0, -32.0], [0.0, 0.0, -8.0]),
        bj=(128.0, 32.0),
        projection=NonnegativeOrthant())


def example2() -> Problem:
    """Nonconvex QCQP with solution (0, 0, 8), objective value 224.

    The first constraint matrix is indefinite and both constraint gradients
    vanish at the solution, so LICQ fails there.
    """
    return from_qcqp(example2_spec(), name="example2")


def example3() -> Problem:
    """Complementarity problem 0 <= x1 perp x2 >= 0 on a hyperbola.

        min x1^2 + x2^2 - 4 x1 x2
        s.t. x1^2 - x2^2 - 4 = 0,  x1 x2 = 0,  x1, x2 >= 0

    The bounds live in X (nonnegative orthant); the complementarity product
    is an equality constraint.  Solution (2, 0); no constraint qualification
    holds there.
    """

    def objective(x):
        return float(x[0] ** 2 + x[1] ** 2 - 4.0 * x[0] * x[1])

    def objective_gradient(x):
        return np.array([2.0 * x[0] - 4.0 * x[1], 2.0 * x[1] - 4.0 * x[0]])

    def constraints(x):
        return np.array([x[0] ** 2 - x[1] ** 2 - 4.0, x[0] * x[1]])

    def constraint_jacobian(x):
        return np.array([[2.0 * x[0], -2.0 * x[1]],
                         [x[1], x[0]]])

    return Problem(
        n=2, m=2,
        objective=objective, objective_gradient=objective_gradient,
        constraints=constraints, constraint_jacobian=constraint_jacobian,
        projection=NonnegativeOrthant(),
        name="example3")


BUILTIN_PROBLEMS = {
    "example1": example1,
    "example2": example2,
    "example3": example3,
}

# Standard starting points used throughout the tests and as CLI defaults.
DEFAULT_START = {
    "example1": (3.0, 3.0),
    "example2": (4.0, 4.0, 4.0),
    "example3": (5.0, 5.0),
}
