"""Built-in test problems, a dense QCQP constructor and the QCQP text format.

All three built-ins violate the linear-independence constraint
qualification at their solutions, which is exactly the regime the dual
damping is designed for: the multiplier set is unbounded, yet the solver's
dual iterates stay bounded.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from .model import (Ball, Box, DimensionMismatch, NonnegativeOrthant, Problem,
                    ProjectionKind, WholeSpace)


@dataclass(frozen=True)
class QcqpSpec:
    """Dense data for min 0.5 x'Qx + q'x s.t. 0.5 x'Qj x + qj'x + bj = 0, x in X.

    The fields hold float arrays: Q (n, n), q (n,), Qj (m, n, n) with
    constraint j's matrix at ``Qj[j]``, qj (m, n) and bj (m,).  Each field
    accepts anything ``np.asarray`` reads as that shape, so the constraint
    data may be given stacked or as tuples or lists of per-constraint
    matrices, vectors and numbers; ``()`` gives m = 0.  Every field is an
    owned, C-ordered copy.  A Q or Qj stack that is not symmetric is replaced
    by (M + M') / 2, so the gradients are exactly Qx + q and Qj x + qj; a
    symmetric one is kept as given.  Wrong or ragged shapes raise
    DimensionMismatch, and NaN or infinite data, or a non-symmetric matrix
    whose M + M' overflows, a ValueError naming the field.
    """

    Q: np.ndarray
    q: np.ndarray
    Qj: np.ndarray
    qj: np.ndarray
    bj: np.ndarray
    projection: ProjectionKind

    def __post_init__(self):
        n, m = len(self.Q), len(self.Qj)
        for field, shape in (("Q", (n, n)), ("q", (n,)), ("Qj", (m, n, n)),
                             ("qj", (m, n)), ("bj", (m,))):
            try:  # owned, and C-ordered so that from_qcqp's reshape of Qj copies nothing
                value = np.array(getattr(self, field), dtype=float, order="C")
            except ValueError:
                raise DimensionMismatch(f"QCQP field {field}", shape,
                                        "ragged or non-numeric input") from None
            if value.size == 0 and 0 in shape:  # () for m = 0
                value = value.reshape(shape)
            if value.shape != shape:
                raise DimensionMismatch(f"QCQP field {field}", shape, value.shape)
            if not np.isfinite(value).all():
                raise ValueError(f"QCQP field {field} has NaN or infinite entries")
            if field in ("Q", "Qj") and not np.array_equal(value, value.swapaxes(-1, -2)):
                try:  # (M + M') / 2 of every matrix at once, halved in place
                    with np.errstate(over="raise"):
                        value = np.add(value, value.swapaxes(-1, -2), order="C")
                except FloatingPointError:
                    raise ValueError(f"QCQP field {field} overflows when symmetrized "
                                     "as (M + M') / 2") from None
                value *= 0.5
            object.__setattr__(self, field, value)

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return len(self.Qj)


def from_qcqp(spec: QcqpSpec, name: str = "qcqp") -> Problem:
    """Wrap a QcqpSpec into a Problem with exact quadratic-form derivatives.

    The Problem reads the spec's arrays without copying them.  The (m, n, n)
    Qj are viewed as one (m n, n) matrix, and c and J share one product
    ``Mx`` (row j is Qj x) per point: c_j = 0.5 <Qj x, x> + qj'x + bj, and
    J = Mx + qj row-wise.  One cache serves the order in which ``solve`` and
    ``kkt_report`` ask: c before J at a point, and J once.  ``constraints``
    forms Mx and c(x), parks Mx beside a copy of x's bits once c(x) is formed,
    and returns c(x) itself; ``constraint_jacobian`` takes the parked entry
    out of the cache (atomically, so two threads never get the same array)
    and uses its Mx if those bits match x's own buffer, which it compares in
    place rather than copying x again, or else forms its own, adds qj in
    place and returns it.  A J at another point so drops the parked product,
    and a later J at the parked point forms it again.  Any other order gets
    the same values, at the cost of one more product.  So a point holds one
    m x n array, no c(x) outlives a call, and no array is held by the cache
    and a caller, or by two callers.
    """
    Q, q = spec.Q, spec.q
    n, m = spec.n, spec.m
    stacked = spec.Qj.reshape(m * n, n)  # Q1 on top of Q2 ...
    linear, offset = spec.qj, spec.bj
    spare = {}                           # shape of x -> (bits of x, its Mx); replaced whole

    def objective(x):
        return float(0.5 * (x @ Q @ x) + q @ x)

    def objective_gradient(x):
        return Q @ x + q

    def constraints(x):
        nonlocal spare
        x = np.asarray(x, dtype=float)
        Mx = (stacked @ x).reshape(m, n)
        cx = 0.5 * np.vecdot(Mx, x) + linear @ x + offset
        spare = {x.shape: (x.tobytes(), Mx)}  # only now: J edits it in place
        return cx

    def constraint_jacobian(x):
        x = np.asarray(x, dtype=float, order="C")
        bits, Mx = spare.pop(x.shape, (None, None))  # one taker, even across threads
        # equal shapes make equal lengths, so a prefix match is x's exact bits
        if Mx is None or not bits.startswith(x):  # not parked at x: dropped
            Mx = (stacked @ x).reshape(m, n)
        Mx += linear
        return Mx

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


def load_qcqp_spec(path: str) -> QcqpSpec:
    """Parse the plain-text QCQP format into a QcqpSpec.

    A matrix entry whose text is that of its mirror is converted once, so a
    symmetric file, as ``save_qcqp`` writes it, costs about half the float
    conversions of a non-symmetric one.  The values are those a conversion
    of every entry would give.
    """
    with open(path, "r", encoding="utf-8") as fh:
        fields = _parse_qcqp(fh)
    # built once the file and the parser are released: its owned copies set the peak
    return QcqpSpec(**fields)


def _parse_qcqp(fh) -> dict:
    """Parse an open QCQP file into the keyword arguments of a QcqpSpec.

    The lines are read one at a time and each once: the square sections (Q,
    Q1..Qm) by ``read_matrix``, every other row by ``read_row``.  A row's
    length is checked before any of it is converted.
    """
    lines = ((lineno, text) for lineno, raw in enumerate(fh, start=1)
             if (text := raw.split("#", 1)[0].strip()))
    lastno = 0  # the last non-blank line read

    def next_line(expect: str):
        nonlocal lastno
        item = next(lines, None)
        if item is None:
            raise QcqpParseError(f"unexpected end of file, expected {expect}", lastno)
        lastno = item[0]
        return item

    def read_row(out: np.ndarray, what: str) -> None:
        """Fill the 1-D ``out`` from the next line."""
        lineno, text = next_line(what)
        parts = text.split()
        if len(parts) != out.size:
            raise QcqpParseError(f"{what}: expected {out.size} numbers, got {len(parts)}", lineno)
        convert(out, parts, what, lineno, text)

    def read_matrix(out: np.ndarray, what: str) -> None:
        """Fill the square ``out`` from the next lines, one line per row.

        Q and the Qj are meant to be symmetric, and a writer of symmetric
        data, ``save_qcqp`` among them, gives the mirrored entries (i, j) and
        (j, i) the same text.  So row i converts only its entries from the
        diagonal on.  When its text left of the diagonal is that of column i
        above it, the values already converted there are copied; otherwise
        that text is converted too.
        """
        n = len(out)
        tokens = [None] * (n * n)  # row-major: the tokens read so far, from the diagonal on
        for i, row in enumerate(out):
            lineno, text = next_line(what)
            right = text.rsplit(None, n - i)  # [text left of the diagonal,] row[i:]
            left = right.pop(0) if len(right) > n - i else ""
            if len(right) == n - i and left == " ".join(tokens[i:i * n:n]):
                row[:i] = out[:i, i]
            else:
                head = left.split()
                if len(head) + len(right) != n:
                    raise QcqpParseError(
                        f"{what}: expected {n} numbers, got {len(head) + len(right)}", lineno)
                convert(row[:i], head, what, lineno, text)
            convert(row[i:], right, what, lineno, text)
            tokens[i * n + i:(i + 1) * n] = right

    def convert(out: np.ndarray, parts: list, what: str, lineno: int, text: str) -> None:
        try:
            out[...] = parts
        except ValueError:
            raise QcqpParseError(f"{what}: non-numeric token in {text!r}", lineno) from None

    def read_section(tag: str, out: np.ndarray) -> None:
        lineno, text = next_line(f"section {tag!r}")
        if text != tag:
            raise QcqpParseError(f"expected section {tag!r}, got {text!r}", lineno)
        (read_matrix if out.ndim == 2 else read_row)(out, f"row of {tag}")

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
    status = os.fstat(fh.fileno())  # each number takes a byte at least
    if stat.S_ISREG(status.st_mode) and (m + 1) * n * n > status.st_size:
        raise QcqpParseError(f"dimensions n={n}, m={m} need more numbers than the file has",
                             lineno)
    try:  # a pipe reports size 0, so for it nothing above bounds n and m
        Q, q = np.empty((n, n)), np.empty(n)
        Qj, qj, bj = np.empty((m, n, n)), np.empty((m, n)), np.empty(m)
    except (ValueError, MemoryError):
        raise QcqpParseError(f"dimensions n={n}, m={m} cannot be allocated", lineno) from None
    read_section("Q", Q)
    read_section("q", q)
    for j in range(m):
        read_section(f"Q{j + 1}", Qj[j])
        read_section(f"q{j + 1}", qj[j])
        read_section(f"b{j + 1}", bj[j:j + 1])

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
        row = np.empty(n if size == "n" else 1)
        read_row(row, f"{name} {field}")
        fields[field] = row if size == "n" else float(row[0])
    try:
        projection = kind(**fields)
    except ValueError as exc:  # bad data for the kind: lo above hi, a radius <= 0
        raise QcqpParseError(f"projection {name}: {exc}", lineno) from None

    trailing = next(lines, None)
    if trailing is not None:
        lineno, text = trailing
        raise QcqpParseError(f"trailing content {text!r}", lineno)
    return dict(Q=Q, q=q, Qj=Qj, qj=qj, bj=bj, projection=projection)


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
