"""The benchmark's own inputs and its own yardstick, kept apart from the package.

Everything here is written from the problem statements, not from pplad:
the seeded dense-QCQP generator and its file writer, the built-in problems'
constraint formulas and known solutions, the projections, the KKT residuals
and the dual bound.  A result passes when these say so, whatever the solver
reports about itself (its ``kkt.feasibility`` is ||lam - mu||/rho, which is
0 at k = 0 and so proves nothing there).

Run as a script to write one seed's QCQP files:

    python3 bench/reference.py --seed 7 --out /tmp/qcqp
"""

from __future__ import annotations

import argparse
import math
import os
from dataclasses import dataclass

import numpy as np

# Family make-up (see README.md): spectra are fixed, eigenvectors are random.
OBJECTIVE_SPECTRUM = (0.5, 2.0)     # Q eigenvalues, evenly spaced: convex
CONSTRAINT_SPECTRUM = (-1.0, 1.0)   # Qj eigenvalues, evenly spaced: indefinite
BOX_HALF_WIDTH = 0.05
BALL_RADIUS = 0.5
DENSE_SIZE = (200, 20)              # qcqp-dense: n, m
DENSE_FAMILY = ("box", "ball", "box", "ball")
CLI_SIZE = (100, 10)                # cli-file: n, m
CLI_CANONICAL_SEED = 0

# Solver settings shared by qcqp-dense and cli-file (the CLI's defaults).
QCQP_ALPHA, QCQP_BETA = 2000.0, 0.5
QCQP_STEP = 0.1
QCQP_TOL = 1e-6
QCQP_DELTA0 = 1.0
QCQP_DECAY = 0.999

# A residual passes when it is within this factor of the solve tolerance.
TOL_FACTOR = 2.0


@dataclass
class QcqpInstance:
    """min 0.5 x'Qx + q'x  s.t.  0.5 x'Qj x + qj'x + b_j = 0,  x in X (box or ball at 0)."""

    name: str
    Q: np.ndarray        # (n, n)
    q: np.ndarray        # (n,)
    Qc: np.ndarray       # (m, n, n)
    qc: np.ndarray       # (m, n)
    b: np.ndarray        # (m,)
    kind: str            # "box": |x_i| <= BOX_HALF_WIDTH, "ball": ||x|| <= BALL_RADIUS

    @property
    def n(self):
        return self.q.size

    @property
    def m(self):
        return self.b.size

    def project(self, v):
        if self.kind == "box":
            return np.clip(v, -BOX_HALF_WIDTH, BOX_HALF_WIDTH)
        norm = math.sqrt(float(v @ v))
        return v if norm <= BALL_RADIUS else v * (BALL_RADIUS / norm)

    def constraints(self, x):
        return 0.5 * np.einsum("jik,i,k->j", self.Qc, x, x) + self.qc @ x + self.b

    def jacobian(self, x):
        return self.Qc @ x + self.qc


def _orthogonal(rng, n):
    Qm, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Qm * np.sign(np.diag(R))


def _symmetric_with_spectrum(rng, n, lo, hi):
    U = _orthogonal(rng, n)
    M = (U * np.linspace(lo, hi, n)) @ U.T
    return 0.5 * (M + M.T)   # exactly symmetric, so the file round-trips unchanged


def make_instance(rng, n, m, kind, name):
    """One instance, feasible by construction: a random point of X satisfies every constraint."""
    Q = _symmetric_with_spectrum(rng, n, *OBJECTIVE_SPECTRUM)
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    if kind == "box":
        x_feasible = rng.uniform(-BOX_HALF_WIDTH / 2, BOX_HALF_WIDTH / 2, n)
    else:
        x_feasible = rng.standard_normal(n)
        x_feasible *= 0.5 * BALL_RADIUS / np.linalg.norm(x_feasible)
    Qc = np.stack([_symmetric_with_spectrum(rng, n, *CONSTRAINT_SPECTRUM) for _ in range(m)])
    qc, _ = np.linalg.qr(rng.standard_normal((n, m)))   # orthonormal linear terms
    qc = np.ascontiguousarray(qc.T)
    b = -(0.5 * np.einsum("jik,i,k->j", Qc, x_feasible, x_feasible) + qc @ x_feasible)
    return QcqpInstance(name, Q, q, Qc, qc, b, kind)


def dense_family(seed):
    """The qcqp-dense inputs for one seed."""
    n, m = DENSE_SIZE
    streams = np.random.SeedSequence([seed, 0]).spawn(len(DENSE_FAMILY))
    return [make_instance(np.random.default_rng(s), n, m, kind, f"dense{i}-{kind}")
            for i, (s, kind) in enumerate(zip(streams, DENSE_FAMILY))]


def cli_instance(seed):
    """The cli-file input for one seed: one fixed ball instance under a seeded rotation.

    The ball is centred at 0 and the start is x0 = 0, so rotating every
    vector and matrix by the same orthogonal U rotates the iterates too:
    each seed writes different numbers to the file but asks for the same
    work, and the command line's cold-start cost is compared at equal work.
    """
    n, m = CLI_SIZE
    base = make_instance(np.random.default_rng(CLI_CANONICAL_SEED), n, m, "ball", "cli-ball")
    U = _orthogonal(np.random.default_rng(np.random.SeedSequence([seed, 1])), n)

    def rotate(M):
        R = U @ M @ U.T
        return 0.5 * (R + R.T)

    return QcqpInstance(base.name, rotate(base.Q), U @ base.q,
                        np.stack([rotate(M) for M in base.Qc]), base.qc @ U.T, base.b, "ball")


def write_qcqp(inst, path):
    """Write the plain-text QCQP format that ``pplad solve --problem <file>`` reads."""
    def row(values):
        return " ".join(map(repr, np.atleast_1d(values).tolist()))

    n = inst.n
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim {n} {inst.m}\nQ\n")
        fh.write("\n".join(map(row, inst.Q)))
        fh.write(f"\nq\n{row(inst.q)}\n")
        for j in range(inst.m):
            fh.write(f"Q{j + 1}\n")
            fh.write("\n".join(map(row, inst.Qc[j])))
            fh.write(f"\nq{j + 1}\n{row(inst.qc[j])}\nb{j + 1}\n{float(inst.b[j])!r}\n")
        if inst.kind == "box":
            fh.write(f"projection box\n{row(np.full(n, -BOX_HALF_WIDTH))}\n"
                     f"{row(np.full(n, BOX_HALF_WIDTH))}\n")
        else:
            fh.write(f"projection ball\n{row(np.zeros(n))}\n{BALL_RADIUS!r}\n")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def dual_budget(delta0, decay):
    """Total movement the damped dual step allows mu: delta0 / (2 (1 - decay))."""
    return delta0 / (2.0 * (1.0 - decay))


def qcqp_failures(inst, x, lam, mu=None):
    """KKT check of a returned (x, lam) against the generated arrays; [] means it passes.

    Without mu (the CLI report carries only lam), the bound
    ||lam|| <= budget + rho ||c(x)|| stands in for ||mu|| <= budget.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if x.shape != (inst.n,) or lam.shape != (inst.m,):
        return [f"{inst.name}: shapes x{x.shape} lam{lam.shape}"]
    out = []
    tol = TOL_FACTOR * QCQP_TOL
    if float(np.linalg.norm(x - inst.project(x))) > 1e-12:
        out.append(f"{inst.name}: x outside X")
    feas = float(np.linalg.norm(inst.constraints(x)))
    if not feas <= tol:
        out.append(f"{inst.name}: ||c(x)|| = {feas:.3e} > {tol:.1e}")
    grad = inst.Q @ x + inst.q + inst.jacobian(x).T @ lam
    opt = float(np.linalg.norm(x - inst.project(x - grad)))
    if not opt <= tol:
        out.append(f"{inst.name}: ||x - P(x - grad L)|| = {opt:.3e} > {tol:.1e}")
    budget = dual_budget(QCQP_DELTA0, QCQP_DECAY)
    rho = QCQP_ALPHA / (1.0 + QCQP_ALPHA * QCQP_BETA)
    if mu is not None:
        dual, bound, what = float(np.linalg.norm(mu)), budget, "||mu||"
    else:
        dual, bound, what = float(np.linalg.norm(lam)), budget + rho * feas, "||lam||"
    if not dual <= bound:
        out.append(f"{inst.name}: {what} = {dual:.3e} > {bound:.3e}")
    return out


@dataclass(frozen=True)
class Builtin:
    """A reproduction run at the acceptance-suite settings, with its known solution."""

    name: str
    x0: tuple
    step_size: float
    delta0: float
    solution: tuple
    x_tol: float
    objective: float | None = None


REPRO_ALPHA, REPRO_BETA, REPRO_DECAY, REPRO_TOL = 2000.0, 0.5, 0.999, 1e-7
BUILTINS = (
    Builtin("example1", (3.0, 3.0), 0.002, 1.0, (1.0, 0.0), 1e-3),
    Builtin("example2", (4.0, 4.0, 4.0), 0.005, 0.5, (0.0, 0.0, 8.0), 1e-2, 224.0),
    Builtin("example3", (5.0, 5.0), 0.004, 0.5, (2.0, 0.0), 1e-3),
)


def builtin_constraints(name, x):
    """c(x) of the paper's three examples."""
    if name == "example1":
        return np.array([x[0] ** 2 + x[1] ** 2 - 1.0, (x[0] - 2.0) ** 2 + x[1] ** 2 - 1.0])
    if name == "example2":
        return np.array([0.5 * (x[0] ** 2 - x[1] ** 2 + 4.0 * x[2] ** 2) - 32.0 * x[2] + 128.0,
                         0.5 * (x[0] ** 2 + x[1] ** 2 + x[2] ** 2) - 8.0 * x[2] + 32.0])
    return np.array([x[0] ** 2 - x[1] ** 2 - 4.0, x[0] * x[1]])


def builtin_in_set(name, x):
    if name == "example1":
        return bool(np.all(np.abs(x) <= 3.0))
    return bool(np.all(x >= 0.0))


def example2_objective(x):
    return (0.5 * (-2.0 * x[0] ** 2 + 4.0 * x[1] ** 2 - 7.0 * x[2] ** 2)
            + 10.0 * x[0] * x[1] + 2.0 * x[0] * x[2] + x[1] * x[2]
            - 12.0 * x[0] - 6.0 * x[1] + 56.0 * x[2])


def builtin_failures(run, converged, x, mu):
    """Check one reproduction result against the known solution; [] means it passes."""
    x = np.asarray(x, dtype=float)
    if x.shape != (len(run.solution),):
        return [f"{run.name}: x has shape {x.shape}"]
    out = [] if converged else [f"{run.name}: not converged"]
    if not builtin_in_set(run.name, x):
        out.append(f"{run.name}: x outside X")
    err = float(np.linalg.norm(x - np.array(run.solution)))
    if not err <= run.x_tol:
        out.append(f"{run.name}: ||x - x*|| = {err:.3e} > {run.x_tol:g}")
    feas = float(np.linalg.norm(builtin_constraints(run.name, x)))
    if not feas <= TOL_FACTOR * REPRO_TOL:
        out.append(f"{run.name}: ||c(x)|| = {feas:.3e} > {TOL_FACTOR * REPRO_TOL:.1e}")
    if run.objective is not None:
        gap = abs(example2_objective(x) - run.objective)
        if not gap <= run.x_tol:
            out.append(f"{run.name}: |f(x) - {run.objective:g}| = {gap:.3e}")
    dual, bound = float(np.linalg.norm(mu)), dual_budget(run.delta0, REPRO_DECAY)
    if not dual <= bound:
        out.append(f"{run.name}: ||mu|| = {dual:.3e} > {bound:.3e}")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description="Write one seed's benchmark QCQP files.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for inst in dense_family(args.seed) + [cli_instance(args.seed)]:
        path = os.path.join(args.out, f"{inst.name}.qcqp")
        write_qcqp(inst, path)
        print(path)


if __name__ == "__main__":
    main()
