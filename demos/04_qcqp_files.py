"""Exchange problems as plain-text QCQP files, then solve one via the CLI path.

The file format is line-oriented and diff-friendly: a 'dim n m' line, the
objective data Q and q, per-constraint blocks Qj / qj / bj, and a final
projection line.  Anything after '#' is a comment.
"""

import os
import subprocess
import sys

import numpy as np

import pplad
from pplad import QcqpSpec, WholeSpace, from_qcqp
from pplad.problems import example2_spec, load_qcqp, save_qcqp

OUT_DIR = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT_DIR, exist_ok=True)

# 1) serialize the built-in QCQP and read it back: identical evaluations
path = os.path.join(OUT_DIR, "builtin_qcqp.txt")
save_qcqp(example2_spec(), path)
print(f"wrote {path}:")
with open(path) as fh:
    for line in list(fh)[:6]:
        print("  " + line.rstrip())
print("  ...")

reloaded = load_qcqp(path)
original = from_qcqp(example2_spec())
x = np.array([4.0, 4.0, 4.0])
print(f"objective at (4,4,4): file {reloaded.objective(x)!r} "
      f"vs builtin {original.objective(x)!r}\n")

# 2) a custom problem: equality-constrained least squares written as a QCQP
#    min 0.5 ||x||^2  s.t.  <a, x> = 1  with a = (1, 2)
spec = QcqpSpec(
    Q=np.eye(2), q=np.zeros(2),
    Qj=(np.zeros((2, 2)),),
    qj=(np.array([1.0, 2.0]),),
    bj=(-1.0,),
    projection=WholeSpace())
custom_path = os.path.join(OUT_DIR, "least_norm.txt")
save_qcqp(spec, custom_path)

# 3) solve it through the command-line interface, run inside OUT_DIR with
#    relative file names so that the report names the problem the same way
#    from any checkout; the child imports the same pplad as this script
cmd = [sys.executable, "-m", "pplad", "solve",
       "--problem", "least_norm.txt", "--x0", "1,1", "--step-size", "0.05",
       "--tol-opt", "1e-9", "--tol-feas", "1e-9",
       "--trace", "least_norm_trace.csv", "--report", "least_norm_report.txt"]
print("running:", " ".join(cmd[2:]))
env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pplad.__file__)))
proc = subprocess.run(cmd, capture_output=True, text=True, cwd=OUT_DIR, env=env)
print(proc.stdout.strip())
print(f"exit code {proc.returncode}\n")

print("report file:")
with open(os.path.join(OUT_DIR, "least_norm_report.txt")) as fh:
    print("  " + "  ".join(fh.readlines()))

# analytic solution of the least-norm problem: x* = a / ||a||^2 = (0.2, 0.4)
print("analytic solution: (0.2, 0.4)")
