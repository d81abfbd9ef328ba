"""``pplad`` command line with spans around its layers (the traced cli-file operation).

    python3 bench/cli_child.py SPANS.npz solve --problem FILE ...

Times a bare ``import pplad.cli`` first.  Then it wraps the names that
``pplad.cli`` looks up when it runs (``load_qcqp``, ``solve``,
``check_trace``, ``write_trace_csv``) and the evaluators of the loaded
problem, runs ``pplad.cli.main`` on the remaining arguments and saves the
spans, with its own peak resident set, for the parent to absorb.  Exits
with the command line's exit code.
"""

import sys
import time

_start = time.perf_counter()
import pplad.cli as cli  # noqa: E402  (the import is what is being timed)
_imported = time.perf_counter()

from tracing import Tracer  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.begin_unit()
    tracer.add("cli.import", _start, _imported)
    load = cli.load_qcqp
    cli.load_qcqp = tracer.wrap(
        "cli.load_qcqp", lambda path, name=None: tracer.instrument(load(path, name)))
    cli.solve = tracer.wrap("solver.solve", cli.solve)
    cli.check_trace = tracer.wrap("diagnostics.check_trace", cli.check_trace)
    cli.write_trace_csv = tracer.wrap("diagnostics.write_trace_csv", cli.write_trace_csv)
    code = tracer.wrap("cli.main", cli.main)(argv)
    tracer.count("cli.max_rss_mib", _peak_rss_mib())
    tracer.save(spans_path)
    return code


def _peak_rss_mib():
    """VmHWM of this process since exec (rusage would count the parent's pages too)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


if __name__ == "__main__":
    sys.exit(main())
