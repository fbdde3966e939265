"""Run one workload of the end-to-end benchmark; print its result line.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 20 --trace 0

Raw edges go in and canonical labels (each vertex labelled with the
minimum id of its component) come out, checked against the SciPy oracle
in ``oracle.py``, through one of three entry points:

* ``bulk`` -- the Python API (``from_arrays`` + ``connected_components``);
* ``outofcore`` -- the sharded engine reading a text edge-list file;
* ``wire`` -- SOLVE frames to ``python -m repro serve --listen`` running
  in its own process.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` records spans around each layer's public calls, writes
them as Chrome trace-event JSON under ``.perfbench_traces/``, and
reports the per-layer metrics; a layer the workload does not exercise
reads 0.  The last stdout line is the JSON result; the lines before it
are human-readable context (host, dispatch decision, sample counts).
Inputs are written under ``.perfbench_work/`` and removed at exit.
"""

from __future__ import annotations

import argparse
import atexit
import importlib
import os
import signal
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import (  # noqa: E402
    BenchError,
    adopt_orphans,
    check_metric_names,
    load_spec,
    make_workdir,
    remove_workdir,
    require_program,
    result_line,
    say,
    steal_seconds,
    stop_descendants,
)

WORKLOADS = ("bulk", "outofcore", "wire")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        require_program()
        spec = load_spec()
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = check_metric_names(spec)
    if problems:
        print("error: " + "; ".join(problems), file=sys.stderr)
        return 2

    # Registered before any worker pool exists, so it runs after the
    # pools' own atexit shutdown: every helper process has ended by the
    # time this process does, on every way out of it.
    adopt_orphans()
    atexit.register(stop_descendants)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    workdir = make_workdir(args.workload)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    stolen = steal_seconds()
    try:
        module = importlib.import_module(args.workload)
        values, attempted, failed, wrong = module.run(
            args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        remove_workdir(workdir)

    if args.trace:
        declared = spec["per_layer"]
        values["error_rate"] = failed / attempted
        idle = [m["name"] for m in declared if m["name"] not in values]
        if idle:
            say(f"{args.workload}: layers not exercised here (read 0): {', '.join(idle)}")
        values = {m["name"]: values.get(m["name"], 0.0) for m in declared}
    else:
        declared = spec["end_to_end"]
    say(f"{args.workload}: {attempted} attempted, {failed} failed "
        f"(error_rate {failed / attempted:.6f}), {wrong} wrong label vectors; "
        f"host steal during the run {steal_seconds() - stolen:.2f} CPU-s")
    print(result_line(declared, values, attempted, failed, wrong), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
