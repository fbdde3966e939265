"""Shared plumbing for the workload modules: paths, child processes,
statistics, peak-RSS probes, the host fingerprint and the result line.

Nothing here imports ``repro``: the workload modules import it after
:func:`require_program` has confirmed the sources are present, so a
directory holding only the benchmark fails fast with a non-zero exit.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence

#: The benchmark's own directory and the checkout it runs from.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Scratch inputs (deleted when a run ends) and span files (kept).
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
TRACE_DIR = os.path.join(ROOT, ".perfbench_traces")

#: Limits on metric names and units in BENCHMARK.json.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, failed child, ...)."""


def require_program() -> None:
    """Put ``src/`` on ``sys.path``; raise if the package is absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: ``src/`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def make_workdir(tag: str) -> str:
    path = os.path.join(WORK_ROOT, f"{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass


def run_child(args: Sequence[str], timeout: float) -> str:
    """Run a helper script to completion; its stdout, or raise."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return proc.stdout


def stop_process(proc: subprocess.Popen, grace: float = 15.0) -> None:
    """SIGTERM, wait up to ``grace`` seconds, then SIGKILL and reap."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=grace)
    for stream in (proc.stdout, proc.stderr, proc.stdin):
        if stream is not None:
            stream.close()


#: ``prctl`` option that makes a process the reaper of its orphaned
#: descendants (Linux >= 3.4).
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of every orphaned descendant.

    A helper's own helpers (the ``multiprocessing`` resource tracker of
    a set-up probe or of a gateway, a gateway's pool workers) outlive
    it for a moment when it exits.  Re-parented here instead of to
    ``init``, :func:`stop_descendants` can wait for them too.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _stop_resource_tracker() -> None:
    """Close this process's end of the ``multiprocessing`` resource
    tracker's pipe: the tracker then exits.  It ignores SIGTERM and
    would otherwise only notice on interpreter exit, after the run."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    if tracker is None:
        return
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    elif getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = None


def _state(pid: int) -> str:
    """One-letter state of ``pid`` (``""`` if it is gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return ""


def _reap_exited() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(grace: float = 5.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Runs as the last ``atexit`` hook, after the worker pools' own
    shutdown hooks.  Children get SIGTERM, and SIGKILL after ``grace``
    seconds; orphans adopted through :func:`adopt_orphans` are children
    too, so a whole tree is stopped.
    """
    _stop_resource_tracker()
    deadline = time.monotonic() + grace
    termed: set = set()
    while True:
        _reap_exited()
        live = [pid for pid in child_pids() if _state(pid) not in ("Z", "")]
        if not live or time.monotonic() > deadline + grace:
            _reap_exited()
            return
        late = time.monotonic() > deadline
        for pid in live:
            sig = signal.SIGKILL if late else signal.SIGTERM
            if late or pid not in termed:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
                termed.add(pid)
        time.sleep(0.01)


def probe_setup(workload: str, seed: int, workdir: str, timeout: float = 120.0) -> float:
    """One set-up sample from ``setup_probe.py`` in a fresh interpreter:
    launch to ``import repro`` done, plus the first solve's excess."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), workload,
         "--seed", str(seed), "--workdir", workdir],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        first = proc.stdout.readline()
        imported = time.perf_counter() - t0
        rest, err = proc.communicate(timeout=timeout)
    finally:
        stop_process(proc)
    if proc.returncode != 0 or first.strip() != "imported":
        raise BenchError(f"setup probe failed ({proc.returncode}): {err[-2000:]}")
    return imported + json.loads(rest.strip().splitlines()[-1])["excess_s"]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (NumPy's default rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# peak RSS: self plus helper processes
# ----------------------------------------------------------------------

def _status_kb(pid: str) -> Dict[str, int]:
    """``VmHWM`` and ``VmRSS`` of ``pid`` in kB (empty if it is gone)."""
    out: Dict[str, int] = {}
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(("VmHWM:", "VmRSS:")):
                    out[line[:5]] = int(line.split()[1])
    except (OSError, ValueError):
        return {}
    return out


def child_pids(parent: Optional[int] = None) -> List[int]:
    """Live direct children of ``parent`` (default: this process)."""
    parent = os.getpid() if parent is None else parent
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == parent:
            pids.append(int(entry))
    return pids


def reset_peak(pid: str) -> None:
    """Reset ``VmHWM`` of ``pid`` to its current RSS."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass


class PeakRSS:
    """Peak RSS of this process plus its children over one ``with`` block.

    On entry the high-water marks (``VmHWM``) of this process and of
    every live child (pool workers) are reset.  A sampler thread polls
    the children every ``interval`` seconds, because a pool forked and
    shut down inside the block is gone before the block ends.

    A forked child starts out mapping every page its parent had
    resident, and those pages already count in the parent's peak.  A
    child therefore adds its peak minus its RSS when first seen (at the
    reset, or at the first sample after its fork): what it allocated
    itself.  Summing raw ``VmHWM`` instead would count the parent's
    pages once per worker, and how many the parent happened to hold at
    fork time swings that sum by a third from run to run.  ``mb`` is in
    MB (10**6 bytes).
    """

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.mb = 0.0
        self._base: Dict[int, int] = {}
        self._peak: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _sample(self) -> None:
        for pid in child_pids():
            kb = _status_kb(str(pid))
            if "VmHWM" in kb:
                self._base.setdefault(pid, kb["VmRSS"])
                self._peak[pid] = max(kb["VmHWM"], self._peak.get(pid, 0))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "PeakRSS":
        for pid in child_pids():
            reset_peak(str(pid))
        self._sample()
        reset_peak("self")
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._sample()
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        own = _status_kb("self").get("VmHWM", 0)
        grown = sum(self._peak[p] - self._base[p] for p in self._peak)
        self.mb = (own + grown) * 1024 / 1e6


def process_tree_peak_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` plus its live children, in MB."""
    total = sum(_status_kb(str(p)).get("VmHWM", 0) for p in [pid, *child_pids(pid)])
    return total * 1024 / 1e6


# ----------------------------------------------------------------------
# keeping CPUs out of idle
# ----------------------------------------------------------------------

#: A busy loop at the lowest scheduling class, pinned to one CPU.
_SPIN = """
import os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
while True:
    pass
"""


class IdleSpinners:
    """One ``SCHED_IDLE`` busy loop per CPU between :meth:`start` and
    :meth:`stop`, so none of the CPUs the benchmark runs on goes idle.

    In a virtual machine an idle CPU halts and hands its time back to
    the hypervisor; when an interrupt or a wake-up arrives, the CPU runs
    again only once the hypervisor schedules it, after a delay set by
    the other guests' load.  A request served in a few milliseconds
    pays that delay each time it wakes the client or the gateway, so
    its latency would measure the neighbours as much as the program.
    A ``SCHED_IDLE`` task yields to any normal task the moment it wakes,
    so the benchmark's own processes still get the whole CPU.
    """

    def __init__(self) -> None:
        self.procs: List[subprocess.Popen] = []

    def start(self) -> "IdleSpinners":
        for cpu in sorted(os.sched_getaffinity(0)):
            self.procs.append(subprocess.Popen(
                [sys.executable, "-c", _SPIN, str(cpu)],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
        return self

    def stop(self) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()
        self.procs = []


# ----------------------------------------------------------------------
# host fingerprint and the result line
# ----------------------------------------------------------------------

def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests since boot, summed
    over this machine's CPUs (0 where the kernel does not report it).
    The difference over a run says how much of it the host took away."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def host_fingerprint() -> Dict[str, object]:
    import numpy

    return {
        "cores": os.cpu_count() or 1,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def jsonable(obj):
    """``obj`` with non-finite floats replaced by ``None`` (strict JSON)."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, float) and obj != obj or obj in (float("inf"), float("-inf")):
        return None
    return obj


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_metric_names(spec: Dict) -> List[str]:
    """Violations of the metric-name rules in ``spec`` (empty if none)."""
    problems: List[str] = []
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec.get(section, []):
            name = entry.get("name", "")
            if not NAME_RE.match(name):
                problems.append(f"{section}: bad name {name!r}")
            if name in seen:
                problems.append(f"{section}: duplicate name {name!r}")
            seen.add(name)
            if section != "workloads" and not UNIT_RE.match(entry.get("unit", "")):
                problems.append(f"{section}: bad unit for {name!r}")
    if not any(e.get("name") == "setup_s" and e.get("unit") == "s"
               and e.get("better") == "lower" for e in spec.get("end_to_end", [])):
        problems.append("end_to_end: setup_s (s, lower) is missing")
    return problems


def result_line(
    spec_metrics: Iterable[Dict], values: Dict[str, float],
    attempted: int, failed: int, wrong: int,
) -> str:
    """The final JSON line of a run: every declared metric, in order.

    ``failed`` counts every attempt that did not end in verified labels
    (errors, sheds, timeouts, no answer, wrong labels); ``wrong`` counts
    the label vectors that disagreed with the oracle, and any makes
    ``correct`` false.  Raises if a declared metric has no value, so a
    workload module that forgets one fails loudly instead of printing a partial
    result.
    """
    metrics = {}
    for entry in spec_metrics:
        name = entry["name"]
        if name not in values:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": float(values[name]), "unit": entry["unit"]}
    return json.dumps({
        "correct": wrong == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })


def say(message: str) -> None:
    """Human-readable progress on stdout (the result line comes last)."""
    print(message, flush=True)
