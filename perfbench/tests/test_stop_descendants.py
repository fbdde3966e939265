"""Every process a run starts has ended by the time the run's process
has, orphaned grandchildren and SIGTERM-ignoring helpers included."""

import os
import subprocess
import sys
import time

import harness

#: Starts a child that forks a long sleeper and exits at once, so the
#: sleeper is orphaned, plus a direct child that ignores SIGTERM (as the
#: ``multiprocessing`` resource tracker does); prints both pids and exits.
SCRIPT = r"""
import atexit, os, subprocess, sys
sys.path.insert(0, sys.argv[1])
import harness
harness.adopt_orphans()
atexit.register(harness.stop_descendants, 0.5)
orphan = subprocess.run(
    [sys.executable, "-c",
     "import subprocess, sys; p = subprocess.Popen([sys.executable, '-c', "
     "'import time; time.sleep(60)'], stdout=subprocess.DEVNULL, "
     "stderr=subprocess.DEVNULL); print(p.pid)"],
    capture_output=True, text=True, check=True).stdout.strip()
stubborn = subprocess.Popen(
    [sys.executable, "-c",
     "import signal, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); time.sleep(60)"])
print(orphan, stubborn.pid, flush=True)
"""


def _alive(pid: int) -> bool:
    state = harness._state(pid)
    return state not in ("", "Z")


def test_run_leaves_no_process_behind():
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, harness.BENCH_DIR],
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout.split()
    assert time.monotonic() - t0 < 30
    pids = [int(p) for p in out]
    assert len(pids) == 2
    assert not [pid for pid in pids if _alive(pid)]
