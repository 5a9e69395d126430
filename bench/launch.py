"""Starts the benchmark's commands, one at a time, and reports what ``os.wait4``
measured for each.

Requests arrive on stdin, one JSON object per line:
``{"argv": [...], "env": {...}, "cwd": "...", "log": "...", "limit_s": 120}``.
For each, one JSON line goes to stdout: ``{"wall_s", "cpu_s", "rss_mb", "code"}``.

Linux seeds a new program's max RSS with the peak RSS of the process that
spawned it, so a command started from the benchmark itself would report the
benchmark's own peak (its output checks hold a few hundred MB).  This process
stays small and starts every command instead; the stdlib only, nothing else.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run_process(argv, env, cwd, log, limit_s) -> dict:
    """Run one process to its end; wall time, CPU time and max RSS from wait4."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=cwd)
        watchdog = threading.Timer(limit_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        result = run_process(request["argv"], request["env"], request["cwd"], request["log"],
                             request["limit_s"])
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
