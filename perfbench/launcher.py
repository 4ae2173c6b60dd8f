"""Starts and times the benchmark's child processes, from a small interpreter.

Linux counts the resident set of the process that spawns a child in the
child's ``ru_maxrss``, so children are started from here, a process that
imports only the standard library, rather than from the benchmark itself,
which holds numpy, scipy and the generated panels.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "stdout": PATH, "stderr": PATH, "limit": SECONDS}``; one
JSON reply per line on stdout, ``{"wall": s, "rss_mib": MiB, "code": n}``.
A child still running after ``limit`` seconds is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, stdout, stderr, limit):
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        watchdog = threading.Timer(limit, proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rss_mib": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdout"], request["stderr"], request["limit"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
