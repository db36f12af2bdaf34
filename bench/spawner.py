"""Runs the measured commands from a process that stays small.

On Linux a child's ru_maxrss also counts the memory of the process that
spawned it, so the benchmark, which holds numpy arrays, does not spawn the
measured commands itself.  It starts this script once, before the arrays
exist, and sends it one JSON request per stdin line:

    {"argv": [...], "stdout": path, "stderr": path, "cwd": path, "timeout": s}

and reads one JSON reply per stdout line:

    {"exit": code, "wall_s": s, "maxrss_kb": kb, "cpu_s": s}

Each command runs to completion (or is killed at its timeout) and is
reaped before the reply is written.  The script exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, cwd=request["cwd"])
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
