"""Run one program and report its wall time and peak RSS.

    python3 spawn.py STDOUT_FILE PROGRAM ARG...

prints {"wall_s", "rss_mb", "exit"} as one JSON line. The program's
stdout goes to STDOUT_FILE. A process's ru_maxrss starts at the RSS of
the process it was forked from, so run.py, whose RSS grows with the
responses it holds, forks the measured program from this small process.
"""

import json
import os
import sys
import time


def main():
    out = os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    argv = sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(out, 1)
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    print(json.dumps({"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                      "exit": os.waitstatus_to_exitcode(status)}))


if __name__ == "__main__":
    main()
