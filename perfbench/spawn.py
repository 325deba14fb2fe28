"""Run one command; write its exit code, wall time and peak RSS to a JSON file.

    python3 perfbench/spawn.py REPORT_PATH COMMAND [ARGS...]

The peak comes from wait4: the largest resident set of the command and of
every descendant it waited for (pool workers included).  A child's peak
also counts the pages of the process that forked it, so the benchmark
starts commands from this small interpreter, not from its own, larger one.
"""

import json
import os
import subprocess
import sys
import time


def main(report, argv):
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"rc": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
