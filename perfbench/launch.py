"""Run one command; print its wall time, exit code and peak RSS.

    python3 perfbench/launch.py LOG_PATH COMMAND...

Prints one JSON line with wall_s, exit and maxrss_mb, the ru_maxrss of
the command's process tree from os.wait4 (its largest single process).
Linux seeds a new process's ru_maxrss with the resident size of the
process that started it, so run.py starts every command through this
small process instead of directly: the figure then belongs to the
command, not to run.py, which holds earlier outputs in memory.

The command finds the time.monotonic() reading that its wall time starts
from in the environment variable PERFBENCH_SPAWN_MONOTONIC, so that a
traced run can time itself from the same moment.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    log_path, argv = sys.argv[1], sys.argv[2:]
    with open(log_path, "w", encoding="utf-8") as log:
        env = dict(os.environ)
        t0 = time.monotonic()
        env["PERFBENCH_SPAWN_MONOTONIC"] = repr(t0)
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t0
    print(json.dumps({"wall_s": wall, "exit": os.waitstatus_to_exitcode(status),
                      "maxrss_mb": usage.ru_maxrss / 1024.0}))


if __name__ == "__main__":
    main()
