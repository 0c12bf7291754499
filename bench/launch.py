"""Run one command to its end and print its own resource use as JSON.

    python3 bench/launch.py STDOUT_FILE -- COMMAND...

Prints ``{"wall_s", "cpu_s", "rss_mb", "code"}``: wall time from start to
exit, user plus system CPU time, peak resident set size and exit code,
from the command's own ``wait4`` resource usage. The command's stdout goes
to STDOUT_FILE (``-`` discards it); its stderr is inherited.

Why a separate launcher: Linux starts a process's peak-RSS record with the
high-water mark of the process that spawned it, so a child of the
benchmark, which holds the generated corpora, would report at least the
benchmark's own size. This launcher stays small, so what it reports is the
command's own peak.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    out_path, sep, *cmd = sys.argv[1:]
    if sep != "--" or not cmd:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.devnull if out_path == "-" else out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall,
                      "cpu_s": usage.ru_utime + usage.ru_stime,
                      "rss_mb": usage.ru_maxrss / 1024.0,
                      "code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
