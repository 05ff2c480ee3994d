"""Run one command; print its wall time, peak RSS and exit code as one JSON line.

Usage: python3 perfbench/spawn.py TIMEOUT_S STDOUT STDERR -- ARGV...

A child's ``ru_maxrss`` from ``os.wait4`` is never below its parent's peak
RSS: exec records the old address space's high-water mark, and the child
starts on a copy of (or, with vfork, on) the parent's address space. The
benchmark process holds numpy, parsed outputs and, when tracing, the
package's own data, so it starts every timed child through this small
process instead. Its peak RSS, that of a bare interpreter, stays below any
CLI invocation's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout_s, stdout, stderr, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(float(timeout_s), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall_s, "rss_mb": usage.ru_maxrss / 1024.0,
                      "code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
