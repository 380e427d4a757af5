"""Run one command and write its wall time, peak RSS and exit code as JSON.

    python3 -I -S bench/launch.py RESULT.json LOG -- COMMAND [ARG ...]

Linux carries a parent's peak RSS over into the peak that ``wait4``
reports for a child it spawns, so a large benchmark process would
inflate every reading.  This launcher is a small, fresh process: the
peak it reads for its own child is the child's.  COMMAND[0] must be an
absolute path; stdout and stderr are appended to LOG.
"""

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    result, log, command = argv[0], argv[1], argv[3:]
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(command[0], command, os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(fd)
    with open(result, "w") as fh:
        json.dump({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                   "rss_mb": usage.ru_maxrss / 1024.0,
                   "code": os.waitstatus_to_exitcode(status)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
