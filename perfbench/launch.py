"""Run one command; report its wall time, exit status and peak resident set.

Usage: python3 -S launch.py RESULT_FILE STDERR_FILE ARGV...

Writes ``<seconds> <exit code> <ru_maxrss KiB>`` to RESULT_FILE.  The
benchmark starts every timed lidarfog process through this small
interpreter because Linux charges a child's ``ru_maxrss`` at least the
resident high-water mark of the process that spawned it, and the
benchmark's own process is large (numpy, generated inputs).  Spawned from
here, a child's figure is its own.
"""

import os
import sys
import time


def main():
    result_path, stderr_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    err = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    null = os.open(os.devnull, os.O_WRONLY)
    actions = [(os.POSIX_SPAWN_DUP2, null, 1), (os.POSIX_SPAWN_DUP2, err, 2)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    t1 = time.perf_counter()
    with open(result_path, "w", encoding="ascii") as fh:
        fh.write(f"{t1 - t0!r} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n")


if __name__ == "__main__":
    main()
