"""Launches benchmark child processes from a process that stays small.

On Linux a child's ``ru_maxrss`` starts from the high-water mark of the
process that forked it, so a child launched by the benchmark itself (which
holds bases of a hundred megabytes and more) would report the benchmark's
memory as its own.  This helper is started before the benchmark imports
numpy, reads one JSON request per line on stdin and answers one JSON line on
stdout per request:

    request  {"argv": [...], "env": {...}, "stdout": path, "stderr": path,
              "timeout": seconds}
    reply    {"rc": int, "wall_s": float, "maxrss_kb": int}

``wall_s`` runs from just before the spawn to the return of ``wait4``.  A
child that outlives its timeout is killed and reported with rc -9.  The
helper exits when stdin closes.
"""

import json
import os
import select
import signal
import sys
import time


def _launch(request: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(request["argv"][0], request["argv"], request["env"], file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], request["timeout"])
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    return {"rc": os.waitstatus_to_exitcode(status), "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(_launch(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
