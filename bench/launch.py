"""Small process that runs the benchmark's commands and times them.

Linux reports a child's peak RSS (``ru_maxrss``) as at least the peak of the
process that started it, so commands started straight from the benchmark,
which holds the generated inputs and oracle values, would all report the
benchmark's own size. This process imports no numpy and holds no data, so
the peak it passes on is far below any command's.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": "...", "env": {...}, "timeout_s": 150}``; one JSON
reply per line on stdout, ``{"wall_s": ..., "code": ..., "maxrss_kib": ...}``.
The command's stdout and stderr go to ``stdout.txt`` and ``stderr.txt`` in
``cwd``. The process exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], cwd: str, env: dict[str, str], timeout_s: float) -> dict:
    with open(os.path.join(cwd, "stdout.txt"), "wb") as out, \
            open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=env)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # wait4 reaped the child; tell Popen so it does not try again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "code": proc.returncode, "maxrss_kib": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["argv"], req["cwd"], req["env"], req["timeout_s"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
