"""Start the benchmark's timed commands, one at a time, from a small process.

The peak RSS that ``wait4`` reports for a child includes the peak of the
process that started it, and ``run.py`` holds the generated inputs and the
check data.  So ``run.py`` hands every timed command to this launcher,
which imports nothing beyond the standard library.

Protocol: one JSON object per line on stdin, with ``argv``, ``cwd``,
``env``, ``stdout``, ``stderr`` and ``timeout_s``; one JSON object per line
on stdout, with ``wall_s``, ``exit_code`` and ``peak_rss_kb``.  The end of
stdin ends the launcher.  SIGTERM kills the running command, waits for it
and exits.  ``BENCH_SPAWN_TIME`` in a command's environment is the
launcher's ``perf_counter()`` just before the command was started.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    """Run one command to its end, killing it after ``timeout_s``."""
    env = dict(request["env"])
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        env["BENCH_SPAWN_TIME"] = repr(start)
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(max(request["timeout_s"], 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit_code": proc.returncode, "peak_rss_kb": usage.ru_maxrss}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> None:
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
