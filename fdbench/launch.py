"""Process launcher that keeps the measured peak RSS honest.

On Linux a child's `ru_maxrss` starts at its parent's peak RSS when it was
spawned, so commands spawned by the benchmark itself, which holds numpy and
the generated bundle, would report the benchmark's memory as theirs. run.py
therefore starts this small stdlib-only process before it imports anything
large, and spawns every measured command through it.

Protocol: one JSON request per stdin line, {"argv", "stdout", "stderr"}; one
JSON reply per line, {"exit", "wall", "rss_mb"}, where wall runs from spawn to
exit and rss_mb is the child's `ru_maxrss` from `os.wait4`.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import time

MB = 1024.0 * 1024.0


def child_env(src: str, threads: int) -> dict:
    """The environment of every measured command: fdeval from src, BLAS pinned."""
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = str(threads)
    return env


def spawn(argv, stdout_path: str, stderr_path: str) -> dict:
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall": wall, "rss_mb": usage.ru_maxrss * 1024 / MB}


class Launcher:
    """Client side: starts the launcher process with the child environment."""

    def __init__(self, src: str, cwd: str):
        self.threads = len(os.sched_getaffinity(0))
        self.proc = subprocess.Popen(
            [sys.executable, __file__], env=child_env(src, self.threads), cwd=cwd,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv, stdout_path, stderr_path) -> dict:
        self.proc.stdin.write(json.dumps({"argv": [str(a) for a in argv], "stdout": str(stdout_path),
                                          "stderr": str(stderr_path)}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return json.loads(reply)

    def close(self) -> None:
        with contextlib.suppress(BrokenPipeError):   # the launcher already exited
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(spawn(req["argv"], req["stdout"], req["stderr"])), flush=True)


if __name__ == "__main__":
    serve()
