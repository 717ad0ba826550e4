"""Spawns the benchmark's child processes and reports what each one used.

run.py starts this helper before it imports numpy or reads any panel.
On Linux a child started by vfork and exec inherits its parent's peak RSS
in ru_maxrss, so children spawned from the grown benchmark process would
report the benchmark's peak instead of their own. Spawned from this small
process, each child's ru_maxrss is its own.

Protocol, one JSON object per line: a request {"args": [...], "log": path,
"timeout": seconds} on stdin runs `python <args>` with this process's
environment, stdout and stderr to log; the reply {"wall_s", "cpu_s",
"rss_bytes", "exit_code"} goes to stdout. Wall clock runs from spawn to
reap; the rest comes from os.wait4 for that one child.
"""

import json
import os
import signal
import subprocess
import sys
import time

running = []  # pid of the child being waited for, if any
stopping = False


def kill_running(signum, frame):
    for pid in running:
        os.kill(pid, signal.SIGKILL)


def stop(signum, frame):
    global stopping
    stopping = True
    kill_running(signum, frame)


def main():
    signal.signal(signal.SIGALRM, kill_running)
    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        if stopping:
            break
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, request["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_DUP2, 1, 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *request["args"]], os.environ,
                             file_actions=actions)
        running.append(pid)
        signal.alarm(request["timeout"])
        _, status, usage = os.wait4(pid, 0)  # a timeout or SIGTERM kills the child first
        wall = time.perf_counter() - start
        signal.alarm(0)
        running.clear()
        if stopping:
            break
        print(json.dumps({
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_bytes": usage.ru_maxrss * 1024,  # Linux reports KiB
            "exit_code": os.waitstatus_to_exitcode(status),
        }), flush=True)
    return 143 if stopping else 0


class Launcher:
    """Client side: runs this file as a helper process and talks to it."""

    def __init__(self, env: dict):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, env=env, text=True)

    def run(self, args: list, log, timeout: int) -> dict:
        """Run `python <args>` to completion; see the module docstring for the reply."""
        request = {"args": args, "log": str(log), "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited early")
        return json.loads(reply)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self._proc.terminate()  # kills and reaps a running child first
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    sys.exit(main())
