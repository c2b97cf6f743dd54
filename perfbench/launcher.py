"""Runs the benchmark's commands one at a time, in a process of its own.

    python3 -I perfbench/launcher.py

run.py starts it before it grows and sends it one JSON request a line on
standard input: {"argv", "cwd", "env", "timeout", "out", "err"}.  The
launcher runs the command with its standard output on a pipe and its
standard error in the file `err`; it times the launch, the first line of
output and the exit, copies the rest of the output to the file `out`, and
answers with one JSON line: {"launch", "first_line", "end", "paused_s",
"paused_before_first_s", "code", "timed_out", "maxrss_kib", "speeds"}.  It
kills a command that outlives `timeout` seconds, and exits at the end of its
input; on SIGTERM it kills the running command, waits for it and exits.

Why a process of its own: on Linux a command's ru_maxrss starts from the
resident size of the process that forks it.  run.py holds and checks every
output, so it grows to tens of megabytes and would lend that size to every
command; this process holds no output and stays at the size of a bare
interpreter, below any command's own peak.

Host speed: on a shared host each CPU's speed drifts by tens of percent, for
seconds to minutes, with the load of other tenants, and the CPUs drift apart.
The launcher pins itself, and so every command, to one CPU, and times a
fixed pure-Python loop on it (`speeds`) just before and just after each
command, and every half second while a command runs.  For the latter it
stops the command (SIGSTOP) for the few milliseconds the loop takes, which
would otherwise have to wait for the command's CPU, and continues it; the
time it was stopped is returned (`paused_s`, and the part of it before the
first line) for run.py to take off.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

SPEED_LOOP = 70_000  # iterations; a few milliseconds
SPEED_EVERY_S = 0.5


def speed_s() -> float:
    """Seconds of a fixed pure-Python loop, best of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(SPEED_LOOP):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def run(req: dict) -> dict:
    speeds = [speed_s()]
    pauses: list[tuple[float, float]] = []
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err, subprocess.Popen(
        req["argv"], cwd=req["cwd"], env=req["env"], stdout=subprocess.PIPE, stderr=err
    ) as proc:
        launch = time.perf_counter()
        fired, done = threading.Event(), threading.Event()

        def kill() -> None:
            fired.set()
            proc.kill()

        def sample() -> None:
            while not done.wait(SPEED_EVERY_S):
                start = time.perf_counter()
                os.kill(proc.pid, signal.SIGSTOP)
                try:
                    speeds.append(speed_s())
                finally:
                    os.kill(proc.pid, signal.SIGCONT)
                    pauses.append((start, time.perf_counter()))

        timer = threading.Timer(req["timeout"], kill)
        sampler = threading.Thread(target=sample)
        timer.start()
        sampler.start()
        try:
            first = proc.stdout.readline()
            first_line = time.perf_counter() if first else None
            out.write(first)
            shutil.copyfileobj(proc.stdout, out)
            # no signal may reach the pid once it is reaped
            done.set()
            sampler.join()
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        except BaseException:
            done.set()
            sampler.join()
            proc.kill()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "launch": launch,
        "first_line": first_line,
        "end": end,
        "paused_s": sum(b - a for a, b in pauses),
        "paused_before_first_s": sum(b - a for a, b in pauses
                                     if first_line is not None and b <= first_line),
        "code": proc.returncode,
        "timed_out": fired.is_set(),
        "maxrss_kib": usage.ru_maxrss,  # KiB on Linux
        "speeds": speeds + [speed_s()],
    }


def main() -> None:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
