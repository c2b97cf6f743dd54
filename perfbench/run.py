"""The jansum benchmark: seeded workloads run as real CLI commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each command of a workload runs as
`python -m jansum ARGV` in a fresh interpreter with PYTHONPATH=src, the way a
user runs it, started by launcher.py, and every output is checked
(checks.py).  A pass runs the workload's commands and then the set-up probe a
few times, all sharing one fresh, empty JANSUM_CACHE file in a temporary
directory inside the checkout (the extra first-result samples among them
each get a fresh cache of their own); the directory is deleted afterwards,
so the user's own cache is never read or written.

Times are taken to a reference host speed.  On a shared host a CPU's speed
drifts by tens of percent over seconds to minutes; the launcher times a
fixed loop on the commands' CPU around and during each command, and each
command's wall time is multiplied by SPEED_REFERENCE_S over that loop's mean
time (host_scale).  A slower program reads slower; a slower host does not.

With --trace 0, passes repeat with the same commands while another pass's
first half still fits in S seconds (at least one).  Each command's time is
then its mean over the passes; wall_s, first_result_s, op_p50_s and
op_tail_s are computed from these means, and peak_rss_mb and setup_s are
medians.  With --trace 1, one untraced pass is followed by one traced pass
(tracer.py), which gives the per-layer metrics and the tracing overhead.

The second-to-last line of standard output is a JSON record of the run:
machine, every command's argv for replay, per-pass figures, the tail
percentile used and its sample count, and failures.  The last line is the
result: {"correct", "attempted", "failed", "metrics"}.  README.md says why
each workload exists and which end-to-end metric each layer metric moves.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
TRACER = HERE / "tracer.py"
LAUNCHER = HERE / "launcher.py"

RUN_LIMIT_S = 170.0  # every run must end within 180 s
COMMAND_LIMIT_S = 120.0
TAIL_SAMPLES = 10  # the tail percentile keeps at least this many commands beyond it
SPEED_REFERENCE_S = 0.004  # the launcher's speed loop on the reference host

clock = time.perf_counter

# name -> unit; all are better when lower
END_TO_END = {
    "wall_s": "s",
    "first_result_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class MissingProgram(Exception):
    pass


@dataclass
class CommandRun:
    argv: tuple[str, ...]
    role: str
    launch: float
    end: float = 0.0
    first_line: float | None = None
    code: int | None = None
    timed_out: bool = False
    maxrss_mb: float = 0.0
    stdout: str = ""
    stderr: str = ""
    trace: dict | None = None
    paused_s: float = 0.0  # stopped by the launcher to time its speed loop
    paused_before_first_s: float = 0.0
    scale: float = 1.0  # to the reference host speed, see host_scale

    @property
    def wall(self) -> float:
        return (self.end - self.launch - self.paused_s) * self.scale

    @property
    def first_result(self) -> float:
        if self.first_line is None:
            return self.wall
        return (self.first_line - self.launch - self.paused_before_first_s) * self.scale


@dataclass
class Pass:
    runs: list[CommandRun]
    cache_bytes: int
    failures: dict[int, str] = field(default_factory=dict)

    @property
    def work(self) -> list[CommandRun]:
        return [r for r in self.runs if r.role == "work"]

    def walls(self, role: str) -> list[float]:
        return [r.wall for r in self.runs if r.role == role]

    @property
    def wall_s(self) -> float:
        """The workload's commands back to back; the first-result samples
        and probes among them are left out."""
        return sum(self.walls("work"))

    @property
    def first_results(self) -> list[float]:
        firsts = self.work[:1] + [r for r in self.runs if r.role == "first"]
        return [r.first_result for r in firsts]

    @property
    def peak_rss_mb(self) -> float:
        return max(r.maxrss_mb for r in self.runs)


def child_env(cache: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # the first result must wait for the pipe buffer
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["JANSUM_CACHE"] = str(cache)
    return env


class Launcher:
    """The process that runs every command (launcher.py says why)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, "-I", str(LAUNCHER)], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"the launcher exited with code {self.proc.wait()}")
        return json.loads(reply)

    def close(self) -> None:
        """End the launcher, and with it a command that is still running."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)  # an idle launcher exits at once
        except subprocess.TimeoutExpired:
            self.proc.terminate()  # it kills its command and waits for it
            self.proc.wait()
        self.proc.stdout.close()


def host_scale(speeds: list[float]) -> float:
    """The factor that takes a command's times to the reference host, on
    which the launcher's speed loop takes SPEED_REFERENCE_S; `speeds` are
    that loop's timings around and during the command."""
    return SPEED_REFERENCE_S / statistics.fmean(speeds)


def run_command(launcher: Launcher, argv, role, env, tmp: Path, deadline: float,
                trace_id: str | None = None) -> CommandRun:
    """Run one command to its exit, timing the first stdout line and the exit."""
    if trace_id is None:
        full = [sys.executable, "-m", "jansum", *argv]
    else:
        spans = tmp / f"spans-{trace_id}.json"
        full = [sys.executable, "-X", "importtime", str(TRACER), str(spans), trace_id, "--",
                *argv]
    timeout = min(COMMAND_LIMIT_S, deadline - clock())
    run = CommandRun(tuple(argv), role, launch=clock())
    if timeout <= 0:
        run.timed_out = True
        run.end = run.launch
        return run
    out, err = tmp / "stdout", tmp / "stderr"
    # perf_counter is the system's monotonic clock, so the launcher's times
    # compare with this process's
    reply = launcher.run({"argv": full, "cwd": str(ROOT), "env": env, "timeout": timeout,
                          "out": str(out), "err": str(err)})
    run.launch, run.first_line, run.end = reply["launch"], reply["first_line"], reply["end"]
    run.paused_s, run.paused_before_first_s = reply["paused_s"], reply["paused_before_first_s"]
    run.code, run.timed_out = reply["code"], reply["timed_out"]
    run.maxrss_mb = reply["maxrss_kib"] / 1024
    run.scale = host_scale(reply["speeds"])
    run.stdout = out.read_bytes().decode("utf-8", "replace")
    stderr = err.read_bytes().decode("utf-8", "replace")
    out.unlink()
    err.unlink()
    if trace_id is not None:
        imports, stderr = split_import_times(stderr)
        if spans.exists():
            run.trace = json.loads(spans.read_text())
            run.trace["imports"] = imports
            spans.unlink()
    run.stderr = stderr[-2000:]
    return run


def split_import_times(stderr: str) -> tuple[dict[str, float], str]:
    """Self seconds of each jansum module's import, from `-X importtime`
    lines ("import time: SELF_US | CUMULATIVE_US | NAME"), and the rest."""
    imports, rest = {}, []
    for line in stderr.splitlines(keepends=True):
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name.startswith("jansum."):
            imports[name] = int(self_us) * 1e-6
    return imports, "".join(rest)


def run_pass(launcher: Launcher, commands, tmp: Path, index: int, deadline: float,
             traced: bool, check_memo: dict) -> Pass:
    import checks

    cache = tmp / f"cache-{index}.json"
    env = child_env(cache)
    runs = []
    for i, cmd in enumerate(commands):
        trace_id = f"{index}-{i}" if traced else None
        if cmd.role == "first":  # a fresh start, which leaves the pass's cache alone
            own = tmp / f"first-{index}-{i}.json"
            runs.append(run_command(launcher, cmd.argv, cmd.role, child_env(own), tmp,
                                    deadline))
            own.unlink(missing_ok=True)
        else:
            runs.append(run_command(launcher, cmd.argv, cmd.role, env, tmp, deadline,
                                    trace_id))
        if runs[-1].timed_out:
            break
    cache_bytes = cache.stat().st_size if cache.exists() else 0
    cache.unlink(missing_ok=True)
    done = Pass(runs, cache_bytes)
    done.failures = checks.check_pass(runs, check_memo)
    if len(runs) < len(commands):
        done.failures.setdefault(len(runs) - 1, "run deadline reached")
    return done


def warm_up(tmp: Path) -> None:
    """Compile bytecode and load the program once, so no pass pays for it."""
    # a failure here shows again, and is counted, in the measured commands
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "jansum")],
                   cwd=ROOT, stdout=subprocess.DEVNULL, timeout=60)
    cache = tmp / "warm-up.json"
    subprocess.run([sys.executable, "-m", "jansum", *workloads.PROBE], cwd=ROOT,
                   env=child_env(cache), stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=60)
    cache.unlink(missing_ok=True)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that keeps at least
    TAIL_SAMPLES values beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return ordered[-1], 100.0
    rank = n - TAIL_SAMPLES  # 1-based rank of the value with TAIL_SAMPLES above it
    return ordered[rank - 1], round(100.0 * rank / n, 1)


def mean_walls(passes: list[Pass]) -> list[float]:
    """Each workload command's mean wall time over the passes, in order."""
    return [statistics.fmean(walls) for walls in zip(*(p.walls("work") for p in passes))]


def end_to_end(passes: list[Pass]) -> tuple[dict[str, float], dict]:
    ops = mean_walls(passes)
    probes = [t for p in passes for t in p.walls("probe")]
    op_tail, percentile = tail(ops)
    values = {
        "wall_s": statistics.fmean(p.wall_s for p in passes),
        "first_result_s": statistics.fmean(t for p in passes for t in p.first_results),
        "op_p50_s": statistics.median(ops),
        "op_tail_s": op_tail,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "setup_s": statistics.median(probes),
    }
    return values, {"mean_of": len(passes),
                    "first_result_samples": sum(len(p.first_results) for p in passes), "op_tail_percentile": percentile,
                    "op_samples": len(ops), "setup_samples": len(probes)}


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, dict]:
    """Run one benchmark run; returns (result, record)."""
    started = clock()
    if not (SRC / "jansum" / "cli.py").is_file():
        raise MissingProgram(f"no jansum sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    commands = workloads.build(workload, seed, tiny)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine_start": machine()}
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
    passes: list[Pass] = []
    memo: dict = {}
    launcher = Launcher()  # before this process has grown
    try:
        warm_up(tmp)
        deadline = started + RUN_LIMIT_S
        measuring = clock()
        if trace:
            # the first-result samples would add to the layers' work
            commands = [c for c in commands if c.role != "first"]
            passes.append(run_pass(launcher, commands, tmp, 0, deadline, False, memo))
            traced = run_pass(launcher, commands, tmp, 1, deadline, True, memo)
        else:
            while True:
                passes.append(run_pass(launcher, commands, tmp, len(passes), deadline, False,
                                       memo))
                # checks of a repeated pass are memoized, so the next pass
                # should take about as long as this one's commands; it runs
                # if its first half fits, so a run lasts S seconds on average
                runs = passes[-1].runs
                took = runs[-1].end - runs[0].launch
                if (passes[-1].failures or clock() + took / 2 > measuring + seconds
                        or clock() + took > deadline):
                    break
    finally:
        launcher.close()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is using it

    every = passes + ([traced] if trace else [])
    attempted = sum(len(p.runs) for p in every)
    failed = sum(len(p.failures) for p in every)
    metrics: dict = {}
    if not failed:  # a wrong answer records no time
        values, extra = end_to_end(passes)
        record.update(extra, end_to_end=values)
        if trace:
            from layers import PER_LAYER, layer_metrics

            layer = layer_metrics(
                [(r.launch, r.trace) for r in traced.runs],
                traced.wall_s, passes[0].wall_s, traced.cache_bytes,
            )
            metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in layer.items()}
            record["traced_wall_s"] = traced.wall_s
        else:
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    record.update({
        "machine_end": machine(),
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "cache_bytes": [p.cache_bytes for p in every],
        "fail_ratio": failed / attempted if attempted else 1.0,
        "failures": [
            {"pass": k, "argv": list(p.runs[i].argv), "error": msg,
             "stderr": p.runs[i].stderr[-300:]}
            for k, p in enumerate(every) for i, msg in sorted(p.failures.items())
        ][:20],
        "env": {"PYTHONPATH": "src", "JANSUM_CACHE": "a fresh empty file per pass"},
        "commands": [[Path(sys.executable).name, "-m", "jansum", *c.argv] for c in commands],
        "command_wall_s": [[round(r.wall, 6) for r in p.runs] for p in every],
        "command_scale": [[round(r.scale, 4) for r in p.runs] for p in every],
        "command_rss_mb": [[round(r.maxrss_mb, 1) for r in p.runs] for p in every],
    })
    result = {
        "correct": not failed,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
