"""The two kinds of benchmark run behind run.py, and their output check.

With trace 0, timed_run has the launcher spawn `python -m phasesync ...`
one call at a time (a closed loop with one client) for the run's seconds,
and a fresh `python -c "import phasesync"` after each call, the set-up
every call pays. With trace 1, traced_run calls cli.main in-process,
alternating untraced calls with calls traced by spans.py.

The first call's outputs are checked against an independent numpy
reference (check.py), outside the timed region; every later call must
write byte-identical files.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
from check import Reference, digest, output_bytes
from inputs import WORKLOADS, generate_panel, write_calendar, write_panel
from launcher import Launcher

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
CALL_TIMEOUT_S = 120
SETUP_SAMPLES = 7  # fewest import timings behind one setup_s

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
    "success_rate": "ratio",
    "setup_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in spans.LAYERS:
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.calls"] = "count"
    units.update({name: "count" for name in spans.COUNTS})
    units["trace.overhead_pct"] = "%"
    return units


def environment() -> dict:
    """Provenance recorded beside the results."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "loadavg": loadavg(),
    }


def loadavg() -> list[str]:
    return Path("/proc/loadavg").read_text().split()[:3]


# -- checking -------------------------------------------------------------------

class OutputCheck:
    """Reference check of the first good outputs, SHA-256 equality after that."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.digests: dict[str, str] | None = None

    def passes(self, out_dir: Path) -> bool:
        if self.digests is None:
            problems = self.reference.check(out_dir)
            if not problems:
                self.digests = digest(out_dir)
        else:
            got = digest(out_dir)
            problems = [f"{name}: differs from the first call's output"
                        for name in sorted(set(got) | set(self.digests))
                        if got.get(name) != self.digests.get(name)]
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return not problems


def fresh_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


# -- the two kinds of run ------------------------------------------------------

def timed_run(cli_args: list[str], out_dir: Path, check: OutputCheck, seconds: float,
              launcher: Launcher) -> dict:
    log = out_dir.parent / "child.log"

    def spawn(args: list[str]) -> dict:
        return launcher.run(args, log, CALL_TIMEOUT_S)

    def setup() -> float:
        result = spawn(["-c", "import phasesync"])
        if result["exit_code"] != 0:
            sys.exit(f"error: `import phasesync` fails; see {log}")
        return result["wall_s"]

    setup()  # also writes the bytecode cache

    calls, good, sizes, setups = [], [], [], []
    deadline = time.perf_counter() + seconds
    # start a call only if one as fast as the fastest so far ends in time
    while not calls or time.perf_counter() + min(c["wall_s"] for c in calls) < deadline:
        fresh_dir(out_dir)
        call = spawn(["-m", "phasesync", *cli_args])
        calls.append(call)
        if call["exit_code"] != 0:
            print(f"call exited {call['exit_code']}: {log.read_text()[-2000:]}", file=sys.stderr)
        elif check.passes(out_dir):
            good.append(call)
            sizes.append(output_bytes(out_dir))
        setups.append(setup())
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup())
    if not good:
        sys.exit(f"error: all {len(calls)} calls failed; no figures to report")

    # Figures come from the calls that succeeded only: a crashed call or one
    # with wrong output can end early and small. Times are the best of the
    # run. Shared hosts switch between speed states: on a 2-core VM a fixed
    # CPU loop took 0.085 s in fast and 0.125 s in slow stretches lasting 5
    # to 30 s. A median follows the share of slow seconds in the run; the
    # fastest call moves far less.
    values = {
        "wall_s": min(call["wall_s"] for call in good),
        "cpu_s": min(call["cpu_s"] for call in good),
        "peak_rss_mb": statistics.median(call["rss_bytes"] for call in good) / 1e6,
        "output_mb": statistics.median(sizes) / 1e6,
        "success_rate": len(good) / len(calls),
        "setup_s": min(setups),
    }
    print(f"calls {len(calls)}, wall_s " + " ".join(f"{c['wall_s']:.4f}" for c in calls)
          + ", setup_s " + " ".join(f"{s:.4f}" for s in setups))
    return {"attempted": len(calls), "failed": len(calls) - len(good), "values": values}


def traced_run(cli_args: list[str], out_dir: Path, check: OutputCheck, seconds: float) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("phasesync.cli")
    attempted = failed = 0

    def call() -> float | None:
        """Seconds of one cli.main call, or None if it failed."""
        nonlocal attempted, failed
        fresh_dir(out_dir)
        attempted += 1
        start = time.perf_counter()
        try:
            code = cli.main(cli_args)
        except Exception:  # a crash is a failed call, reported with its traceback
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - start
        if code != 0 or not check.passes(out_dir):
            failed += 1
            return None
        return elapsed

    call()  # warm-up: first-call costs and the reference check stay out of the timings
    untraced, traced, totals, rounds = [], [], [], []
    deadline = time.perf_counter() + seconds
    # start a round (one untraced, one traced call) only if one as fast as
    # the fastest so far ends in time
    while not rounds or time.perf_counter() + min(rounds) < deadline:
        round_start = time.perf_counter()
        elapsed = call()
        if elapsed is not None:
            untraced.append(elapsed)
        tracer = spans.Tracer()
        undo, absent = spans.install(tracer)
        try:
            ok = call() is not None
        finally:
            spans.uninstall(undo)
        if ok:  # spans of a failed call would misstate the layers
            traced.append(tracer.root_seconds())
            totals.append(tracer.layer_totals())
        rounds.append(time.perf_counter() - round_start)
    if not untraced or not traced:
        sys.exit(f"error: {failed} of {attempted} in-process calls failed; no figures to report")
    if absent:
        print("absent wrapper targets: " + ", ".join(absent))

    values = {name: statistics.median(t[name] for t in totals) for name in totals[0]}
    base = min(untraced)
    values["trace.overhead_pct"] = (min(traced) - base) / base * 100.0
    print(f"in-process calls: {len(untraced)} untraced, {len(traced)} traced; "
          f"fastest untraced {base:.4f} s")
    return {"attempted": attempted, "failed": failed, "values": values}


def main(args, launcher: Launcher) -> int:
    """Run one workload as run.py's arguments ask; print the result line."""
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    env_start = environment()
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    fresh_dir(work)
    panel, calendar, out_dir = work / "panel.csv", work / "calendar.csv", work / "out"
    write_panel(panel, generate_panel(workload.members, workload.months, args.seed))
    if workload.uses_calendar:
        write_calendar(calendar)
    cli_args = workload.cli_args(*(str(p.relative_to(ROOT)) for p in (panel, calendar, out_dir)))
    check = OutputCheck(Reference(workload, panel, calendar if workload.uses_calendar else None))

    if args.trace:
        result = traced_run(cli_args, out_dir, check, args.seconds)
    else:
        result = timed_run(cli_args, out_dir, check, args.seconds, launcher)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    print("env " + json.dumps({"start": env_start,
                               "end_loadavg": loadavg()}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["values"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0
