"""Run every workload of BENCHMARK.json and judge the spread of the results.

Run from the root of a phasesync source checkout:

    python3 perfbench/suite.py                 # 10 seeds x every workload, one set
    python3 perfbench/suite.py --sets 2        # the same twice; compare the medians
    python3 perfbench/suite.py --trace         # also one traced run per workload

Each set runs every workload once per seed 1 to 10, for the run length
BENCHMARK.json gives. Runs are interleaved round-robin over the workloads,
reversing the order every round, because this kind of host drifts in
speed: blocks of runs per workload would turn drift into differences
between workloads. For each workload and end-to-end metric the table gives
the median and quartiles of the per-run values, the spread (interquartile
range over median) against the metric's bound, and with --sets 2 the
change of the second set's median against the first. A spread above the
bound, or a second-set median that differs from the first by more than
the bound in either direction, fails the suite. Git SHA, Python and numpy
versions, nproc and load averages are recorded with the results, which go
to .perfbench_work/suite.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900
SEEDS = tuple(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    env_lines = [line for line in lines if line.startswith("env ")]
    result = json.loads(lines[-1])
    result["env"] = json.loads(env_lines[-1][4:]) if env_lines else None
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: {result['failed']} of {result['attempted']} calls failed\n"
              f"{proc.stderr[-3000:]}", file=sys.stderr)
    return result


def run_set(workloads: list[str], seeds: tuple[int, ...], seconds: int) -> dict[str, list[dict]]:
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for k, seed in enumerate(seeds):
        for workload in (workloads if k % 2 == 0 else workloads[::-1]):
            result = run_once(workload, seed, seconds, 0)
            results[workload].append(result)
            wall = result["metrics"]["wall_s"]["value"]
            print(f"  round {k + 1}/{len(seeds)} {workload:14s} seed {seed:3d} "
                  f"wall_s {wall:.4f} calls {result['attempted']}", flush=True)
    return results


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def report(spec: dict, sets: list[dict[str, list[dict]]]) -> tuple[list[dict], bool]:
    rows, ok = [], True
    print(f"\n{'workload':14s} {'metric':13s} {'unit':6s} {'median':>11s} {'q1':>11s} "
          f"{'q3':>11s} {'spread':>7s} {'bound':>6s} {'set2':>7s}  verdict")
    for workload in sets[0]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in s[workload]]) for s in sets]
            first = stats[0]
            verdict = []
            if first["spread"] > bound:
                verdict.append("SPREAD>BOUND")
            elif first["spread"] > bound / 3:
                verdict.append("spread>bound/3")
            shift = None
            if len(stats) > 1:
                shift = (stats[1]["median"] - first["median"]) / first["median"]
                if abs(shift) > bound:
                    verdict.append("SETS DIFFER>BOUND")
            ok = ok and not any(v.isupper() for v in verdict)
            unit = metric["unit"]
            print(f"{workload:14s} {name:13s} {unit:6s} {first['median']:11.5f} "
                  f"{first['q1']:11.5f} {first['q3']:11.5f} {first['spread']:7.4f} "
                  f"{bound:6.3f} {'' if shift is None else format(shift, '+7.4f'):>7s}  "
                  f"{' '.join(verdict) or 'ok'}")
            rows.append({"workload": workload, "metric": name, "unit": unit, "bound": bound,
                         "sets": stats, "set2_change": shift, "verdict": verdict})
    return rows, ok


def trace_report(workloads: list[str], seed: int, seconds: int) -> dict:
    traced = {}
    for workload in workloads:
        metrics = run_once(workload, seed, seconds, 1)["metrics"]
        traced[workload] = metrics
        self_ms = {k[:-len(".self_ms")]: v["value"] for k, v in metrics.items()
                   if k.endswith(".self_ms")}
        total = sum(self_ms.values())
        print(f"\n{workload}: traced cli.main total {total:.1f} ms, "
              f"overhead {metrics['trace.overhead_pct']['value']:+.1f}%")
        for layer, ms in sorted(self_ms.items(), key=lambda item: -item[1]):
            calls = metrics[f"{layer}.calls"]["value"]
            print(f"  {layer:34s} {ms:10.1f} ms {ms / total:6.1%} {calls:8.0f} calls")
        counts = {k: v["value"] for k, v in metrics.items()
                  if not k.endswith((".self_ms", ".calls", "overhead_pct"))}
        print("  " + ", ".join(f"{k} {v:.0f}" for k, v in counts.items()))
    return traced


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--trace", action="store_true", help="also one traced run per workload")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    sets = []
    for s in range(args.sets):
        print(f"set {s + 1}: {len(SEEDS)} seeds x {workloads}, {seconds} s per run", flush=True)
        sets.append(run_set(workloads, SEEDS, seconds))
    rows, ok = report(spec, sets)
    traced = trace_report(workloads, SEEDS[0], seconds) if args.trace else None

    envs = [r["env"] for s in sets for runs in s.values() for r in runs if r["env"]]
    summary = {
        "environment": envs[0]["start"] if envs else None,
        "loadavg_start": envs[0]["start"]["loadavg"] if envs else None,
        "loadavg_end": envs[-1]["end_loadavg"] if envs else None,
        "seconds": seconds, "seeds": SEEDS,
        "failed_calls": sum(r["failed"] for s in sets for runs in s.values() for r in runs),
        "rows": rows, "traced": traced,
    }
    out = ROOT / ".perfbench_work" / "suite.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(f"\nenvironment {json.dumps(summary['environment'])}; "
          f"loadavg end {summary['loadavg_end']}; failed calls {summary['failed_calls']}; "
          f"written {out.relative_to(ROOT)}")
    return 0 if ok and summary["failed_calls"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
