"""Benchmark of record for the phasesync command-line interface.

Run from the root of a phasesync source checkout:

    python3 perfbench/run.py --workload sync_wide --seed 1 --seconds 20 --trace 0

The workload's panel is generated from --seed (inputs.py). With --trace 0
the run times `python -m phasesync ...` child processes with
PYTHONPATH=src and reports the fastest call's wall clock and CPU time,
the median peak RSS (all three from os.wait4), bytes written, the share
of calls that succeeded, and the fastest bare `import phasesync`. With --trace 1 it
calls cli.main in-process and reports each layer's self time and call
count from spans installed around the layers (spans.py). Outputs are
checked against an independent numpy reference (check.py). The last line
of stdout is one JSON object with keys correct, attempted, failed and
metrics.
"""

import argparse
import os
import signal
import sys
from pathlib import Path

from launcher import Launcher

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="sync_wide, sweep_windows or filter_long")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "phasesync" / "__init__.py").is_file():
        print(f"error: no phasesync source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    for name in [key for key in os.environ if key.startswith("PHASESYNC_")]:
        del os.environ[name]  # the library's backend and worker defaults, in every call
    with Launcher(dict(os.environ, PYTHONPATH=str(ROOT / "src"))) as launcher:
        # numpy and the panels load only now, after the launcher has started
        # small (see launcher.py)
        import bench

        return bench.main(args, launcher)


if __name__ == "__main__":
    sys.exit(main())
