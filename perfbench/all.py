"""Run every workload once and print its end-to-end metrics by name.

Usage (from the repository root)::

    python3 perfbench/all.py --seed 0 --seconds 10

Each workload runs in its own ``run.py`` process, so that ``peak_rss_mb``
is that workload's own.  Prints the metric lines of every run (name, value,
unit and sample count, and ``failed_frac``) and exits non-zero if a run
crashes or reports a wrong output.
"""

import argparse
import json
import subprocess
import sys

from run import HERE, WORKLOADS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"], capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        if proc.returncode or not lines:
            print(proc.stderr, end="")
            status = 1
            continue
        for line in lines:
            if line.split(" ", 1)[0] in ("solve_s", "setup_s", "peak_rss_mb",
                                         "failed_frac"):
                print("  " + line)
        if not json.loads(lines[-1])["correct"]:
            print("  wrong output: see the solve lines of this run")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
