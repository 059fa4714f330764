"""Fresh-interpreter probes, so start-up costs are measured as a user pays them.

    python3 bench/probe.py setup WORKLOAD SEED   import cvteleport.cli, build the inputs
    python3 bench/probe.py import-cli            print seconds to import cvteleport.cli
    python3 bench/probe.py import-numpy          print seconds to import numpy

The parent times ``setup`` from the outside (interpreter start to exit);
the two import probes report their own in-process import time.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import checkout

SCRIPT = os.path.abspath(__file__)
TIMEOUT_S = 60


def run(args: list[str]) -> str:
    """Run one probe in a fresh interpreter; return what it printed."""
    done = subprocess.run(
        [sys.executable, SCRIPT, *args],
        cwd=checkout.ROOT,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
        check=True,
    )
    return done.stdout


def wall_seconds(args: list[str]) -> float:
    """Wall time of one fresh probe, interpreter start to exit."""
    start = time.perf_counter()
    run(args)
    return time.perf_counter() - start


def reported_seconds(args: list[str], repeats: int) -> float:
    """Median of the seconds each of ``repeats`` fresh probes prints, after one warm-up."""
    run(args)
    return statistics.median(float(run(args)) for _ in range(repeats))


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "import-numpy":
        start = time.perf_counter()
        import numpy  # noqa: F401

        print(time.perf_counter() - start)
        return 0
    checkout.use_sources()
    start = time.perf_counter()
    import cvteleport.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    if mode == "import-cli":
        print(elapsed)
        return 0
    if mode == "setup":
        import workloads

        workloads.BUILD[argv[1]](int(argv[2]))
        return 0
    raise SystemExit(f"unknown probe {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
