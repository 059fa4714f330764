"""Locations inside the checkout the benchmark runs from.

The benchmark measures the sources in ``src/`` next to it, never an
installed copy, so every entry point calls :func:`use_sources` before it
imports ``cvteleport``.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
WORK_DIR = os.path.join(ROOT, ".bench_work")


class MissingSources(RuntimeError):
    pass


def use_sources() -> None:
    """Put the checkout's ``src/`` first on the import path, or fail."""
    if not os.path.isfile(os.path.join(SRC, "cvteleport", "cli.py")):
        raise MissingSources(f"no cvteleport sources under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
