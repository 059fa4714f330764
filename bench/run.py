"""cvteleport benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload {sweep,points,mc} --seed N --seconds S --trace {0,1}

It measures the sources under src/ of the checkout it sits in, checks
every output it times, prints each metric by name with its unit and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a separate traced run (bench/layers.py).  Metric
definitions and workload rationale: bench/README.md and BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import checkout

REF_LOOP_N = 200_000
REF_LOOP_REPEATS = 5

# Counts derived from the inputs rather than timed; labelled as such in the report.
COMPUTED = {"montecarlo.draws_per_shot", "montecarlo.blocks", "montecarlo.streams"}


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one BENCHMARK.json section, in declared order."""
    with open(os.path.join(checkout.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[section]}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "points", "mc"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def ref_loop_mops() -> float:
    """A fixed pure-Python loop: host drift moves it, changes to cvteleport cannot."""
    rates = []
    for _ in range(REF_LOOP_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(REF_LOOP_N):
            acc = (acc + i * i) % 1_000_003
        rates.append(REF_LOOP_N / (time.perf_counter() - start) / 1e6)
    return statistics.median(rates)


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "bit_generator": f"Philox (numpy {numpy.__version__})",
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        checkout.use_sources()
    except checkout.MissingSources as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import layers
    import probe
    import workloads

    facts = machine_facts()
    host_mops = ref_loop_mops()
    workdir = os.path.join(checkout.WORK_DIR, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            units = declared_units("per_layer")
            values, tally = layers.traced_run(args.workload, args.seed, workdir)
            values["host.ref_loop_mops"] = host_mops
            notes = {name: "computed from the inputs" for name in COMPUTED}
        else:
            units = declared_units("end_to_end")
            probe_args = ["setup", args.workload, str(args.seed)]
            probe.run(probe_args)  # leaves byte-code caches as a user's second run finds them
            setup_times = []
            inputs = workloads.BUILD[args.workload](args.seed)
            values, notes, tally = workloads.MEASURE[args.workload](
                inputs, args.seconds, workdir, lambda: setup_times.append(probe.wall_seconds(probe_args))
            )
            values["setup_s"] = statistics.median(setup_times)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            notes["setup_s"] = (
                f"median of {len(setup_times)} fresh interpreters importing cvteleport.cli and "
                "building the inputs, one after each measuring round"
            )
            notes["peak_rss_mb"] = "peak resident set of this process"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(checkout.WORK_DIR):
            os.rmdir(checkout.WORK_DIR)

    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}")
    print(f"# cvteleport benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"# host.ref_loop_mops {host_mops:.4f} Mop/s (host drift probe)")
    for name, unit in units.items():
        note = notes.get(name, "")
        print(f"{name:42s} {values[name]:>16.6g} {unit:6s} {note}")
    print(f"{'failed_frac':42s} {tally.failed / tally.attempted:>16.6g} {'':6s} "
          f"{tally.failed} failed of {tally.attempted} operations")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
