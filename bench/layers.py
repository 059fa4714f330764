"""Traced run: per-layer metrics from spans around calls into public functions.

The benchmark never patches the program.  It records a span around each
call it makes into a layer's public functions (names in
``cvteleport.__all__`` and ``cvteleport.cli.main``) and around numpy's
public Philox generator, so refactors of private helpers cannot break it.
Spans (name, start, end, parent) stay in memory until the run ends.

Every traced run replays a fixed-size slice of all three workloads' inputs
at the run's seed, so every per-layer metric is measured whichever
workload is named.  Each slice first runs once untraced to warm up; the
named workload's slice then runs untraced once more after the traced
pass, and ``trace.overhead_frac`` compares the two.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import time

import numpy as np

from cvteleport import (
    InputState,
    added_noise_variance,
    classify,
    field_conditional_variance,
    make_epr,
    make_single_mode,
    sample_signal_transfer,
)
from cvteleport import montecarlo

import probe
import workloads
from workloads import Tally, call_cli

TRACE_GRID = (100, 100)  # sweep slice: 10 000 points, run by the CLI and replayed
TRACE_POINTS = 2000  # points slice: single-point operations
TRACE_MC_REPEATS = 3  # long mc runs per worker count, and signal-transfer runs
TRACE_SHORT_CALLS = 20
RNG_BLOCKS = 64  # Philox normals drawn in blocks of the sampler's block size
IMPORT_PROBES = 3
SIGNAL_FRACTION = 0.05  # test-signal amplitude in units of the input standard deviation


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index or None]."""

    recording = True

    def __init__(self) -> None:
        self.spans: list[list] = []

    def open(self, name: str, parent: int | None = None) -> int:
        self.spans.append([name, time.perf_counter_ns(), None, parent])
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()

    def call(self, name: str, fn, *args, parent: int | None = None):
        start = time.perf_counter_ns()
        result = fn(*args)
        self.spans.append([name, start, time.perf_counter_ns(), parent])
        return result

    def caller(self, parent: int):
        return lambda name, fn, *args: self.call(name, fn, *args, parent=parent)

    def seconds(self, name: str, parent: int | None = None) -> list[float]:
        return [
            (end - start) * 1e-9
            for span_name, start, end, span_parent in self.spans
            if span_name == name and (parent is None or span_parent == parent)
        ]


class NullTracer(Tracer):
    """Same interface, records nothing: the untraced side of the overhead ratio."""

    recording = False

    def open(self, name: str, parent: int | None = None) -> int:
        return -1

    def close(self, index: int) -> None:
        pass

    def call(self, name: str, fn, *args, parent: int | None = None):
        return fn(*args)

    def caller(self, parent: int):
        return workloads.untraced_call


def _sweep_slice(inputs: dict, workdir: str, tracer: Tracer, tally: Tally) -> float:
    """CLI sweep over a TRACE_GRID grid, then make_* and classify replayed per row."""
    config = dict(inputs["long"][0])
    config["sweep"] = {
        "lambda": {**config["sweep"]["lambda"], "steps": TRACE_GRID[0]},
        "resource": {**config["sweep"]["resource"], "steps": TRACE_GRID[1]},
    }
    path = workloads.write_config(workdir, "trace_sweep", config)
    out = os.path.join(workdir, "trace_sweep.csv")
    start = time.perf_counter()
    span = tracer.open("cli.main.sweep")
    code, _ = call_cli(workloads.sweep_argv(path, out))
    tracer.close(span)
    if tracer.recording:
        replay = tracer.open("sweep.replay")
        with open(out, encoding="utf-8") as handle:
            rows = handle.read().split("\n")[1:-1]
        make = make_epr if config["family"] == "epr" else make_single_mode
        state = InputState(config["input"]["v_plus"], config["input"]["v_minus"])
        for row in rows:
            gain, resource = row.split(",", 2)[:2]
            teleporter = tracer.call("teleporter.make", make, float(gain), float(resource), parent=replay)
            tracer.call("criteria.classify", classify, teleporter, state, parent=replay)
        tracer.close(replay)
    wall = time.perf_counter() - start
    rng = random.Random(inputs["check_seed"])
    tally.record(code == 0 and workloads.check_sweep_csv(out, config, workloads.LONG_ROWS_CHECKED, rng))
    return wall


def _points_slice(specs: list, tracer: Tracer, tally: Tally) -> float:
    """TRACE_POINTS single-point operations, each a parent span of its calls."""
    results = []
    start = time.perf_counter()
    for spec in specs[:TRACE_POINTS]:
        op = tracer.open("points.op")
        try:
            result = workloads.run_point(spec, tracer.caller(op))
            if tracer.recording:
                teleporter = result.teleporter
                tracer.call("quadrature.added_noise", added_noise_variance, teleporter.plus, parent=op)
                tracer.call("quadrature.added_noise", added_noise_variance, teleporter.minus, parent=op)
                tracer.call(
                    "criteria.field_cvf", field_conditional_variance, teleporter, result.state, parent=op
                )
        except Exception:  # counted as a failed operation below
            result = None
        tracer.close(op)
        results.append(result)
    wall = time.perf_counter() - start
    for spec, result in zip(specs, results):
        tally.record(result is not None and workloads.point_matches(result, workloads.expected_point(spec)))
    return wall


def _mc_slice(inputs: dict, tracer: Tracer, tally: Tally) -> tuple[float, str]:
    """Long mc runs at --workers 1 and 2, then short 20 000-shot calls."""
    long_runs = []
    start = time.perf_counter()
    for _ in range(TRACE_MC_REPEATS):
        for workers in (1, 2):
            argv = workloads.mc_argv(inputs["long"], workers)
            long_runs.append(tracer.call(f"cli.main.mc_w{workers}", call_cli, argv))
    short = inputs["short"]
    short_runs = [
        tracer.call("cli.main.mc_short", call_cli, workloads.mc_argv(short[i % len(short)], 1))
        for i in range(TRACE_SHORT_CALLS)
    ]
    wall = time.perf_counter() - start
    reference = long_runs[0][1]
    for code, text in long_runs:
        tally.record(code == 0 and text == reference)
    for code, _ in short_runs:
        tally.record(code == 0)
    return wall, reference


def _normals_per_s(seed: int, tracer: Tracer) -> float:
    generator = np.random.Generator(np.random.Philox(seed))
    draws = RNG_BLOCKS * montecarlo.BLOCK_SHOTS
    for _ in range(TRACE_MC_REPEATS):
        span = tracer.open("rng.normals")
        for _ in range(RNG_BLOCKS):
            generator.standard_normal(montecarlo.BLOCK_SHOTS)
        tracer.close(span)
    return draws / statistics.median(tracer.seconds("rng.normals"))


def _max_abs_z(table: str) -> float:
    rows = [line.split(",") for line in table.strip().split("\n")[1:]]
    return max(abs(float(row[4])) for row in rows)


def traced_run(workload: str, seed: int, workdir: str) -> tuple[dict, Tally]:
    tally = Tally()
    tracer = Tracer()
    inputs = {name: workloads.BUILD[name](seed) for name in workloads.WORKLOADS}

    def run_slice(name: str, slice_tracer: Tracer) -> tuple[float, str | None]:
        if name == "sweep":
            return _sweep_slice(inputs["sweep"], workdir, slice_tracer, tally), None
        if name == "points":
            return _points_slice(inputs["points"], slice_tracer, tally), None
        return _mc_slice(inputs["mc"], slice_tracer, tally)

    untraced = NullTracer()
    for name in workloads.WORKLOADS:
        run_slice(name, untraced)  # warm-up: the first call of a code path pays one-time costs
    traced = {name: run_slice(name, tracer) for name in workloads.WORKLOADS}
    long_table = traced["mc"][1]
    untraced_wall = run_slice(workload, untraced)[0]

    params = inputs["mc"]["long"]
    teleporter = make_epr(params["gain"], params["resource"])
    signal_state = InputState(
        params["v_plus"],
        params["v_minus"],
        SIGNAL_FRACTION * math.sqrt(params["v_plus"]),
        SIGNAL_FRACTION * math.sqrt(params["v_minus"]),
    )
    for _ in range(TRACE_MC_REPEATS):
        tracer.call(
            "montecarlo.signal_transfer", sample_signal_transfer,
            teleporter, signal_state, params["shots"], params["seed"],
        )
    normals_per_s = _normals_per_s(params["seed"], tracer)

    def median(name: str, parent: int | None = None) -> float:
        return statistics.median(tracer.seconds(name, parent))

    sweep_span = next(i for i, span in enumerate(tracer.spans) if span[0] == "sweep.replay")
    classify_s = tracer.seconds("criteria.classify")
    w1_s, w2_s = median("cli.main.mc_w1"), median("cli.main.mc_w2")
    shots = params["shots"]
    draws_per_shot = 2 + len(teleporter.plus.noise) + len(teleporter.minus.noise)
    blocks = math.ceil(shots / montecarlo.BLOCK_SHOTS)
    ceiling = normals_per_s / draws_per_shot
    sweep_csv = os.path.join(workdir, "trace_sweep.csv")
    metrics = {
        "teleporter.make_us": median("teleporter.make") * 1e6,
        "quadrature.added_noise_us": median("quadrature.added_noise") * 1e6,
        "criteria.classify_us": statistics.median(classify_s) * 1e6,
        "criteria.classify_p99_us": workloads.percentile(classify_s, 99) * 1e6,
        "criteria.field_cvf_us": median("criteria.field_cvf") * 1e6,
        "criteria.bound_check_us": median("criteria.bound_check") * 1e6,
        "predictions.call_us": median("predictions.call") * 1e6,
        "cli.sweep_self_s": median("cli.main.sweep")
        - sum(tracer.seconds("teleporter.make", sweep_span))
        - sum(tracer.seconds("criteria.classify", sweep_span)),
        "cli.sweep_bytes": os.path.getsize(sweep_csv),
        "cli.import_s": probe.reported_seconds(["import-cli"], IMPORT_PROBES),
        "cli.numpy_import_s": probe.reported_seconds(["import-numpy"], IMPORT_PROBES),
        "montecarlo.w1_s": w1_s,
        "montecarlo.w2_s": w2_s,
        "montecarlo.w2_shots_per_s": shots / w2_s,
        "montecarlo.scaling_eff_w2": w1_s / (2 * w2_s),
        "montecarlo.signal_transfer_shots_per_s": shots / median("montecarlo.signal_transfer"),
        "rng.normals_per_s": normals_per_s,
        "montecarlo.ceiling_shots_per_s": ceiling,
        "montecarlo.roofline_frac": shots / w1_s / ceiling,
        "montecarlo.short_overhead_ms": (
            median("cli.main.mc_short") - workloads.SHORT_SHOTS * draws_per_shot / normals_per_s
        ) * 1e3,
        "montecarlo.draws_per_shot": draws_per_shot,
        "montecarlo.blocks": blocks,
        "montecarlo.streams": blocks * draws_per_shot,
        "montecarlo.max_abs_z": _max_abs_z(long_table),
        "montecarlo.golden_match": float(
            workloads.golden_matches(
                "mc", "mc_epr.json", "mc_epr.golden.csv", os.path.join(workdir, "golden_mc.csv")
            )
        ),
        "trace.overhead_frac": traced[workload][0] / untraced_wall - 1.0,
    }
    return metrics, tally
