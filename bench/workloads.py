"""Seeded inputs, untraced measurement and output checks of each workload.

Every workload yields a throughput and a latency measure, so all three
report the same end-to-end names (see bench/README.md for what each one
counts where):

sweep   ``cli.main(["sweep", ...])`` over seeded lambda x resource grids of
        the epr and single_mode families.  Long grids of 5e4 points give
        grid points/s; short grids the size of tests/golden/sweep_epr.json
        give the per-call latency.
points  one closed-loop caller making seeded single-point library calls
        from all four families, custom maps included.
mc      ``cli.main(["mc", ...])`` on seeded EPR teleporters.  A long run
        alternates --workers 1 and --workers 2; short 20 000-shot calls
        give the per-call latency.

The benchmark only hands the program the generated inputs; everything
here that is not a call into ``cvteleport`` is the benchmark's own client
and checking code.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import statistics
import time
from array import array
from dataclasses import dataclass

from cvteleport import (
    BellParams,
    Family,
    InputState,
    NoiseTerm,
    QuadratureMap,
    bell_s,
    classical_bound_check,
    classify,
    make_classical_measure_resend,
    make_custom,
    make_epr,
    make_single_mode,
    optimal_gain,
    squeezing_preserved,
)
from cvteleport import cli

import checkout
import oracle

WORKLOADS = ("sweep", "points", "mc")

# The measuring time is split into rounds, each a throughput phase (this share
# of it) and a latency phase, with a set-up probe between rounds.  Interleaving
# lets both phases see the same host drift instead of one half of the run each.
ROUNDS = 7
THROUGHPUT_SHARE = 0.6

LONG_GRID = (250, 200)  # lambda x resource steps: 50 000 points per long sweep call
SHORT_GRID = (21, 10)  # 210 points, the grid of tests/golden/sweep_epr.json
LONG_SWEEPS = 3  # distinct long configs, cycled
SHORT_SWEEPS = 16  # distinct short configs, cycled
LONG_ROWS_CHECKED = 200  # sampled rows per long sweep; short sweeps are checked in full

POINT_DRAWS = 4096  # distinct single-point draws, cycled by the closed loop
POINT_MIX = (("epr", 0.35), ("single_mode", 0.25), ("classical", 0.15), ("custom", 0.25))
ZERO_GAIN_SHARE = 0.03  # draws with an exact zero gain: the classical bound is undefined

LONG_SHOTS = 1 << 22
SHORT_SHOTS = 20_000  # the size of tests/golden/mc_epr.json
SHORT_MC_CONFIGS = 8

SWEEP_HEADER = "lambda,resource,ts_plus,ts_minus,t_t,vcv_plus,vcv_minus,v_t,c_f,v_cvf,region"
SWEEP_COLUMNS = ("ts_plus", "ts_minus", "t_t", "vcv_plus", "vcv_minus", "v_t", "c_f", "v_cvf")


@dataclass
class Tally:
    """Operations attempted and operations that failed or returned a wrong result."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


Measured = tuple[dict, dict, Tally]  # metric values, report notes, operation counts


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``cli.main`` in process; return its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _input_variances(rng: random.Random) -> tuple[float, float]:
    v_plus = _log_uniform(rng, 0.5, 2.0)
    if rng.random() < 0.5:
        return v_plus, 1.0 / v_plus  # minimum-uncertainty input
    return v_plus, _log_uniform(rng, 0.5, 2.0)


# --------------------------------------------------------------------------- sweep


def _sweep_config(rng: random.Random, steps: tuple[int, int], family: str) -> dict:
    v_plus, v_minus = _input_variances(rng)
    return {
        "family": family,
        "input": {"v_plus": v_plus, "v_minus": v_minus},
        "sweep": {
            "lambda": {"min": rng.uniform(-2.0, 0.0), "max": rng.uniform(0.5, 2.0), "steps": steps[0]},
            "resource": {"min": rng.uniform(0.05, 0.3), "max": rng.uniform(0.6, 1.0), "steps": steps[1]},
        },
    }


def sweep_inputs(seed: int) -> dict:
    rng = random.Random(f"sweep:{seed}")
    families = itertools.cycle(("epr", "single_mode"))  # a fixed family mix, whatever the seed
    return {
        "long": [_sweep_config(rng, LONG_GRID, next(families)) for _ in range(LONG_SWEEPS)],
        "short": [_sweep_config(rng, SHORT_GRID, next(families)) for _ in range(SHORT_SWEEPS)],
        "check_seed": rng.getrandbits(64),
    }


def grid_points(config: dict) -> int:
    sweep = config["sweep"]
    return sweep["lambda"]["steps"] * sweep["resource"]["steps"]


def _grid_value(section: dict, index: int) -> float:
    lo, hi, steps = section["min"], section["max"], section["steps"]
    return lo if steps == 1 else lo + index * (hi - lo) / (steps - 1)


def check_sweep_row(row: str, index: int, config: dict) -> bool:
    """One CSV row against its grid position and the symmetric closed forms."""
    fields = row.split(",")
    if len(fields) != 11:
        return False
    sweep = config["sweep"]
    i, j = divmod(index, sweep["resource"]["steps"])  # row-major, lambda outer
    gain, resource = float(fields[0]), float(fields[1])
    if not (
        oracle.close(gain, _grid_value(sweep["lambda"], i))
        and oracle.close(resource, _grid_value(sweep["resource"], j))
    ):
        return False
    noise = oracle.family_noise(config["family"], gain, resource)
    state = config["input"]
    expected = oracle.criteria(
        gain, noise, state["v_plus"], gain, noise, state["v_minus"], symmetric_noise=True
    )
    values = [float(x) for x in fields[2:10]]
    return all(oracle.close(v, expected[name]) for v, name in zip(values, SWEEP_COLUMNS)) and (
        fields[10] in oracle.regions(expected["v_cvf"])
    )


def check_sweep_csv(path: str, config: dict, rows_checked: int | None, rng: random.Random) -> bool:
    """Header, row count, and every row (or a seeded sample) against the oracle."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    n = grid_points(config)
    if len(lines) != n + 2 or lines[0] != SWEEP_HEADER or lines[-1] != "":
        return False
    if rows_checked is None or rows_checked >= n:
        indices = range(n)
    else:
        indices = [0, n - 1, *rng.sample(range(1, n - 1), rows_checked)]
    return all(check_sweep_row(lines[k + 1], k, config) for k in indices)


def golden_matches(command: str, config_name: str, golden_name: str, out_path: str) -> bool:
    """Replay a golden config through the CLI and compare the bytes."""
    config = os.path.join(checkout.GOLDEN_DIR, config_name)
    argv = [command, "--config", config, "--out", out_path]
    code, _ = call_cli(argv)
    golden = os.path.join(checkout.GOLDEN_DIR, golden_name)
    try:
        with open(out_path, "rb") as produced, open(golden, "rb") as expected:
            return code == 0 and produced.read() == expected.read()
    except OSError:
        return False


def write_config(workdir: str, name: str, config: dict) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle)
    return path


def sweep_argv(config_path: str, out_path: str) -> list[str]:
    return ["sweep", "--config", config_path, "--out", out_path]


def measure_sweep(inputs: dict, seconds: float, workdir: str, between_rounds) -> Measured:
    tally = Tally()
    rng = random.Random(inputs["check_seed"])
    out = os.path.join(workdir, "sweep.csv")
    long = [(c, write_config(workdir, f"long{i}", c)) for i, c in enumerate(inputs["long"])]
    short = [(c, write_config(workdir, f"short{i}", c)) for i, c in enumerate(inputs["short"])]
    long_calls = 0
    long_points = 0
    long_seconds = 0.0
    rounds = RoundLatencies(95)
    for throughput_end, round_end in _rounds(seconds, between_rounds):
        while True:
            config, path = long[long_calls % len(long)]
            start = time.perf_counter()
            code, _ = call_cli(sweep_argv(path, out))
            elapsed = time.perf_counter() - start
            long_calls += 1
            long_points += grid_points(config)
            long_seconds += elapsed
            tally.record(code == 0 and check_sweep_csv(out, config, LONG_ROWS_CHECKED, rng))
            if time.perf_counter() + elapsed > throughput_end:
                break
        latencies = array("d")
        _latency_loop(
            short,
            round_end,
            lambda item: call_cli(sweep_argv(item[1], out))[0],
            lambda item, code: code == 0 and check_sweep_csv(out, item[0], None, rng),
            latencies,
            tally,
        )
        rounds.add(latencies)
    tally.record(golden_matches("sweep", "sweep_epr.json", "sweep_epr.golden.csv", out))
    values = {"rate_per_s": long_points / long_seconds, **rounds.values()}
    notes = {
        "rate_per_s": f"grid points/s over {long_calls} sweeps of {grid_points(long[0][0])} points",
        "call_p50_ms": (
            f"ms per {grid_points(short[0][0])}-point sweep call, mean over rounds of each round's p50, "
            f"{rounds.calls} calls"
        ),
        "call_tail_ms": "mean over rounds of each round's p95",
    }
    return values, notes, tally


def _rounds(seconds: float, between_rounds):
    """Split the measuring time into ROUNDS rounds and call ``between_rounds`` after each.

    Yields (end of the round's throughput share, end of the round), so
    throughput and latency phases both sample the host across the whole
    run; the time ``between_rounds`` takes is not part of any round.
    """
    budget = seconds / ROUNDS
    for _ in range(ROUNDS):
        start = time.perf_counter()
        yield start + THROUGHPUT_SHARE * budget, start + budget
        between_rounds()


def _latency_loop(items, deadline: float, run, check, latencies: array, tally: Tally) -> None:
    """Closed loop cycling over ``items`` until ``deadline`` (at least one call)."""
    while True:
        item = items[len(latencies) % len(items)]
        start = time.perf_counter()
        result = run(item)
        latencies.append(time.perf_counter() - start)
        tally.record(check(item, result))
        if time.perf_counter() >= deadline:
            return


class RoundLatencies:
    """Latency median and tail of each round; a run reports the mean over rounds.

    A slow spell inside one round moves that round's p50 only as far as it
    fills the round.  The shared host switches between a fast and a slow
    state for seconds at a time; a median, pooled or over rounds, jumps
    from one state to the other when a run spends about half its time in
    each, while the mean over rounds moves with the share of time spent
    slow, as the throughput rates do.
    """

    def __init__(self, tail_pct: int) -> None:
        self.tail_pct = tail_pct
        self.calls = 0
        self.p50: list[float] = []
        self.tail: list[float] = []

    def add(self, latencies: array) -> None:
        self.calls += len(latencies)
        self.p50.append(statistics.median(latencies))
        self.tail.append(percentile(latencies, self.tail_pct))

    def values(self) -> dict[str, float]:
        return {
            "call_p50_ms": statistics.fmean(self.p50) * 1e3,
            "call_tail_ms": statistics.fmean(self.tail) * 1e3,
        }


# --------------------------------------------------------------------------- points


@dataclass(frozen=True)
class PointSpec:
    """One single-point question; custom maps carry (mode_id, coefficient, variance) terms."""

    family: str
    gain: float
    gain_minus: float
    resource: float | None
    v_plus: float
    v_minus: float
    plus_terms: tuple = ()
    minus_terms: tuple = ()
    v_squeezed: float = 0.5
    s_i: float = 1.5


@dataclass(frozen=True)
class PointResult:
    teleporter: object
    state: InputState
    report: object
    bound: object
    optimal: object = None
    squeezed: bool | None = None
    bell: float | None = None


def _terms(rng: random.Random, stem: str, count: int) -> tuple:
    return tuple((f"{stem}{k}", rng.uniform(-1.5, 1.5), _log_uniform(rng, 0.05, 5.0)) for k in range(count))


def point_inputs(seed: int) -> list[PointSpec]:
    """POINT_DRAWS draws in exact family shares, so the cost mix does not vary with the seed.

    Custom maps cycle through every (plus, minus) pair of 1-4 noise terms;
    ZERO_GAIN_SHARE of the draws, at seeded positions, have an exact zero gain.
    """
    rng = random.Random(f"points:{seed}")
    families = [family for family, share in POINT_MIX for _ in range(round(share * POINT_DRAWS))]
    rng.shuffle(families)
    zero_gain = set(rng.sample(range(len(families)), round(ZERO_GAIN_SHARE * len(families))))
    term_counts = itertools.cycle(itertools.product(range(1, 5), repeat=2))
    specs = []
    for index, family in enumerate(families):
        gain = 0.0 if index in zero_gain else rng.uniform(-2.0, 2.0)
        v_plus, v_minus = _input_variances(rng)
        if family == "custom":
            n_plus, n_minus = next(term_counts)
            specs.append(PointSpec(
                family, gain, rng.uniform(-2.0, 2.0), None, v_plus, v_minus,
                _terms(rng, "p", n_plus), _terms(rng, "m", n_minus),
            ))
        else:
            specs.append(PointSpec(
                family, gain, gain, None if family == "classical" else rng.uniform(0.05, 1.0),
                v_plus, v_minus, v_squeezed=rng.uniform(0.1, 0.9), s_i=rng.uniform(1.0, 1.5),
            ))
    return specs


def make_teleporter(spec: PointSpec):
    if spec.family == "epr":
        return make_epr(spec.gain, spec.resource)
    if spec.family == "single_mode":
        return make_single_mode(spec.gain, spec.resource)
    if spec.family == "classical":
        return make_classical_measure_resend(spec.gain)
    return make_custom(
        QuadratureMap(spec.gain, tuple(NoiseTerm(*t) for t in spec.plus_terms)),
        QuadratureMap(spec.gain_minus, tuple(NoiseTerm(*t) for t in spec.minus_terms)),
    )


def bound_or_none(teleporter):
    """Classical bound check; None where it is documented to raise (zero gain)."""
    try:
        return classical_bound_check(teleporter)
    except ValueError:
        return None


def untraced_call(name, fn, *args):
    return fn(*args)


def run_point(spec: PointSpec, call=untraced_call) -> PointResult:
    """One single-point operation; ``call(name, fn, *args)`` lets a tracer time each call."""
    state = InputState(spec.v_plus, spec.v_minus)
    teleporter = call("teleporter.make", make_teleporter, spec)
    report = call("criteria.classify", classify, teleporter, state)
    bound = call("criteria.bound_check", bound_or_none, teleporter)
    if spec.family != "epr":
        return PointResult(teleporter, state, report, bound)
    return PointResult(
        teleporter,
        state,
        report,
        bound,
        call("predictions.call", optimal_gain, Family.EPR, spec.resource),
        call("predictions.call", squeezing_preserved, teleporter, spec.v_squeezed),
        call("predictions.call", bell_s, BellParams(spec.s_i, spec.gain, report.v_cvf)),
    )


def expected_point(spec: PointSpec) -> dict:
    if spec.family == "custom":
        noise_plus = oracle.terms_noise(spec.plus_terms)
        noise_minus = oracle.terms_noise(spec.minus_terms)
    else:
        noise_plus = noise_minus = oracle.family_noise(spec.family, spec.gain, spec.resource)
    expected = oracle.criteria(
        spec.gain, noise_plus, spec.v_plus, spec.gain_minus, noise_minus, spec.v_minus,
        symmetric_noise=spec.family != "custom",
    )
    if spec.gain != 0.0 and spec.gain_minus != 0.0:
        expected["bound"] = (noise_plus / spec.gain**2) * (noise_minus / spec.gain_minus**2)
    if spec.family == "epr":
        expected["optimal"] = oracle.optimal_gain_epr(spec.resource)
        expected["v_out_squeezed"] = spec.gain**2 * spec.v_squeezed + noise_plus
        expected["bell"] = oracle.bell(spec.s_i, spec.gain, expected["v_cvf"])
    return expected


def point_matches(result: PointResult, expected: dict) -> bool:
    report = result.report
    if not all(oracle.close(getattr(report, name), expected[name]) for name in oracle.CRITERIA):
        return False
    if report.region.value not in oracle.regions(expected["v_cvf"]):
        return False
    violated = {
        t and not v
        for t in oracle.sides(expected["t_t"], 1.0 + oracle.SNAP)
        for v in oracle.sides(expected["v_t"], 1.0 - oracle.SNAP)
    }
    if report.both_violated not in violated:
        return False
    if "bound" not in expected:
        if result.bound is not None:
            return False
    elif result.bound is None or not (
        oracle.close(result.bound.product, expected["bound"])
        and result.bound.satisfied in oracle.sides(expected["bound"], 1.0 - oracle.SNAP)
    ):
        return False
    if "optimal" not in expected:
        return True
    gain, minimum = expected["optimal"]
    return (
        oracle.close(result.optimal.gain, gain)
        and oracle.close(result.optimal.v_cvf_min, minimum)
        and (not result.squeezed) in oracle.sides(expected["v_out_squeezed"], 1.0)
        and (expected["bell"] is None or oracle.close(result.bell, expected["bell"]))
    )


def measure_points(specs: list[PointSpec], seconds: float, workdir: str, between_rounds) -> Measured:
    """Closed loop of single-point operations.

    Hundreds of thousands of operations per run: each round reduces its
    own latencies and the run reports the mean over rounds, so memory
    does not grow with the host's speed.
    """
    tally = Tally()
    expected = [expected_point(spec) for spec in specs]
    rounds = RoundLatencies(99)
    busy_seconds = 0.0
    first_error = None
    for _, round_end in _rounds(seconds, between_rounds):
        latencies = array("d")
        while not latencies or time.perf_counter() < round_end:
            k = (rounds.calls + len(latencies)) % len(specs)
            start = time.perf_counter()
            try:
                result = run_point(specs[k])
            except Exception as exc:  # counted as a failed operation; the loop keeps going
                result, first_error = None, first_error or exc
            latencies.append(time.perf_counter() - start)
            tally.record(result is not None and point_matches(result, expected[k]))
        busy_seconds += sum(latencies)
        rounds.add(latencies)
    if first_error is not None:
        print(f"# first points error: {first_error!r}")
    values = {"rate_per_s": rounds.calls / busy_seconds, **rounds.values()}
    notes = {
        "rate_per_s": f"single-point operations/s over {rounds.calls} operations",
        "call_p50_ms": "ms per operation, mean over rounds of each round's p50",
        "call_tail_ms": "mean over rounds of each round's p99",
    }
    return values, notes, tally


# --------------------------------------------------------------------------- mc


def _mc_params(rng: random.Random, shots: int) -> dict:
    v_plus, v_minus = _input_variances(rng)
    return {
        "gain": rng.uniform(0.6, 1.4),
        "resource": rng.uniform(0.2, 1.0),
        "v_plus": v_plus,
        "v_minus": v_minus,
        "shots": shots,
        "seed": rng.getrandbits(32),
    }


def mc_argv(params: dict, workers: int) -> list[str]:
    return [
        "mc", "--family", "epr",
        "--lambda", repr(params["gain"]),
        "--resource", repr(params["resource"]),
        "--vin-plus", repr(params["v_plus"]),
        "--vin-minus", repr(params["v_minus"]),
        "--shots", str(params["shots"]),
        "--seed", str(params["seed"]),
        "--workers", str(workers),
    ]


def mc_inputs(seed: int) -> dict:
    rng = random.Random(f"mc:{seed}")
    return {
        "long": _mc_params(rng, LONG_SHOTS),
        "short": [_mc_params(rng, SHORT_SHOTS) for _ in range(SHORT_MC_CONFIGS)],
    }


def measure_mc(inputs: dict, seconds: float, workdir: str, between_rounds) -> Measured:
    tally = Tally()
    w1 = array("d")
    w2 = array("d")
    rounds = RoundLatencies(95)
    reference = None
    references: dict[int, str] = {}  # first output per short config: later calls must repeat it
    for throughput_end, round_end in _rounds(seconds, between_rounds):
        while True:
            for workers, times in ((1, w1), (2, w2)):
                start = time.perf_counter()
                code, text = call_cli(mc_argv(inputs["long"], workers))
                times.append(time.perf_counter() - start)
                reference = reference or text
                tally.record(code == 0 and text == reference)  # bit-identical across workers
            if time.perf_counter() + w1[-1] + w2[-1] > throughput_end:
                break
        latencies = array("d")
        _latency_loop(
            range(len(inputs["short"])),
            round_end,
            lambda index: call_cli(mc_argv(inputs["short"][index], 1)),
            lambda index, out: out[0] == 0 and references.setdefault(index, out[1]) == out[1],
            latencies,
            tally,
        )
        rounds.add(latencies)
    values = {"rate_per_s": LONG_SHOTS * len(w1) / sum(w1), **rounds.values()}
    notes = {
        "rate_per_s": (
            f"shots/s at --workers 1 over {len(w1)} runs of {LONG_SHOTS} shots "
            f"(--workers 2: {LONG_SHOTS * len(w2) / sum(w2):.4g} shots/s)"
        ),
        "call_p50_ms": (
            f"ms per {SHORT_SHOTS}-shot mc call, mean over rounds of each round's p50, "
            f"{rounds.calls} calls"
        ),
        "call_tail_ms": "mean over rounds of each round's p95",
    }
    return values, notes, tally


BUILD = {"sweep": sweep_inputs, "points": point_inputs, "mc": mc_inputs}
MEASURE = {"sweep": measure_sweep, "points": measure_points, "mc": measure_mc}
