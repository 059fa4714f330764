"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json
import math
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvteleport import (
    InputState,
    Region,
    added_noise_variance,
    classify,
    cli,
    make_classical_measure_resend,
    make_epr,
    make_single_mode,
)

SWEEP_HEADER = "lambda,resource,ts_plus,ts_minus,t_t,vcv_plus,vcv_minus,v_t,c_f,v_cvf,region"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "cvteleport", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


class TestReport:
    def test_no_entanglement_point(self):
        result = run_cli("report", "--family", "epr", "--lambda", "1", "--resource", "1")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["criteria"]["v_cvf"] == pytest.approx(2.0, abs=1e-12)
        assert payload["criteria"]["region"] == "Classical"
        assert payload["classical_bound"]["satisfied"]

    def test_strong_resource_violates_both(self):
        result = run_cli("report", "--family", "epr", "--lambda", "1", "--resource", "0.25")
        payload = json.loads(result.stdout)
        assert payload["criteria"]["both_violated"] is True
        assert payload["criteria"]["region"] == "Strong"

    def test_rejects_out_of_range_resource(self):
        result = run_cli("report", "--family", "epr", "--lambda", "1", "--resource", "1.5")
        assert result.returncode == 1
        assert "v_ent" in result.stderr

    def test_rejects_out_of_range_gain(self):
        result = run_cli("report", "--family", "epr", "--lambda", "3", "--resource", "0.5")
        assert result.returncode == 1
        assert "lambda" in result.stderr

    def test_missing_family_names_field(self):
        result = run_cli("report", "--lambda", "1", "--resource", "1")
        assert result.returncode == 1
        assert "missing required field: family" in result.stderr

    def test_missing_resource_names_field(self):
        result = run_cli("report", "--family", "epr", "--lambda", "1")
        assert result.returncode == 1
        assert "missing required field: resource" in result.stderr

    def test_classical_family_needs_no_resource(self):
        result = run_cli("report", "--family", "classical", "--lambda", "1")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["criteria"]["v_cvf"] == pytest.approx(2.0, abs=1e-12)
        assert payload["criteria"]["region"] == "Classical"

    def test_zero_gain_reports_null_bound(self):
        result = run_cli("report", "--family", "classical", "--lambda", "0")
        assert result.returncode == 0
        assert json.loads(result.stdout)["classical_bound"] is None

    def test_unknown_flag_is_usage_error(self):
        result = run_cli("report", "--no-such-flag")
        assert result.returncode == 1

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"family": "epr", "lambda": 0.5, "resource": 1.0}))
        result = run_cli("report", "--config", str(config), "--lambda", "1")
        payload = json.loads(result.stdout)
        assert payload["lambda"] == 1.0
        assert payload["criteria"]["v_cvf"] == pytest.approx(2.0, abs=1e-12)


class TestSweep:
    def sweep_config(self, tmp_path, **overrides):
        config = {
            "family": "epr",
            "sweep": {
                "lambda": {"min": 0.0, "max": 2.0, "steps": 21},
                "resource": {"min": 0.1, "max": 1.0, "steps": 10},
            },
        }
        config.update(overrides)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        return path

    def test_grid_shape_and_order(self, tmp_path):
        config = self.sweep_config(tmp_path)
        out = tmp_path / "sweep.csv"
        result = run_cli("sweep", "--config", str(config), "--out", str(out))
        assert result.returncode == 0, result.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 21 * 10
        # row-major: lambda outer, so the first 10 rows share lambda = 0.0
        assert all(line.startswith("0.0,") for line in lines[1:11])

    def test_unity_gain_half_resource_row(self, tmp_path):
        config = self.sweep_config(tmp_path)
        out = tmp_path / "sweep.csv"
        run_cli("sweep", "--config", str(config), "--out", str(out))
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        matches = [
            row
            for row in rows
            if abs(float(row[0]) - 1.0) < 1e-9 and abs(float(row[1]) - 0.5) < 1e-9
        ]
        assert len(matches) == 1
        assert float(matches[0][9]) == pytest.approx(1.0, abs=1e-12)  # v_cvf column

    def test_byte_identical_reruns(self, tmp_path):
        config = self.sweep_config(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        run_cli("sweep", "--config", str(config), "--out", str(out_a))
        run_cli("sweep", "--config", str(config), "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_degenerate_sweep_matches_report(self, tmp_path):
        config = self.sweep_config(
            tmp_path,
            sweep={
                "lambda": {"min": 1.0, "max": 1.0, "steps": 1},
                "resource": {"min": 0.25, "max": 0.25, "steps": 1},
            },
        )
        out = tmp_path / "single.csv"
        run_cli("sweep", "--config", str(config), "--out", str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        row = lines[1].split(",")
        report = json.loads(
            run_cli(
                "report", "--family", "epr", "--lambda", "1", "--resource", "0.25"
            ).stdout
        )["criteria"]
        assert float(row[2]) == pytest.approx(report["ts_plus"], abs=1e-15)
        assert float(row[9]) == pytest.approx(report["v_cvf"], abs=1e-15)
        assert row[10] == report["region"]

    def test_single_mode_never_below_one(self, tmp_path):
        config = self.sweep_config(
            tmp_path,
            family="single_mode",
            sweep={
                "lambda": {"min": -2.0, "max": 2.0, "steps": 41},
                "resource": {"min": 0.05, "max": 1.0, "steps": 12},
            },
        )
        out = tmp_path / "sm.csv"
        result = run_cli("sweep", "--config", str(config), "--out", str(out))
        assert result.returncode == 0
        v_cvf_values = [
            float(line.split(",")[9]) for line in out.read_text().splitlines()[1:]
        ]
        assert min(v_cvf_values) >= 1.0 - 1e-9

    def test_unwritable_output_path(self, tmp_path):
        config = self.sweep_config(tmp_path)
        result = run_cli("sweep", "--config", str(config), "--out", "/no/such/dir/out.csv")
        assert result.returncode == 1
        assert "cannot write" in result.stderr

    def test_missing_out_names_field(self, tmp_path):
        config = self.sweep_config(tmp_path)
        result = run_cli("sweep", "--config", str(config))
        assert result.returncode == 1
        assert "missing required field: out" in result.stderr

    def test_rejects_resource_grid_outside_domain(self, tmp_path):
        config = self.sweep_config(
            tmp_path,
            sweep={
                "lambda": {"min": 0.0, "max": 1.0, "steps": 2},
                "resource": {"min": 0.5, "max": 1.5, "steps": 3},
            },
        )
        result = run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "x.csv"))
        assert result.returncode == 1


PER_POINT_MAKERS = {
    "epr": make_epr,
    "single_mode": make_single_mode,
    "classical": lambda gain, resource: make_classical_measure_resend(gain),
}


def grid_values(grid):
    """The CLI's (min, max, steps) grid; endpoints land exactly on min and max."""
    lo, hi, steps = grid["min"], grid["max"], grid["steps"]
    if steps == 1:
        return [lo]
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps - 1)] + [hi]


def per_point_sweep(config):
    """(exit code, stderr, CSV) of a sweep built teleporter by teleporter.

    The route the CLI took before it evaluated the grid as arrays: one
    family teleporter and one ``classify`` call per point, in row-major
    order, each value written with ``repr``.  An oracle for the array route.
    """
    family, sweep, state = config["family"], config["sweep"], config["input"]
    lines = [SWEEP_HEADER]
    try:
        state = InputState(state["v_plus"], state["v_minus"])
        for gain in grid_values(sweep["lambda"]):
            for resource in grid_values(sweep["resource"]):
                report = classify(PER_POINT_MAKERS[family](gain, resource), state)
                criteria = (getattr(report, name) for name in SWEEP_HEADER.split(",")[2:-1])
                values = [gain, resource, *criteria]
                lines.append(",".join([*map(repr, values), report.region.value]))
    except ValueError as exc:
        return 1, f"error: {exc}\n", None
    return 0, "", "\n".join(lines) + "\n"


def array_sweep(config, workdir):
    """(exit code, stderr, CSV) of ``cli.main`` on ``config``; the CSV is None if
    a pre-existing output file is left as it was."""
    path, out = workdir / "sweep.json", workdir / "sweep.csv"
    path.write_text(json.dumps(config))
    out.write_bytes(b"left as it was\n")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(["sweep", "--config", str(path), "--out", str(out)])
    text = out.read_text(encoding="utf-8")
    return code, stderr.getvalue(), None if text == "left as it was\n" else text


def sweep_config(family, lambda_grid, resource_grid, v_plus=1.0, v_minus=1.0):
    def grid(values):
        lo, hi, steps = values
        return {"min": lo, "max": hi, "steps": steps}

    return {
        "family": family,
        "input": {"v_plus": v_plus, "v_minus": v_minus},
        "sweep": {"lambda": grid(lambda_grid), "resource": grid(resource_grid)},
    }


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sweep")


SWEEP_GAINS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.0, -2.0, 5e-324, -5e-324, 1e-310, -2.2e-308]),
    st.floats(min_value=-2.0, max_value=2.0),
)
SWEEP_RESOURCES = st.one_of(
    st.sampled_from([1.0, 1e-300, 1e-310, 5e-324]),
    st.floats(min_value=-744.0, max_value=0.0).map(math.exp).filter(lambda r: r > 0.0),
)
# Input variances log-uniform over 1e-300..1e300.
SWEEP_VARIANCES = st.floats(min_value=-690.0, max_value=690.0).map(math.exp)
# Grid shapes with 1, chunk - 1, chunk and chunk + 1 points for a chunk of 7.
SWEEP_SHAPES = st.one_of(
    st.sampled_from([(1, 1), (2, 3), (3, 2), (1, 7), (7, 1), (2, 4), (4, 2), (1, 8)]),
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
)


def sorted_pair(values):
    return st.tuples(values, values).map(sorted)


OVERFLOWING_NOISE = "field correlation undefined: the added noise overflows"


class TestArraySweep:
    """The array route writes the per-point route's bytes, or fails as it fails."""

    @given(
        family=st.sampled_from(list(PER_POINT_MAKERS)),
        gains=sorted_pair(SWEEP_GAINS),
        resources=sorted_pair(SWEEP_RESOURCES),
        shape=SWEEP_SHAPES,
        v_plus=SWEEP_VARIANCES,
        v_minus=SWEEP_VARIANCES,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_point_route(
        self, sweep_dir, family, gains, resources, shape, v_plus, v_minus
    ):
        config = sweep_config(family, (*gains, shape[0]), (*resources, shape[1]), v_plus, v_minus)
        with mock.patch.object(cli, "_SWEEP_CHUNK", 7):
            assert array_sweep(config, sweep_dir) == per_point_sweep(config)

    @pytest.mark.parametrize("family", ["epr", "single_mode"])
    @pytest.mark.parametrize("shape", [(1, 1), (23, 89), (32, 64), (3, 683)])
    def test_chunk_boundaries(self, sweep_dir, family, shape):
        # 1, chunk - 1, chunk and chunk + 1 points at the CLI's own chunk size
        assert cli._SWEEP_CHUNK == 2048
        config = sweep_config(family, (-2.0, 2.0, shape[0]), (0.01, 1.0, shape[1]), 0.3, 1 / 0.3)
        code, stderr, text = array_sweep(config, sweep_dir)
        assert (code, stderr, text) == per_point_sweep(config)
        assert len(text.splitlines()) == 1 + shape[0] * shape[1]

    @pytest.mark.parametrize(
        "lambda_grid,resource_grid,variance,message",
        [
            ((0.0, 2.0, 21), (0.5, 1.5, 3), 1.0, "v_ent must lie in (0, 1], got 1.5"),
            (
                (0.0, 2.0, 21),
                (1e-310, 1.0, 10),
                1.0,
                "noise term coefficient and variance must be finite",
            ),
            # (1 - gain)**2 / (2 v_ent) overflows at gain -2 and v_ent 1e-308
            ((-2.0, 2.0, 21), (1e-308, 1.0, 10), 1.5e308, OVERFLOWING_NOISE),
            # the first failing point in row-major order decides: an overflowing
            # added noise before a rejected resource in the first row ...
            ((-2.0, -1.0, 2), (1e-308, 1.5, 2), 1.5e308, OVERFLOWING_NOISE),
            # ... and a rejected resource in the first row before overflowing
            # noise in the second
            ((0.0, 1.0, 2), (0.5, 1.5, 3), 1.5e308, "v_ent must lie in (0, 1], got 1.5"),
            # huge inputs before a rejected resource in the first row: their
            # criteria are finite, so the rejected resource decides
            ((1.0, 2.0, 2), (0.5, 1.5, 3), 1.5e308, "v_ent must lie in (0, 1], got 1.5"),
        ],
    )
    def test_failure_leaves_output_unchanged(
        self, sweep_dir, lambda_grid, resource_grid, variance, message
    ):
        config = sweep_config("epr", lambda_grid, resource_grid, variance, variance)
        expected = (1, f"error: {message}\n", None)
        assert per_point_sweep(config) == expected
        assert array_sweep(config, sweep_dir) == expected

    def test_huge_inputs_match_exact_rationals(self, sweep_dir):
        # gain**2 V_in and the moment sums overflow here, yet every criterion
        # is finite: T_s = C_f = gain**2 v / (gain**2 v + N), V_cv = V_t =
        # V_cvf = N for the symmetric teleporter at V_in+ = V_in- = v.
        config = sweep_config("epr", (0.0, 2.0, 21), (0.1, 1.0, 10), 1.5e308, 1.5e308)
        code, stderr, text = array_sweep(config, sweep_dir)
        assert (code, stderr, text) == per_point_sweep(config)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert len(rows) == 210
        v_in = Fraction(1.5e308)
        for row in rows:
            gain, resource = float(row[0]), float(row[1])
            noise = added_noise_variance(make_epr(gain, resource).plus)
            signal = Fraction(gain) ** 2 * v_in
            ts_plus, ts_minus, t_t, *variances, c_f, v_cvf = map(float, row[2:-1])
            transfer = signal / (signal + Fraction(noise))
            assert abs(Fraction(ts_plus) - transfer) <= 1e-15
            assert (ts_minus, c_f) == (ts_plus, ts_plus)
            assert abs(Fraction(t_t) - 2 * transfer) <= 1e-15
            assert [*variances, v_cvf] == [noise] * 4
            # the region of V_cvf = N; boundaries classify upward
            index = (noise >= 1 - 1e-12) + (noise >= 2 - 1e-12)
            assert row[-1] == ("Strong", "Intermediate", "Classical")[index]


# Values whose float64 bits differ although some compare equal (0.0 and -0.0),
# differ by one ulp, or sit at the ends of the range; repeated within rows.
SWEEP_TEXT_VALUES = [
    0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 0.1,
    0.30000000000000004, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    1.7976931348623157e308, -1e308, math.inf, -math.inf, math.nan,
]
SWEEP_TEXT_ROWS = [
    [0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0],
    [1.0, math.nextafter(1.0, 2.0), 1.0, math.nextafter(1.0, 0.0), 1.0, 1.0, 1.0, 1.0],
    [2.5] * 8,
    [-0.0] * 8,
    [5e-324, -5e-324, 5e-324, 1.7976931348623157e308, 1e-310, 1e-310, -1e308, 5e-324],
    [math.nan, math.inf, math.nan, -math.inf, math.inf, 0.0, -0.0, math.nan],
]
# (len(lambda_grid), len(resource_grid)): 1, chunk - 1, chunk and chunk + 1 rows
SWEEP_TEXT_SHAPES = [(1, 1), (23, 89), (32, 64), (3, 683)]


def reference_sweep_text(table, regions, lambda_grid, resource_grid):
    """The sweep CSV with every value formatted on its own, row by row."""
    lines = [SWEEP_HEADER]
    for point, row in enumerate(table.T.tolist()):
        i, j = divmod(point, len(resource_grid))
        values = [lambda_grid[i], resource_grid[j], *row]
        lines.append(",".join([*map(repr, values), regions[point].value]))
    return "\n".join(lines) + "\n"


class TestSweepText:
    """The writer formats each distinct value of a row once, yet writes every value's repr."""

    @pytest.mark.parametrize("shape", SWEEP_TEXT_SHAPES)
    def test_matches_per_value_repr(self, shape):
        assert cli._SWEEP_CHUNK == 2048
        rng = np.random.default_rng(sum(shape))
        rows = shape[0] * shape[1]
        # Each drawn row takes 8 values from a random 3-value subset, so values repeat.
        subsets = rng.choice(SWEEP_TEXT_VALUES, size=(rows, 3))
        table = np.take_along_axis(subsets, rng.integers(0, 3, size=(rows, 8)), axis=1)
        table[: len(SWEEP_TEXT_ROWS)] = SWEEP_TEXT_ROWS[:rows]
        table = np.ascontiguousarray(table.T)
        regions = np.array([list(Region)[k % 3] for k in range(rows)], dtype=object)
        lambda_grid = np.linspace(-2.0, 2.0, shape[0]).tolist()
        resource_grid = np.geomspace(1e-300, 1.0, shape[1]).tolist()
        text = "".join(cli._sweep_text(table, regions, lambda_grid, resource_grid))
        assert text == reference_sweep_text(table, regions, lambda_grid, resource_grid)


# Runs in a fresh interpreter: argv[1] is a sweep config, argv[2] an output path.
COLD_START = """
import sys

import cvteleport
from cvteleport import cli
from cvteleport import *

assert all(name in globals() for name in cvteleport.__all__)
for argv in (
    ["report", "--family", "epr", "--lambda", "1", "--resource", "0.5"],
    ["bell", "--lambda", "0.5"],
    ["squeeze", "--lambda", "1", "--vin-plus", "0.3"],
):
    assert cli.main(argv) == 0, argv
teleporter = make_epr(1.0, 0.25)
classify(teleporter, InputState(1.0, 1.0))
classical_bound_check(teleporter)
optimal_gain(Family.EPR, 0.25)
squeezing_preserved(teleporter, 0.3)
bell_s(BellParams(s_i=1.5, gain=1.0, v_cvf=0.5))
assert "numpy" not in sys.modules, "numpy was imported"
assert cli.main(["sweep", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
mc = ["mc", "--family", "epr", "--lambda", "1", "--resource", "0.5"]
assert cli.main([*mc, "--shots", "2000", "--seed", "3"]) == 0
assert "numpy" in sys.modules
"""


class TestColdStart:
    def test_numpy_loads_only_for_arrays(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(sweep_config("epr", (0.0, 2.0, 3), (0.1, 1.0, 4))))
        out = tmp_path / "sweep.csv"
        result = subprocess.run(
            [sys.executable, "-c", COLD_START, str(config), str(out)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert len(out.read_text().splitlines()) == 1 + 3 * 4


class TestMc:
    def test_verification_passes(self):
        result = run_cli(
            "mc",
            "--family",
            "epr",
            "--lambda",
            "1",
            "--resource",
            "1",
            "--shots",
            "20000",
            "--seed",
            "42",
        )
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "quantity,analytic,estimate,std_error,z_score,status"
        assert len(lines) == 13
        assert all(line.endswith(",PASS") for line in lines[1:])
        assert "12/12 PASS" in result.stderr

    def test_perfect_point_through_custom_columns(self):
        # classical family at zero gain: exact zero covariance estimates pass
        result = run_cli(
            "mc", "--family", "classical", "--lambda", "0", "--shots", "5000", "--seed", "1"
        )
        assert result.returncode == 0

    def test_corrupted_analytic_fails_with_exit_2(self):
        result = run_cli(
            "mc",
            "--family",
            "epr",
            "--lambda",
            "1",
            "--resource",
            "1",
            "--shots",
            "20000",
            "--seed",
            "42",
            "--corrupt-analytic",
        )
        assert result.returncode == 2
        assert any(line.endswith(",FAIL") for line in result.stdout.splitlines())

    # High and low signal-to-noise, where the raw-moment delta method
    # reported false FAILs, and past the float64 resolution limit.
    @pytest.mark.parametrize(
        "family,v_in,seed,code,passed",
        [
            ("epr", "1e10", "1", 0, 12),
            ("epr", "1e-12", "2", 0, 12),
            ("single_mode", "1e-4", "4", 0, 12),
            ("epr", "1e300", "1", 1, 0),
        ],
    )
    def test_signal_to_noise_regressions(self, family, v_in, seed, code, passed):
        point = ["--family", family, "--lambda", "1", "--resource", "0.5", "--shots", "100000"]
        result = run_cli("mc", *point, "--vin-plus", v_in, "--vin-minus", v_in, "--seed", seed)
        assert result.returncode == code, result.stderr
        assert sum(line.endswith(",PASS") for line in result.stdout.splitlines()) == passed
        assert "Traceback" not in result.stderr
        if code == 1:
            assert result.stderr.startswith("error: ")
        else:
            assert "12/12 PASS" in result.stderr

    def test_deterministic_table(self, tmp_path):
        args = (
            "mc",
            "--family",
            "single_mode",
            "--lambda",
            "0.8",
            "--resource",
            "0.4",
            "--shots",
            "10000",
            "--seed",
            "7",
        )
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        out = tmp_path / "table.csv"
        third = run_cli(*args, "--out", str(out))
        assert out.read_text() == third.stdout


class TestMcWorkers:
    @pytest.mark.parametrize("flags,expected", [((), 1), (("--workers", "3"), 3)])
    def test_flag_reaches_sampler(self, tmp_path, monkeypatch, capsys, flags, expected):
        config = tmp_path / "mc.json"
        config.write_text(
            json.dumps(
                {"family": "epr", "lambda": 1.0, "resource": 1.0, "mc": {"shots": 2000, "seed": 1}}
            )
        )
        seen = []
        sample_criteria = cli.sample_criteria

        def spy(*args, workers):
            seen.append(workers)
            return sample_criteria(*args, workers=workers)

        monkeypatch.setattr(cli, "sample_criteria", spy)
        assert cli.main(["mc", "--config", str(config), *flags]) == 0
        assert seen == [expected]

    def test_each_call_sees_only_its_own_flags(self, tmp_path, monkeypatch, capsys):
        # The parser is built once per process; no flag may carry over to a later call.
        # At 20 000 shots the corrupted analytic value fails the 5-sigma gate.
        config = tmp_path / "mc.json"
        config.write_text(
            json.dumps(
                {
                    "family": "epr",
                    "lambda": 1.0,
                    "resource": 1.0,
                    "mc": {"shots": 20000, "seed": 42},
                }
            )
        )
        seen = []
        sample_criteria = cli.sample_criteria

        def spy(*args, workers):
            seen.append(workers)
            return sample_criteria(*args, workers=workers)

        monkeypatch.setattr(cli, "sample_criteria", spy)
        argv = ["mc", "--config", str(config)]
        assert cli.main([*argv, "--workers", "3", "--corrupt-analytic"]) == 2
        assert cli.main(argv) == 0
        assert cli.main([*argv, "--workers", "2"]) == 0
        assert cli.main(argv) == 0
        assert seen == [3, 1, 2, 1]
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_rejects_workers_below_one(self, workers):
        result = run_cli(
            "mc", "--family", "epr", "--lambda", "1", "--resource", "1", "--workers", workers
        )
        assert result.returncode == 1
        assert result.stderr.startswith("error: workers must be at least 1")
        assert "Traceback" not in result.stderr


EPR_POINT = {"family": "epr", "lambda": 1.0, "resource": 0.5}
GRID = {"min": 0.5, "max": 1.0, "steps": 2}


class TestMalformedConfig:
    @pytest.mark.parametrize(
        "command,config",
        [
            ("report", {**EPR_POINT, "lambda": "abc"}),
            ("report", {**EPR_POINT, "lambda": None}),
            ("report", {**EPR_POINT, "resource": "NaN"}),
            ("report", {**EPR_POINT, "input": {"v_plus": "abc"}}),
            (
                "sweep",
                {
                    **EPR_POINT,
                    "out": "x.csv",
                    "sweep": {"lambda": {**GRID, "steps": "x"}, "resource": GRID},
                },
            ),
            ("mc", {**EPR_POINT, "mc": {"shots": "many"}}),
            ("bell", {"lambda": 1.0, "bell": {"s_i": [1.5]}}),
            ("squeeze", {"lambda": 1.0, "squeeze": {"v_cvf": "grid"}}),
            ("report", {**EPR_POINT, "input": 0.3}),
            ("report", {**EPR_POINT, "input": "abc"}),
            ("mc", {**EPR_POINT, "mc": 5000}),
            ("squeeze", {"lambda": 1.0, "squeeze": "grid"}),
            ("report", {**EPR_POINT, "lambda": True}),
            ("report", {**EPR_POINT, "lambda": "1.5"}),
            ("mc", {**EPR_POINT, "mc": {"shots": 2000, "seed": True}}),
            ("mc", {**EPR_POINT, "mc": {"shots": 20000.9}}),
            ("bell", {"lambda": 1.0, "bell": {"v_cvf": {**GRID, "steps": 2.9}}}),
            ("bell", {"lambda": 1.0, "out": 5}),
        ],
    )
    def test_exits_1_without_traceback(self, tmp_path, command, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = run_cli(command, "--config", str(path))
        assert result.returncode == 1
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr

    def test_flag_does_not_replace_a_malformed_section(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**EPR_POINT, "input": 0.3}))
        result = run_cli("report", "--config", str(path), "--vin-plus", "2")
        assert result.returncode == 1
        assert "error: input must be an object" in result.stderr

    def test_error_names_the_full_field(self, tmp_path):
        config = {**EPR_POINT, "out": "x.csv", "sweep": {"lambda": {**GRID, "steps": "x"}}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = run_cli("sweep", "--config", str(path))
        assert result.returncode == 1
        assert "error: sweep.lambda.steps must be of type int" in result.stderr


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


class TestNonFiniteValues:
    @pytest.mark.parametrize("gain", ["1e-170", "1e-160"])
    def test_tiny_gain_reports_undefined_bound(self, gain):
        result = run_cli("report", "--family", "epr", "--lambda", gain, "--resource", "0.5")
        assert result.returncode == 0, result.stderr
        assert strict_json(result.stdout)["classical_bound"] is None

    @pytest.mark.parametrize(
        "args",
        [
            ("--lambda", "1", "--resource", "0.5", "--vin-plus", "inf"),
            ("--lambda", "1", "--resource", "0.5", "--vin-minus", "nan"),
            # (1 - gain)**2 / (2 v_ent) overflows
            ("--lambda", "-2", "--resource", "1e-308"),
        ],
    )
    def test_non_finite_criteria_exit_1_without_traceback(self, args):
        result = run_cli("report", "--family", "epr", *args)
        assert result.returncode == 1
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_overflowing_noise_names_its_cause(self):
        result = run_cli("report", "--family", "epr", "--lambda", "-2", "--resource", "1e-308")
        assert result.stderr == f"error: {OVERFLOWING_NOISE}\n"

    @pytest.mark.parametrize(
        "gain,v_plus,v_minus,region",
        [
            # gain**2 V_in overflows in the + quadrature and V_in- is tiny
            # (was a NaN region)
            (2.0, 1e308, 1e-308, "Classical"),
            # gain**2 V_in / N is 1e17: V_out (1 - T_s) lost N to 0.0 and
            # reported Strong
            (1.0, 1e17, 1e17, "Intermediate"),
        ],
        ids=["huge-and-tiny-inputs", "high-signal-to-noise"],
    )
    def test_extreme_inputs_report_exact_values(self, gain, v_plus, v_minus, region):
        # T_s = gain**2 v / (gain**2 v + N) per quadrature, and V_cv = V_t =
        # V_cvf = N for the symmetric teleporter, rounded once.
        args = ("--lambda", repr(gain), "--resource", "0.5")
        args += ("--vin-plus", repr(v_plus), "--vin-minus", repr(v_minus))
        result = run_cli("report", "--family", "epr", *args)
        assert result.returncode == 0, result.stderr
        criteria = strict_json(result.stdout)["criteria"]
        noise = added_noise_variance(make_epr(gain, 0.5).plus)
        for name, v_in in (("ts_plus", v_plus), ("ts_minus", v_minus)):
            signal = Fraction(gain) ** 2 * Fraction(v_in)
            assert criteria[name] == float(signal / (signal + Fraction(noise)))
        for name in ("vcv_plus", "vcv_minus", "v_t", "v_cvf"):
            assert criteria[name] == noise
        assert criteria["region"] == region


FUZZ_NUMBERS = st.one_of(
    st.sampled_from(
        [
            "nan", "inf", "-inf", "5e-324", "-5e-324", "1e-310", "2.2250738585072014e-308",
            "1e-300", "1e-170", "1e308", "-1e308", "1.7976931348623157e308", "0", "-0.0",
            "1", "0.5", "2", "-2", "abc", "", "1,5",
        ]
    ),
    st.floats().map(repr),
)
FUZZ_FLAGS = {
    "--family": st.sampled_from(["epr", "single_mode", "classical", "custom", "EPR", ""]),
    "--lambda": FUZZ_NUMBERS,
    "--resource": FUZZ_NUMBERS,
    "--vin-plus": FUZZ_NUMBERS,
    "--vin-minus": FUZZ_NUMBERS,
    "--seed": st.one_of(st.integers(-1, 2**64).map(str), st.sampled_from(["nan", "1e3", "x"])),
    # File names under the test's temporary directory.
    "--out": st.sampled_from(["out.txt", "missing/out.txt"]),
    "--config": st.just("grids.json"),
}
# Small grids for sweep, bell and squeeze; the other commands ignore them.
FUZZ_CONFIG = {
    "sweep": {"lambda": {**GRID, "min": -1.0}, "resource": GRID},
    "bell": {"v_cvf": GRID},
    "squeeze": {"v_cvf": GRID},
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "grids.json").write_text(json.dumps(FUZZ_CONFIG))
    return path


class TestFuzz:
    @given(
        command=st.sampled_from(["report", "sweep", "mc", "bell", "squeeze"]),
        flags=st.fixed_dictionaries({}, optional=FUZZ_FLAGS),
        shots=st.one_of(st.integers(-5, 3000).map(str), st.sampled_from(["nan", "1e3", "x"])),
        corrupt=st.booleans(),
    )
    @example(
        command="report",
        flags={
            "--family": "epr",
            "--lambda": "1",
            "--resource": "1e-300",
            "--vin-plus": "1e-300",
            "--vin-minus": "1e-300",
        },
        shots="100",
        corrupt=False,
    )
    @settings(max_examples=300, deadline=None)
    def test_no_traceback_and_documented_exit_codes(self, fuzz_dir, command, flags, shots, corrupt):
        # Every run ends in exit 0, 1 or 2; nothing escapes cli.main.
        argv = [command, f"--shots={shots}"]
        for flag, value in flags.items():
            if flag in ("--config", "--out"):
                value = fuzz_dir / value
            argv.append(f"{flag}={value}")
        if command == "mc" and corrupt:
            argv.append("--corrupt-analytic")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in stderr.getvalue()
        if code == 1:
            assert stderr.getvalue().startswith("error: "), argv
        if command == "report" and code == 0 and "--out" not in flags:
            strict_json(stdout.getvalue())


class TestBell:
    def test_crossing_at_unit_v_cvf(self, tmp_path):
        config = tmp_path / "bell.json"
        config.write_text(
            json.dumps(
                {
                    "lambda": 1.0,
                    "bell": {"s_i": 1.5, "v_cvf": {"min": 0.5, "max": 1.5, "steps": 3}},
                }
            )
        )
        result = run_cli("bell", "--config", str(config))
        lines = result.stdout.splitlines()
        assert lines[0] == "v_cvf,lambda,s_i,s"
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == ["0.5", "1.0", "1.5"]
        assert float(rows[0][3]) > 1.0
        assert float(rows[1][3]) == pytest.approx(1.0, abs=1e-12)
        assert float(rows[2][3]) < 1.0

    def test_degenerate_denominator_marks_error(self):
        result = run_cli("bell", "--lambda", "0.5")
        assert result.returncode == 0
        error_rows = [
            line for line in result.stdout.splitlines()[1:] if line.endswith(",error")
        ]
        assert error_rows == ["0.5,0.5,1.5,error"]


class TestSqueeze:
    def test_worked_rows(self, tmp_path):
        config = tmp_path / "squeeze.json"
        config.write_text(
            json.dumps({"squeeze": {"v_cvf": {"min": 0.5, "max": 1.5, "steps": 3}}})
        )
        result = run_cli(
            "squeeze", "--config", str(config), "--lambda", "1", "--vin-plus", "0.3"
        )
        lines = result.stdout.splitlines()
        assert lines[0] == "v_cvf,lambda,v_in_plus,v_out_plus,squeezed"
        by_v_cvf = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert by_v_cvf["0.5"][3] == "0.8"
        assert by_v_cvf["0.5"][4] == "true"
        assert by_v_cvf["1.0"][4] == "false"
        assert by_v_cvf["1.5"][4] == "false"

    def test_unit_v_cvf_rows_never_squeezed(self, tmp_path):
        config = tmp_path / "squeeze.json"
        config.write_text(
            json.dumps(
                {
                    "lambda": 0.7,
                    "input": {"v_plus": 0.05},
                    "squeeze": {"v_cvf": {"min": 1.0, "max": 2.0, "steps": 11}},
                }
            )
        )
        result = run_cli("squeeze", "--config", str(config))
        assert all(line.endswith(",false") for line in result.stdout.splitlines()[1:])
