"""The benchmark's own tests: its checks catch wrong results and its names match BENCHMARK.json.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import checkout

checkout.use_sources()

import oracle  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(checkout.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _declared(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def _run(workload: str, trace: int, seconds: str = "0.5", cwd: str = checkout.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def test_spec_shape_and_names():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [w["name"] for w in SPEC["workloads"]]
    names += list(_declared("end_to_end")) + list(_declared("per_layer"))
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_inputs_are_a_function_of_the_seed():
    for build in workloads.BUILD.values():
        assert build(5) == build(5)
        assert build(5) != build(6)


def test_correct_program_reads_zero_failures(workdir):
    _, _, tally = workloads.measure_points(workloads.point_inputs(1)[:200], 0.2, workdir, lambda: None)
    assert tally.attempted > 0 and tally.failed == 0


def test_perturbed_oracle_value_raises_failures(workdir, monkeypatch):
    real = oracle.family_noise
    monkeypatch.setattr(oracle, "family_noise", lambda *args: real(*args) * (1 + 1e-6))
    _, _, tally = workloads.measure_points(workloads.point_inputs(1)[:200], 0.2, workdir, lambda: None)
    assert tally.failed > 0

    config = workloads.sweep_inputs(1)["short"][0]
    path = workloads.write_config(workdir, "short", config)
    out = os.path.join(workdir, "short.csv")
    assert workloads.call_cli(workloads.sweep_argv(path, out))[0] == 0
    assert not workloads.check_sweep_csv(out, config, None, None)
    monkeypatch.setattr(oracle, "family_noise", real)
    assert workloads.check_sweep_csv(out, config, None, None)


def test_mc_output_one_byte_off_raises_failures(workdir, monkeypatch):
    monkeypatch.setattr(workloads, "LONG_SHOTS", 1 << 16)
    inputs = workloads.mc_inputs(1)
    real = workloads.call_cli

    def one_byte_off_at_two_workers(argv):
        code, text = real(argv)
        if argv[-2:] == ["--workers", "2"]:
            text = text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1]
        return code, text

    _, _, tally = workloads.measure_mc(inputs, 0.2, workdir, lambda: None)
    assert tally.failed == 0
    monkeypatch.setattr(workloads, "call_cli", one_byte_off_at_two_workers)
    _, _, tally = workloads.measure_mc(inputs, 0.2, workdir, lambda: None)
    assert tally.failed > 0


@pytest.mark.parametrize(
    "workload, trace, section",
    [
        ("sweep", 0, "end_to_end"),
        ("points", 0, "end_to_end"),
        ("mc", 0, "end_to_end"),
        ("points", 1, "per_layer"),
    ],
)
def test_printed_metrics_are_the_declared_ones(workload, trace, section):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == _declared(section)
    assert all(NAME.match(name) for name in printed)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(checkout.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(checkout.ROOT, "BENCHMARK.json"), tmp_path)
    done = _run("points", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
