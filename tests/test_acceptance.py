"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
on passing runs) and then asserts, so a failed criterion is both visible
and red.
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from cvteleport import (
    BellParams,
    Family,
    InputState,
    NoiseTerm,
    QuadratureMap,
    Region,
    bell_s,
    classical_bound_check,
    classify,
    field_conditional_variance,
    in_out_covariance,
    make_classical_measure_resend,
    make_custom,
    make_epr,
    make_single_mode,
    optimal_gain,
    output_variance,
    sample_criteria,
    sample_signal_transfer,
    signal_transfer,
    symmetric_output_variance,
    v_total,
)

VACUUM = InputState(1.0, 1.0)
GOLDEN_DIR = Path(__file__).parent / "golden"


def criterion(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}]: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_no_entanglement_unity_gain_point():
    report = classify(make_epr(1.0, 1.0), VACUUM)
    ok = abs(report.v_cvf - 2.0) <= 1e-12 and report.region is Region.CLASSICAL
    criterion(1, "epr(1, 1) gives v_cvf = 2 within 1e-12, region Classical", ok)


def test_criterion_02_fifty_percent_entanglement_threshold():
    ok = True
    for k in range(1, 1001):
        v_ent = k / 1000
        v_cvf = field_conditional_variance(make_epr(1.0, v_ent), VACUUM)
        ok = ok and ((v_cvf < 1.0) == (v_ent < 0.5))
    boundary = field_conditional_variance(make_epr(1.0, 0.5), VACUUM)
    ok = ok and abs(boundary - 1.0) <= 1e-12
    criterion(2, "v_cvf(epr(1, v)) < 1 iff v < 0.5 on 1000-point grid; equality at 0.5", ok)


def test_criterion_03_classical_soundness_property():
    # Randomized measure-and-resend teleporters: a simultaneous-measurement
    # penalty with variance product >= 1 plus a fresh output field with
    # variance product >= 1.  Every such map satisfies the classical
    # added-noise bound, checked explicitly below.
    rng = np.random.default_rng(20260810)
    n_cases = 10_000
    ok = True
    for _ in range(n_cases):
        gain_p, gain_m = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.05, 3.0, 2)
        vm_p = math.exp(rng.uniform(-1.2, 1.2))
        vm_m = math.exp(rng.uniform(0.0, 1.5)) / vm_p
        vf_p = math.exp(rng.uniform(-1.2, 1.2))
        vf_m = math.exp(rng.uniform(0.0, 1.5)) / vf_p
        teleporter = make_custom(
            QuadratureMap(gain_p, (NoiseTerm("m+", gain_p, vm_p), NoiseTerm("f+", 1.0, vf_p))),
            QuadratureMap(gain_m, (NoiseTerm("m-", gain_m, vm_m), NoiseTerm("f-", 1.0, vf_m))),
        )
        v_plus = math.exp(rng.uniform(-1.0, 1.0))
        report = classify(teleporter, InputState(v_plus, 1.0 / v_plus))
        ok = (
            ok
            and classical_bound_check(teleporter).satisfied
            and report.t_t <= 1.0 + 1e-9
            and report.v_t >= 1.0 - 1e-9
        )
        if not ok:
            break
    criterion(
        3,
        f"{n_cases} randomized bound-satisfying classical teleporters: "
        "t_t <= 1 + 1e-9 and v_t >= 1 - 1e-9",
        ok,
    )


def test_criterion_04_symmetric_identity_and_asymmetric_example():
    ok = True
    for gain in np.linspace(-2.0, 2.0, 41):
        for v_ent in np.linspace(0.05, 1.0, 20):
            teleporter = make_epr(float(gain), float(v_ent))
            diff = abs(
                field_conditional_variance(teleporter, VACUUM) - v_total(teleporter, VACUUM)
            )
            ok = ok and diff <= 1e-12
    asymmetric = make_custom(
        QuadratureMap(1.0, (NoiseTerm("a", 1.0, 1.0),)),
        QuadratureMap(0.5, (NoiseTerm("b", 1.0, 1.0),)),
    )
    v_cvf = field_conditional_variance(asymmetric, VACUUM)
    v_t = v_total(asymmetric, VACUUM)
    ok = ok and abs(v_cvf - 1.0625) <= 1e-12 and abs(v_t - 1.0) <= 1e-12
    criterion(
        4,
        "|v_cvf - v_t| <= 1e-12 on symmetric grid; asymmetric demo gives 1.0625 vs 1.0",
        ok,
    )


def test_criterion_05_single_mode_floor():
    ok = True
    for v_s in (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0):
        closed = optimal_gain(Family.SINGLE_MODE, v_s).v_cvf_min
        searched = minimize_scalar(
            lambda g: field_conditional_variance(make_single_mode(g, v_s), VACUUM),
            bounds=(-2.0, 2.0),
            method="bounded",
            options={"xatol": 1e-10},
        ).fun
        ok = ok and abs(closed - searched) <= 1e-9 and abs(closed - 1.0) <= 1e-9
    criterion(
        5,
        "split single-mode resource: min over gain of v_cvf equals 1 within 1e-9 "
        "(closed form and numeric search agree)",
        ok,
    )


def test_criterion_06_squeezing_necessity():
    ok = True
    for v_cvf in np.linspace(1.0, 2.0, 11):
        for gain in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            for v_in in (0.01, 0.1, 0.3, 1.0, 5.0):
                ok = ok and symmetric_output_variance(float(v_cvf), gain, v_in) >= 1.0
    worked = output_variance(make_epr(1.0, 0.25).plus, 0.3)
    ok = ok and abs(worked - 0.8) <= 1e-12
    criterion(
        6,
        "v_cvf >= 1 forces output variance >= 1 on grid; worked point 0.5 + 0.3 = 0.8",
        ok,
    )


def test_criterion_07_bell_threshold():
    ok = True
    for gain in (0.5, 1.0, 2.0):
        denominator_positive_everywhere = True
        for k in range(1, 1001):
            v_cvf = k / 500
            denominator = (v_cvf - 1.0) + 2.0 * gain * gain
            if denominator <= 0.0:
                # Validity branch of the correlation formula: reachable
                # symmetric teleporters at this gain keep v_cvf >= |1 - gain^2|,
                # so these grid points are unphysical; the threshold claim
                # applies on the positive-denominator branch only.
                denominator_positive_everywhere = False
                ok = ok and gain == 0.5 and v_cvf <= 0.5
                continue
            s = bell_s(BellParams(s_i=1.5, gain=gain, v_cvf=v_cvf))
            ok = ok and ((s > 1.0) == (v_cvf < 1.0))
        if gain in (1.0, 2.0):
            ok = ok and denominator_positive_everywhere
        boundary = bell_s(BellParams(s_i=1.5, gain=gain, v_cvf=1.0))
        ok = ok and abs(boundary - 1.0) <= 1e-12
    perfect = bell_s(BellParams(s_i=1.5, gain=1.0, v_cvf=0.0))
    ok = ok and abs(perfect - 1.5) <= 1e-12
    criterion(
        7,
        "s_i = 1.5: S > 1 iff v_cvf < 1 for gains 0.5/1/2 on the valid branch; "
        "S = 1 at v_cvf = 1; S = 1.5 at the perfect point",
        ok,
    )


def test_criterion_08_monte_carlo_oracle():
    cases = [
        make_epr(1.0, 1.0),
        make_epr(1.0, 0.25),
        make_epr(0.7, 0.5),
        make_single_mode(1.0, 1.0),
        make_single_mode(1.0, 0.1),
        make_single_mode(0.5, 0.5),
        make_classical_measure_resend(0.5),
        make_classical_measure_resend(1.0),
        make_classical_measure_resend(2.0),
    ]
    ok = True
    for index, teleporter in enumerate(cases):
        report = classify(teleporter, VACUUM)
        analytic = {
            "ts_plus": report.ts_plus,
            "ts_minus": report.ts_minus,
            "t_t": report.t_t,
            "vcv_plus": report.vcv_plus,
            "vcv_minus": report.vcv_minus,
            "v_t": report.v_t,
            "c_f": report.c_f,
            "v_cvf": report.v_cvf,
            "v_out_plus": output_variance(teleporter.plus, 1.0),
            "v_out_minus": output_variance(teleporter.minus, 1.0),
            "cov_plus": in_out_covariance(teleporter.plus, 1.0),
            "cov_minus": in_out_covariance(teleporter.minus, 1.0),
        }
        stats = sample_criteria(teleporter, VACUUM, 1_000_000, seed=1000 + index)
        for name, estimate in stats.as_dict().items():
            ok = ok and abs(estimate.value - analytic[name]) <= 5.0 * estimate.std_error

    # seed determinism and worker-count independence
    repeat = sample_criteria(cases[0], VACUUM, 1_000_000, seed=1000)
    threaded = sample_criteria(cases[0], VACUUM, 1_000_000, seed=1000, workers=3)
    first = sample_criteria(cases[0], VACUUM, 1_000_000, seed=1000)
    ok = ok and repeat == first and repeat == threaded

    # injected-signal route against the closed-form transfer coefficient
    state = InputState(1.0, 1.0, s_plus=0.05, s_minus=0.05)
    teleporter = make_epr(1.0, 1.0)
    signal_stats = sample_signal_transfer(teleporter, state, 10_000_000, seed=4242)
    expected = signal_transfer(teleporter.plus, 1.0)
    ok = (
        ok
        and abs(signal_stats.ts_plus_hat.value - expected)
        <= 5.0 * signal_stats.ts_plus_hat.std_error
        and abs(signal_stats.ts_minus_hat.value - expected)
        <= 5.0 * signal_stats.ts_minus_hat.std_error
    )
    criterion(
        8,
        "nine teleporters at 1e6 shots within 5 sigma on every quantity, "
        "seed- and worker-stable; injected-signal transfer matches at 1e7 shots",
        ok,
    )


def test_criterion_09_family_coincidence():
    ok = True
    for gain in (0.25, 0.5, 1.0, 2.0, 5.0):
        classical = classify(make_classical_measure_resend(gain), VACUUM)
        epr = classify(make_epr(gain, 1.0), VACUUM)
        for field in dataclasses.fields(classical):
            left = getattr(classical, field.name)
            right = getattr(epr, field.name)
            if isinstance(left, float):
                ok = ok and abs(left - right) <= 1e-12
            else:
                ok = ok and left == right
    criterion(
        9, "measure-resend and epr(gain, 1) produce identical reports within 1e-12", ok
    )


@pytest.mark.parametrize(
    "command,config,golden",
    [
        ("sweep", "sweep_epr.json", "sweep_epr.golden.csv"),
        ("bell", "bell.json", "bell.golden.csv"),
        ("squeeze", "squeeze.json", "squeeze.golden.csv"),
        ("mc", "mc_epr.json", "mc_epr.golden.csv"),
    ],
)
def test_criterion_10_cli_golden_files(tmp_path, command, config, golden):
    out = tmp_path / golden
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "cvteleport",
            command,
            "--config",
            str(GOLDEN_DIR / config),
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    produced = out.read_bytes() if out.exists() else b""
    expected = (GOLDEN_DIR / golden).read_bytes()
    ok = result.returncode == 0 and produced == expected
    criterion(10, f"cli {command} output is byte-identical to the golden file", ok)


def test_criterion_10_golden_spot_values():
    # The frozen sweep golden itself carries verifiable physics: the
    # unity-gain half-entanglement row sits at the v_cvf = 1 boundary.
    rows = [
        line.split(",")
        for line in (GOLDEN_DIR / "sweep_epr.golden.csv").read_text().splitlines()[1:]
    ]
    match = [
        row
        for row in rows
        if abs(float(row[0]) - 1.0) < 1e-9 and abs(float(row[1]) - 0.5) < 1e-9
    ]
    ok = len(match) == 1 and abs(float(match[0][9]) - 1.0) <= 1e-12
    bell_rows = (GOLDEN_DIR / "bell.golden.csv").read_text().splitlines()[1:]
    ok = ok and "0.5,0.5,1.5,error" in bell_rows
    mc_lines = (GOLDEN_DIR / "mc_epr.golden.csv").read_text().splitlines()
    ok = ok and all(line.endswith(",PASS") for line in mc_lines[1:])
    criterion(10, "golden files carry the documented spot values", ok)
