"""Tests for the teleportation criteria and region classification."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cvteleport import (
    InputState,
    NoiseTerm,
    QuadratureMap,
    Region,
    added_noise_variance,
    classical_bound_check,
    classify,
    conditional_variance,
    field_conditional_variance,
    field_correlation,
    in_out_covariance,
    make_classical_measure_resend,
    make_custom,
    make_epr,
    output_variance,
    signal_transfer,
    t_total,
    v_total,
)
from cvteleport.criteria import CRITERIA, _REGIONS, _columns, _criteria, _point

VACUUM = InputState(1.0, 1.0)

ASYMMETRIC_DEMO = make_custom(
    QuadratureMap(1.0, (NoiseTerm("a", 1.0, 1.0),)),
    QuadratureMap(0.5, (NoiseTerm("b", 1.0, 1.0),)),
)


def correlation(qmap: QuadratureMap, v_in: float) -> float:
    """Squared input-output correlation cov**2 / (v_in * v_out).

    An independent route to the signal transfer coefficient, kept here as
    the test oracle for signal_transfer.
    """
    cov = in_out_covariance(qmap, v_in)
    return cov * cov / (v_in * output_variance(qmap, v_in))


def v_cvf_via_signal_transfer(teleporter, state: InputState) -> float:
    """Field conditional variance through the per-quadrature signal transfer.

    (V_out+ + V_out- - (s+ sqrt(T_s+ V_out+ V_in+) + s- sqrt(T_s- V_out- V_in-))**2
    / (V_in+ + V_in-)) / 2, where s+- carries the sign of the in-out
    covariance (the square root alone would lose it for negative gains).
    An independent oracle for field_conditional_variance.
    """
    v_out_sum = 0.0
    ts_route = 0.0
    for qmap, v_in in ((teleporter.plus, state.v_plus), (teleporter.minus, state.v_minus)):
        v_out = output_variance(qmap, v_in)
        v_out_sum += v_out
        if v_out == 0.0:
            continue  # T_s undefined but the covariance contribution is 0
        cov = in_out_covariance(qmap, v_in)
        term = math.sqrt(signal_transfer(qmap, v_in) * v_out * v_in)
        ts_route += math.copysign(term, cov) if cov != 0.0 else 0.0
    return 0.5 * (v_out_sum - ts_route * ts_route / (state.v_plus + state.v_minus))


def unit_noise_map(gain: float, noise: float, mode_id: str = "n") -> QuadratureMap:
    """Map with one vacuum-variance noise term carrying total noise power."""
    if noise == 0.0:
        return QuadratureMap(gain)
    return QuadratureMap(gain, (NoiseTerm(mode_id, math.sqrt(noise), 1.0),))


class TestSignalTransfer:
    def test_perfect_transfer(self):
        for v_in in (0.2, 1.0, 5.0):
            assert signal_transfer(QuadratureMap(1.0), v_in) == 1.0

    def test_unity_gain_two_units_of_noise(self):
        assert signal_transfer(unit_noise_map(1.0, 2.0), 1.0) == pytest.approx(1.0 / 3.0)

    def test_half_unit_of_noise(self):
        # matches the strongly entangled resource at unity gain
        assert signal_transfer(unit_noise_map(1.0, 0.5), 1.0) == pytest.approx(2.0 / 3.0)

    def test_zero_gain_with_noise_transfers_nothing(self):
        assert signal_transfer(unit_noise_map(0.0, 1.0), 1.0) == 0.0

    def test_zero_gain_zero_noise_is_undefined(self):
        with pytest.raises(ValueError, match="undefined"):
            signal_transfer(QuadratureMap(0.0), 1.0)

    def test_noise_free_tiny_gain_transfers_everything(self):
        # gain**2 * v_in underflows to 0, but the map adds no noise: T_s = 1
        assert signal_transfer(QuadratureMap(1e-170), 1.0) == 1.0
        assert conditional_variance(QuadratureMap(1e-170), 1.0) == 0.0

    @pytest.mark.parametrize("gain,noise,v_in", [(1.0, 2.0, 1.0), (0.7, 0.3, 1.3), (-1.2, 1.5, 0.6)])
    def test_equals_squared_correlation(self, gain, noise, v_in):
        qmap = unit_noise_map(gain, noise)
        assert signal_transfer(qmap, v_in) == pytest.approx(
            correlation(qmap, v_in), abs=1e-12
        )


class TestConditionalVariance:
    def test_perfect_correlation(self):
        assert conditional_variance(QuadratureMap(1.0), 1.0) == 0.0

    def test_unity_gain_two_units_of_noise(self):
        # v_out 3, correlation 1/3, conditional variance 3 * 2/3 = 2
        assert conditional_variance(unit_noise_map(1.0, 2.0), 1.0) == pytest.approx(2.0)

    def test_uncorrelated_output_keeps_full_variance(self):
        assert conditional_variance(unit_noise_map(0.0, 1.5), 1.0) == pytest.approx(1.5)

    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=1e-2, max_value=10.0),
    )
    def test_equals_added_noise(self, gain, noise, v_in):
        qmap = unit_noise_map(gain, noise)
        # output must carry representable fluctuations (tiny gains underflow)
        assume(output_variance(qmap, v_in) > 0.0)
        assert conditional_variance(qmap, v_in) == pytest.approx(
            added_noise_variance(qmap), abs=1e-12
        )


    def test_underflowing_correlation_denominator(self):
        # v_in * v_out underflows to 0 here; the result is still exactly N
        qmap = unit_noise_map(0.0, 5e-324)
        assert conditional_variance(qmap, 0.01) == added_noise_variance(qmap)


class TestTotals:
    def test_perfect_teleporter(self):
        perfect = make_custom(QuadratureMap(1.0), QuadratureMap(1.0))
        assert t_total(perfect, VACUUM) == 2.0
        assert v_total(perfect, VACUUM) == 0.0

    def test_no_entanglement_unity_gain(self):
        teleporter = make_epr(1.0, 1.0)
        assert t_total(teleporter, VACUUM) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert v_total(teleporter, VACUUM) == pytest.approx(2.0, abs=1e-12)

    def test_strong_resource_violates_both(self):
        teleporter = make_epr(1.0, 0.25)
        report = classify(teleporter, VACUUM)
        assert report.t_t == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert report.v_t == pytest.approx(0.5, abs=1e-12)
        assert report.both_violated


SUBNORMAL_NOISE = make_custom(
    QuadratureMap(0.0, (NoiseTerm("p", 1.0, 5e-324),)),
    QuadratureMap(0.0, (NoiseTerm("q", 1.0, 5e-324),)),
)


class TestFieldCorrelation:
    def test_identity_field(self):
        perfect = make_custom(QuadratureMap(1.0), QuadratureMap(1.0))
        assert field_correlation(perfect, VACUUM) == 1.0

    def test_independent_fields(self):
        independent = make_custom(
            unit_noise_map(0.0, 1.0, "p"), unit_noise_map(0.0, 1.0, "q")
        )
        assert field_correlation(independent, VACUUM) == 0.0

    def test_asymmetric_worked_value(self):
        # (1 + 0.5)^2 / ((1 + 1) * (2 + 1.25))
        expected = 1.5**2 / (2.0 * 3.25)
        assert field_correlation(ASYMMETRIC_DEMO, VACUUM) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.34615384615384615)

    @pytest.mark.parametrize(
        "teleporter,state,expected",
        [
            # A Hypothesis falsifying example: gain**2 * v_in underflows
            # and the denominator with it (ZeroDivisionError before).
            (
                make_custom(QuadratureMap(0.0), QuadratureMap(9.994855906407411e-162)),
                InputState(0.125, 0.125),
                0.5,
            ),
            # Zero gains and subnormal noise: 0 / (0.2 * 1e-323) was 0 / 0.
            (SUBNORMAL_NOISE, InputState(0.1, 0.1), 0.0),
            # Tiny inputs and tiny noise, reachable from the command line:
            # every fourth-degree product underflows.
            (make_epr(1.0, 1e-300), InputState(1e-300, 1e-300), 1.0 / 3.0),
            # Huge inputs: the covariance and input-variance sums overflow.
            (make_epr(1.0, 0.5), InputState(1.5e308, 1.5e308), 1.0),
        ],
        ids=["gain-underflow", "subnormal-noise", "tiny-inputs", "huge-inputs"],
    )
    def test_under_and_overflowing_products(self, teleporter, state, expected):
        assert field_correlation(teleporter, state) == pytest.approx(expected, rel=1e-12)

    def test_classify_with_underflowing_denominator(self):
        report = classify(SUBNORMAL_NOISE, InputState(0.1, 0.1))
        assert report.c_f == 0.0
        assert report.v_cvf == field_conditional_variance(SUBNORMAL_NOISE, InputState(0.1, 0.1))


class TestFieldConditionalVariance:
    def test_no_entanglement_unity_gain(self):
        assert field_conditional_variance(make_epr(1.0, 1.0), VACUUM) == pytest.approx(
            2.0, abs=1e-12
        )

    @pytest.mark.parametrize("gain", [-2.0, -0.7, 0.0, 0.4, 1.0, 2.0])
    @pytest.mark.parametrize(
        "state",
        [VACUUM, InputState(0.3, 1.0 / 0.3), InputState(2.5, 0.4), InputState(0.7, 0.9)],
    )
    def test_symmetric_teleporter_equals_v_total(self, gain, state):
        # holds for any input, minimum-uncertainty or not
        teleporter = make_epr(gain, 0.35)
        assert field_conditional_variance(teleporter, state) == pytest.approx(
            v_total(teleporter, state), abs=1e-12
        )

    def test_asymmetric_teleporter_differs_from_v_total(self):
        v_cvf = field_conditional_variance(ASYMMETRIC_DEMO, VACUUM)
        v_t = v_total(ASYMMETRIC_DEMO, VACUUM)
        assert v_cvf == pytest.approx(1.0625, abs=1e-12)
        assert v_t == pytest.approx(1.0, abs=1e-12)
        assert v_cvf != pytest.approx(v_t, abs=1e-3)


class TestClassicalBoundCheck:
    def test_measure_resend_satisfies(self):
        check = classical_bound_check(make_classical_measure_resend(1.0))
        assert check.product == pytest.approx(4.0, abs=1e-12)
        assert check.satisfied

    def test_perfect_teleporter_violates(self):
        perfect = make_custom(QuadratureMap(1.0), QuadratureMap(1.0))
        check = classical_bound_check(perfect)
        assert check.product == 0.0
        assert not check.satisfied

    def test_strong_resource_violates(self):
        check = classical_bound_check(make_epr(1.0, 0.25))
        assert check.product == pytest.approx(0.25, abs=1e-12)
        assert not check.satisfied

    def test_zero_gain_is_undefined(self):
        with pytest.raises(ValueError, match="zero gain"):
            classical_bound_check(make_classical_measure_resend(0.0))

    @pytest.mark.parametrize("gain", [1e-170, 1e-160])
    def test_tiny_gain_is_undefined(self, gain):
        # gain**2 underflows to 0 (1e-170) or makes the product overflow (1e-160)
        with pytest.raises(ValueError, match="classical bound undefined"):
            classical_bound_check(make_epr(gain, 0.5))


class TestClassify:
    def test_classical_region(self):
        assert classify(make_epr(1.0, 1.0), VACUUM).region is Region.CLASSICAL

    def test_intermediate_region(self):
        report = classify(make_epr(1.0, 0.75), VACUUM)
        assert report.v_cvf == pytest.approx(1.5, abs=1e-12)
        assert report.region is Region.INTERMEDIATE

    def test_strong_region(self):
        report = classify(make_epr(1.0, 0.25), VACUUM)
        assert report.v_cvf == pytest.approx(0.5, abs=1e-12)
        assert report.region is Region.STRONG
        assert report.both_violated

    def test_boundary_values_classify_upward(self):
        # v_cvf lands within rounding of 1: intermediate, not strong
        assert classify(make_epr(1.0, 0.5), VACUUM).region is Region.INTERMEDIATE
        # boundary cases are not counted as strict violations
        assert not classify(make_epr(1.0, 0.5), VACUUM).both_violated

    def test_correlation_fields_match_signal_transfer(self):
        report = classify(make_epr(0.8, 0.4), VACUUM)
        assert report.c_plus == pytest.approx(report.ts_plus, abs=1e-12)
        assert report.c_minus == pytest.approx(report.ts_minus, abs=1e-12)
        assert report.t_t == report.ts_plus + report.ts_minus
        assert report.v_t == 0.5 * (report.vcv_plus + report.vcv_minus)

    def test_correlation_fields_are_signal_transfer(self):
        report = classify(ASYMMETRIC_DEMO, InputState(0.3, 2.0))
        assert report.c_plus == report.ts_plus
        assert report.c_minus == report.ts_minus

    def test_huge_and_tiny_inputs_classify_exactly(self):
        # gain**2 V_in overflows in the + quadrature, where the cancelling
        # forms gave T_s+ = inf/inf and a NaN V_cvf
        teleporter, state = make_epr(2.0, 0.5), InputState(1e308, 1e-308)
        noise = added_noise_variance(teleporter.plus)
        exact = exact_criteria(((2.0, 1e308, noise), (2.0, 1e-308, noise)))
        report = classify(teleporter, state)
        assert report.ts_plus == float(exact["ts_plus"]) == 1.0
        assert report.v_cvf == float(exact["v_cvf"]) == noise
        assert report.region is Region.CLASSICAL

    def test_noise_free_tiny_gain(self):
        report = classify(make_custom(QuadratureMap(1e-170), QuadratureMap(1.0)), VACUUM)
        assert report.ts_plus == 1.0
        assert report.vcv_plus == 0.0
        assert report.c_f == 0.5  # (1e-170 + 1)**2 / (2 * (1e-340 + 1))
        assert report.region is Region.STRONG

    def test_noise_free_tiny_gains_in_both_quadratures(self):
        # V_out+ + V_out- underflows to 0; C_f comes from exact rationals
        report = classify(make_custom(QuadratureMap(1e-170), QuadratureMap(-3e-170)), VACUUM)
        assert (report.ts_plus, report.ts_minus) == (1.0, 1.0)
        assert report.c_f == pytest.approx(0.2, rel=1e-15)  # (1 - 3)**2 / (2 * (1 + 9))
        assert report.v_cvf == 0.0
        assert report.region is Region.STRONG

    def test_zero_gain_zero_noise_quadrature_is_undefined(self):
        with pytest.raises(ValueError, match="zero gain and zero added noise"):
            classify(make_custom(QuadratureMap(0.0), QuadratureMap(1.0)), VACUUM)

    def test_silent_teleporter_has_no_field_correlation(self):
        with pytest.raises(ValueError, match="no fluctuations"):
            field_correlation(make_custom(QuadratureMap(0.0), QuadratureMap(0.0)), VACUUM)

    def test_non_minimum_uncertainty_input_flagged(self):
        report = classify(make_epr(1.0, 1.0), InputState(2.0, 2.0))
        assert not report.input_minimum_uncertainty
        assert classify(make_epr(1.0, 1.0), VACUUM).input_minimum_uncertainty


def teleporter_strategy():
    """Random two-quadrature teleporters with disjoint latent modes."""

    def build(gains, noises):
        maps = []
        for quad, gain, terms in zip("pm", gains, noises):
            maps.append(
                QuadratureMap(
                    gain,
                    tuple(
                        NoiseTerm(f"{quad}{i}", coeff, var)
                        for i, (coeff, var) in enumerate(terms)
                    ),
                )
            )
        return make_custom(*maps)

    term = st.tuples(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=1e-2, max_value=5.0),
    )
    return st.builds(
        build,
        st.tuples(
            st.floats(min_value=-2.0, max_value=2.0),
            st.floats(min_value=-2.0, max_value=2.0),
        ),
        st.tuples(
            st.lists(term, min_size=0, max_size=3),
            st.lists(term, min_size=0, max_size=3),
        ),
    )


class TestInvariants:
    @given(
        teleporter_strategy(),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=300)
    def test_field_correlation_within_unit_interval(self, teleporter, v_plus, v_minus):
        v_out_sum = output_variance(teleporter.plus, v_plus) + output_variance(
            teleporter.minus, v_minus
        )
        assume(v_out_sum > 0.0)
        c_f = field_correlation(teleporter, InputState(v_plus, v_minus))
        assert -1e-12 <= c_f <= 1.0 + 1e-12

    @given(
        st.one_of(
            teleporter_strategy(),
            st.builds(
                make_epr,
                st.floats(min_value=-2.0, max_value=2.0),
                st.floats(min_value=1e-2, max_value=1.0),
            ),
        ),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=300)
    def test_field_conditional_variance_matches_signal_transfer_route(
        self, teleporter, v_plus, v_minus
    ):
        state = InputState(v_plus, v_minus)
        v_out_sum = output_variance(teleporter.plus, v_plus) + output_variance(
            teleporter.minus, v_minus
        )
        assume(v_out_sum > 0.0)
        assert field_conditional_variance(teleporter, state) == pytest.approx(
            v_cvf_via_signal_transfer(teleporter, state), abs=1e-12
        )

    @given(
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.1, max_value=3.0),
        st.booleans(),
        st.booleans(),
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=1.0, max_value=50.0),
        st.floats(min_value=0.2, max_value=5.0),
    )
    @settings(max_examples=500)
    def test_transfer_bound_from_classical_noise_product(
        self, gain_p, gain_m, flip_p, flip_m, noise_p, noise_raw, product_target, v_plus
    ):
        # Any map whose added-noise product satisfies the classical-channel
        # bound keeps T_t at or below 1 for minimum-uncertainty inputs,
        # whatever the noise structure.
        gain_p = -gain_p if flip_p else gain_p
        gain_m = -gain_m if flip_m else gain_m
        noise_m = product_target * (gain_p * gain_m) ** 2 / noise_p
        teleporter = make_custom(
            unit_noise_map(gain_p, noise_p, "p"), unit_noise_map(gain_m, noise_m, "m")
        )
        assert classical_bound_check(teleporter).satisfied
        state = InputState(v_plus, 1.0 / v_plus)
        assert t_total(teleporter, state) <= 1.0 + 1e-9


# Magnitudes log-uniform over 1e-300..1e300.
MAGNITUDES = st.floats(min_value=-690.0, max_value=690.0).map(math.exp)
KERNEL_GAINS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.0, -2.0, 5e-324, -1e-170, 1e-160]),
    st.floats(min_value=-3.0, max_value=3.0),
    MAGNITUDES,
)
KERNEL_NOISES = st.one_of(st.sampled_from([0.0, 5e-324]), MAGNITUDES)
# (gain, V_in, N) of one quadrature whose T_s is defined.
KERNEL_QUADS = st.tuples(KERNEL_GAINS, MAGNITUDES, KERNEL_NOISES).filter(
    lambda quad: quad[0] != 0.0 or quad[2] != 0.0
)


def noise_map(gain: float, noise: float, mode_id: str) -> QuadratureMap:
    """Map whose added noise is exactly ``noise``: one unit-coefficient term."""
    return QuadratureMap(gain, (NoiseTerm(mode_id, 1.0, noise),) if noise else ())


class TestArrayKernel:
    @given(st.lists(st.tuples(KERNEL_QUADS, KERNEL_QUADS), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_columns_equal_classify_per_element(self, points):
        # One kernel: array elements round exactly as classify's floats, the
        # rare entries evaluated in exact rationals included, and the first
        # rejected entry raises the same error.
        expected, error = [], None
        for plus, minus in points:
            teleporter = make_custom(
                noise_map(plus[0], plus[2], "p"), noise_map(minus[0], minus[2], "m")
            )
            try:
                report = classify(teleporter, InputState(plus[1], minus[1]))
            except ValueError as exc:
                error = str(exc)
                break
            expected.append([repr(getattr(report, name)) for name in CRITERIA] + [report.region])
        quads = [
            tuple(np.array([point[q][k] for point in points]) for k in range(3)) for q in range(2)
        ]
        if error is not None:
            with pytest.raises(ValueError) as raised:
                _columns(quads)
            assert str(raised.value) == error
            return
        columns, regions = _columns(quads)
        got = [
            [repr(column[i].item()) for column in columns] + [_REGIONS[regions[i]]]
            for i in range(len(points))
        ]
        assert got == expected


def exact_criteria(point) -> dict[str, Fraction]:
    """The CRITERIA of ((gain, V_in, N) per quadrature) in exact rational arithmetic.

    From the defining forms, not the program's: T_s = gain**2 V_in / V_out,
    V_cv = V_out (1 - T_s), C_f = (cov+ + cov-)**2 / ((V_in+ + V_in-)(V_out+ +
    V_out-)) and V_cvf = (V_out+ + V_out-)(1 - C_f) / 2.  Each V_out must be
    nonzero.
    """
    (g_p, v_p, n_p), (g_m, v_m, n_m) = [[Fraction(x) for x in quad] for quad in point]
    out_p, out_m = g_p * g_p * v_p + n_p, g_m * g_m * v_m + n_m
    ts_p, ts_m = g_p * g_p * v_p / out_p, g_m * g_m * v_m / out_m
    vcv_p, vcv_m = out_p * (1 - ts_p), out_m * (1 - ts_m)
    cov_sum = g_p * v_p + g_m * v_m
    c_f = cov_sum * cov_sum / ((v_p + v_m) * (out_p + out_m))
    values = (ts_p, ts_m, ts_p + ts_m, vcv_p, vcv_m, (vcv_p + vcv_m) / 2, c_f)
    return dict(zip(CRITERIA, (*values, (out_p + out_m) * (1 - c_f) / 2)))


def rounded(value: Fraction) -> float:
    """``value`` rounded once to a float; inf above the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


V_CVF_OVERFLOWS = "field conditional variance undefined: V_cvf passes the float range"


def kernel_teleporter(point):
    (g_p, _, n_p), (g_m, _, n_m) = point
    return make_custom(noise_map(g_p, n_p, "p"), noise_map(g_m, n_m, "m"))


# (gain, V_in, N) per quadrature: a subnormal gain**2 times a huge V_in, and
# input variances about 2**2100 apart.  Both gave C_f > 1 and V_cvf < 0.
EXTREME_SPREADS = [
    ((1.0, 5e-324, 0.0), (1e-160, 1e308, 0.0)),
    ((1e-150, 1e308, 0.0), (1.0, 5e-324, 0.0)),
]


class TestRescaledFieldCriteria:
    @pytest.mark.parametrize("point", EXTREME_SPREADS)
    def test_extreme_spreads_stay_in_bounds(self, point):
        teleporter, state = kernel_teleporter(point), InputState(point[0][1], point[1][1])
        report = classify(teleporter, state)
        c_f = field_correlation(teleporter, state)
        v_cvf = field_conditional_variance(teleporter, state)
        assert (report.c_f, report.v_cvf) == (c_f, v_cvf)
        assert 0.0 <= c_f <= 1.0
        assert v_cvf >= 0.0
        assert c_f == pytest.approx(float(exact_criteria(point)["c_f"]), abs=1e-15)
        assert report.region is Region.STRONG  # V_cvf is below 1e-323

    def test_extreme_spreads_through_columns(self):
        points = [*EXTREME_SPREADS, ((1.0, 1.0, 1.0), (0.5, 1.0, 1.0))]
        quads = [
            tuple(np.array([point[q][k] for point in points]) for k in range(3)) for q in range(2)
        ]
        columns, regions = _columns(quads)
        for i, point in enumerate(points):
            report = classify(kernel_teleporter(point), InputState(point[0][1], point[1][1]))
            assert [column[i].item() for column in columns] == [
                getattr(report, name) for name in CRITERIA
            ]
            assert _REGIONS[regions[i]] is report.region
        c_f, v_cvf = columns[-2], columns[-1]
        assert np.all((0.0 <= c_f) & (c_f <= 1.0) & (v_cvf >= 0.0))

    @given(st.tuples(KERNEL_QUADS, KERNEL_QUADS))
    @settings(max_examples=300, deadline=None)
    def test_rescaled_c_f_is_exact_to_rounding(self, point):
        assume(not _criteria(point)[1])  # the entries evaluated in exact rationals
        teleporter, state = kernel_teleporter(point), InputState(point[0][1], point[1][1])
        c_f, exact = field_correlation(teleporter, state), exact_criteria(point)
        assert 0.0 <= c_f <= 1.0
        assert abs(Fraction(c_f) - exact["c_f"]) <= 1e-15
        if rounded(exact["v_cvf"]) == math.inf:
            with pytest.raises(ValueError, match=V_CVF_OVERFLOWS):
                field_conditional_variance(teleporter, state)
        else:
            assert field_conditional_variance(teleporter, state) >= 0.0

    def test_overflowing_noise_is_undefined(self):
        with pytest.raises(ValueError, match="noise term 'a' overflows"):
            loud = QuadratureMap(1.0, (NoiseTerm("a", 1e200, 1.0),))  # N = 1e400
            classify(make_custom(loud, QuadratureMap(1.0)), VACUUM)


# The whole float range: gains over +-[0, 1e308] with subnormals, variances
# over [5e-324, 1.7e308], and zero added noise.
FULL_GAINS = st.floats(min_value=-1e308, max_value=1e308)
FULL_VARIANCES = st.floats(min_value=5e-324, max_value=1.7e308)
FULL_NOISES = st.one_of(st.just(0.0), FULL_VARIANCES)
FULL_QUADS = st.tuples(FULL_GAINS, FULL_VARIANCES, FULL_NOISES).filter(
    lambda quad: quad[0] != 0.0 or quad[2] != 0.0
)


# Points at which the float kernel errs where one condition of its regular
# rule is dropped, one per condition in the order of the rule (random draws
# rarely reach them).  The last condition, V_cvf < inf, has none: with a
# finite C_f denominator, V_cvf <= (V_out+ + V_out-) / 2, so only a sum
# within a few ulps of the float maximum could let V_cvf round to inf.
RULE_CASES = [
    # the C_f denominator is normal
    ((1e-323, 1.808575764023732e-21, 0.0), (1e-323, 2.2250738585072014e-308, 0.0)),
    # the C_f numerator is at most its denominator
    ((3.04361257932785e35, 8.593414837380477e21, 2.1385e-318), (3.0436126097639758e35, 3.9e-232, 0.0)),
    # the C_f denominator is finite
    ((4.609016979449601e190, 1.0, 1.2965e-318), (-1.5012072927403926e171, 2.2250738585072014e-308, 0.0)),
    # V_out+ is 0 or normal
    ((1e-323, 1.7e308, 1.5e-323), (1e-323, 9.878346118662708e44, 0.0)),
    # V_out- is 0 or normal
    ((4.52503e-318, 9.914009293204527e307, 0.0), (4.52503e-318, 8.267638952525432e255, 3.2366e-320)),
    # v- / (v+ + v-) is normal
    ((14523620.901848245, 1.885202617369769e69, 0.0), (9.12662964832559e125, 1.9006046267518362e-244, 0.0)),
    # v+ v- / (v+ + v-) is normal
    ((-1.3490063677190969e75, 3.39299e-318, 0.0), (1.9419500937415125e278, 1e-323, 2.2250738585072014e-308)),
    # the gain-asymmetry term is normal where the gains differ
    ((2.854959130656278e-135, 6.387992896330551e214, 0.0), (4.77723e-318, 8.687599995612693e-55, 0.0)),
]


def examples(points):
    """Decorator adding each of ``points`` as an explicit Hypothesis example."""

    def add(test):
        for point in reversed(points):
            test = example(point)(test)
        return test

    return add


class TestFullRange:
    @given(st.tuples(FULL_QUADS, FULL_QUADS))
    @examples(RULE_CASES)
    @settings(max_examples=1000, deadline=None)
    def test_criteria_match_exact_rationals(self, point):
        values = _point(point)
        assert not any(map(math.isnan, values))
        got, exact = dict(zip(CRITERIA, values)), exact_criteria(point)
        for name in ("ts_plus", "ts_minus", "t_t", "c_f"):
            assert abs(Fraction(got[name]) - exact[name]) <= 1e-15, name
        for name in ("vcv_plus", "vcv_minus", "v_t"):
            assert got[name] == rounded(exact[name]), name
        assert 0.0 <= got["c_f"] <= 1.0
        v_cvf = rounded(exact["v_cvf"])
        if sys.float_info.min <= v_cvf < math.inf:
            assert abs(Fraction(got["v_cvf"]) - exact["v_cvf"]) <= 1e-15 * exact["v_cvf"]
        else:
            assert got["v_cvf"] == v_cvf
        teleporter, state = kernel_teleporter(point), InputState(point[0][1], point[1][1])
        if v_cvf == math.inf:  # the kernel's other values stand
            with pytest.raises(ValueError, match=V_CVF_OVERFLOWS):
                classify(teleporter, state)
            return
        report = classify(teleporter, state)
        assert [repr(getattr(report, name)) for name in CRITERIA] == list(map(repr, values))
        # Away from the snapped boundaries, the region of the exact V_cvf.
        assume(all(abs(exact["v_cvf"] - edge) > 1e-11 for edge in (1, 2)))
        index = (exact["v_cvf"] >= 1) + (exact["v_cvf"] >= 2)
        assert report.region is (Region.STRONG, Region.INTERMEDIATE, Region.CLASSICAL)[index]


class TestNamedRegressions:
    """Inputs at which the cancelling forms V_out (1 - T_s) and
    (V_out+ + V_out-)(1 - C_f) / 2 failed (the high signal-to-noise report
    is in test_cli.py)."""

    def test_cancelling_field_conditional_variance_at_extreme_spreads(self):
        # C_f was 1.0000000000000002 and V_cvf -2.99e97
        point = (
            (0.5901939487935222, 1e-300, 4.0798285718747535e-98),
            (1.9320499587706297e111, 7.216267797684877e-110, 0.0),
        )
        teleporter, state = kernel_teleporter(point), InputState(point[0][1], point[1][1])
        exact = exact_criteria(point)
        c_f = field_correlation(teleporter, state)
        assert 0.0 <= c_f <= 1.0
        assert abs(Fraction(c_f) - exact["c_f"]) <= 1e-15
        # About 1.87e-78, nearly all of it the gain-asymmetry term
        v_cvf = field_conditional_variance(teleporter, state)
        assert abs(Fraction(v_cvf) - exact["v_cvf"]) <= 1e-15 * exact["v_cvf"]

    def test_field_conditional_variance_is_finite_at_huge_and_tiny_inputs(self):
        # was NaN: T_s+ = inf/inf and V_cvf = inf * 0
        teleporter = make_epr(2.0, 0.5)
        v_cvf = field_conditional_variance(teleporter, InputState(1e308, 1e-308))
        assert v_cvf == added_noise_variance(teleporter.plus)  # 3.25 with its rounding

    def test_signal_transfer_with_subnormal_gain_squared(self):
        # gain * gain is subnormal and 1e308 magnified its rounding: 0.4999972
        qmap = QuadratureMap(1e-160, (NoiseTerm("a", 1.0, 1e-12),))
        assert signal_transfer(qmap, 1e308) == pytest.approx(0.5, abs=1e-15)
