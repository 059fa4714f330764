"""Tests for squeezing survival, Bell correlations, and optimal gain."""

import math
from fractions import Fraction

import pytest
from scipy.optimize import minimize_scalar

from cvteleport import (
    BellParams,
    Family,
    InputState,
    bell_s,
    field_conditional_variance,
    make_epr,
    make_single_mode,
    optimal_gain,
    output_variance,
    squeezing_preserved,
    symmetric_output_variance,
)

VACUUM = InputState(1.0, 1.0)


class TestOutputVarianceSymmetric:
    def test_squeezed_input_survives_strong_resource(self):
        # v_cvf 0.5 plus unity-gain passthrough of the 0.3 input variance
        teleporter = make_epr(1.0, 0.25)
        state = InputState(0.3, 1.0 / 0.3)
        assert output_variance(teleporter.plus, state.v_plus) == pytest.approx(0.8, abs=1e-12)

    def test_no_entanglement_swamps_squeezing(self):
        teleporter = make_epr(1.0, 1.0)
        state = InputState(0.01, 100.0)
        assert output_variance(teleporter.plus, state.v_plus) == pytest.approx(2.01, abs=1e-12)

    def test_zero_gain_erases_input(self):
        teleporter = make_epr(0.0, 0.5)
        state = InputState(0.1, 10.0)
        v_cvf = field_conditional_variance(teleporter, state)
        assert output_variance(teleporter.plus, state.v_plus) == pytest.approx(v_cvf, abs=1e-12)

    @pytest.mark.parametrize("gain", [-1.5, -0.5, 0.0, 0.4, 1.0, 2.0])
    @pytest.mark.parametrize("v_ent", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("v_in", [0.05, 0.3, 1.0, 4.0])
    def test_matches_generic_form_on_grid(self, gain, v_ent, v_in):
        teleporter = make_epr(gain, v_ent)
        state = InputState(v_in, 1.0 / v_in)
        special = field_conditional_variance(teleporter, state) + gain * gain * v_in
        generic = output_variance(teleporter.plus, v_in)
        assert special == pytest.approx(generic, abs=1e-12)

    def test_non_epr_family_falls_back_to_generic(self):
        teleporter = make_single_mode(0.7, 0.5)
        state = InputState(0.4, 2.5)
        # Symmetric gains: v_cvf is the added noise N bit for bit.
        v_cvf = field_conditional_variance(teleporter, state)
        assert output_variance(teleporter.plus, 0.4) == v_cvf + 0.7 * (0.7 * 0.4)


class TestSqueezingPreserved:
    def test_preserved_with_strong_resource(self):
        assert squeezing_preserved(make_epr(1.0, 0.25), 0.3)

    def test_lost_at_unit_field_conditional_variance(self):
        # v_cvf = 1: output variance 1 + v_in can never drop below 1
        teleporter = make_epr(1.0, 0.5)
        for v_in in (0.05, 0.3, 0.9):
            assert not squeezing_preserved(teleporter, v_in)

    def test_below_one_is_necessary_not_sufficient(self):
        # v_cvf 0.9 < 1 but 0.9 + 0.5 = 1.4 stays unsqueezed
        assert not squeezing_preserved(make_epr(1.0, 0.45), 0.5)

    def test_rejects_unsqueezed_input(self):
        with pytest.raises(ValueError, match="squeezed"):
            squeezing_preserved(make_epr(1.0, 0.25), 1.0)

    def test_rejects_non_epr_teleporter(self):
        with pytest.raises(ValueError, match="symmetric EPR"):
            squeezing_preserved(make_single_mode(1.0, 0.25), 0.3)

    def test_smallest_squeezed_input(self):
        # 1 / 5e-324 overflows, but only v_in_plus enters: the output variance
        # N + gain**2 v_in_plus rounds to N = 1, which is not squeezed.
        assert not squeezing_preserved(make_epr(1.0, 0.5), 5e-324)
        assert squeezing_preserved(make_epr(1.0, 0.25), 5e-324)


class TestBellS:
    def test_perfect_teleportation_preserves_maximal_violation(self):
        assert bell_s(BellParams(s_i=1.5, gain=1.0, v_cvf=0.0)) == pytest.approx(
            1.5, abs=1e-12
        )

    def test_boundary_exactly_loses_violation(self):
        assert bell_s(BellParams(s_i=1.5, gain=1.0, v_cvf=1.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_classical_region_value(self):
        assert bell_s(BellParams(s_i=1.5, gain=1.0, v_cvf=2.0)) == pytest.approx(
            2.5 / 3.0, abs=1e-12
        )

    @pytest.mark.parametrize("gain", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("s_i", [0.8, 1.2, 1.5])
    def test_strictly_decreasing_in_v_cvf(self, gain, s_i):
        # on the branch where the denominator stays positive and s_i > 1/2
        grid = [k / 50 for k in range(1, 101)]
        values = [
            bell_s(BellParams(s_i=s_i, gain=gain, v_cvf=v))
            for v in grid
            if (v - 1.0) + 2.0 * gain * gain > 0
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("gain", [0.5, 1.0, 2.0])
    def test_violation_iff_v_cvf_below_one(self, gain):
        for k in range(1, 101):
            v_cvf = k / 50
            if (v_cvf - 1.0) + 2.0 * gain * gain <= 0:
                continue  # outside the validity branch (unreachable physically)
            s = bell_s(BellParams(s_i=1.5, gain=gain, v_cvf=v_cvf))
            assert (s > 1.0) == (v_cvf < 1.0)

    def test_rejects_degenerate_denominator(self):
        with pytest.raises(ValueError, match="degenerate denominator"):
            bell_s(BellParams(s_i=1.5, gain=0.5, v_cvf=0.5))
        with pytest.raises(ValueError, match="degenerate denominator"):
            bell_s(BellParams(s_i=1.5, gain=0.0, v_cvf=1.0))

    def test_rejects_invalid_params(self):
        with pytest.raises(ValueError, match="cannot exceed 1.5"):
            BellParams(s_i=1.6, gain=1.0, v_cvf=1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            BellParams(s_i=1.5, gain=1.0, v_cvf=-0.1)

    @pytest.mark.parametrize("field", ["s_i", "gain", "v_cvf"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_params(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            BellParams(**{"s_i": 1.5, "gain": 1.0, "v_cvf": 0.5, field: value})

    def test_rejects_overflowing_gain(self):
        # gain**2 overflows, so numerator and denominator are both inf
        with pytest.raises(ValueError, match="Bell correlation undefined"):
            bell_s(BellParams(s_i=1.5, gain=1e200, v_cvf=0.5))


def numeric_gain_search(family: Family, resource: float) -> tuple[float, float]:
    """Derivative-free oracle: minimize v_cvf through the full pipeline."""
    make = make_epr if family is Family.EPR else make_single_mode

    def objective(gain: float) -> float:
        return field_conditional_variance(make(gain, resource), VACUUM)

    result = minimize_scalar(objective, bounds=(-2.0, 2.0), method="bounded", options={"xatol": 1e-10})
    return float(result.x), float(result.fun)


class TestOptimalGain:
    def test_no_entanglement(self):
        best = optimal_gain(Family.EPR, 1.0)
        assert best.gain == pytest.approx(0.0, abs=1e-12)
        assert best.v_cvf_min == pytest.approx(1.0, abs=1e-12)

    def test_strong_entanglement(self):
        best = optimal_gain(Family.EPR, 0.25)
        assert best.v_cvf_min == pytest.approx(8.0 / 17.0, abs=1e-12)

    @pytest.mark.parametrize("resource", [0.05, 0.2, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("family", [Family.EPR, Family.SINGLE_MODE])
    def test_closed_form_matches_numeric_search(self, family, resource):
        best = optimal_gain(family, resource)
        gain_hat, v_min_hat = numeric_gain_search(family, resource)
        assert best.v_cvf_min == pytest.approx(v_min_hat, abs=1e-9)
        assert best.gain == pytest.approx(gain_hat, abs=1e-4)

    @pytest.mark.parametrize("v_s", [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0])
    def test_single_mode_floor_at_one(self, v_s):
        assert optimal_gain(Family.SINGLE_MODE, v_s).v_cvf_min == pytest.approx(
            1.0, abs=1e-9
        )

    def test_epr_dips_below_one_exactly_when_entangled(self):
        assert optimal_gain(Family.EPR, 1.0).v_cvf_min >= 1.0 - 1e-9
        for v_ent in (0.05, 0.3, 0.7, 0.99):
            assert optimal_gain(Family.EPR, v_ent).v_cvf_min < 1.0

    def test_rejects_invalid_resource(self):
        with pytest.raises(ValueError, match=r"resource must lie in \(0, 1\]"):
            optimal_gain(Family.EPR, 0.0)
        with pytest.raises(ValueError, match=r"resource must lie in \(0, 1\]"):
            optimal_gain(Family.SINGLE_MODE, 1.2)

    @pytest.mark.parametrize("family", [Family.EPR, Family.SINGLE_MODE])
    def test_rejects_resource_whose_noise_overflows(self, family):
        # 1 / 5e-324 overflows, so the closed form would give NaN
        with pytest.raises(ValueError, match="optimal gain undefined"):
            optimal_gain(family, 5e-324)

    def test_rejects_other_families(self):
        with pytest.raises(ValueError, match="epr and single_mode"):
            optimal_gain(Family.CLASSICAL, 0.5)


class TestSymmetricOutputVariance:
    def test_worked_point(self):
        assert symmetric_output_variance(0.5, 1.0, 0.3) == pytest.approx(0.8, abs=1e-12)

    def test_tiny_gain_on_huge_input_is_exact(self):
        # gain * gain is a subnormal here and loses digits; gain * (gain * v_in) does not
        gain, v_in = 1e-160, 1e308
        exact = float(Fraction(gain) ** 2 * Fraction(v_in))
        assert exact == 1e-12
        assert symmetric_output_variance(0.0, gain, v_in) == exact

    def test_never_squeezed_at_or_above_unit_v_cvf(self):
        for v_cvf in (1.0, 1.3, 2.0):
            for gain in (-2.0, 0.0, 0.5, 2.0):
                for v_in in (0.01, 0.3, 1.0, 5.0):
                    assert symmetric_output_variance(v_cvf, gain, v_in) >= 1.0
