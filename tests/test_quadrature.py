"""Tests for the Gaussian quadrature fluctuation algebra."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvteleport import (
    InputState,
    NoiseTerm,
    QuadratureMap,
    added_noise_variance,
    classify,
    in_out_covariance,
    make_custom,
    output_variance,
    sample_criteria,
)


def noise_terms(max_terms: int = 4):
    """Strategy: noise lists with distinct mode ids by construction."""
    term = st.tuples(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=1e-3, max_value=10.0),
    )
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda pairs: tuple(
            NoiseTerm(f"m{i}", coeff, var) for i, (coeff, var) in enumerate(pairs)
        )
    )


def quadrature_maps():
    return st.builds(
        QuadratureMap,
        gain=st.floats(min_value=-3.0, max_value=3.0),
        noise=noise_terms(),
    )


class TestNoiseTerm:
    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError, match="variance must be > 0"):
            NoiseTerm("m", 1.0, 0.0)
        with pytest.raises(ValueError, match="variance must be > 0"):
            NoiseTerm("m", 1.0, -1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            NoiseTerm("m", math.inf, 1.0)


class TestQuadratureMap:
    def test_rejects_duplicate_mode_ids(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            QuadratureMap(1.0, (NoiseTerm("m", 1.0, 1.0), NoiseTerm("m", 0.5, 2.0)))

    def test_mode_ids(self):
        qmap = QuadratureMap(1.0, (NoiseTerm("a", 1.0, 1.0), NoiseTerm("b", 0.0, 1.0)))
        assert qmap.mode_ids == frozenset({"a", "b"})


class TestInputState:
    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError, match="variances must be > 0"):
            InputState(0.0, 1.0)
        with pytest.raises(ValueError, match="variances must be > 0"):
            InputState(1.0, -2.0)

    @pytest.mark.parametrize(
        "values",
        [
            (math.inf, 1.0),
            (1.0, math.inf),
            (math.nan, 1.0),
            (1.0, 1.0, math.inf, 0.0),
            (1.0, 1.0, 0.0, math.nan),
        ],
    )
    def test_rejects_non_finite(self, values):
        with pytest.raises(ValueError, match="finite"):
            InputState(*values)

    def test_minimum_uncertainty_flag(self):
        assert InputState(1.0, 1.0).minimum_uncertainty
        assert InputState(0.25, 4.0).minimum_uncertainty
        assert not InputState(1.0, 1.0001).minimum_uncertainty

    @given(st.floats(min_value=0.05, max_value=20.0))
    def test_reciprocal_variances_are_minimum_uncertainty(self, v_plus):
        # v * (1/v) rounds within 1e-12 of 1 for moderate magnitudes
        assert InputState(v_plus, 1.0 / v_plus).minimum_uncertainty


class TestAddedNoiseVariance:
    def test_no_noise(self):
        assert added_noise_variance(QuadratureMap(1.0)) == 0.0

    def test_single_term(self):
        assert added_noise_variance(QuadratureMap(1.0, (NoiseTerm("m", 1.0, 2.0),))) == 2.0

    def test_two_terms_matches_entanglement_resource_form(self):
        # Oracle: (1+g)^2 v / 2 + (1-g)^2 / (2 v) at g = 1, v = 0.25 is 0.5.
        gain, v_ent = 1.0, 0.25
        expected = 0.5 * (1 + gain) ** 2 * v_ent + 0.5 * (1 - gain) ** 2 / v_ent
        assert expected == 0.5
        qmap = QuadratureMap(
            1.0,
            (
                NoiseTerm("a", (1 + gain) / math.sqrt(2), v_ent),
                NoiseTerm("b", 0.0, 4.0),
            ),
        )
        assert added_noise_variance(qmap) == pytest.approx(0.5, abs=1e-12)

    def test_sum_past_the_float_range_raises_value_error(self):
        loud = QuadratureMap(1.0, (NoiseTerm("a", 1e154, 1.0), NoiseTerm("b", 1e154, 1.0)))
        with pytest.raises(ValueError, match="overflows"):
            added_noise_variance(loud)
        with pytest.raises(ValueError, match="overflows"):
            classify(make_custom(loud, QuadratureMap(1.0)), InputState(1.0, 1.0))


class TestOutputVariance:
    def test_identity_map(self):
        assert output_variance(QuadratureMap(1.0), 1.0) == 1.0

    def test_unity_gain_with_added_noise(self):
        qmap = QuadratureMap(1.0, (NoiseTerm("m", 1.0, 2.0),))
        assert output_variance(qmap, 1.0) == pytest.approx(3.0)

    def test_decoupled_input(self):
        qmap = QuadratureMap(0.0, (NoiseTerm("m", 1.0, 1.0),))
        assert output_variance(qmap, 7.0) == pytest.approx(1.0)

    def test_rejects_nonpositive_input_variance(self):
        with pytest.raises(ValueError, match="must be > 0"):
            output_variance(QuadratureMap(1.0), 0.0)

    def test_subnormal_gain_squared_keeps_precision(self):
        # gain * (gain * v_in): gain**2 = 1e-320 alone is subnormal and keeps 4 digits.
        assert output_variance(QuadratureMap(1e-160), 1e308) == 1e-12


class TestInOutCovariance:
    def test_identity(self):
        assert in_out_covariance(QuadratureMap(1.0), 1.0) == 1.0

    def test_linear_in_gain(self):
        assert in_out_covariance(QuadratureMap(0.5), 2.0) == 1.0

    def test_matches_sampled_covariance(self):
        # Monte Carlo cross-check of gain * v_in at gain 0.7, v_in 1.3
        gain, v_in = 0.7, 1.3
        teleporter = make_custom(
            QuadratureMap(gain, (NoiseTerm("p", 1.0, 1.0),)),
            QuadratureMap(gain, (NoiseTerm("q", 1.0, 1.0),)),
        )
        stats = sample_criteria(teleporter, InputState(v_in, v_in), 1_000_000, seed=2024)
        analytic = in_out_covariance(teleporter.plus, v_in)
        assert analytic == pytest.approx(gain * v_in)
        assert abs(stats.cov_plus.value - analytic) <= 5 * stats.cov_plus.std_error


class TestProperties:
    @given(quadrature_maps(), st.floats(min_value=1e-3, max_value=10.0))
    def test_output_variance_at_least_signal_part(self, qmap, v_in):
        # Exact rationals: V_out is gain**2 v_in + N to within four roundings
        # of its non-negative terms (each 2**-53 relative, or an absolute
        # 2**-1075 where it underflows), so at least the signal part gain**2 v_in.
        signal = Fraction(qmap.gain) ** 2 * Fraction(v_in)
        noise = sum(Fraction(t.coefficient) ** 2 * Fraction(t.variance) for t in qmap.noise)
        slack = (signal + noise) / 2**51 + Fraction(10, 2**1074)
        v_out = Fraction(output_variance(qmap, v_in))
        assert abs(v_out - (signal + noise)) <= slack
        assert v_out >= signal - slack

    @given(
        quadrature_maps(),
        st.floats(min_value=1e-3, max_value=5.0),
        st.floats(min_value=0.1, max_value=8.0),
    )
    def test_linearity_in_input_variance(self, qmap, v_in, scale):
        noise = added_noise_variance(qmap)
        direct = output_variance(qmap, scale * v_in) - noise
        scaled = scale * (output_variance(qmap, v_in) - noise)
        assert direct == pytest.approx(scaled, rel=1e-12, abs=1e-12)
        assert in_out_covariance(qmap, scale * v_in) == pytest.approx(
            scale * in_out_covariance(qmap, v_in), rel=1e-12, abs=1e-12
        )

    @given(quadrature_maps(), st.data())
    def test_noise_order_never_changes_results(self, qmap, data):
        order = data.draw(st.permutations(range(len(qmap.noise))))
        permuted = QuadratureMap(qmap.gain, tuple(qmap.noise[i] for i in order))
        # fsum makes the reduction order-independent, so equality is exact
        assert added_noise_variance(permuted) == added_noise_variance(qmap)
        assert output_variance(permuted, 1.7) == output_variance(qmap, 1.7)
        assert in_out_covariance(permuted, 1.7) == in_out_covariance(qmap, 1.7)

    @given(quadrature_maps(), st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=200)
    def test_cauchy_schwarz(self, qmap, v_in):
        # Exact rationals of the program's outputs: squaring them in floats
        # would round into subnormals at tiny gains.  A subnormal gain**2 or
        # V_out is off by up to half of 5e-324, which v_in magnifies in V_out
        # and again in the bound; that slack is nothing next to normal floats.
        cov = Fraction(in_out_covariance(qmap, v_in))
        bound = Fraction(v_in) * Fraction(output_variance(qmap, v_in))
        slack = Fraction(v_in) * (Fraction(v_in) + 1) * Fraction(5e-324)
        assert cov * cov <= bound * (1 + Fraction(1e-12)) + slack
        if added_noise_variance(qmap) == 0.0:
            assert abs(cov * cov - bound) <= bound * Fraction(1e-12) + slack
