"""Tests for the teleporter family constructors."""

import dataclasses
import math
import random

import numpy as np
import pytest

from cvteleport import (
    Family,
    InputState,
    NoiseTerm,
    QuadratureMap,
    added_noise_variance,
    classify,
    field_conditional_variance,
    make_classical_measure_resend,
    make_custom,
    make_epr,
    make_single_mode,
    t_total,
)
from cvteleport.teleporter import _added_noise

VACUUM = InputState(1.0, 1.0)

GAIN_GRID = [-2.0, -1.0, -0.3, 0.0, 0.5, 1.0, 1.7, 2.0]
RESOURCE_GRID = [0.05, 0.1, 0.25, 0.5, 0.75, 1.0]


def epr_noise(gain: float, v_ent: float) -> float:
    return 0.5 * (1 + gain) ** 2 * v_ent + 0.5 * (1 - gain) ** 2 / v_ent


def single_mode_noise(gain: float, v_s: float) -> float:
    return 0.25 * (1 + gain) ** 2 * (1 + v_s) + 0.25 * (1 - gain) ** 2 * (1 + 1 / v_s)


class TestEpr:
    def test_symmetric_with_tagged_family(self):
        teleporter = make_epr(0.8, 0.4)
        assert teleporter.symmetric
        assert teleporter.family is Family.EPR
        assert teleporter.gain == 0.8
        assert teleporter.resource == 0.4

    @pytest.mark.parametrize("gain", GAIN_GRID)
    @pytest.mark.parametrize("v_ent", RESOURCE_GRID)
    def test_added_noise_matches_closed_form(self, gain, v_ent):
        teleporter = make_epr(gain, v_ent)
        expected = epr_noise(gain, v_ent)
        assert added_noise_variance(teleporter.plus) == pytest.approx(expected, abs=1e-12)
        assert added_noise_variance(teleporter.minus) == pytest.approx(expected, abs=1e-12)
        assert field_conditional_variance(teleporter, VACUUM) == pytest.approx(
            expected, abs=1e-12
        )

    def test_no_entanglement_unity_gain(self):
        teleporter = make_epr(1.0, 1.0)
        assert added_noise_variance(teleporter.plus) == pytest.approx(2.0, abs=1e-12)
        assert field_conditional_variance(teleporter, VACUUM) == pytest.approx(2.0, abs=1e-12)

    def test_half_entanglement_boundary(self):
        assert field_conditional_variance(make_epr(1.0, 0.5), VACUUM) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_zero_gain_strong_resource(self):
        teleporter = make_epr(0.0, 0.25)
        assert added_noise_variance(teleporter.plus) == pytest.approx(2.125, abs=1e-12)

    @pytest.mark.parametrize("v_ent", [0.0, -0.5, 1.0001, 2.0])
    def test_rejects_resource_outside_unit_interval(self, v_ent):
        with pytest.raises(ValueError, match=r"v_ent must lie in \(0, 1\]"):
            make_epr(1.0, v_ent)

    @pytest.mark.parametrize("v_ent", RESOURCE_GRID)
    def test_unity_gain_v_cvf_is_twice_resource(self, v_ent):
        assert field_conditional_variance(make_epr(1.0, v_ent), VACUUM) == pytest.approx(
            2.0 * v_ent, abs=1e-12
        )


class TestSingleMode:
    @pytest.mark.parametrize("gain", GAIN_GRID)
    @pytest.mark.parametrize("v_s", RESOURCE_GRID)
    def test_added_noise_matches_closed_form(self, gain, v_s):
        teleporter = make_single_mode(gain, v_s)
        expected = single_mode_noise(gain, v_s)
        assert added_noise_variance(teleporter.plus) == pytest.approx(expected, abs=1e-12)
        assert field_conditional_variance(teleporter, VACUUM) == pytest.approx(
            expected, abs=1e-12
        )

    def test_no_squeezing_unity_gain(self):
        teleporter = make_single_mode(1.0, 1.0)
        assert added_noise_variance(teleporter.plus) == pytest.approx(2.0, abs=1e-12)
        assert field_conditional_variance(teleporter, VACUUM) == pytest.approx(2.0, abs=1e-12)

    def test_strong_squeezing_limit_stays_above_one(self):
        # v_cvf at unity gain is 1 + v_s, approaching 1 from above
        for v_s in (1e-3, 1e-6, 1e-9):
            v_cvf = field_conditional_variance(make_single_mode(1.0, v_s), VACUUM)
            assert v_cvf > 1.0
            assert v_cvf == pytest.approx(1.0 + v_s, abs=1e-12)

    def test_zero_gain(self):
        assert field_conditional_variance(
            make_single_mode(0.0, 0.5), VACUUM
        ) == pytest.approx(1.125, abs=1e-12)

    @pytest.mark.parametrize("v_s", [0.0, -1.0, 1.5])
    def test_rejects_squeezing_outside_unit_interval(self, v_s):
        with pytest.raises(ValueError, match=r"v_s must lie in \(0, 1\]"):
            make_single_mode(1.0, v_s)


class TestClassicalMeasureResend:
    def test_unity_gain_noise(self):
        teleporter = make_classical_measure_resend(1.0)
        assert added_noise_variance(teleporter.plus) == pytest.approx(2.0, abs=1e-12)
        assert added_noise_variance(teleporter.minus) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("gain", [0.25, 0.5, 1.0, 2.0, 5.0])
    def test_coincides_with_unentangled_epr(self, gain):
        report_classical = classify(make_classical_measure_resend(gain), VACUUM)
        report_epr = classify(make_epr(gain, 1.0), VACUUM)
        for field in dataclasses.fields(report_classical):
            left = getattr(report_classical, field.name)
            right = getattr(report_epr, field.name)
            if isinstance(left, float):
                assert left == pytest.approx(right, abs=1e-12), field.name
            else:
                assert left == right, field.name

    def test_zero_gain_resends_vacuum(self):
        assert t_total(make_classical_measure_resend(0.0), VACUUM) == 0.0

    def test_large_gain_approaches_transfer_bound(self):
        # gain 10: per-quadrature transfer 100/201, total just below 1
        assert t_total(make_classical_measure_resend(10.0), VACUUM) == pytest.approx(
            200.0 / 201.0, abs=1e-12
        )


class TestCustom:
    def test_identity_is_perfect(self):
        teleporter = make_custom(QuadratureMap(1.0), QuadratureMap(1.0))
        assert teleporter.family is Family.CUSTOM
        assert teleporter.symmetric
        assert t_total(teleporter, VACUUM) == 2.0

    def test_asymmetric_maps_allowed(self):
        teleporter = make_custom(
            QuadratureMap(1.0, (NoiseTerm("a", 1.0, 1.0),)),
            QuadratureMap(0.5, (NoiseTerm("b", 1.0, 1.0),)),
        )
        assert not teleporter.symmetric

    def test_rejects_shared_mode_ids(self):
        with pytest.raises(ValueError, match="share latent mode_ids"):
            make_custom(
                QuadratureMap(1.0, (NoiseTerm("shared", 1.0, 1.0),)),
                QuadratureMap(1.0, (NoiseTerm("shared", 1.0, 1.0),)),
            )


NOISE_EDGE_GAINS = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 5e-324, -5e-324, 1e-170, 0.3]
NOISE_EDGE_RESOURCES = [1.0, 0.5, 1e-300, 1e-308, 5.6e-309, 2.2250738585072014e-308]
# Outside (0, 1]: the resource families reject them and the classical family ignores them.
NOISE_EDGE_RESOURCES += [0.0, -0.0, -0.5, 1.5, math.inf, math.nan]
FAMILY_MAKERS = {
    Family.EPR: make_epr,
    Family.SINGLE_MODE: make_single_mode,
    Family.CLASSICAL: lambda gain, resource: make_classical_measure_resend(gain),
}


class TestAddedNoiseGrid:
    """The array added noise of the sweep is finite exactly where the constructors
    build, and there it is their noise, bit for bit."""

    @staticmethod
    def check(family, gains, resources):
        gain, resource = (np.array(x, dtype=float).ravel() for x in np.meshgrid(gains, resources))
        with np.errstate(all="ignore"):
            noise = _added_noise(family, gain, resource).tolist()
        for g, r, n in zip(gain.tolist(), resource.tolist(), noise):
            try:
                teleporter = FAMILY_MAKERS[family](g, r)
            except ValueError:
                assert not math.isfinite(n), (family, g, r)
                continue
            assert repr(n) == repr(added_noise_variance(teleporter.plus)), (family, g, r)
            assert repr(n) == repr(added_noise_variance(teleporter.minus)), (family, g, r)

    @pytest.mark.parametrize("family", list(FAMILY_MAKERS))
    def test_edge_grid(self, family):
        self.check(family, NOISE_EDGE_GAINS, NOISE_EDGE_RESOURCES)

    @pytest.mark.parametrize("family", list(FAMILY_MAKERS))
    def test_random_grid(self, family):
        rng = random.Random(f"noise:{family.value}")
        gains = [rng.uniform(-2.0, 2.0) for _ in range(40)]
        resources = [math.exp(rng.uniform(math.log(1e-300), 0.0)) for _ in range(40)]
        self.check(family, gains, resources)
