"""Constructors for the teleporter models analyzed by the package.

A teleporter is a pair of quadrature maps (amplitude "+", phase "-") whose
latent noise modes are all mutually independent.  The built-in families are

* ``epr``            -- lossless symmetric scheme driven by a two-mode
                        entanglement resource of strength ``v_ent``,
* ``single_mode``    -- resource built by splitting one single-mode squeezed
                        beam (squeezing level ``v_s``) on a 50:50 splitter,
* ``classical``      -- measure-and-resend through classical channels only,
* ``custom``         -- arbitrary user-supplied quadrature maps.

Resource parameters live in (0, 1]: 1 means no squeezing/entanglement and
values toward 0 mean more.  Values above 1 are rejected rather than
reinterpreted, to prevent silent convention errors.
"""

from __future__ import annotations

import math
from enum import Enum

from .quadrature import NoiseTerm, QuadratureMap, _frozen

_SQRT_HALF = math.sqrt(0.5)


class Family(str, Enum):
    CLASSICAL = "classical"
    EPR = "epr"
    SINGLE_MODE = "single_mode"
    CUSTOM = "custom"


@_frozen
class Teleporter:
    """A pair of quadrature maps plus the family tag and its parameters.

    ``gain`` and ``resource`` record the family parameters for the built-in
    constructors and are None for custom teleporters.
    """

    plus: QuadratureMap
    minus: QuadratureMap
    family: Family = Family.CUSTOM
    gain: float | None = None
    resource: float | None = None

    def __post_init__(self) -> None:
        if not self.plus.mode_ids.isdisjoint(self.minus.mode_ids):
            shared = self.plus.mode_ids & self.minus.mode_ids
            raise ValueError(
                f"quadrature maps share latent mode_ids {sorted(shared)}; "
                "cross-quadrature coupling is not modelled"
            )

    @property
    def symmetric(self) -> bool:
        """True when both quadratures see the same signal gain."""
        return self.plus.gain == self.minus.gain

    def map_for(self, quadrature: str) -> QuadratureMap:
        return self.plus if quadrature == "+" else self.minus


# Variances of the two latent noise modes per quadrature of each resource
# family, as functions of the resource parameter.  The modes enter with
# coefficients (1+gain)/sqrt(2) and (1-gain)/sqrt(2).
RESOURCE_NOISE = {
    Family.EPR: lambda v_ent: (v_ent, 1.0 / v_ent),
    Family.SINGLE_MODE: lambda v_s: ((1.0 + v_s) / 2.0, (1.0 + 1.0 / v_s) / 2.0),
}


def _check_resource(value: float, name: str) -> None:
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")


def _noise_terms(family: Family, gain, resource):
    """(coefficient, variance) of the two latent noise modes of either quadrature.

    Element-wise over floats or arrays; the classical family ignores
    ``resource`` and the resource is not checked here.
    """
    if family is Family.CLASSICAL:
        # Vacuum-variance measurement penalty and the fresh output field.
        return (gain, 1.0), (1.0, 1.0)
    v_first, v_second = RESOURCE_NOISE[family](resource)
    return ((1.0 + gain) * _SQRT_HALF, v_first), ((1.0 - gain) * _SQRT_HALF, v_second)


def _added_noise(family: Family, gain, resource):
    """Added-noise variance N of either quadrature of a family teleporter, over arrays.

    It is NaN where a resource family's resource lies outside (0, 1], so it is
    finite exactly where ``_make(family, gain, resource)`` builds, and there
    equals ``added_noise_variance`` of either map bit for bit: the same
    products in the same order, and fsum of two terms is their rounded sum.
    """
    (c_first, v_first), (c_second, v_second) = _noise_terms(family, gain, resource)
    noise = c_first * c_first * v_first + c_second * c_second * v_second
    if family in RESOURCE_NOISE:
        noise[~((resource > 0.0) & (resource <= 1.0))] = math.nan
    return noise


# Latent mode ids of each family: its two noise modes in the + map, then in the - map.
_MODE_IDS = {
    Family.EPR: ("ent_corr+", "ent_anti+", "ent_corr-", "ent_anti-"),
    Family.SINGLE_MODE: ("sms_corr+", "sms_anti+", "sms_corr-", "sms_anti-"),
    Family.CLASSICAL: ("meas+", "fresh+", "meas-", "fresh-"),
}
# The name of each resource family's resource in its errors.
_RESOURCE_NAMES = {Family.EPR: "v_ent", Family.SINGLE_MODE: "v_s"}


def _make(family: Family, gain: float, resource: float | None) -> Teleporter:
    """A built-in teleporter; the classical family ignores ``resource`` and records None."""
    name = _RESOURCE_NAMES.get(family, "resource")
    try:
        if family in RESOURCE_NOISE:
            _check_resource(resource, name)
        else:
            resource = None
        (c_first, v_first), (c_second, v_second) = _noise_terms(family, gain, resource)
        first_p, second_p, first_m, second_m = _MODE_IDS[family]
        plus = (NoiseTerm(first_p, c_first, v_first), NoiseTerm(second_p, c_second, v_second))
        minus = (NoiseTerm(first_m, c_first, v_first), NoiseTerm(second_m, c_second, v_second))
        maps = QuadratureMap(gain, plus), QuadratureMap(gain, minus)
    except TypeError:  # a gain or resource that is not a number
        raise ValueError(f"gain and {name} must be numbers, got {gain!r}, {resource!r}") from None
    return Teleporter(*maps, family, gain=gain, resource=resource)


def make_epr(gain: float, v_ent: float) -> Teleporter:
    """Lossless symmetric teleporter with EPR entanglement resource v_ent.

    Each quadrature adds two independent noise terms with coefficients
    (1+gain)/sqrt(2) and (1-gain)/sqrt(2) and variances v_ent and 1/v_ent,
    so the added noise per quadrature is
    (1+gain)**2 * v_ent / 2 + (1-gain)**2 / (2 * v_ent).
    """
    return _make(Family.EPR, gain, v_ent)


def make_single_mode(gain: float, v_s: float) -> Teleporter:
    """Teleporter whose resource is a split single-mode squeezed beam.

    The added noise per quadrature is
    (1+gain)**2 * (1+v_s) / 4 + (1-gain)**2 * (1+1/v_s) / 4, realized as two
    independent terms with coefficients (1+gain)/sqrt(2), (1-gain)/sqrt(2)
    and variances (1+v_s)/2, (1+1/v_s)/2.
    """
    return _make(Family.SINGLE_MODE, gain, v_s)


def make_classical_measure_resend(gain: float) -> Teleporter:
    """Canonical classical baseline: measure both quadratures, resend.

    Per quadrature the added noise is 1 + gain**2, from a vacuum-variance
    simultaneous-measurement penalty (coefficient gain) plus the vacuum
    fluctuations of the fresh output field (coefficient 1).  Criteria-wise
    this coincides with ``make_epr(gain, 1.0)``.
    """
    return _make(Family.CLASSICAL, gain, None)


def make_custom(plus: QuadratureMap, minus: QuadratureMap) -> Teleporter:
    """Teleporter from arbitrary quadrature maps.

    No classicality validation is performed; custom maps may represent
    entangled resources.  Maps sharing a latent mode_id are rejected.
    """
    return Teleporter(plus, minus, Family.CUSTOM, gain=None, resource=None)
