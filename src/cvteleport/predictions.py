"""Physical consequences of the field conditional variance.

Three downstream questions are answered here for symmetric teleporters:
whether input squeezing can survive teleportation, what Clauser-Horne
Bell correlation remains when one of a pair of entangled beams is
teleported, and which gain minimizes the field conditional variance for
a given resource.  In all three, V_cvf < 1 is the decisive threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quadrature import InputState, output_variance
from .teleporter import RESOURCE_NOISE, Family, Teleporter


@dataclass(frozen=True)
class BellParams:
    """Inputs for the post-teleportation Clauser-Horne correlation.

    ``s_i`` is the Clauser-Horne value the entangled beams would show
    before teleportation; 1.5 is the quantum-mechanical maximum, reached
    by non-maximally entangled states.  ``gain`` is the teleporter gain
    and ``v_cvf`` its field conditional variance.
    """

    s_i: float
    gain: float
    v_cvf: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.s_i, self.gain, self.v_cvf))):
            raise ValueError("Bell parameters s_i, gain and v_cvf must be finite")
        if self.s_i > 1.5:
            raise ValueError(f"s_i cannot exceed 1.5, got {self.s_i}")
        if self.v_cvf < 0:
            raise ValueError(f"v_cvf must be nonnegative, got {self.v_cvf}")


@dataclass(frozen=True)
class OptimalGain:
    gain: float
    v_cvf_min: float


def symmetric_output_variance(v_cvf: float, gain: float, v_in: float) -> float:
    """Output quadrature variance v_cvf + gain**2 * v_in (symmetric, lossless).

    Immediate consequence: with v_cvf >= 1 the output can never be squeezed,
    whatever the gain or input variance.
    """
    return v_cvf + gain * gain * v_in


def output_variance_symmetric(
    teleporter: Teleporter, state: InputState, quadrature: str = "+"
) -> float:
    """Output variance of one quadrature, v_cvf + gain**2 v_in on symmetric teleporters.

    There v_cvf equals the added noise N bit for bit, so this is the generic
    gain**2 v_in + N of :func:`output_variance`, which every teleporter uses.
    """
    return output_variance(teleporter.map_for(quadrature), state.variance(quadrature))


def squeezing_preserved(teleporter: Teleporter, v_in_plus: float) -> bool:
    """Whether an amplitude-squeezed input stays squeezed at the output.

    Requires a symmetric EPR-family teleporter and a squeezed input
    (v_in_plus < 1).  v_cvf < 1 is necessary but not sufficient: the
    output variance v_cvf + gain**2 * v_in_plus must itself drop below 1.
    """
    if teleporter.family is not Family.EPR or not teleporter.symmetric:
        raise ValueError("squeezing preservation is defined for symmetric EPR teleporters")
    if not 0 < v_in_plus < 1:
        raise ValueError(f"input must be squeezed (0 < v_in_plus < 1), got {v_in_plus}")
    state = InputState(v_plus=v_in_plus, v_minus=1.0 / v_in_plus)
    return output_variance_symmetric(teleporter, state, "+") < 1.0


def bell_s(params: BellParams) -> float:
    """Clauser-Horne correlation after teleporting one of two entangled beams.

    S = ((v_cvf - 1)/2 + gain**2 (s_i + 1/2)) / ((v_cvf - 1) + 2 gain**2),
    valid in the lossless limit.  Local realism requires S <= 1; with
    s_i = 1.5 the output violates it exactly when v_cvf < 1 (for any
    nonzero gain with positive denominator).
    """
    denominator = (params.v_cvf - 1.0) + 2.0 * params.gain * params.gain
    if denominator == 0.0:
        raise ValueError(
            f"Bell correlation undefined: degenerate denominator at "
            f"v_cvf={params.v_cvf}, gain={params.gain}"
        )
    numerator = 0.5 * (params.v_cvf - 1.0) + params.gain * params.gain * (params.s_i + 0.5)
    s = numerator / denominator
    if not math.isfinite(s):
        raise ValueError(f"Bell correlation undefined: S is {s} at gain={params.gain}")
    return s


def optimal_gain(family: Family, resource: float) -> OptimalGain:
    """Gain minimizing the field conditional variance for a resource level.

    The added noise per quadrature is (1+g)**2 A/2 + (1-g)**2 B/2, with A and
    B the family's noise-mode variances (``teleporter.RESOURCE_NOISE``).  The
    minimizer is g* = (B - A)/(A + B) with minimum 2 A B / (A + B).  For the
    EPR family this is 2/(v_ent + 1/v_ent); for the single-mode resource the
    minimum is 1 for every squeezing level.
    """
    if not 0.0 < resource <= 1.0:
        raise ValueError(f"resource must lie in (0, 1], got {resource}")
    noise = RESOURCE_NOISE.get(family)
    if noise is None:
        raise ValueError(
            f"optimal gain is defined for the epr and single_mode families, got {family}"
        )
    big_a, big_b = noise(resource)
    gain = (big_b - big_a) / (big_a + big_b)
    minimum = 2.0 * big_a * big_b / (big_a + big_b)
    if not (math.isfinite(gain) and math.isfinite(minimum)):
        raise ValueError(f"optimal gain undefined: the noise of resource {resource} overflows")
    return OptimalGain(gain=gain, v_cvf_min=minimum)
