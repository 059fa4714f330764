"""Linear algebra of Gaussian quadrature fluctuations.

An optical quadrature fluctuation is modelled as a linear combination of
statistically independent, zero-mean Gaussian latent modes.  All variances
are in shot-noise units (vacuum = 1), so V = 1 marks the quantum/classical
boundary throughout the package.  Every type here is an immutable value and
every operation a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

MIN_UNCERTAINTY_TOL = 1e-12


@dataclass(frozen=True)
class NoiseTerm:
    """One independent latent Gaussian noise source entering a quadrature.

    ``mode_id`` identifies the underlying mode: two terms with the same id
    (within one quadrature map or across the two maps of a teleporter) would
    be statistically dependent, which the model forbids.  ``variance`` is the
    latent mode's variance in shot-noise units; ``coefficient`` is the real
    amplitude with which the mode enters the output quadrature.
    """

    mode_id: str
    coefficient: float
    variance: float

    def __post_init__(self) -> None:
        if not self.variance > 0:
            raise ValueError(f"noise variance must be > 0, got {self.variance}")
        if not math.isfinite(self.coefficient) or not math.isfinite(self.variance):
            raise ValueError("noise term coefficient and variance must be finite")


@dataclass(frozen=True)
class QuadratureMap:
    """Input-output relation for one quadrature: out = gain * in + noise.

    ``gain`` is the real signal gain from input to output quadrature;
    ``noise`` lists the independent added-noise contributions.  The noise
    terms are kept as an explicit list (not pre-summed) so a sampling
    verifier can draw each latent mode individually; analytic operations
    reduce over the list.
    """

    gain: float
    noise: tuple[NoiseTerm, ...] = field(default=())

    def __post_init__(self) -> None:
        if not math.isfinite(self.gain):
            raise ValueError("gain must be finite")
        object.__setattr__(self, "noise", tuple(self.noise))
        ids = [term.mode_id for term in self.noise]
        if len(set(ids)) != len(ids):
            raise ValueError(f"noise mode_ids must be pairwise distinct, got {ids}")

    @property
    def mode_ids(self) -> frozenset[str]:
        return frozenset(term.mode_id for term in self.noise)


@dataclass(frozen=True)
class InputState:
    """Gaussian input state: quadrature variances plus optional test signals.

    ``v_plus`` / ``v_minus`` are the amplitude / phase quadrature variances.
    ``s_plus`` / ``s_minus`` are coherent test-signal amplitudes used only by
    the sampling verifier's signal-transfer estimate.
    """

    v_plus: float
    v_minus: float
    s_plus: float = 0.0
    s_minus: float = 0.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.v_plus, self.v_minus, self.s_plus, self.s_minus))):
            raise ValueError("input state variances and signals must be finite")
        if not self.v_plus > 0 or not self.v_minus > 0:
            raise ValueError(
                f"quadrature variances must be > 0, got ({self.v_plus}, {self.v_minus})"
            )

    @property
    def minimum_uncertainty(self) -> bool:
        """True when v_plus * v_minus = 1 to within 1e-12."""
        return abs(self.v_plus * self.v_minus - 1.0) <= MIN_UNCERTAINTY_TOL

    def variance(self, quadrature: str) -> float:
        return self.v_plus if quadrature == "+" else self.v_minus

    def signal(self, quadrature: str) -> float:
        return self.s_plus if quadrature == "+" else self.s_minus


def added_noise_variance(qmap: QuadratureMap) -> float:
    """Total added-noise variance N = sum of coefficient**2 * variance.

    fsum makes the result independent of the noise-term ordering.  Finite
    terms whose sum overflows raise ValueError.
    """
    try:
        return math.fsum(t.coefficient * t.coefficient * t.variance for t in qmap.noise)
    except OverflowError:
        raise ValueError("added noise undefined: the sum of the noise terms overflows") from None


def output_variance(qmap: QuadratureMap, v_in: float) -> float:
    """Output quadrature variance gain**2 * v_in + N for input variance v_in."""
    if not v_in > 0:
        raise ValueError(f"input variance must be > 0, got {v_in}")
    return qmap.gain * (qmap.gain * v_in) + added_noise_variance(qmap)


def in_out_covariance(qmap: QuadratureMap, v_in: float) -> float:
    """Covariance of input and output quadrature records, gain * v_in.

    Latent noise modes are independent of the input, so only the signal
    path contributes.
    """
    if not v_in > 0:
        raise ValueError(f"input variance must be > 0, got {v_in}")
    return qmap.gain * v_in
