"""Linear input-output models and benchmark criteria for CV teleportation.

The package evaluates how faithfully a continuous-variable teleporter
preserves an input Gaussian state, using signal-transfer and
conditional-variance criteria on both quadratures, the field conditional
variance built on the full field operator, and downstream predictions
(squeezing survival, Bell correlations).  A seeded Monte Carlo sampler
independently verifies every analytic quantity.
"""

from .criteria import (
    ClassicalBoundCheck,
    CriteriaReport,
    Region,
    classical_bound_check,
    classify,
    conditional_variance,
    field_conditional_variance,
    field_correlation,
    signal_transfer,
    t_total,
    v_total,
)
from .predictions import (
    BellParams,
    OptimalGain,
    bell_s,
    optimal_gain,
    squeezing_preserved,
    symmetric_output_variance,
)
from .quadrature import (
    InputState,
    NoiseTerm,
    QuadratureMap,
    added_noise_variance,
    in_out_covariance,
    output_variance,
)
from .teleporter import (
    Family,
    Teleporter,
    make_classical_measure_resend,
    make_custom,
    make_epr,
    make_single_mode,
)

__version__ = "0.1.0"

# The sampler's names: .montecarlo loads on first access to one of them.
_SAMPLER = (
    "Estimate",
    "SampleStats",
    "SignalTransferStats",
    "sample_criteria",
    "sample_signal_transfer",
)


def __getattr__(name: str):
    if name in _SAMPLER:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BellParams",
    "ClassicalBoundCheck",
    "CriteriaReport",
    "Estimate",
    "Family",
    "InputState",
    "NoiseTerm",
    "OptimalGain",
    "QuadratureMap",
    "Region",
    "SampleStats",
    "SignalTransferStats",
    "Teleporter",
    "added_noise_variance",
    "bell_s",
    "classical_bound_check",
    "classify",
    "conditional_variance",
    "field_conditional_variance",
    "field_correlation",
    "in_out_covariance",
    "make_classical_measure_resend",
    "make_custom",
    "make_epr",
    "make_single_mode",
    "optimal_gain",
    "output_variance",
    "sample_criteria",
    "sample_signal_transfer",
    "signal_transfer",
    "squeezing_preserved",
    "symmetric_output_variance",
    "t_total",
    "v_total",
]
