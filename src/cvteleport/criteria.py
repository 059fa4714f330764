"""Teleportation benchmark criteria for linear quadrature maps.

Two complementary figures of merit are computed per quadrature and then
combined:

* signal transfer T_s = SNR_out / SNR_in for a small classical test signal,
  which for these models equals the squared input-output correlation C; the
  quadrature sum T_t = T_s+ + T_s- cannot exceed 1 without entanglement,
* conditional variance V_cv = V_out * (1 - C), with C = T_s, the residual
  output noise given the input record, which for these maps is the added
  noise N; the average V_t = (N+ + N-) / 2 cannot fall below 1 without
  entanglement.

On top of the per-quadrature quantities the module builds the field
correlation C_f and field conditional variance V_cvf, which quantify how
well the full field operator (both quadratures jointly) is preserved.
With gains g and input variances v, V_cvf = V_t + v+ v- (g+ - g-)**2 /
(2 (v+ + v-)), a sum over the two quadratures plus a penalty for gain
asymmetry only: V_cvf >= V_t, with equality when the gains are equal.

The criteria are evaluated in these forms, which do not cancel.  Where a
product in them under- or overflows or C_f would round above 1 (extreme
custom maps and inputs), the same forms are evaluated in exact rational
arithmetic instead and each value is rounded once.  A V_cvf above the float
range, which only a custom map's gain asymmetry reaches, raises ValueError.

Operating regions are classified on V_cvf: ``strong`` below 1 (true EPR
entanglement required, non-classical features can survive), ``intermediate``
in [1, 2) (entanglement demonstrable), ``classical`` at 2 and above.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from enum import Enum
from typing import TYPE_CHECKING

from .quadrature import InputState, QuadratureMap, _frozen, added_noise_variance
from .teleporter import Teleporter

if TYPE_CHECKING:
    import numpy as np

# Snap width for region boundaries, which classify upward, and guard band
# of the classical bounds.
BOUNDARY_TOL = 1e-12

_MIN_NORMAL = sys.float_info.min

# The error where V_cvf, as _exact gives it, is inf.
_V_CVF_OVERFLOWS = "field conditional variance undefined: V_cvf passes the float range"

# (gain, V_in, N) of one quadrature.
_Quad = tuple[float, float, float]

# The criteria of a CriteriaReport, a sweep row and the Monte Carlo table,
# in column order.
CRITERIA = ("ts_plus", "ts_minus", "t_t", "vcv_plus", "vcv_minus", "v_t", "c_f", "v_cvf")


class Region(str, Enum):
    CLASSICAL = "Classical"
    INTERMEDIATE = "Intermediate"
    STRONG = "Strong"


# In order of V_cvf: below 1, in [1, 2), at 2 and above (see _region_index).
_REGIONS = (Region.STRONG, Region.INTERMEDIATE, Region.CLASSICAL)


@_frozen
class ClassicalBoundCheck:
    """Result of the classical-channel added-noise bound test."""

    product: float
    satisfied: bool


@_frozen
class CriteriaReport:
    """All criteria for one teleporter/input pair, plus the region tag.

    ``input_minimum_uncertainty`` is False when the input state is not
    minimum-uncertainty, in which case the classical bound T_t <= 1 is not
    guaranteed (the quantities themselves remain well defined).
    """

    __annotations__ = {
        **dict.fromkeys(CRITERIA, "float"),
        "region": "Region",
        "both_violated": "bool",
        "input_minimum_uncertainty": "bool",
    }

    # The squared input-output correlation C of each quadrature: T_s in this model.
    @property
    def c_plus(self) -> float:
        return self.ts_plus

    @property
    def c_minus(self) -> float:
        return self.ts_minus


def _quad(qmap: QuadratureMap, v_in: float, transfer: bool = True) -> _Quad:
    """(gain, V_in, N) of one quadrature; ``transfer`` requires a defined T_s."""
    if not v_in > 0:
        raise ValueError(f"input variance must be > 0, got {v_in}")
    noise = added_noise_variance(qmap)
    if transfer and qmap.gain == 0.0 and noise == 0.0:
        raise ValueError("signal transfer undefined: zero gain and zero added noise")
    return qmap.gain, v_in, noise


def _quads(teleporter: Teleporter, state: InputState, transfer: bool = True) -> tuple[_Quad, _Quad]:
    return (
        _quad(teleporter.plus, state.v_plus, transfer),
        _quad(teleporter.minus, state.v_minus, transfer),
    )


def _signal(gain, v_in, noise):
    """(T_s, V_out) of one quadrature, element-wise."""
    signal = gain * (gain * v_in)
    v_out = signal + noise
    # A noise-free quadrature passes all of its signal, T_s = 1, also where
    # gain**2 V_in underflows to 0: ``silent`` is 1 there and 0 elsewhere.
    silent = v_out == 0.0
    return (signal + silent) / (v_out + silent), v_out


def _criteria(quads):
    """The CRITERIA of (gain, V_in, N) per quadrature: one kernel for every route.

    Each of the six entries of ``quads`` is a float, an array of one shape or
    a Fraction, and only + - * / and comparisons touch them, so an array
    element rounds exactly as the same floats do and Fractions stay exact.
    Returns the CRITERIA and whether they are regular: the C_f denominator,
    each nonzero V_out and the factors of the gain-asymmetry term are normal
    floats, C_f is at most 1 and V_cvf is finite.  Regular values are within
    a few roundings of the exact ones; the others are for :func:`_exact`.
    """
    (g_p, v_p, n_p), (g_m, v_m, n_m) = quads
    ts_p, v_out_p = _signal(g_p, v_p, n_p)
    ts_m, v_out_m = _signal(g_m, v_m, n_m)
    cov_sum = g_p * v_p + g_m * v_m
    numerator, denominator = cov_sum * cov_sum, (v_p + v_m) * (v_out_p + v_out_m)
    v_t = (n_p + n_m) / 2
    # V_cvf = V_t plus a gain-asymmetry term, v+ v- (g+ - g-)**2 / (2 (v+ + v-)).
    share = v_m / (v_p + v_m)
    scale = v_p * share
    diff = g_p - g_m
    # Left to right: where scale and the result are normal, so is each partial product.
    asymmetry = scale * diff * diff / 2
    v_cvf = v_t + asymmetry
    regular = (
        (_MIN_NORMAL <= denominator)
        & (numerator <= denominator)
        & (denominator < math.inf)
        & ((v_out_p == 0.0) | (_MIN_NORMAL <= v_out_p))
        & ((v_out_m == 0.0) | (_MIN_NORMAL <= v_out_m))
        & (_MIN_NORMAL <= share)
        & (_MIN_NORMAL <= scale)
        & ((diff == 0.0) | (_MIN_NORMAL <= asymmetry))
        & (v_cvf < math.inf)
    )
    # A zero denominator is not regular; adding 1 there keeps floats from raising.
    c_f = numerator / (denominator + (denominator == 0.0))
    values = (ts_p, ts_m, ts_p + ts_m, n_p, n_m, v_t, c_f, v_cvf)
    return values, regular


def _exact(quads: Sequence[_Quad]) -> tuple[float, ...]:
    """The CRITERIA of one teleporter/input pair: :func:`_criteria` in rational arithmetic.

    Each value is rounded once, and a V_cvf above the float range is inf, so
    that the other criteria of such a pair stay defined.
    """
    from fractions import Fraction

    if not any(gain or noise for gain, _, noise in quads):
        raise ValueError("field correlation undefined: output carries no fluctuations")
    values, _ = _criteria([[Fraction(x) for x in quad] for quad in quads])
    try:
        v_cvf = float(values[-1])
    except OverflowError:  # the only value that can: the others are at most 2 or some N
        v_cvf = math.inf
    return (*map(float, values[:-1]), v_cvf)


def _point(quads: Sequence[_Quad]) -> tuple[float, ...]:
    """The CRITERIA of one teleporter/input pair, from floats."""
    values, regular = _criteria(quads)
    return values if regular else _exact(quads)


def _region_index(v_cvf):
    """Index into _REGIONS of V_cvf, element-wise.

    Boundary values classify upward; the snap width absorbs closed-form
    rounding (e.g. squared sqrt(2) coefficients landing 4e-16 low).
    """
    return (v_cvf >= 1.0 - BOUNDARY_TOL) * 1 + (v_cvf >= 2.0 - BOUNDARY_TOL)


def _columns(quads) -> tuple[list[np.ndarray], np.ndarray]:
    """The CRITERIA columns and regions of (gain, V_in, N) arrays per quadrature.

    The six arrays share one shape, and no quadrature has both a zero gain
    and zero noise.  Entries that :func:`_criteria` finds not regular are
    evaluated again by :func:`_exact`; the first entry, in C order, that it
    rejects or whose V_cvf it finds inf raises the ValueError of
    :func:`classify`.  The regions are a flat integer array of indices into
    _REGIONS, one per entry in C order.
    """
    import numpy as np

    with np.errstate(all="ignore"):  # IEEE results, as the same floats give them
        values, regular = _criteria(quads)
    columns = list(values)
    columns[3:5] = [noise.copy() for noise in values[3:5]]  # not the caller's N arrays
    for i in np.flatnonzero(~regular).tolist():
        point = _exact([tuple(x.flat[i].item() for x in quad) for quad in quads])
        if point[-1] == math.inf:
            raise ValueError(_V_CVF_OVERFLOWS)
        for column, value in zip(columns, point):
            column.flat[i] = value
    return columns, _region_index(columns[-1].ravel())


def signal_transfer(qmap: QuadratureMap, v_in: float) -> float:
    """Signal transfer coefficient gain**2 v_in / (gain**2 v_in + N).

    Zero-gain maps transfer no signal (returns 0 when noise is present) and
    noise-free maps with a nonzero gain all of it (returns 1); a map with
    zero gain and zero noise has no defined SNR and is rejected.
    """
    quad = _quad(qmap, v_in)
    return _point((quad, quad))[0]  # paired with itself, so extreme inputs are exact


def conditional_variance(qmap: QuadratureMap, v_in: float) -> float:
    """Conditional variance V_out * (1 - C) of the output given the input.

    C = T_s in this model, so V_cv equals the added-noise variance N, which
    is returned.
    """
    return _quad(qmap, v_in)[2]


def t_total(teleporter: Teleporter, state: InputState) -> float:
    """Quadrature sum of signal transfer coefficients, in [0, 2]."""
    return _point(_quads(teleporter, state))[CRITERIA.index("t_t")]


def v_total(teleporter: Teleporter, state: InputState) -> float:
    """Quadrature average of conditional variances."""
    return _point(_quads(teleporter, state))[CRITERIA.index("v_t")]


def field_correlation(teleporter: Teleporter, state: InputState) -> float:
    """Correlation of input and output field operators, in [0, 1].

    Built from the symmetrized field-operator covariance, which in terms of
    quadrature moments is (cov+ + cov-)**2 / ((V_in+ + V_in-)(V_out+ + V_out-)).
    1 for identical fields, 0 for independent ones.
    """
    return _point(_quads(teleporter, state, transfer=False))[CRITERIA.index("c_f")]


def field_conditional_variance(teleporter: Teleporter, state: InputState) -> float:
    """Field conditional variance (V_out+ + V_out-)/2 * (1 - C_f).

    Evaluated as V_t + v+ v- (g+ - g-)**2 / (2 (v+ + v-)): at least V_t,
    with equality when the gains are equal, and at least 1 for independent
    fields.  A value above the float range raises ValueError.
    """
    v_cvf = _point(_quads(teleporter, state, transfer=False))[-1]
    if v_cvf == math.inf:
        raise ValueError(_V_CVF_OVERFLOWS)
    return v_cvf


def classical_bound_check(teleporter: Teleporter) -> ClassicalBoundCheck:
    """Added-noise uncertainty product (N+/gain+**2)(N-/gain-**2) vs 1.

    A product >= 1 is required of any map whose information crossed a
    classical channel; the bound is undefined (ValueError) for zero gain,
    including a gain whose square underflows, and whenever the product is
    not finite.
    """
    gp, gm = teleporter.plus.gain, teleporter.minus.gain
    gp2, gm2 = gp * gp, gm * gm
    if gp2 == 0.0 or gm2 == 0.0:
        raise ValueError("classical bound undefined for zero gain (or an underflowing gain**2)")
    n_p, n_m = added_noise_variance(teleporter.plus), added_noise_variance(teleporter.minus)
    # A subnormal gain**2 has lost digits: divide by the gain twice there.
    f_p = n_p / gp2 if gp2 >= _MIN_NORMAL else n_p / gp / gp
    f_m = n_m / gm2 if gm2 >= _MIN_NORMAL else n_m / gm / gm
    product = f_p * f_m
    if not math.isfinite(product):
        raise ValueError(f"classical bound undefined: the noise product is {product}")
    return ClassicalBoundCheck(product=product, satisfied=product >= 1.0 - BOUNDARY_TOL)


def classify(teleporter: Teleporter, state: InputState) -> CriteriaReport:
    """Evaluate every criterion and classify the operating region.

    ``both_violated`` requires strict violation of both classical bounds
    (T_t > 1 and V_t < 1, with a 1e-12 guard band so boundary cases do not
    count as violations).  A V_cvf above the float range raises ValueError.
    """
    ts_p, ts_m, t_t, vcv_p, vcv_m, v_t, c_f, v_cvf = _point(_quads(teleporter, state))
    if v_cvf == math.inf:
        raise ValueError(_V_CVF_OVERFLOWS)
    # Positional and named: in six runs of 41 interleaved rounds of 20 000 calls,
    # this took 0.93-1.05x the time of the former 13-argument call (median 0.96x),
    # and a CriteriaReport(*values, ...) call 0.91-1.10x this one's (median 1.04x).
    return CriteriaReport(
        ts_p, ts_m, t_t, vcv_p, vcv_m, v_t, c_f, v_cvf,
        _REGIONS[_region_index(v_cvf)],
        (t_t > 1.0 + BOUNDARY_TOL) and (v_t < 1.0 - BOUNDARY_TOL),
        state.minimum_uncertainty,
    )
