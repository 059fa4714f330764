"""Linear algebra of Gaussian quadrature fluctuations.

An optical quadrature fluctuation is modelled as a linear combination of
statistically independent, zero-mean Gaussian latent modes.  All variances
are in shot-noise units (vacuum = 1), so V = 1 marks the quantum/classical
boundary throughout the package.  Every type here is an immutable value and
every operation a pure function.  The package's value types are frozen
dataclasses whose ``__init__`` writes the fields straight into the instance
dict and then validates them (see ``_frozen``); a ``QuadratureMap`` takes
its added noise and its set of mode ids once, when built, and a noise term
or a sum of them past the float range is rejected there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

MIN_UNCERTAINTY_TOL = 1e-12


def _frozen(cls):
    """``dataclass(frozen=True)`` whose ``__init__`` writes the fields into ``__dict__``.

    The dataclass's own ``__init__`` sets each field through ``object.__setattr__``;
    this one has the same parameters, defaults and annotations, stores each field
    with one item assignment to the instance dict and then calls ``__post_init__``,
    if any.  Fields must be init fields with at most a plain default.
    """
    cls = dataclass(frozen=True)(cls)
    names = [f.name for f in fields(cls)]
    # Item by item, in field order, the dict keeps the class's shared keys: faster
    # than one dict.update, and about half its memory.  No field can be named
    # ``__dict``: the class body would have mangled it.
    body = "__dict = self.__dict__" + "".join(f"; __dict[{n!r}] = {n}" for n in names)
    if hasattr(cls, "__post_init__"):
        body += "; self.__post_init__()"
    namespace: dict = {}
    exec(f"def __init__(self, {', '.join(names)}): {body}", namespace)
    init, generated = namespace["__init__"], cls.__init__
    init.__defaults__, init.__annotations__ = generated.__defaults__, generated.__annotations__
    init.__qualname__ = generated.__qualname__
    cls.__init__ = init
    return cls


@_frozen
class NoiseTerm:
    """One independent latent Gaussian noise source entering a quadrature.

    ``mode_id`` identifies the underlying mode: two terms with the same id
    (within one quadrature map or across the two maps of a teleporter) would
    be statistically dependent, which the model forbids.  ``variance`` is the
    latent mode's variance in shot-noise units; ``coefficient`` is the real
    amplitude with which the mode enters the output quadrature.  A term whose
    ``coefficient**2 * variance`` overflows is rejected.
    """

    mode_id: str
    coefficient: float
    variance: float

    def __post_init__(self) -> None:
        if not self.variance > 0:
            raise ValueError(f"noise variance must be > 0, got {self.variance}")
        if not math.isfinite(self.coefficient * self.coefficient * self.variance):
            if math.isfinite(self.coefficient) and math.isfinite(self.variance):
                raise ValueError(f"added noise undefined: noise term {self.mode_id!r} overflows")
            raise ValueError("noise term coefficient and variance must be finite")


@_frozen
class QuadratureMap:
    """Input-output relation for one quadrature: out = gain * in + noise.

    ``gain`` is the real signal gain from input to output quadrature;
    ``noise`` lists the independent added-noise contributions.  The noise
    terms are kept as an explicit list so a sampling verifier can draw each
    latent mode individually; their sum N is taken once, at construction,
    and a sum past the float range is rejected there.
    """

    gain: float
    noise: tuple[NoiseTerm, ...] = field(default=())

    def __post_init__(self) -> None:
        if not math.isfinite(self.gain):
            raise ValueError("gain must be finite")
        noise = tuple(self.noise)
        ids, squares = [], []
        for term in noise:
            ids.append(term.mode_id)
            squares.append(term.coefficient * term.coefficient * term.variance)
        mode_ids = frozenset(ids)
        if len(mode_ids) != len(ids):
            raise ValueError(f"noise mode_ids must be pairwise distinct, got {ids}")
        try:
            total = math.fsum(squares)
        except OverflowError:
            raise ValueError("added noise undefined: the sum of the noise terms overflows")
        d = self.__dict__
        d["noise"], d["mode_ids"], d["_noise"] = noise, mode_ids, total

    def __setstate__(self, state: dict) -> None:
        # Pickles of earlier versions hold only the fields: derive the rest again.
        self.__dict__.update(state)
        self.__post_init__()


@_frozen
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
        finite = math.isfinite(self.v_plus) and math.isfinite(self.v_minus)
        if not (finite and math.isfinite(self.s_plus) and math.isfinite(self.s_minus)):
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

    fsum, taken when the map is built, makes the result independent of the
    noise-term ordering; it is finite, as the map rejects a sum that overflows.
    """
    return qmap._noise


def output_variance(qmap: QuadratureMap, v_in: float) -> float:
    """Output quadrature variance gain**2 * v_in + N for input variance v_in.

    A variance beyond the float range raises ValueError.
    """
    if not v_in > 0:
        raise ValueError(f"input variance must be > 0, got {v_in}")
    v_out = qmap.gain * (qmap.gain * v_in) + added_noise_variance(qmap)
    if not math.isfinite(v_out):
        raise ValueError(
            f"output variance undefined: it overflows at gain {qmap.gain}, v_in {v_in}"
        )
    return v_out


def in_out_covariance(qmap: QuadratureMap, v_in: float) -> float:
    """Covariance of input and output quadrature records, gain * v_in.

    Latent noise modes are independent of the input, so only the signal
    path contributes.  A covariance beyond the float range raises ValueError.
    """
    if not v_in > 0:
        raise ValueError(f"input variance must be > 0, got {v_in}")
    cov = qmap.gain * v_in
    if not math.isfinite(cov):
        raise ValueError(
            f"in-out covariance undefined: it overflows at gain {qmap.gain}, v_in {v_in}"
        )
    return cov
