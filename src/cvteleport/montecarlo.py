"""Seeded Monte Carlo verification of the analytic criteria.

Every latent Gaussian mode of a teleporter is sampled shot by shot, input
and output quadrature records are synthesized from the linear input-output
relation, and each criterion is re-estimated from sample moments together
with a delta-method standard error, taken through one central-difference
Jacobian of all estimates.  The estimates provide an independent statistical
check of the closed-form results.  Each worker samples its blocks into one
work array that it allocates once and reuses, so no block allocates records.
numpy, hashlib and the thread pool are imported by the functions that use
them, so importing this module (and the package) does not load numpy.

Determinism contract
--------------------
All deviates come from counter-based Philox streams keyed by
(seed, stream kind, stream name, block index), where the stream name is the
latent mode_id (hashed through SHA-256) or the input-quadrature tag.
Shots are partitioned into fixed-size blocks by shot index, per-block
moment sums are merged with exact summation (math.fsum), and latent
contributions are accumulated in sorted mode_id order.  Consequently the
results are bit-identical for a given (teleporter, input, n_shots, seed)
regardless of the number of workers or of the order in which noise terms
were listed.

Within a block, each moment sum is taken in an order that the program fixes,
not the numpy build (see ``_run_sum``): the block is cut into consecutive
runs of SUM_RUN elements, each run is reduced by numpy's pairwise sum (8
strided accumulators per leaf of at most 128 elements, split at n//2 rounded
down to a multiple of 8), and the run results are added left to right.  A
whole-block ``ndarray.sum()`` would leave the runs to numpy's buffering, which
differs between builds.  Output is therefore bit-identical across machines
whose numpy gives the same Philox and ``standard_normal`` streams; numpy 2.4.6
and the unrecorded numpy under Python 3.10.12 that wrote
``tests/golden/mc_epr.golden.csv`` both do, and both reproduce that file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from .quadrature import InputState, QuadratureMap
from .teleporter import Teleporter

if TYPE_CHECKING:
    import numpy as np

BLOCK_SHOTS = 1 << 16
MIN_SHOTS = 100
# Run length of the in-block summation order (see the determinism contract).
SUM_RUN = 1 << 13


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float


@dataclass(frozen=True)
class SampleStats:
    """Monte Carlo criteria estimates with delta-method standard errors."""

    n_shots: int
    seed: int
    ts_plus: Estimate
    ts_minus: Estimate
    t_t: Estimate
    vcv_plus: Estimate
    vcv_minus: Estimate
    v_t: Estimate
    c_f: Estimate
    v_cvf: Estimate
    v_out_plus: Estimate
    v_out_minus: Estimate
    cov_plus: Estimate
    cov_minus: Estimate

    def as_dict(self) -> dict[str, Estimate]:
        """Estimates keyed by quantity name, in canonical order."""
        return {name: getattr(self, name) for name in _NAMES}


# Quantity names, in SampleStats field order.
_NAMES = tuple(f.name for f in fields(SampleStats) if f.type == "Estimate")


@dataclass(frozen=True)
class SignalTransferStats:
    """Injected-test-signal estimates of the signal transfer coefficients."""

    n_shots: int
    seed: int
    ts_plus_hat: Estimate
    ts_minus_hat: Estimate


def _validate(n_shots: int, seed: int, workers: int) -> None:
    for name, value in (("n_shots", n_shots), ("seed", seed), ("workers", workers)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if n_shots < MIN_SHOTS:
        raise ValueError(f"n_shots must be at least {MIN_SHOTS}, got {n_shots}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned value, got {seed}")


def _stream(seed: int, kind: str, name: str, block: int) -> np.random.Generator:
    """Philox generator for one (stream, block); independent of list order."""
    import hashlib

    import numpy as np

    digest = hashlib.sha256(f"{kind}:{name}".encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
    seq = np.random.SeedSequence([seed, *words, block])
    return np.random.Generator(np.random.Philox(seq))


def _block_bounds(n_shots: int) -> list[tuple[int, int]]:
    return [(start, min(start + BLOCK_SHOTS, n_shots)) for start in range(0, n_shots, BLOCK_SHOTS)]


def _quadrature_records(
    qmap: QuadratureMap,
    v_in: float,
    signal: float,
    quad_tag: str,
    seed: int,
    block: int,
    length: int,
    work: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize one block of input and output records for one quadrature.

    The records are written into rows 0 and 1 of ``work`` (shape (3, >= length),
    allocated when absent); row 2 takes each noise draw.
    """
    import numpy as np

    if work is None:
        work = np.empty((3, length))
    x_in, x_out, z = work[:, :length]
    _stream(seed, "input", quad_tag, block).standard_normal(out=x_in)
    x_in *= math.sqrt(v_in)
    if signal != 0.0:
        x_in += signal
    np.multiply(qmap.gain, x_in, out=x_out)
    # Sorted accumulation keeps the record independent of the list order.
    for term in sorted(qmap.noise, key=lambda t: t.mode_id):
        _stream(seed, "noise", term.mode_id, block).standard_normal(out=z)
        z *= term.coefficient * math.sqrt(term.variance)
        x_out += z
    return x_in, x_out


def _run_sum(x: np.ndarray) -> float:
    """Sum of ``x``: numpy's pairwise sum per SUM_RUN-element run, runs added left to right."""
    whole = len(x) - len(x) % SUM_RUN
    total = 0.0
    for part in x[:whole].reshape(-1, SUM_RUN).sum(axis=1).tolist():
        total += part
    if whole < len(x):
        total += float(x[whole:].sum())
    return total


def _block_sums(
    teleporter: Teleporter,
    state: InputState,
    use_signals: bool,
    seed: int,
    bounds: tuple[int, int],
    work: np.ndarray | None = None,
) -> tuple[float, ...]:
    """The five moment sums of each quadrature over one block, sampled into ``work``."""
    import numpy as np

    start, stop = bounds
    block = start // BLOCK_SHOTS
    length = stop - start
    if work is None:
        work = np.empty((3, length))
    product = work[2, :length]
    sums: list[float] = []
    for quad in ("+", "-"):
        signal = state.signal(quad) if use_signals else 0.0
        x_in, x_out = _quadrature_records(
            teleporter.map_for(quad), state.variance(quad), signal, quad, seed, block, length, work
        )
        sums.append(_run_sum(x_in))
        sums.append(_run_sum(np.multiply(x_in, x_in, out=product)))
        sums.append(_run_sum(x_out))
        sums.append(_run_sum(np.multiply(x_out, x_out, out=product)))
        sums.append(_run_sum(np.multiply(x_in, x_out, out=product)))
    return tuple(sums)


def _accumulate(
    teleporter: Teleporter,
    state: InputState,
    n_shots: int,
    seed: int,
    workers: int,
    use_signals: bool,
) -> list[tuple[float, float, float, float]]:
    """Sample all blocks and reduce them to one moment tuple per quadrature.

    Each tuple is (mean_out, v_in, v_out, cov), for "+" then "-".
    """
    import numpy as np

    bounds = _block_bounds(n_shots)
    workers = min(workers, len(bounds))

    def sample(share: list[tuple[int, int]]) -> list[tuple[float, ...]]:
        # One work array per worker, reused for every block of its share.
        work = np.empty((3, min(n_shots, BLOCK_SHOTS)))
        return [_block_sums(teleporter, state, use_signals, seed, b, work) for b in share]

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            shares = list(pool.map(sample, (bounds[k::workers] for k in range(workers))))
        blocks = [blk for share in shares for blk in share]
    else:
        blocks = sample(bounds)

    # fsum of the per-block sums is exactly rounded, hence independent of
    # both the order of the blocks and the worker count.
    totals = [math.fsum(blk[i] for blk in blocks) for i in range(10)]
    n = n_shots
    return [
        (
            s1_out / n,
            (s2_in - s1_in * s1_in / n) / (n - 1),
            (s2_out - s1_out * s1_out / n) / (n - 1),
            (s11 - s1_in * s1_out / n) / (n - 1),
        )
        for s1_in, s2_in, s1_out, s2_out, s11 in (totals[:5], totals[5:])
    ]


def _moment_covariance(v_in: float, v_out: float, cov: float, n: int) -> np.ndarray:
    """Sampling covariance of (v_in_hat, v_out_hat, cov_hat) under Gaussianity."""
    import numpy as np

    return (
        np.array(
            [
                [2 * v_in * v_in, 2 * cov * cov, 2 * v_in * cov],
                [2 * cov * cov, 2 * v_out * v_out, 2 * v_out * cov],
                [2 * v_in * cov, 2 * v_out * cov, v_in * v_out + cov * cov],
            ]
        )
        / (n - 1)
    )


def _delta_method(func, m: np.ndarray, sigma: np.ndarray) -> list[Estimate]:
    """Each output of ``func(m)`` with its delta-method standard error.

    The Jacobian is taken by central differences, two evaluations of ``func``
    per moment; each output's variance is its Jacobian row g as g @ sigma @ g.
    """
    import numpy as np

    values = func(m)
    jacobian = np.empty((len(values), len(m)))
    for i in range(len(m)):
        h = 1e-6 * max(abs(m[i]), 1e-3)
        up = m.copy()
        dn = m.copy()
        up[i] += h
        dn[i] -= h
        jacobian[:, i] = (np.array(func(up)) - np.array(func(dn))) / (2 * h)
    return [
        Estimate(value=float(value), std_error=math.sqrt(max(float(g @ sigma @ g), 0.0)))
        for value, g in zip(values, jacobian)
    ]


def _criteria_from_moments(m: np.ndarray) -> tuple[float, ...]:
    """``_NAMES`` quantities, in order, from (v_in+, v_out+, cov+, v_in-, v_out-, cov-)."""
    vin_p, vout_p, cov_p, vin_m, vout_m, cov_m = m
    c_p = cov_p * cov_p / (vin_p * vout_p)
    c_m = cov_m * cov_m / (vin_m * vout_m)
    vcv_p = vout_p * (1.0 - c_p)
    vcv_m = vout_m * (1.0 - c_m)
    cov_sum = cov_p + cov_m
    c_f = cov_sum * cov_sum / ((vin_p + vin_m) * (vout_p + vout_m))
    v_cvf = 0.5 * (vout_p + vout_m) * (1.0 - c_f)
    v_t = 0.5 * (vcv_p + vcv_m)
    return c_p, c_m, c_p + c_m, vcv_p, vcv_m, v_t, c_f, v_cvf, vout_p, vout_m, cov_p, cov_m


def sample_criteria(
    teleporter: Teleporter,
    state: InputState,
    n_shots: int,
    seed: int,
    workers: int = 1,
) -> SampleStats:
    """Estimate every criterion from n_shots synthesized quadrature records.

    Variances and covariances use the unbiased (n-1) estimator; squared
    sample correlations stand in for the signal transfer coefficients.
    Coherent test signals on the input state are ignored here (criteria are
    fluctuation quantities); use :func:`sample_signal_transfer` for the
    injected-signal route.
    """
    import numpy as np

    _validate(n_shots, seed, workers)
    moments = _accumulate(teleporter, state, n_shots, seed, workers, use_signals=False)
    m = np.array([*moments[0][1:], *moments[1][1:]])  # (v_in, v_out, cov) per quadrature
    sigma = np.zeros((6, 6))
    sigma[:3, :3] = _moment_covariance(m[0], m[1], m[2], n_shots)
    sigma[3:, 3:] = _moment_covariance(m[3], m[4], m[5], n_shots)
    estimates = _delta_method(_criteria_from_moments, m, sigma)
    return SampleStats(n_shots, seed, **dict(zip(_NAMES, estimates)))


def sample_signal_transfer(
    teleporter: Teleporter,
    state: InputState,
    n_shots: int,
    seed: int,
    workers: int = 1,
) -> SignalTransferStats:
    """Estimate T_s by injecting DC test signals on both input quadratures.

    SNR_in uses the known signal power over the estimated input variance;
    SNR_out uses the squared sample mean of the output record over its
    fluctuation variance.  Keep |signal| <= 0.1 * sqrt(v_in) for the
    small-signal regime.  At one analysis frequency a DC offset is
    equivalent to a modulated tone for SNR purposes.
    """
    import numpy as np

    _validate(n_shots, seed, workers)
    if state.s_plus == 0.0 or state.s_minus == 0.0:
        raise ValueError("both test-signal amplitudes must be nonzero")
    moments = _accumulate(teleporter, state, n_shots, seed, workers, use_signals=True)

    estimates = []
    for quad, (mean_out, v_in, v_out, cov) in zip("+-", moments):
        # Fluctuation moments: means subtracted, so the DC signal does not
        # bias the variance path.
        m = np.array([mean_out, v_out, v_in])
        sigma = np.zeros((3, 3))
        sigma[0, 0] = v_out / n_shots
        # The (v_out, v_in) block of the (v_in, v_out, cov) covariance.
        sigma[1:, 1:] = _moment_covariance(v_in, v_out, cov, n_shots)[np.ix_((1, 0), (1, 0))]
        s = state.signal(quad)

        def ratio(mm: np.ndarray, s2: float = s * s) -> tuple[float]:
            # SNR_out / SNR_in = (mean_out**2 / v_out) / (s**2 / v_in)
            return ((mm[0] * mm[0] / mm[1]) / (s2 / mm[2]),)

        estimates += _delta_method(ratio, m, sigma)
    return SignalTransferStats(n_shots, seed, *estimates)
