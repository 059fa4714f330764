"""Seeded Monte Carlo verification of the analytic criteria.

Every latent Gaussian mode of a teleporter is sampled shot by shot, and input
and output quadrature records are synthesized from the linear input-output
relation.  Per quadrature the records give the regression of output on input:
the least-squares gain g, the input variance V_in and the residual variance N
(the added noise).  The criteria of these estimates come from the criteria
kernel, ``criteria._point``; their sampling errors are uncorrelated to first
order, so each delta-method standard error is a root sum of non-negative
terms.  The estimates are an independent statistical check of the closed
forms.  A block is sampled one summation run (SUM_RUN shots) at a time,
into a window of three SUM_RUN-element rows that the block allocates.
numpy, hashlib and the thread pool are imported by the functions that use
them, so importing this module does not load numpy.

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
not the numpy build (see ``_block_sums``): the block is sampled in consecutive
windows of SUM_RUN shots, each generator continuing its stream from window to
window, so the records are those of one whole-block draw.  Each window is
reduced by numpy's pairwise sum (8 strided accumulators per leaf of at most
128 elements, split at n//2 rounded down to a multiple of 8), and the window
results are added left to right.  A whole-block ``ndarray.sum()`` would leave
the runs to numpy's buffering, which differs between builds.  Output is
therefore bit-identical across machines whose numpy gives the same Philox and
``standard_normal`` streams; numpy 2.4.6 under Python 3.11.7 wrote
``tests/golden/mc_epr.golden.csv``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .criteria import CRITERIA, _point, _quads, _signal
from .quadrature import InputState, QuadratureMap, _frozen
from .teleporter import Teleporter

if TYPE_CHECKING:
    from collections.abc import Sequence

    import numpy as np

BLOCK_SHOTS = 1 << 16
MIN_SHOTS = 100
# Run length of the in-block summation order (see the determinism contract).
SUM_RUN = 1 << 13


@_frozen
class Estimate:
    value: float
    std_error: float


# What sample_criteria estimates: the CRITERIA, output variances and in-out covariances.
QUANTITIES = (*CRITERIA, "v_out_plus", "v_out_minus", "cov_plus", "cov_minus")


@_frozen
class SampleStats:
    """Monte Carlo estimates of the QUANTITIES, with delta-method standard errors."""

    __annotations__ = {"n_shots": "int", "seed": "int", **dict.fromkeys(QUANTITIES, "Estimate")}

    def as_dict(self) -> dict[str, Estimate]:
        """Estimates keyed by quantity name, in QUANTITIES order."""
        return {name: getattr(self, name) for name in QUANTITIES}


@_frozen
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


def _streams(qmap: QuadratureMap, quad_tag: str, seed: int, block: int) -> tuple:
    """One block's streams of one quadrature: its input and its scaled noise terms.

    The noise terms come as (scale, generator) pairs in sorted mode_id order,
    which keeps the records independent of the order the terms were listed in.
    """
    return _stream(seed, "input", quad_tag, block), [
        (t.coefficient * math.sqrt(t.variance), _stream(seed, "noise", t.mode_id, block))
        for t in sorted(qmap.noise, key=lambda t: t.mode_id)
    ]


def _block_sums(
    teleporter: Teleporter,
    state: InputState,
    seed: int,
    bounds: tuple[int, int],
) -> tuple[float, ...]:
    """The five moment sums of each quadrature over one block, sampled window by window.

    Each window of the block's (3, min(SUM_RUN, block length)) array is one
    SUM_RUN-shot run of the block: rows 0 and 1 take its input and output
    records, row 2 each noise draw, and each row is one pairwise sum, added to
    the block's totals left to right (see the determinism contract).
    """
    import numpy as np

    start, stop = bounds
    work = np.empty((3, min(SUM_RUN, stop - start)))
    maps, variances = (teleporter.plus, teleporter.minus), (state.v_plus, state.v_minus)
    sums: list[float] = []
    for quad, qmap, v_in, signal in zip("+-", maps, variances, (state.s_plus, state.s_minus)):
        source, noise = _streams(qmap, quad, seed, start // BLOCK_SHOTS)
        root_v_in = math.sqrt(v_in)
        totals = [0.0] * 5
        for offset in range(start, stop, SUM_RUN):
            window = work[:, : min(SUM_RUN, stop - offset)]
            x_in, x_out, z = window
            records = window[:2]
            source.standard_normal(out=x_in)
            x_in *= root_v_in
            if signal != 0.0:
                x_in += signal
            np.multiply(qmap.gain, x_in, out=x_out)
            for scale, generator in noise:
                generator.standard_normal(out=z)
                z *= scale
                x_out += z
            s1_in, s1_out = np.add.reduce(records, axis=1).tolist()
            np.multiply(x_in, x_out, out=z)
            np.multiply(records, records, out=records)  # squared in place
            s2_in, s2_out, s11 = np.add.reduce(window, axis=1).tolist()
            runs = (s1_in, s2_in, s1_out, s2_out, s11)
            totals = [total + run for total, run in zip(totals, runs)]
        sums += totals
    return tuple(sums)


def _accumulate(
    teleporter: Teleporter,
    state: InputState,
    n_shots: int,
    seed: int,
    workers: int,
) -> list[tuple[float, float, float, float]]:
    """Sample all blocks and reduce them to (mean_out, g, V_in, N) per quadrature, + then -.

    g = cov / V_in and N = V_out - g cov regress the output record on the
    input record; the moments are unbiased, (n-1) estimators.
    """
    import numpy as np

    workers = min(workers, -(-n_shots // BLOCK_SHOTS))

    def sample(k: int) -> list[tuple[float, ...]]:
        # Worker k takes every workers-th block from block k.  Records that
        # overflow are refused below, with their quadrature named.
        with np.errstate(over="ignore", invalid="ignore"):
            return [
                _block_sums(teleporter, state, seed, (i, min(i + BLOCK_SHOTS, n_shots)))
                for i in range(k * BLOCK_SHOTS, n_shots, workers * BLOCK_SHOTS)
            ]

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            shares = list(pool.map(sample, range(workers)))
    else:
        shares = [sample(0)]
    blocks = [blk for share in shares for blk in share]

    # fsum of the per-block sums is exactly rounded, hence independent of
    # both the order of the blocks and the worker count.
    totals = []
    for i in range(10):
        try:
            totals.append(math.fsum(blk[i] for blk in blocks))
        except OverflowError:  # finite block sums whose total is not: refused below
            totals.append(math.nan)
    n = n_shots
    quads = []
    for quad, (s1_in, s2_in, s1_out, s2_out, s11) in zip("+-", (totals[:5], totals[5:])):
        v_in = (s2_in - s1_in * s1_in / n) / (n - 1)
        v_out = (s2_out - s1_out * s1_out / n) / (n - 1)
        cov = (s11 - s1_in * s1_out / n) / (n - 1)
        gain = cov / v_in if v_in > 0 else math.inf
        noise = v_out - gain * cov
        if not all(map(math.isfinite, (v_in, gain, noise))):
            raise ValueError(f"the sampled moments of quadrature {quad} leave the float range")
        quads.append((s1_out / n, gain, v_in, noise))
    return quads


def _errors(gain: float, v_in: float, noise: float, n: int) -> tuple[float, float, float]:
    """Standard errors of one quadrature's (g, V_in, N) estimates from n Gaussian shots.

    Uncorrelated to first order: Var g = N / ((n-1) V_in), Var V_in = 2 V_in**2 / (n-1)
    and Var N = 2 N**2 / (n-1).
    """
    root = math.sqrt(2 / (n - 1))
    return math.sqrt(abs(noise) / v_in / (n - 1)), v_in * root, abs(noise) * root


def _delta_method(func, params: Sequence[float], errors: Sequence[float]) -> list[Estimate]:
    """Each output of ``func(params)`` with its delta-method standard error.

    The parameters are uncorrelated, so an output's error is the root sum of
    squares of derivative times error, which cannot cancel.  Each term is a
    central difference stepping one standard error of its parameter, which
    moves the output by about twice that term: resolvable in float64 wherever
    the error is, also for T_s and C_f a few ulps below 1.  Parameters
    without error are skipped.
    """
    values = func(params)
    terms: list[list[float]] = [[] for _ in values]
    for i, (p, error) in enumerate(zip(params, errors)):
        if error == 0.0:
            continue
        if not abs(p) + error < math.inf:
            raise ValueError(f"delta method undefined: a step from {p} leaves the float range")
        up, dn = list(params), list(params)
        up[i], dn[i] = p + error, p - error
        for k, (a, b) in enumerate(zip(func(up), func(dn))):
            terms[k].append((a - b) * 0.5)
    estimates = [Estimate(value, math.hypot(*t)) for value, t in zip(values, terms)]
    if not all(math.isfinite(e.value) and math.isfinite(e.std_error) for e in estimates):
        raise ValueError("the estimates or their standard errors leave the float range")
    return estimates


def _quantities(params: Sequence[float]) -> tuple[float, ...]:
    """QUANTITIES of (g, V_in, N) per quadrature; the criteria by ``criteria._point``."""
    g_p, v_p, n_p, g_m, v_m, n_m = params
    plus, minus = (g_p, v_p, n_p), (g_m, v_m, n_m)
    return (*_point((plus, minus)), _signal(*plus)[1], _signal(*minus)[1], g_p * v_p, g_m * v_m)


def _estimates(quads: Sequence[tuple[float, float, float]], n_shots: int) -> list[Estimate]:
    """QUANTITIES of (g, V_in, N) per quadrature, with their errors at n_shots."""
    errors = [error for quad in quads for error in _errors(*quad, n_shots)]
    return _delta_method(_quantities, [x for quad in quads for x in quad], errors)


def sample_criteria(
    teleporter: Teleporter,
    state: InputState,
    n_shots: int,
    seed: int,
    workers: int = 1,
) -> SampleStats:
    """Estimate every criterion from n_shots synthesized quadrature records.

    Each estimate is a quantity of the sampled (g, V_in, N) (see
    :func:`_accumulate`) with its plug-in delta-method error.  Test signals
    are ignored (see :func:`sample_signal_transfer`).  Rounding of the float64
    moment sums moves N by about 2**-52 V_out, so ValueError is raised where
    that could reach one standard error, N sqrt(2/(n-1)): where a noisy
    quadrature's sampled V_out / N is not below sqrt(2/(n-1)) * 2**52 (2.0e13
    at 100 000 shots).
    """
    _validate(n_shots, seed, workers)
    analytic = _quads(teleporter, state)  # also rejects zero gain with zero noise
    limit = math.sqrt(2 / (n_shots - 1)) * 2**52
    quads = []
    signal_free = InputState(state.v_plus, state.v_minus)
    moments = _accumulate(teleporter, signal_free, n_shots, seed, workers)
    for quad, (_, _, true_noise), (_, gain, v_in, noise) in zip("+-", analytic, moments):
        v_out = _signal(gain, v_in, noise)[1]
        if true_noise != 0.0 and not v_out < noise * limit:
            raise ValueError(
                f"{n_shots} shots cannot resolve the added noise of quadrature {quad}: sampled "
                f"V_out {v_out:.3g}, N {noise:.3g}; V_out / N must stay below {limit:.3g}"
            )
        quads.append((gain, v_in, noise))
    return SampleStats(n_shots, seed, *_estimates(quads, n_shots))


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
    _validate(n_shots, seed, workers)
    if state.s_plus == 0.0 or state.s_minus == 0.0:
        raise ValueError("both test-signal amplitudes must be nonzero")
    moments = _accumulate(teleporter, state, n_shots, seed, workers)
    params, errors = [], []
    for mean, *quad in moments:  # the sample mean is independent of the (g, V_in, N) estimates
        params += mean, *quad
        errors += math.sqrt(_signal(*quad)[1] / n_shots), *_errors(*quad, n_shots)

    def ratios(p: Sequence[float]) -> list[float]:
        # (mean_out**2 / V_out) / (s**2 / V_in); inf, refused, where V_out rounds to 0
        values = []
        for s, (mean, gain, v_in, noise) in zip((state.s_plus, state.s_minus), (p[:4], p[4:])):
            v_out = _signal(gain, v_in, noise)[1]
            values.append((mean / s) * (mean / s) * v_in / v_out if v_out else math.inf)
        return values

    return SignalTransferStats(n_shots, seed, *_delta_method(ratios, params, errors))
