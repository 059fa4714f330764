"""Tests for the Monte Carlo sampling verifier."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvteleport import montecarlo
from cvteleport import (
    InputState,
    NoiseTerm,
    QuadratureMap,
    classify,
    in_out_covariance,
    make_classical_measure_resend,
    make_custom,
    make_epr,
    make_single_mode,
    output_variance,
    sample_criteria,
    sample_signal_transfer,
    signal_transfer,
)

VACUUM = InputState(1.0, 1.0)
PERFECT = make_custom(QuadratureMap(1.0), QuadratureMap(1.0))
SIGNALS = InputState(1.0, 1.0, s_plus=0.1, s_minus=0.1)


def analytic_quantities(teleporter, state):
    report = classify(teleporter, state)
    return {
        "ts_plus": report.ts_plus,
        "ts_minus": report.ts_minus,
        "t_t": report.t_t,
        "vcv_plus": report.vcv_plus,
        "vcv_minus": report.vcv_minus,
        "v_t": report.v_t,
        "c_f": report.c_f,
        "v_cvf": report.v_cvf,
        "v_out_plus": output_variance(teleporter.plus, state.v_plus),
        "v_out_minus": output_variance(teleporter.minus, state.v_minus),
        "cov_plus": in_out_covariance(teleporter.plus, state.v_plus),
        "cov_minus": in_out_covariance(teleporter.minus, state.v_minus),
    }


def pairwise_sum(values):
    """Pure-Python numpy pairwise sum: 8 strided accumulators per leaf of <= 128."""
    n = len(values)
    if n < 8:
        total = -0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        acc = list(values[:8])
        whole = n - n % 8
        for i in range(8, whole, 8):
            for j in range(8):
                acc[j] += values[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for v in values[whole:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])


def replica_block_sum(values):
    """The documented in-block order: pairwise per 8192-element run, runs left to right."""
    total = 0.0
    for start in range(0, len(values), 8192):
        total += pairwise_sum(values[start : start + 8192])
    return total


def per_quantity_se(func, params, n):
    """Delta-method standard error of scalar func(params), one gradient per quantity.

    ``params`` is (g, V_in, N) per quadrature; their first-order sampling
    errors, sqrt(N / ((n-1) V_in)), V_in sqrt(2/(n-1)) and N sqrt(2/(n-1)),
    are uncorrelated.  The oracle for ``montecarlo._delta_method``, stepping
    one standard error per parameter; ``hypot`` keeps tiny derivative terms
    from underflowing when squared.
    """
    root = math.sqrt(2 / (n - 1))
    errors = []
    for g, v_in, noise in (params[:3], params[3:]):
        errors += [math.sqrt(noise / ((n - 1) * v_in)), v_in * root, noise * root]
    terms = []
    for i, error in enumerate(errors):
        if error == 0.0:
            continue
        up = list(params)
        dn = list(params)
        up[i] += error
        dn[i] -= error
        terms.append((func(up) - func(dn)) / (2 * error) * error)
    return math.hypot(*terms)


def criteria_from_moments(v_in_p, v_out_p, cov_p, v_in_m, v_out_m, cov_m):
    """``SampleStats`` quantities, in order, in their defining raw-moment forms."""
    c_p = cov_p * cov_p / (v_in_p * v_out_p)
    c_m = cov_m * cov_m / (v_in_m * v_out_m)
    vcv_p = v_out_p * (1.0 - c_p)
    vcv_m = v_out_m * (1.0 - c_m)
    cov_sum = cov_p + cov_m
    c_f = cov_sum * cov_sum / ((v_in_p + v_in_m) * (v_out_p + v_out_m))
    v_cvf = 0.5 * (v_out_p + v_out_m) * (1.0 - c_f)
    v_t = 0.5 * (vcv_p + vcv_m)
    return c_p, c_m, c_p + c_m, vcv_p, vcv_m, v_t, c_f, v_cvf, v_out_p, v_out_m, cov_p, cov_m


def regression(v_in, v_out, cov):
    """(g, V_in, N) of one quadrature's moments, as the sampler forms them."""
    gain = cov / v_in
    return gain, v_in, v_out - gain * cov


def quadrature_moments():
    """(v_in, v_out, cov) with |cov| < sqrt(v_in * v_out), as sample moments are."""
    return st.tuples(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=-0.999, max_value=0.999),
    ).map(lambda t: (t[0], t[1], t[2] * math.sqrt(t[0] * t[1])))


def assert_within_5_sigma(stats, analytic):
    for name, estimate in stats.as_dict().items():
        diff = abs(estimate.value - analytic[name])
        assert diff <= 5.0 * estimate.std_error, (
            f"{name}: estimate {estimate.value} vs analytic {analytic[name]} "
            f"(se {estimate.std_error})"
        )


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        teleporter = make_epr(0.8, 0.4)
        first = sample_criteria(teleporter, VACUUM, 50_000, seed=123)
        second = sample_criteria(teleporter, VACUUM, 50_000, seed=123)
        assert first == second

    def test_worker_count_never_changes_results(self):
        teleporter = make_single_mode(1.2, 0.3)
        state = InputState(0.7, 1.0 / 0.7)
        serial = sample_criteria(teleporter, state, 200_000, seed=9)
        threaded = sample_criteria(teleporter, state, 200_000, seed=9, workers=4)
        assert serial == threaded

    def test_noise_term_order_never_changes_results(self):
        terms = (NoiseTerm("m1", 0.5, 1.0), NoiseTerm("m2", 1.0, 0.5))
        forward = make_custom(QuadratureMap(1.0, terms), QuadratureMap(1.0))
        backward = make_custom(QuadratureMap(1.0, terms[::-1]), QuadratureMap(1.0))
        assert sample_criteria(forward, VACUUM, 10_000, 7) == sample_criteria(
            backward, VACUUM, 10_000, 7
        )

    def test_different_seeds_differ_but_agree_statistically(self):
        teleporter = make_epr(1.0, 0.5)
        a = sample_criteria(teleporter, VACUUM, 100_000, seed=1)
        b = sample_criteria(teleporter, VACUUM, 100_000, seed=2)
        assert a.v_cvf.value != b.v_cvf.value
        for name in ("ts_plus", "v_cvf", "v_out_plus"):
            ea, eb = getattr(a, name), getattr(b, name)
            mutual = math.hypot(ea.std_error, eb.std_error)
            assert abs(ea.value - eb.value) <= 5.0 * mutual

    def test_signals_do_not_enter_criteria_sampling(self):
        teleporter = make_epr(1.0, 0.5)
        plain = sample_criteria(teleporter, VACUUM, 10_000, seed=4)
        with_signals = sample_criteria(
            teleporter, InputState(1.0, 1.0, s_plus=0.05, s_minus=0.05), 10_000, seed=4
        )
        assert plain == with_signals

    def test_block_sum_order_matches_replica(self):
        # A mismatch means numpy's sum no longer runs the order that the
        # committed mc golden was made with (see the determinism contract).
        # Each length > 8192 tells the orders apart on about half of the
        # draws, so eight draws per length all but rule out a chance match.
        rng = np.random.default_rng(2024)
        for n in (1, 7, 8, 127, 128, 129, 3616, 8191, 8192, 8193, 20_000, 65_536):
            for _ in range(8):
                x = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)
                assert montecarlo._run_sum(x) == replica_block_sum(x.tolist()), n

        teleporter, state, seed = make_epr(1.0, 1.0), VACUUM, 42
        sums = montecarlo._block_sums(teleporter, state, False, seed, (0, 20_000))
        replica = []
        for quad in "+-":
            x_in, x_out = montecarlo._quadrature_records(
                teleporter.map_for(quad), state.variance(quad), 0.0, quad, seed, 0, 20_000
            )
            for record in (x_in, x_in * x_in, x_out, x_out * x_out, x_in * x_out):
                replica.append(replica_block_sum(record.tolist()))
        assert sums == tuple(replica)


    @pytest.mark.parametrize("use_signals", [False, True])
    @pytest.mark.parametrize("n_terms", [0, 4])
    @pytest.mark.parametrize(
        "bounds",
        [(0, montecarlo.BLOCK_SHOTS), (montecarlo.BLOCK_SHOTS, montecarlo.BLOCK_SHOTS + 777)],
    )
    def test_work_array_gives_the_bits_of_fresh_arrays(self, use_signals, n_terms, bounds):
        # A full block and a partial last block; the NaN fill shows any read
        # of a work-array entry that the block did not write first.
        def qmap(gain, tag):
            terms = tuple(
                NoiseTerm(f"{tag}{i}", 0.3 * (i + 1) - 0.7, 0.5 + i) for i in range(n_terms)
            )
            return QuadratureMap(gain, terms[::-1])

        teleporter = make_custom(qmap(0.9, "p"), qmap(-1.3, "m"))
        state = InputState(0.7, 1.6, s_plus=0.05, s_minus=-0.08)
        work = np.full((3, montecarlo.BLOCK_SHOTS), np.nan)
        reused = montecarlo._block_sums(teleporter, state, use_signals, 11, bounds, work)
        assert reused == montecarlo._block_sums(teleporter, state, use_signals, 11, bounds)

    @pytest.mark.parametrize("workers", [2, 3, 4, 1000])
    def test_worker_count_never_changes_either_sampler(self, workers):
        # 140 000 shots are 3 blocks, the last one partial; 4 and 1000
        # workers exceed the block count and are clamped to it.
        teleporter = make_epr(0.9, 0.4)
        state = InputState(1.2, 0.9, s_plus=0.05, s_minus=0.04)
        assert sample_criteria(teleporter, state, 140_000, 5, workers) == sample_criteria(
            teleporter, state, 140_000, 5
        )
        assert sample_signal_transfer(
            teleporter, state, 140_000, 5, workers
        ) == sample_signal_transfer(teleporter, state, 140_000, 5)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_is_one_work_array_per_worker(self, workers):
        # Counted by tracemalloc, which repeats exactly: each worker holds
        # one (3, BLOCK_SHOTS) work array, and a block allocates no records.
        teleporter, state, n_shots = make_epr(1.0, 0.5), VACUUM, 4 * montecarlo.BLOCK_SHOTS
        sample_criteria(teleporter, state, 1000, 1, workers)  # one-time imports and caches
        tracemalloc.start()
        try:
            sample_criteria(teleporter, state, n_shots, 1, workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= workers * 3 * montecarlo.BLOCK_SHOTS * 8 + 64 * 1024


class TestAgreementWithAnalytic:
    @pytest.mark.parametrize(
        "teleporter,state",
        [
            (make_epr(1.0, 1.0), VACUUM),
            (make_epr(1.0, 0.25), VACUUM),
            (make_single_mode(0.8, 0.3), InputState(0.5, 2.0)),
            (make_classical_measure_resend(1.2), VACUUM),
        ],
    )
    def test_all_quantities_within_5_sigma(self, teleporter, state):
        stats = sample_criteria(teleporter, state, 200_000, seed=77)
        assert_within_5_sigma(stats, analytic_quantities(teleporter, state))

    def test_perfect_teleporter_is_exact(self):
        stats = sample_criteria(PERFECT, VACUUM, 10_000, seed=5)
        assert stats.vcv_plus.value == 0.0
        assert stats.vcv_minus.value == 0.0
        assert stats.c_f.value == 1.0
        assert stats.v_cvf.value == 0.0

    def test_zero_gain_gives_independent_records(self):
        teleporter = make_classical_measure_resend(0.0)
        stats = sample_criteria(teleporter, VACUUM, 100_000, seed=6)
        assert abs(stats.c_f.value) <= 5.0 * max(stats.c_f.std_error, 1e-4)
        assert abs(stats.cov_plus.value) <= 5.0 * stats.cov_plus.std_error

    def test_std_errors_positive_for_noisy_maps(self):
        stats = sample_criteria(make_epr(0.9, 0.6), VACUUM, 50_000, seed=8)
        for name, estimate in stats.as_dict().items():
            assert estimate.std_error > 0.0, name

    def test_error_scaling_with_shots(self):
        teleporter = make_epr(1.0, 0.5)
        small = sample_criteria(teleporter, VACUUM, 100_000, seed=3)
        large = sample_criteria(teleporter, VACUUM, 400_000, seed=3)
        for name in ("ts_plus", "vcv_plus", "v_cvf", "v_out_plus", "cov_plus"):
            ratio = getattr(small, name).std_error / getattr(large, name).std_error
            assert ratio == pytest.approx(2.0, rel=0.2), name


class TestDeltaMethod:
    @given(quadrature_moments(), quadrature_moments(), st.integers(min_value=100, max_value=10**8))
    @settings(max_examples=200, deadline=None)
    def test_jacobian_matches_per_quantity_gradients(self, plus, minus, n):
        params = [*regression(*plus), *regression(*minus)]
        estimates = montecarlo._estimates([params[:3], params[3:]], n)
        values = montecarlo._quantities(params)
        assert [e.value for e in estimates] == list(values)
        for i, estimate in enumerate(estimates):
            oracle = per_quantity_se(lambda p, i=i: montecarlo._quantities(p)[i], params, n)
            assert estimate.std_error == pytest.approx(oracle, rel=1e-12), i

    @given(quadrature_moments(), quadrature_moments())
    @settings(max_examples=300, deadline=None)
    def test_kernel_route_matches_the_defining_moment_forms(self, plus, minus):
        # The sampler takes the criteria of (g, V_in, N) from the criteria
        # kernel; the defining forms in raw moments are the oracle.  |corr|
        # <= 0.999 bounds the cancellation in 1 - C to a factor of 500.
        kernel = montecarlo._quantities([*regression(*plus), *regression(*minus)])
        for name, got, want in zip(montecarlo._NAMES, kernel, criteria_from_moments(*plus, *minus)):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15), name

    def test_noise_free_parameters_are_skipped(self, monkeypatch):
        # Zero N: zero errors for g and N, so only each V_in is differentiated.
        quads = [(1.0, 1.0, 0.0), (0.5, 2.0, 0.0)]
        assert [montecarlo._errors(*quad, 1000)[::2] for quad in quads] == [(0.0, 0.0)] * 2
        calls = []
        quantities = montecarlo._quantities
        monkeypatch.setattr(montecarlo, "_quantities", lambda p: calls.append(p) or quantities(p))
        estimates = montecarlo._estimates(quads, 1000)
        assert len(calls) == 1 + 2 * 2
        assert (estimates[3].std_error, estimates[4].std_error) == (0.0, 0.0)  # V_cv = N = 0

    def test_sample_criteria_evaluates_criteria_once_per_jacobian_column(self, monkeypatch):
        calls = []
        point = montecarlo._point

        def counting(quads):
            calls.append(quads)
            return point(quads)

        monkeypatch.setattr(montecarlo, "_point", counting)
        sample_criteria(make_epr(0.9, 0.6), VACUUM, 1000, seed=1)
        assert len(calls) == 1 + 2 * 6


class TestResolutionLimit:
    # Float64 moment sums resolve N only while V_out / N < sqrt(2/(n-1)) * 2**52:
    # 2.01e13 at 100 000 shots, 1.01e13 at 400 000.  make_epr(1, 0.5) has N = 1,
    # and the sampled V_out / N spreads by under 1 %, so 10 % either side is sure.
    @pytest.mark.parametrize(
        "n_shots,passing,failing", [(100_000, 1.8e13, 2.2e13), (400_000, 9e12, 1.1e13)]
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_both_sides_of_the_limit(self, n_shots, passing, failing, seed):
        teleporter = make_epr(1.0, 0.5)
        state = InputState(passing, passing)
        stats = sample_criteria(teleporter, state, n_shots, seed)
        assert_within_5_sigma(stats, analytic_quantities(teleporter, state))
        with pytest.raises(ValueError, match="cannot resolve the added noise"):
            sample_criteria(teleporter, InputState(failing, failing), n_shots, seed)

    def test_noise_absorbed_by_rounding_is_refused(self):
        # At V_in = 1e300 the unit noise rounds away in every output record,
        # so the sampled N is 0; the map is noisy, so that is no exact zero.
        with pytest.raises(ValueError, match="cannot resolve the added noise"):
            sample_criteria(make_epr(1.0, 0.5), InputState(1e300, 1e300), 10_000, 1)

    def test_noise_free_map_has_no_limit(self):
        stats = sample_criteria(PERFECT, InputState(1e300, 1e-300), 10_000, 5)
        assert (stats.vcv_plus.value, stats.vcv_minus.value, stats.c_f.value) == (0.0, 0.0, 1.0)

    @given(
        gain=st.floats(min_value=-1e3, max_value=1e3),
        coefficient=st.floats(min_value=-1e3, max_value=1e3),
        noise=st.floats(min_value=1e-300, max_value=1e300),
        v_plus=st.floats(min_value=5e-324, max_value=1.7e308),
        v_minus=st.floats(min_value=5e-324, max_value=1.7e308),
        signal=st.floats(min_value=-1e150, max_value=1e150).filter(bool),
    )
    @settings(max_examples=100, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_samplers_return_finite_numbers_or_raise_value_error(
        self, gain, coefficient, noise, v_plus, v_minus, signal
    ):
        try:
            teleporter = make_custom(
                QuadratureMap(gain, (NoiseTerm("a", coefficient, noise),)),
                QuadratureMap(-gain, (NoiseTerm("b", 1.0, noise),)),
            )
        except ValueError:
            return
        state = InputState(v_plus, v_minus, s_plus=signal, s_minus=signal)
        for sampler in (sample_criteria, sample_signal_transfer):
            try:
                stats = sampler(teleporter, state, 200, 3)
            except ValueError:
                continue
            for estimate in vars(stats).values():
                if isinstance(estimate, montecarlo.Estimate):
                    assert math.isfinite(estimate.value), (sampler, estimate)
                    assert math.isfinite(estimate.std_error), (sampler, estimate)


class TestValidation:
    def test_rejects_too_few_shots(self):
        with pytest.raises(ValueError, match="at least 100"):
            sample_criteria(PERFECT, VACUUM, 99, seed=0)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError, match="64-bit"):
            sample_criteria(PERFECT, VACUUM, 1000, seed=-1)
        with pytest.raises(ValueError, match="64-bit"):
            sample_criteria(PERFECT, VACUUM, 1000, seed=2**64)

    @given(
        sampler=st.sampled_from([sample_criteria, sample_signal_transfer]),
        name=st.sampled_from(["n_shots", "seed", "workers"]),
        value=st.one_of(
            st.booleans(),
            st.none(),
            st.floats(allow_nan=True, allow_infinity=True),
            st.text(max_size=3),
            st.sampled_from([1e4, 2.5, "2", np.int64(1000)]),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_rejects_non_int_arguments(self, sampler, name, value):
        args = {"n_shots": 1000, "seed": 0, "workers": 1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            sampler(PERFECT, SIGNALS, **args)

    @given(
        sampler=st.sampled_from([sample_criteria, sample_signal_transfer]),
        args=st.one_of(
            st.fixed_dictionaries({"n_shots": st.integers(max_value=montecarlo.MIN_SHOTS - 1)}),
            st.fixed_dictionaries(
                {"seed": st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64))}
            ),
            st.fixed_dictionaries({"workers": st.integers(max_value=0)}),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_rejects_out_of_range_arguments(self, sampler, args):
        with pytest.raises(ValueError, match="at least|64-bit"):
            sampler(PERFECT, SIGNALS, **{"n_shots": 1000, "seed": 0, "workers": 1, **args})

    @pytest.mark.parametrize("sampler", [sample_criteria, sample_signal_transfer])
    def test_huge_worker_count_runs_serially(self, sampler):
        # One block: the worker count is clamped to 1, so no thread starts.
        n_shots = montecarlo.BLOCK_SHOTS
        assert sampler(PERFECT, SIGNALS, n_shots, 3, workers=10**9) == sampler(
            PERFECT, SIGNALS, n_shots, 3
        )


class TestSignalTransferSampling:
    def test_identity_ratio_near_one(self):
        state = InputState(1.0, 1.0, s_plus=0.1, s_minus=0.1)
        stats = sample_signal_transfer(PERFECT, state, 100_000, seed=12)
        assert abs(stats.ts_plus_hat.value - 1.0) <= 5.0 * stats.ts_plus_hat.std_error
        assert abs(stats.ts_minus_hat.value - 1.0) <= 5.0 * stats.ts_minus_hat.std_error

    def test_zero_gain_ratio_near_zero(self):
        teleporter = make_classical_measure_resend(0.0)
        state = InputState(1.0, 1.0, s_plus=0.1, s_minus=0.1)
        stats = sample_signal_transfer(teleporter, state, 100_000, seed=13)
        assert abs(stats.ts_plus_hat.value) <= 5.0 * max(stats.ts_plus_hat.std_error, 1e-4)

    def test_matches_analytic_transfer(self):
        teleporter = make_epr(1.0, 1.0)
        state = InputState(1.0, 1.0, s_plus=0.05, s_minus=0.05)
        stats = sample_signal_transfer(teleporter, state, 1_000_000, seed=14)
        expected = signal_transfer(teleporter.plus, 1.0)
        assert abs(stats.ts_plus_hat.value - expected) <= 5.0 * stats.ts_plus_hat.std_error
        assert abs(stats.ts_minus_hat.value - expected) <= 5.0 * stats.ts_minus_hat.std_error

    def test_insensitive_to_halving_signal(self):
        teleporter = make_epr(1.0, 0.5)
        expected = signal_transfer(teleporter.plus, 1.0)
        for amplitude in (0.05, 0.025):
            state = InputState(1.0, 1.0, s_plus=amplitude, s_minus=amplitude)
            stats = sample_signal_transfer(teleporter, state, 1_000_000, seed=15)
            assert abs(stats.ts_plus_hat.value - expected) <= 5.0 * stats.ts_plus_hat.std_error

    def test_agrees_with_correlation_route(self):
        # the squared-correlation estimate and the injected-signal estimate
        # are independent estimators of the same quantity
        teleporter = make_epr(0.9, 0.4)
        criteria_stats = sample_criteria(teleporter, VACUUM, 1_000_000, seed=16)
        state = InputState(1.0, 1.0, s_plus=0.05, s_minus=0.05)
        signal_stats = sample_signal_transfer(teleporter, state, 1_000_000, seed=17)
        mutual = math.hypot(
            criteria_stats.ts_plus.std_error, signal_stats.ts_plus_hat.std_error
        )
        assert abs(criteria_stats.ts_plus.value - signal_stats.ts_plus_hat.value) <= 5.0 * mutual

    def test_rejects_zero_signal(self):
        with pytest.raises(ValueError, match="nonzero"):
            sample_signal_transfer(PERFECT, VACUUM, 1000, seed=0)
        with pytest.raises(ValueError, match="nonzero"):
            sample_signal_transfer(
                PERFECT, InputState(1.0, 1.0, s_plus=0.1), 1000, seed=0
            )
