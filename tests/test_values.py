"""Contract of the package's frozen value types and of their constructors' errors."""

import dataclasses
import inspect
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvteleport
from cvteleport import (
    BellParams,
    CriteriaReport,
    Family,
    InputState,
    NoiseTerm,
    QuadratureMap,
    SampleStats,
    Teleporter,
    added_noise_variance,
    bell_s,
    classical_bound_check,
    classify,
    conditional_variance,
    field_conditional_variance,
    field_correlation,
    in_out_covariance,
    make_classical_measure_resend,
    make_custom,
    make_epr,
    make_single_mode,
    optimal_gain,
    output_variance,
    sample_criteria,
    sample_signal_transfer,
    signal_transfer,
    squeezing_preserved,
    symmetric_output_variance,
    t_total,
    v_total,
)
from cvteleport.montecarlo import QUANTITIES

VACUUM = InputState(1.0, 1.0)
# Finite terms whose squares are finite but whose sum overflows.
SUM_OVERFLOWS = (NoiseTerm("a", 1e154, 1.0), NoiseTerm("b", 1e154, 1.0))


def quadrature_map():
    return QuadratureMap(0.5, [NoiseTerm("a", 1.5, 0.25)])


def teleporter():
    return make_single_mode(0.5, 0.25)


def input_state():
    return InputState(0.5, 2.0, s_plus=0.1)


def criteria_report():
    return classify(make_epr(1.0, 0.5), VACUUM)


# One instance of every public value type, built twice to compare.
VALUES = {
    "NoiseTerm": lambda: NoiseTerm("a", 1.5, 0.25),
    "QuadratureMap": quadrature_map,
    "InputState": input_state,
    "Teleporter": teleporter,
    "CriteriaReport": criteria_report,
    "ClassicalBoundCheck": lambda: classical_bound_check(make_epr(1.0, 0.5)),
    "BellParams": lambda: BellParams(1.5, 1.0, 0.5),
    "OptimalGain": lambda: optimal_gain(Family.EPR, 0.5),
    "SampleStats": lambda: sample_criteria(make_epr(1.0, 0.5), VACUUM, 200, 1),
    "SignalTransferStats": lambda: sample_signal_transfer(
        make_epr(1.0, 0.5), InputState(1.0, 1.0, 0.1, 0.1), 200, 1
    ),
    "Estimate": lambda: sample_criteria(make_epr(1.0, 0.5), VACUUM, 200, 1).c_f,
}


@pytest.mark.parametrize("name", list(VALUES))
class TestEveryValueType:
    def test_assignment_raises_frozen_instance_error(self, name):
        value = VALUES[name]()
        assert type(value).__name__ == name
        first = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, first, getattr(value, first))
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.extra = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, first)

    def test_equal_values_hash_as_their_field_tuples(self, name):
        first, second = VALUES[name](), VALUES[name]()
        assert first == second
        fields = tuple(getattr(first, f.name) for f in dataclasses.fields(first))
        assert hash(first) == hash(second) == hash(fields)

    def test_pickle_and_replace_give_equal_values(self, name):
        value = VALUES[name]()
        restored = pickle.loads(pickle.dumps(value))
        assert restored == value and repr(restored) == repr(value)
        assert dataclasses.replace(value) == value
        assert dataclasses.asdict(restored) == dataclasses.asdict(value)


MISSING = dataclasses.MISSING
REPORT_FLOATS = (
    "ts_plus", "ts_minus", "t_t", "c_plus", "c_minus",
    "vcv_plus", "vcv_minus", "v_t", "c_f", "v_cvf",
)


class TestFieldsAndRepr:
    @pytest.mark.parametrize(
        "cls,fields,signature",
        [
            (
                QuadratureMap,
                [("gain", "float", MISSING), ("noise", "tuple[NoiseTerm, ...]", ())],
                "(gain: 'float', noise: 'tuple[NoiseTerm, ...]' = ()) -> None",
            ),
            (
                Teleporter,
                [
                    ("plus", "QuadratureMap", MISSING),
                    ("minus", "QuadratureMap", MISSING),
                    ("family", "Family", Family.CUSTOM),
                    ("gain", "float | None", None),
                    ("resource", "float | None", None),
                ],
                "(plus: 'QuadratureMap', minus: 'QuadratureMap', family: 'Family' = "
                "<Family.CUSTOM: 'custom'>, gain: 'float | None' = None, "
                "resource: 'float | None' = None) -> None",
            ),
            (
                InputState,
                [
                    ("v_plus", "float", MISSING),
                    ("v_minus", "float", MISSING),
                    ("s_plus", "float", 0.0),
                    ("s_minus", "float", 0.0),
                ],
                "(v_plus: 'float', v_minus: 'float', s_plus: 'float' = 0.0, "
                "s_minus: 'float' = 0.0) -> None",
            ),
            (
                CriteriaReport,
                [(name, "float", MISSING) for name in REPORT_FLOATS]
                + [
                    ("region", "Region", MISSING),
                    ("both_violated", "bool", MISSING),
                    ("input_minimum_uncertainty", "bool", MISSING),
                ],
                "("
                + ", ".join(f"{name}: 'float'" for name in REPORT_FLOATS)
                + ", region: 'Region', both_violated: 'bool', "
                "input_minimum_uncertainty: 'bool') -> None",
            ),
            (
                SampleStats,
                [("n_shots", "int", MISSING), ("seed", "int", MISSING)]
                + [(name, "Estimate", MISSING) for name in QUANTITIES],
                "(n_shots: 'int', seed: 'int', "
                + ", ".join(f"{name}: 'Estimate'" for name in QUANTITIES)
                + ") -> None",
            ),
        ],
    )
    def test_fields_and_signature(self, cls, fields, signature):
        assert [(f.name, f.type, f.default) for f in dataclasses.fields(cls)] == fields
        assert all(f.init and f.default_factory is MISSING for f in dataclasses.fields(cls))
        assert str(inspect.signature(cls)) == signature

    def test_reprs(self):
        assert repr(quadrature_map()) == (
            "QuadratureMap(gain=0.5, "
            "noise=(NoiseTerm(mode_id='a', coefficient=1.5, variance=0.25),))"
        )
        assert repr(input_state()) == "InputState(v_plus=0.5, v_minus=2.0, s_plus=0.1, s_minus=0.0)"
        terms = (
            "(NoiseTerm(mode_id='sms_corr{q}', coefficient=1.0606601717798214, variance=0.625), "
            "NoiseTerm(mode_id='sms_anti{q}', coefficient=0.3535533905932738, variance=2.5))"
        )
        assert repr(teleporter()) == (
            f"Teleporter(plus=QuadratureMap(gain=0.5, noise={terms.format(q='+')}), "
            f"minus=QuadratureMap(gain=0.5, noise={terms.format(q='-')}), "
            "family=<Family.SINGLE_MODE: 'single_mode'>, gain=0.5, resource=0.25)"
        )
        assert repr(criteria_report()) == (
            "CriteriaReport(ts_plus=0.5, ts_minus=0.5, t_t=1.0, c_plus=0.5, c_minus=0.5, "
            "vcv_plus=1.0000000000000002, vcv_minus=1.0000000000000002, v_t=1.0000000000000002, "
            "c_f=0.5, v_cvf=1.0000000000000002, region=<Region.INTERMEDIATE: 'Intermediate'>, "
            "both_violated=False, input_minimum_uncertainty=True)"
        )

    def test_defaults_and_keywords(self):
        assert InputState(0.5, 2.0) == InputState(v_minus=2.0, v_plus=0.5, s_plus=0.0, s_minus=0.0)
        assert QuadratureMap(1.0).noise == ()
        custom = Teleporter(QuadratureMap(1.0), QuadratureMap(1.0))
        assert (custom.family, custom.gain, custom.resource) == (Family.CUSTOM, None, None)
        with pytest.raises(TypeError):
            InputState(1.0)
        with pytest.raises(TypeError):
            InputState(1.0, 1.0, v_plus=1.0)

    def test_noise_list_is_stored_as_a_tuple(self):
        as_list = QuadratureMap(1.0, [NoiseTerm("a", 1.0, 1.0)])
        as_tuple = QuadratureMap(1.0, (NoiseTerm("a", 1.0, 1.0),))
        assert type(as_list.noise) is tuple
        assert as_list == as_tuple and hash(as_list) == hash(as_tuple)

    def test_maps_differing_in_one_field_differ(self):
        base = quadrature_map()
        assert dataclasses.replace(base, gain=0.25) != base
        assert dataclasses.replace(base, noise=()) != base

    def test_replace_recomputes_the_derived_values(self):
        qmap = dataclasses.replace(quadrature_map(), noise=(NoiseTerm("b", 2.0, 1.0),))
        assert qmap.mode_ids == frozenset({"b"})
        assert added_noise_variance(qmap) == 4.0

    def test_pickle_of_the_fields_alone_loads_a_working_map(self):
        # Pickles made before the maps stored their noise and mode ids hold
        # only the fields; loading one derives the rest again.
        fresh = make_epr(1.0, 0.5)
        old = {}
        for side in ("plus", "minus"):
            qmap = getattr(fresh, side)
            fields_only = object.__new__(QuadratureMap)
            fields_only.__dict__.update(gain=qmap.gain, noise=qmap.noise)
            old[side] = pickle.loads(pickle.dumps(fields_only))
            assert old[side].__dict__ == qmap.__dict__
            assert old[side].mode_ids == qmap.mode_ids
        loaded = make_custom(old["plus"], old["minus"])
        assert classify(loaded, VACUUM) == classify(fresh, VACUUM)


class TestReplaceValidates:
    @pytest.mark.parametrize(
        "value,changes,message",
        [
            (NoiseTerm("a", 1.0, 1.0), {"variance": 0.0}, "noise variance must be > 0, got 0.0"),
            (quadrature_map(), {"gain": math.inf}, "gain must be finite"),
            (input_state(), {"v_minus": -1.0}, "quadrature variances must be > 0, got (0.5, -1.0)"),
            (
                make_epr(1.0, 0.5),
                {"minus": make_epr(1.0, 0.5).plus},
                "quadrature maps share latent mode_ids ['ent_anti+', 'ent_corr+']; "
                "cross-quadrature coupling is not modelled",
            ),
            (BellParams(1.5, 1.0, 0.5), {"s_i": 2.0}, "s_i cannot exceed 1.5, got 2.0"),
        ],
    )
    def test_bad_value_raises_value_error(self, value, changes, message):
        with pytest.raises(ValueError) as info:
            dataclasses.replace(value, **changes)
        assert str(info.value) == message


def _two_maps_sharing(*ids):
    return (
        QuadratureMap(1.0, tuple(NoiseTerm(i, 1.0, 1.0) for i in ids)),
        QuadratureMap(1.0, tuple(NoiseTerm(i, 1.0, 1.0) for i in reversed(ids))),
    )


def custom(plus_terms, minus_terms=()):
    return make_custom(QuadratureMap(1.0, plus_terms), QuadratureMap(1.0, minus_terms))


NOT_FINITE = "input state variances and signals must be finite"
TERM_NOT_FINITE = "noise term coefficient and variance must be finite"
SUM_OVERFLOW_MESSAGE = "added noise undefined: the sum of the noise terms overflows"
V_CVF_OVERFLOWS = "field conditional variance undefined: V_cvf passes the float range"

# Every ValueError message of the constructors and of the single-point entry
# points, exactly.
MESSAGES = [
    (lambda: NoiseTerm("m", 1.0, -1.0), "noise variance must be > 0, got -1.0"),
    (lambda: NoiseTerm("m", 1.0, math.nan), "noise variance must be > 0, got nan"),
    (lambda: NoiseTerm("m", math.inf, 1.0), TERM_NOT_FINITE),
    (lambda: NoiseTerm("m", 1.0, math.inf), TERM_NOT_FINITE),
    (lambda: QuadratureMap(math.nan), "gain must be finite"),
    (
        lambda: QuadratureMap(
            1.0, (NoiseTerm("m", 1.0, 1.0), NoiseTerm("n", 1.0, 1.0), NoiseTerm("m", 0.5, 2.0))
        ),
        "noise mode_ids must be pairwise distinct, got ['m', 'n', 'm']",
    ),
    (lambda: InputState(1.0, 1.0, s_minus=math.inf), NOT_FINITE),
    (lambda: InputState(math.nan, 1.0), NOT_FINITE),
    (lambda: InputState(0.0, 1.0), "quadrature variances must be > 0, got (0.0, 1.0)"),
    (lambda: InputState(1.0, -2.0), "quadrature variances must be > 0, got (1.0, -2.0)"),
    (
        lambda: make_custom(*_two_maps_sharing("b", "a")),
        "quadrature maps share latent mode_ids ['a', 'b']; "
        "cross-quadrature coupling is not modelled",
    ),
    (
        lambda: Teleporter(*_two_maps_sharing("a")),
        "quadrature maps share latent mode_ids ['a']; cross-quadrature coupling is not modelled",
    ),
    (lambda: make_epr(1.0, 1.5), "v_ent must lie in (0, 1], got 1.5"),
    (lambda: make_epr(1.0, 0.0), "v_ent must lie in (0, 1], got 0.0"),
    (lambda: make_single_mode(1.0, 2.0), "v_s must lie in (0, 1], got 2.0"),
    (lambda: make_epr(math.inf, 0.5), TERM_NOT_FINITE),
    (lambda: make_classical_measure_resend(math.nan), TERM_NOT_FINITE),
    (lambda: make_epr(1.0, None), "gain and v_ent must be numbers, got 1.0, None"),
    (lambda: make_epr("a", 0.5), "gain and v_ent must be numbers, got 'a', 0.5"),
    (lambda: make_single_mode(1.0, "x"), "gain and v_s must be numbers, got 1.0, 'x'"),
    (
        lambda: make_classical_measure_resend(None),
        "gain and resource must be numbers, got None, None",
    ),
    (lambda: BellParams(math.inf, 1.0, 1.0), "Bell parameters s_i, gain and v_cvf must be finite"),
    (lambda: BellParams(1.6, 1.0, 1.0), "s_i cannot exceed 1.5, got 1.6"),
    (lambda: BellParams(1.5, 1.0, -0.5), "v_cvf must be nonnegative, got -0.5"),
    (
        lambda: classify(make_custom(QuadratureMap(0.0), QuadratureMap(1.0)), VACUUM),
        "signal transfer undefined: zero gain and zero added noise",
    ),
    (
        # coefficient**2 * variance overflows: N would be 1e400
        lambda: classify(custom((NoiseTerm("a", 1e200, 1.0),)), VACUUM),
        "added noise undefined: noise term 'a' overflows",
    ),
    (
        lambda: classify(custom(SUM_OVERFLOWS), VACUUM),
        SUM_OVERFLOW_MESSAGE,
    ),
    (
        # V_cvf = v+ v- (g+ - g-)**2 / (2 (v+ + v-)) = 1e400
        lambda: classify(make_custom(QuadratureMap(1e200), QuadratureMap(-1e200)), VACUUM),
        V_CVF_OVERFLOWS,
    ),
    (
        lambda: field_conditional_variance(
            make_custom(QuadratureMap(1e200), QuadratureMap(-1e200)), VACUUM
        ),
        V_CVF_OVERFLOWS,
    ),
    (
        lambda: classical_bound_check(make_epr(0.0, 0.5)),
        "classical bound undefined for zero gain (or an underflowing gain**2)",
    ),
    (
        # finite noises N+ = N- = 1e200 whose product overflows
        lambda: classical_bound_check(
            custom((NoiseTerm("a", 1e100, 1.0),), (NoiseTerm("b", 1e100, 1.0),))
        ),
        "classical bound undefined: the noise product is inf",
    ),
    (
        lambda: classical_bound_check(custom(SUM_OVERFLOWS)),
        SUM_OVERFLOW_MESSAGE,
    ),
    (
        lambda: added_noise_variance(QuadratureMap(1.0, SUM_OVERFLOWS)),
        SUM_OVERFLOW_MESSAGE,
    ),
    (
        lambda: output_variance(QuadratureMap(1.0, SUM_OVERFLOWS), 1.0),
        SUM_OVERFLOW_MESSAGE,
    ),
    (lambda: output_variance(QuadratureMap(1.0), 0.0), "input variance must be > 0, got 0.0"),
    (
        lambda: output_variance(QuadratureMap(2.0), 1e308),
        "output variance undefined: it overflows at gain 2.0, v_in 1e+308",
    ),
    (
        lambda: in_out_covariance(QuadratureMap(2.0), 1e308),
        "in-out covariance undefined: it overflows at gain 2.0, v_in 1e+308",
    ),
    (
        lambda: symmetric_output_variance(1e308, 2.0, 1e308),
        "output variance undefined: it is inf at gain 2.0, v_in 1e+308",
    ),
    (lambda: symmetric_output_variance(-5.0, 1.0, 1.0), "v_cvf must be nonnegative, got -5.0"),
    (lambda: symmetric_output_variance(0.5, 1.0, -1.0), "input variance must be > 0, got -1.0"),
    (
        lambda: squeezing_preserved(make_single_mode(1.0, 0.5), 0.5),
        "squeezing preservation is defined for symmetric EPR teleporters",
    ),
    (
        lambda: squeezing_preserved(make_epr(1.0, 0.5), 1.0),
        "input must be squeezed (0 < v_in_plus < 1), got 1.0",
    ),
    (lambda: optimal_gain(Family.EPR, 0.0), "resource must lie in (0, 1], got 0.0"),
    (
        lambda: optimal_gain(Family.CLASSICAL, 0.5),
        "optimal gain is defined for the epr and single_mode families, got Family.CLASSICAL",
    ),
    (
        lambda: optimal_gain(Family.EPR, 5e-324),
        "optimal gain undefined: the noise of resource 5e-324 overflows",
    ),
    (
        lambda: bell_s(BellParams(1.5, 0.0, 1.0)),
        "Bell correlation undefined: degenerate denominator at v_cvf=1.0, gain=0.0",
    ),
    (
        lambda: bell_s(BellParams(1.5, 1e200, 1.0)),
        "Bell correlation undefined: S is nan at gain=1e+200",
    ),
]


@pytest.mark.parametrize("call,message", MESSAGES)
def test_value_error_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# Noise terms over the whole float range: squares and sums may overflow.
WIDE_TERMS = st.lists(
    st.tuples(
        st.floats(min_value=-1e200, max_value=1e200),
        st.floats(min_value=5e-324, max_value=1.7e308),
    ),
    max_size=5,
)


@given(gain=st.floats(min_value=-3.0, max_value=3.0), pairs=WIDE_TERMS)
@settings(max_examples=300, deadline=None)
def test_stored_added_noise_is_the_fsum_of_the_terms(gain, pairs):
    # A map builds, with a finite noise, or its term or its sum raises ValueError.
    squares = [c * c * v for c, v in pairs]
    overflowing = [i for i, square in enumerate(squares) if not math.isfinite(square)]
    if overflowing:
        with pytest.raises(ValueError, match=f"noise term 'm{overflowing[0]}' overflows"):
            [NoiseTerm(f"m{i}", c, v) for i, (c, v) in enumerate(pairs)]
        return
    terms = tuple(NoiseTerm(f"m{i}", c, v) for i, (c, v) in enumerate(pairs))
    try:
        expected = math.fsum(squares)
    except OverflowError:
        for ordered in (terms, terms[::-1]):
            with pytest.raises(ValueError, match="sum of the noise terms overflows"):
                QuadratureMap(gain, ordered)
        return
    qmap, reordered = QuadratureMap(gain, terms), QuadratureMap(gain, terms[::-1])
    assert math.isfinite(expected)
    # repr tells every float apart
    assert repr(added_noise_variance(qmap)) == repr(expected)
    assert repr(added_noise_variance(reordered)) == repr(expected)
    assert qmap.mode_ids == frozenset(t.mode_id for t in terms)



# The float strategies of test_criteria.TestFullRange: gains over +-[0, 1e308]
# with subnormals, variances over [5e-324, 1.7e308], and zero added noise.
FULL_GAINS = st.floats(min_value=-1e308, max_value=1e308)
FULL_VARIANCES = st.floats(min_value=5e-324, max_value=1.7e308)
FULL_NOISES = st.one_of(st.just(0.0), FULL_VARIANCES)
# Resources inside (0, 1] and past it.
RESOURCES = st.one_of(st.floats(min_value=5e-324, max_value=1.0), FULL_VARIANCES)


def full_map(data, mode_id):
    """A map of a full-range gain and added noise: one unit-coefficient term or none."""
    noise = data.draw(FULL_NOISES)
    return QuadratureMap(data.draw(FULL_GAINS), (NoiseTerm(mode_id, 1.0, noise),) if noise else ())


def full_teleporter(data):
    """A family or custom teleporter of full-range parameters."""
    family = data.draw(st.sampled_from(Family))
    if family is Family.CUSTOM:
        return make_custom(full_map(data, "p"), full_map(data, "m"))
    if family is Family.CLASSICAL:
        return make_classical_measure_resend(data.draw(FULL_GAINS))
    make = make_epr if family is Family.EPR else make_single_mode
    return make(data.draw(FULL_GAINS), data.draw(RESOURCES))


def full_state(data):
    """An input state of full-range variances and signals (zero included)."""
    v_plus, v_minus = data.draw(FULL_VARIANCES), data.draw(FULL_VARIANCES)
    return InputState(v_plus, v_minus, data.draw(FULL_GAINS), data.draw(FULL_GAINS))


def full_bell(data):
    return BellParams(data.draw(FULL_GAINS), data.draw(FULL_GAINS), data.draw(FULL_NOISES))


def valid_report(c):
    return (
        0.0 <= c.ts_plus <= 1.0
        and 0.0 <= c.ts_minus <= 1.0
        and 0.0 <= c.t_t <= 2.0
        and (c.c_plus, c.c_minus) == (c.ts_plus, c.ts_minus)
        and min(c.vcv_plus, c.vcv_minus, c.v_t) >= 0.0
        and 0.0 <= c.c_f <= 1.0
        and c.v_cvf >= c.v_t
    )


def valid_errors(stats):
    return all(getattr(stats, f.name).std_error >= 0.0 for f in dataclasses.fields(stats)[2:])


# Each public entry point: its call on drawn full-range arguments, and what a
# meaningful result of it satisfies.
ENTRY_POINTS = {
    "NoiseTerm": (
        lambda d: NoiseTerm("m", d.draw(FULL_GAINS), d.draw(FULL_VARIANCES)),
        lambda term: term.variance > 0.0,
    ),
    "QuadratureMap": (lambda d: full_map(d, "m"), lambda qmap: added_noise_variance(qmap) >= 0.0),
    "InputState": (full_state, lambda state: state.v_plus > 0.0 and state.v_minus > 0.0),
    "Teleporter": (
        lambda d: Teleporter(full_map(d, "p"), full_map(d, "m")),
        lambda teleporter: teleporter.family is Family.CUSTOM,
    ),
    "BellParams": (full_bell, lambda params: params.s_i <= 1.5 and params.v_cvf >= 0.0),
    "make_epr": (
        lambda d: make_epr(d.draw(FULL_GAINS), d.draw(RESOURCES)),
        lambda teleporter: teleporter.symmetric,
    ),
    "make_single_mode": (
        lambda d: make_single_mode(d.draw(FULL_GAINS), d.draw(RESOURCES)),
        lambda teleporter: teleporter.symmetric,
    ),
    "make_classical_measure_resend": (
        lambda d: make_classical_measure_resend(d.draw(FULL_GAINS)),
        lambda teleporter: teleporter.symmetric,
    ),
    "make_custom": (
        lambda d: make_custom(full_map(d, "p"), full_map(d, "m")),
        lambda teleporter: teleporter.family is Family.CUSTOM,
    ),
    "added_noise_variance": (lambda d: added_noise_variance(full_map(d, "m")), lambda n: n >= 0.0),
    "output_variance": (
        lambda d: output_variance(full_map(d, "m"), d.draw(FULL_VARIANCES)),
        lambda v_out: v_out >= 0.0,
    ),
    "in_out_covariance": (
        lambda d: in_out_covariance(full_map(d, "m"), d.draw(FULL_VARIANCES)),
        lambda cov: True,
    ),
    "signal_transfer": (
        lambda d: signal_transfer(full_map(d, "m"), d.draw(FULL_VARIANCES)),
        lambda ts: 0.0 <= ts <= 1.0,
    ),
    "conditional_variance": (
        lambda d: conditional_variance(full_map(d, "m"), d.draw(FULL_VARIANCES)),
        lambda vcv: vcv >= 0.0,
    ),
    "classify": (lambda d: classify(full_teleporter(d), full_state(d)), valid_report),
    "t_total": (lambda d: t_total(full_teleporter(d), full_state(d)), lambda t: 0.0 <= t <= 2.0),
    "v_total": (lambda d: v_total(full_teleporter(d), full_state(d)), lambda v: v >= 0.0),
    "field_correlation": (
        lambda d: field_correlation(full_teleporter(d), full_state(d)),
        lambda c_f: 0.0 <= c_f <= 1.0,
    ),
    "field_conditional_variance": (
        lambda d: field_conditional_variance(full_teleporter(d), full_state(d)),
        lambda v_cvf: v_cvf >= 0.0,
    ),
    "classical_bound_check": (
        lambda d: classical_bound_check(full_teleporter(d)),
        lambda check: check.product >= 0.0,
    ),
    "squeezing_preserved": (
        lambda d: squeezing_preserved(full_teleporter(d), d.draw(FULL_VARIANCES)),
        lambda preserved: isinstance(preserved, bool),
    ),
    "symmetric_output_variance": (
        lambda d: symmetric_output_variance(
            d.draw(FULL_GAINS), d.draw(FULL_GAINS), d.draw(FULL_GAINS)
        ),
        lambda v_out: v_out >= 0.0,
    ),
    "bell_s": (lambda d: bell_s(full_bell(d)), lambda s: True),
    "optimal_gain": (
        lambda d: optimal_gain(d.draw(st.sampled_from(Family)), d.draw(RESOURCES)),
        lambda optimum: -1.0 <= optimum.gain <= 1.0 and optimum.v_cvf_min > 0.0,
    ),
    "sample_criteria": (
        lambda d: sample_criteria(full_teleporter(d), full_state(d), 100, 1),
        valid_errors,
    ),
    "sample_signal_transfer": (
        lambda d: sample_signal_transfer(full_teleporter(d), full_state(d), 100, 1),
        lambda stats: valid_errors(stats)
        and min(stats.ts_plus_hat.value, stats.ts_minus_hat.value) >= 0.0,
    ),
}
# The public result types and enums: only the entry points above build them
# from floats, and their results are checked.
RESULTS = [
    "ClassicalBoundCheck",
    "CriteriaReport",
    "Estimate",
    "Family",
    "OptimalGain",
    "Region",
    "SampleStats",
    "SignalTransferStats",
]


def finite(value) -> bool:
    """Whether every float in ``value``, a result or a value type, is finite."""
    if dataclasses.is_dataclass(value):
        return all(finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return all(map(finite, value))
    if isinstance(value, float):
        return math.isfinite(value)
    return value is None or isinstance(value, (int, str))


def test_every_public_callable_has_an_entry_point_row():
    assert sorted([*ENTRY_POINTS, *RESULTS]) == sorted(cvteleport.__all__)
    assert all(callable(getattr(cvteleport, name)) for name in cvteleport.__all__)


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_full_range_gives_finite_meaningful_values_or_value_error(name, data):
    call, meaningful = ENTRY_POINTS[name]
    try:
        result = call(data)
    except ValueError:
        return
    assert finite(result), result
    assert meaningful(result), result
