import dataclasses
import hashlib
import itertools
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import coupledfix.iteration as iteration_mod
from coupledfix import (
    CONVERGED,
    DIVERGED_NONFINITE,
    KRASNOSELSKIJ_DIAGONAL,
    KRASNOSELSKIJ_DOUBLE,
    LEFT_DOMAIN,
    MAX_ITER_REACHED,
    PICARD_DOUBLE,
    SCHEMES,
    BivariateOperator,
    Box,
    CoupledPair,
    IterationTrace,
    SchemeConfig,
    get_operator,
    krasnoselskij_diagonal,
    krasnoselskij_double,
    picard_double,
    run_scheme,
    trace_from_json,
    trace_to_csv,
    trace_to_json,
)
from coupledfix.trace_io import format_float
from helpers import (
    blowup,
    dyadic_linear,
    escaper,
    random_linear_operator,
    reference_trace_to_csv,
    reference_trace_to_json,
    sample_in_box,
    undefined_outside,
)


class TestFloatFormat:
    @pytest.mark.parametrize(
        "value",
        [0.1, 1.0 / 3.0, -2.0 / 3.0, 1e-300, 0.75**37 * 3.137, np.nextafter(1.0, 2.0), 0.0],
    )
    def test_round_trips_bitwise(self, value):
        assert float(format_float(value)) == value


def sample_traces():
    f41 = get_operator("example_4_1")
    f21 = get_operator("example_2_1")
    rng = np.random.default_rng(2)
    lin = random_linear_operator(rng, d=3)
    return [
        krasnoselskij_diagonal(
            f41, [1.0], SchemeConfig(KRASNOSELSKIJ_DIAGONAL, theta=0.5, tol=1e-10)
        ),
        krasnoselskij_diagonal(
            f41, [1.0],
            SchemeConfig(KRASNOSELSKIJ_DIAGONAL, theta=0.3, tol=1e-300, max_iter=40),
            target=[0.0],
        ),
        picard_double(f41, [1.0], [1.0], SchemeConfig(PICARD_DOUBLE, max_iter=100)),
        krasnoselskij_double(
            f21, [1.0], [0.0], SchemeConfig(KRASNOSELSKIJ_DOUBLE, theta=0.7, tol=1e-9, seed=5)
        ),
        krasnoselskij_diagonal(
            lin,
            sample_in_box(rng, lin.domain),
            SchemeConfig(KRASNOSELSKIJ_DIAGONAL, theta=0.25, tol=1e-11, max_iter=3000),
        ),
    ]


class TestJsonRoundTrip:
    def test_equality_bitwise(self):
        for trace in sample_traces():
            again = trace_from_json(trace_to_json(trace))
            assert again == trace

    def test_schema_fields(self):
        trace = sample_traces()[0]
        doc = json.loads(trace_to_json(trace))
        assert set(doc) == {
            "scheme", "theta", "tol", "status", "iterates", "residuals",
            "distances", "operator_name", "seed", "max_iter", "guard_domain",
            "cycle_detected",
        }
        assert doc["scheme"] == "krasnoselskij_diagonal"
        assert doc["operator_name"] == "example_4_1"
        assert doc["distances"] is None
        first = doc["iterates"][0]
        assert set(first) == {"n", "x", "y"}
        assert first["n"] == 0

    def test_distances_serialized(self):
        trace = sample_traces()[1]
        doc = json.loads(trace_to_json(trace))
        assert isinstance(doc["distances"], list)
        assert len(doc["distances"]) == len(doc["iterates"])

    def test_cycle_flag_serialized(self):
        trace = sample_traces()[2]
        doc = json.loads(trace_to_json(trace))
        assert doc["cycle_detected"] is True
        assert doc["status"] == "max_iter_reached"

    def test_thinned_trace_round_trip(self, monkeypatch):
        monkeypatch.setattr(iteration_mod, "TRACE_CAP", 20)
        f = get_operator("example_4_1")
        trace = krasnoselskij_diagonal(
            f, [1.0], SchemeConfig(KRASNOSELSKIJ_DIAGONAL, theta=1e-5, tol=1e-300, max_iter=500)
        )
        assert trace.step_indices != list(range(len(trace.step_indices)))
        again = trace_from_json(trace_to_json(trace))
        assert again == trace
        assert again.step_indices == trace.step_indices

    @pytest.mark.parametrize("k", [3, 4], ids=["double_d1", "diagonal_d3"])
    def test_pairs_read_back_are_float_rows_of_their_own(self, k):
        text = trace_to_json(sample_traces()[k])
        pairs = trace_from_json(text).iterates
        d = pairs[0].dim
        for p in pairs:
            for v in p:
                assert type(v) is np.ndarray and v.dtype == np.float64 and v.shape == (d,)
        # Writing into one pair's x leaves every other entry, and that pair's y, as read.
        for j in (0, len(pairs) // 2, len(pairs) - 1):
            pairs[j].x[:] = 7.0
            fresh = trace_from_json(text).iterates
            for i, (p, q) in enumerate(zip(pairs, fresh)):
                assert p.y.tobytes() == q.y.tobytes()
                assert i == j or p.x.tobytes() == q.x.tobytes()
            pairs[j].x[:] = fresh[j].x

    def test_integer_norms_read_back_as_floats(self):
        doc = _short_doc()
        doc["residuals"][1] = 0
        doc["distances"][2] = 3
        trace = trace_from_json(json.dumps(doc))
        assert type(trace.residuals[1]) is float and trace.residuals[1] == 0.0
        assert type(trace.distances_to_target[2]) is float and trace.distances_to_target[2] == 3.0
        assert all(type(v) is float for v in trace.residuals + trace.distances_to_target)
        # The writer writes them back as 0 and 3, and the text reads back to the same trace.
        again = trace_to_json(trace)
        assert json.loads(again)["residuals"][1] == 0 and trace_from_json(again) == trace

    def test_negative_zero_keeps_its_sign(self):
        # format_float(-0.0) writes "-0", which json reads as the integer 0.
        trace = _hand_built(
            iterates=[CoupledPair([-0.0, 0.5], [0.0, -0.0])],
            scheme_config=SchemeConfig(PICARD_DOUBLE, theta=-0.0, guard_domain=False),
        )
        text = trace_to_json(trace)
        assert '"x": [-0, 0.5]' in text
        again = trace_from_json(text)
        assert np.signbit(again.final_pair.x).tolist() == [True, False]
        assert np.signbit(again.final_pair.y).tolist() == [False, True]
        assert math.copysign(1.0, again.scheme_config.theta) == -1.0
        assert trace_to_json(again) == text


def flip():
    # F(x, y) = -x on the widest box: from 1.7e308 every residual |x - F| overflows to inf.
    big = np.finfo(float).max
    return BivariateOperator(
        name="flip", domain=Box([-big], [big]), evaluator=lambda x, y: -x, range_in_domain=True
    )


class TestInfiniteResidual:
    def trace(self):
        cfg = SchemeConfig(PICARD_DOUBLE, max_iter=50)
        return picard_double(flip(), [1.7e308], [1.7e308], cfg, target=[0.0])

    def test_every_residual_is_inf(self):
        trace = self.trace()
        assert trace.residuals == [math.inf] * len(trace.iterates)
        assert all(np.isfinite(p.x).all() and np.isfinite(p.y).all() for p in trace.iterates)

    def test_json_round_trip(self):
        trace = self.trace()
        text = trace_to_json(trace)
        assert trace_from_json(text) == trace
        assert json.loads(text)["residuals"][0] == math.inf

    def test_csv_keeps_inf(self):
        row = trace_to_csv(self.trace()).split("\n")[1].split(",")
        assert float(row[-2]) == math.inf


def _drawn_problem(kind, d, seed):
    """(operator, x0, y0, target) of one drawn run."""
    rng = np.random.default_rng(seed)
    if kind == "linear":
        f = random_linear_operator(rng, d=d)
        return f, sample_in_box(rng, f.domain), sample_in_box(rng, f.domain), f.known_coupled_fixed_points[0].x
    if kind == "flip":
        return flip(), [1.7e308], [1.7e308], [0.0]
    return _BROKEN_OPERATORS[kind](), rng.uniform(-1.0, 1.0, 1), rng.uniform(-1.0, 1.0, 1), [0.0]


_RUN = dict(
    kind="linear", d=1, seed=0, scheme=PICARD_DOUBLE, theta=0.5, tol=1e-12, max_iter=50,
    guard=None, cfg_seed=0, with_target=True, cap=iteration_mod.TRACE_CAP,
)
drawn_runs = st.fixed_dictionaries({
    "kind": st.sampled_from(["linear", "escaper", "undefined_outside", "blowup", "flip"]),
    "d": st.integers(1, 5),
    "seed": st.integers(0, 2**32 - 1),
    "scheme": st.sampled_from(SCHEMES),
    "theta": st.floats(0.01, 0.99),
    "tol": st.sampled_from([1e-300, 1e-12, 1e-6]),
    "max_iter": st.integers(1, 80),
    "guard": st.sampled_from([None, True, False]),
    "cfg_seed": st.integers(0, 2**63 - 1),
    "with_target": st.booleans(),
    "cap": st.sampled_from([2, 7, iteration_mod.TRACE_CAP]),  # small caps thin the trace
})


@settings(deadline=None, max_examples=150)
@given(drawn_runs)
@example({**_RUN, "kind": "flip"})  # every residual is inf
@example({**_RUN, "scheme": KRASNOSELSKIJ_DOUBLE, "d": 3, "max_iter": 1000})  # converged
@example({**_RUN, "max_iter": 40, "cap": 7})  # max_iter_reached, thinned
@example({**_RUN, "kind": "escaper", "scheme": KRASNOSELSKIJ_DIAGONAL})  # left_domain
@example({**_RUN, "kind": "undefined_outside", "scheme": KRASNOSELSKIJ_DOUBLE})  # left_domain
@example({**_RUN, "kind": "blowup"})  # diverged_nonfinite
def test_json_round_trip_property(run):
    f, x0, y0, target = _drawn_problem(run["kind"], run["d"], run["seed"])
    cfg = SchemeConfig(
        run["scheme"], theta=run["theta"], tol=run["tol"], max_iter=run["max_iter"],
        guard_domain=run["guard"], seed=run["cfg_seed"],
    )
    with mock.patch.object(iteration_mod, "TRACE_CAP", run["cap"]):
        trace = run_scheme(f, cfg, x0, y0, target if run["with_target"] else None)
    event(trace.status)
    text = trace_to_json(trace)
    again = trace_from_json(text)
    assert again == trace
    assert trace_to_json(again) == text


FLOAT_MAX = 1.7976931348623157e308
# Coordinates and norms at the edges of the 17-digit spelling: signed zeros,
# the least subnormal, the float maximum, and 1e16, where %g switches to
# exponent form. Norms may be inf, which JSON writes 1e999 and CSV inf.
edge_coordinates = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, FLOAT_MAX, -FLOAT_MAX, 1e16, -1e16, 0.1])
edge_norms = st.sampled_from([0.0, 5e-324, 1e16, FLOAT_MAX, math.inf])


@st.composite
def drawn_traces(draw):
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    coordinates = edge_coordinates | st.floats(allow_nan=False, allow_infinity=False)
    norms = edge_norms | st.floats(min_value=0.0, allow_nan=False)
    vector = st.lists(coordinates, min_size=d, max_size=d)
    column = st.lists(norms, min_size=m, max_size=m)
    gaps = draw(st.lists(st.integers(1, 1000), min_size=m - 1, max_size=m - 1))
    cfg = SchemeConfig(
        draw(st.sampled_from(SCHEMES)), theta=draw(st.floats(0.01, 0.99)), tol=draw(st.floats(1e-300, 1.0)),
        max_iter=draw(st.integers(1, 10**6)), guard_domain=draw(st.booleans()), seed=draw(st.integers(0, 2**63)),
    )
    return IterationTrace(
        step_indices=[0, *itertools.accumulate(gaps)],
        iterates=[CoupledPair(draw(vector), draw(vector)) for _ in range(m)],
        residuals=draw(column),
        distances_to_target=draw(st.none() | column),
        status=draw(st.sampled_from([CONVERGED, MAX_ITER_REACHED, DIVERGED_NONFINITE, LEFT_DOMAIN])),
        scheme_config=cfg,
        operator_name=draw(st.text(max_size=8)),
        cycle_detected=draw(st.booleans()),
    )


def _edge_trace(distances):
    return IterationTrace(
        step_indices=[0, 1, 7],
        iterates=[
            CoupledPair([-0.0, 5e-324], [FLOAT_MAX, -FLOAT_MAX]),
            CoupledPair([1e16, -1e16], [0.0, -5e-324]),
            CoupledPair([0.1, 1.0 / 3.0], [-0.0, 1e-300]),
        ],
        residuals=[math.inf, 1e16, 5e-324],
        distances_to_target=distances,
        status=MAX_ITER_REACHED,
        scheme_config=SchemeConfig(PICARD_DOUBLE, theta=0.5, max_iter=7),
        operator_name="edges",
    )


# How an entry's y is made from its x: the same bits, x with one zero's sign
# flipped, or x with one coordinate moved by one ulp. The writers format a
# trace whose every y is its x once per coordinate; the other two must not share text.
_TWINS = ("same", "zero_sign", "ulp")


def _twin(x: list[float], kind: str, i: int, up: bool) -> tuple[list[float], list[float]]:
    x, y = list(x), list(x)
    if kind == "zero_sign":
        x[i] = -0.0 if up else 0.0
        y[i] = -x[i]
    elif kind == "ulp":
        moved = math.nextafter(x[i], math.inf if up else -math.inf)
        y[i] = moved if math.isfinite(moved) else math.nextafter(x[i], 0.0)
    return x, y


@st.composite
def near_diagonal_traces(draw):
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    coordinates = edge_coordinates | st.floats(allow_nan=False, allow_infinity=False)
    # Mostly diagonal traces, with any one entry (or several) made unequal in the last bit.
    kinds = draw(st.lists(st.sampled_from(_TWINS), min_size=m, max_size=m) | st.just(["same"] * m))
    iterates = []
    for kind in kinds:
        x = draw(st.lists(coordinates, min_size=d, max_size=d))
        iterates.append(CoupledPair(*_twin(x, kind, draw(st.integers(0, d - 1)), draw(st.booleans()))))
    event("diagonal" if set(kinds) == {"same"} else "not diagonal")
    norms = st.lists(edge_norms, min_size=m, max_size=m)
    return IterationTrace(
        step_indices=list(range(m)),
        iterates=iterates,
        residuals=draw(norms),
        distances_to_target=draw(st.none() | norms),
        status=MAX_ITER_REACHED,
        scheme_config=SchemeConfig(KRASNOSELSKIJ_DOUBLE, max_iter=m),
        operator_name="twins",
    )


def _twin_trace(kinds, x):
    return IterationTrace(
        step_indices=list(range(len(kinds))),
        iterates=[CoupledPair(*_twin(x, kind, 0, True)) for kind in kinds],
        residuals=[1.0] * len(kinds),
        distances_to_target=None,
        status=MAX_ITER_REACHED,
        scheme_config=SchemeConfig(KRASNOSELSKIJ_DIAGONAL, max_iter=len(kinds)),
        operator_name="twins",
    )


@settings(deadline=None, max_examples=400)
@given(drawn_traces() | near_diagonal_traces())
@example(_edge_trace([math.inf, FLOAT_MAX, 0.0]))
@example(_edge_trace(None))
@example(_twin_trace(["same", "same", "zero_sign"], [0.5, 0.0]))  # only the last entry differs
@example(_twin_trace(["same", "ulp", "same"], [FLOAT_MAX, 1e16]))  # the ulp moves down from the maximum
@example(_twin_trace(["same"] * 3, [-0.0, 5e-324]))  # diagonal, a -0.0 in both components
def test_writers_match_the_reference_writers(trace):
    assert trace_to_csv(trace) == reference_trace_to_csv(trace)
    assert trace_to_json(trace) == reference_trace_to_json(trace)


class TestJsonRejects:
    @pytest.mark.parametrize(
        "key, value", [("scheme", "banach"), ("theta", 7), ("max_iter", 2.5), ("seed", "0"), ("tol", 0)]
    )
    def test_invalid_config_names_the_field(self, key, value):
        doc = json.loads(trace_to_json(sample_traces()[0]))
        doc[key] = value
        with pytest.raises(ValueError, match=f"^{key}"):
            trace_from_json(json.dumps(doc))


    @pytest.mark.parametrize("key", sorted(json.loads(trace_to_json(sample_traces()[1]))))
    def test_missing_key_named(self, key):
        doc = json.loads(trace_to_json(sample_traces()[1]))
        del doc[key]
        with pytest.raises(ValueError, match=f"'{key}'"):
            trace_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["n", "x", "y"])
    def test_missing_iterate_key_named(self, key):
        doc = json.loads(trace_to_json(sample_traces()[1]))
        del doc["iterates"][1][key]
        with pytest.raises(ValueError, match=f"iterates\\[1\\].*'{key}'"):
            trace_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["residuals", "distances"])
    def test_list_length_must_match_iterates(self, key):
        doc = json.loads(trace_to_json(sample_traces()[1]))
        for name in ("iterates", "residuals", "distances"):
            doc[name] = doc[name][:2]
        trace_from_json(json.dumps(doc))
        for bad in (doc[key][:1], doc[key] * 2):
            with pytest.raises(ValueError, match=f"^{key} has {len(bad)} entries, iterates has 2$"):
                trace_from_json(json.dumps({**doc, key: bad}))


def _hand_built(**changes) -> IterationTrace:
    # One converged entry, built by hand as a library caller would.
    fields = dict(
        step_indices=[0], iterates=[CoupledPair([0.0], [0.0])], residuals=[0.0], distances_to_target=None,
        status="converged", scheme_config=SchemeConfig(PICARD_DOUBLE, guard_domain=False), operator_name="hand",
    )
    return IterationTrace(**{**fields, **changes})


class TestTraceBuiltOnlyIfReadable:
    # A trace that trace_from_json would reject is refused when it is built.
    def test_hand_built_trace_round_trips(self):
        trace = _hand_built(distances_to_target=[0.5])
        assert trace_from_json(trace_to_json(trace)) == trace

    def test_default_config_round_trips(self):
        trace = _hand_built(scheme_config=SchemeConfig(PICARD_DOUBLE))
        assert trace_from_json(trace_to_json(trace)) == trace

    def test_at_least_one_entry(self):
        with pytest.raises(ValueError, match=r"^iterates must be a non-empty array, got \[\]$"):
            _hand_built(step_indices=[], iterates=[], residuals=[])

    @pytest.mark.parametrize(
        "field, key, value",
        [("step_indices", "step_indices", [0, 1]), ("residuals", "residuals", [0.0, 0.0]),
         ("residuals", "residuals", []), ("distances_to_target", "distances", [0.5, 0.5])],
    )
    def test_lists_as_long_as_iterates(self, field, key, value):
        with pytest.raises(ValueError, match=f"^{key} has {len(value)} entries, iterates has 1$"):
            _hand_built(**{field: value})
        with pytest.raises(ValueError, match=f"^{key} has {len(value)} entries"):
            dataclasses.replace(_hand_built(), **{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("status", "done", "status must be one of ('converged', 'max_iter_reached', 'diverged_nonfinite', "
             "'left_domain'), got 'done'"),
            ("operator_name", 5, "operator_name must be a string, got 5"),
            ("cycle_detected", "no", "cycle_detected must be a boolean, got 'no'"),
        ],
        ids=["status", "operator_name", "cycle_detected"],
    )
    def test_values_refused_with_the_readers_message(self, field, value, message):
        builds = (lambda: _hand_built(**{field: value}), lambda: dataclasses.replace(_hand_built(), **{field: value}))
        for build in builds:
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            trace_from_json(json.dumps({**_short_doc(), field: value}))
        assert str(err.value) == message

    # A relaxed unguarded run at d = 1 takes the engine's float loop, a Picard run its block loop.
    @pytest.mark.parametrize("scheme", [KRASNOSELSKIJ_DIAGONAL, PICARD_DOUBLE], ids=["float_loop", "block_loop"])
    def test_fields_of_a_built_trace_cannot_be_assigned(self, scheme):
        # An assignment would skip the checks above: the writer would then write "done".
        trace = run_scheme(get_operator("example_4_1"), SchemeConfig(scheme, max_iter=5), [0.5], [0.25])
        for field, value in (("status", "done"), ("cycle_detected", "no"), ("residuals", [])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(trace, field, value)
        assert trace_from_json(trace_to_json(trace)) == trace
        trace.iterates[-1] = trace.iterates[0]  # the lists themselves stay lists, as perfbench's checks need


def _short_doc():
    # The first four entries of a diagonal trace with a target: steps 0..3.
    doc = json.loads(trace_to_json(sample_traces()[1]))
    for name in ("iterates", "residuals", "distances"):
        doc[name] = doc[name][:4]
    trace_from_json(json.dumps(doc))
    return doc


class TestJsonRejectsWhatTheWriterCannotWrite:
    @pytest.mark.parametrize(
        "steps, k",
        [([0, 1.5, 2, 3], 1), ([0, 1, 7, 3], 3), ([1, 2, 3, 4], 0), ([0, 1, 1, 2], 2), ([0, True, 2, 3], 1)],
    )
    def test_step_indices_rise_from_zero(self, steps, k):
        doc = _short_doc()
        for entry, n in zip(doc["iterates"], steps):
            entry["n"] = n
        with pytest.raises(ValueError, match=rf"^iterates\[{k}\] has n = {steps[k]}: step indices are integers"):
            trace_from_json(json.dumps(doc))

    def test_iterates_share_one_dimension(self):
        doc = _short_doc()
        doc["iterates"][2].update(x=[0.25, 0.5], y=[0.25, 0.5])
        with pytest.raises(ValueError, match=r"^iterates\[2\] has dimension 2, iterates\[0\] has 1$"):
            trace_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "coordinates", [["0.5"], [True], 0.5, [[0.5]], [], "ab", None, [10**400], [float("nan")]]
    )
    def test_coordinates_are_arrays_of_finite_numbers(self, coordinates):
        doc = _short_doc()
        doc["iterates"][1]["y"] = coordinates
        with pytest.raises(ValueError, match=r"^iterates\[1\]: "):
            trace_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("x", "1e400", "x has non-finite coordinates"),  # a literal: json reads it as inf
            ("x", [10**400], "x has non-finite coordinates"),
            ("x", [], "x must be a 1-D sequence of reals, got shape (0,)"),
            ("y", [], "y must be a 1-D sequence of reals, got shape (0,)"),
            ("y", [0.5, 0.25], "pair components differ in dimension: 1 vs 2"),
            ("x", [0.5, 0.25], "pair components differ in dimension: 2 vs 1"),
        ],
        ids=["literal_1e400", "int_10_400", "empty_x", "empty_y", "longer_y", "longer_x"],
    )
    def test_bad_coordinates_after_the_first_entry_keep_the_whole_message(self, key, value, message):
        doc = _short_doc()
        doc["iterates"][2][key] = ["LITERAL"] if value == "1e400" else value
        text = json.dumps(doc).replace('"LITERAL"', "1e400")
        with pytest.raises(ValueError, match=f"^{re.escape('iterates[2]: ' + message)}$"):
            trace_from_json(text)

    def test_an_entry_of_another_dimension_after_the_first_keeps_the_whole_message(self):
        doc = _short_doc()
        doc["iterates"][3].update(x=[0.5, 0.25], y=[0.5, 0.25])
        with pytest.raises(ValueError, match=r"^iterates\[3\] has dimension 2, iterates\[0\] has 1$"):
            trace_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "later",
        [{"n": 7}, {"x": "0.5"}, {"y": None}, {"z": 1}],
        ids=["bad_n", "string_x", "null_y", "extra_key"],
    )
    @pytest.mark.parametrize(
        "earlier, message",
        [
            ({"x": [10**400]}, "iterates[1]: x has non-finite coordinates"),
            ({"x": [0.5, 0.25]}, "iterates[1]: pair components differ in dimension: 2 vs 1"),
            ({"x": [0.5, 0.25], "y": [0.5, 0.25]}, "iterates[1] has dimension 2, iterates[0] has 1"),
        ],
        ids=["non_finite", "ragged_pair", "other_dimension"],
    )
    def test_a_bad_value_is_named_before_a_later_entrys_bad_structure(self, earlier, message, later):
        # Entries are read in order, so the first fault found is the first entry's.
        doc = _short_doc()
        doc["iterates"][1].update(earlier)
        doc["iterates"][2].update(later)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            trace_from_json(json.dumps(doc))

    @pytest.mark.parametrize("entry", [5, [0, [1.0], [1.0]], {"n": 1, "x": [0.5], "y": [0.5], "z": 1}])
    def test_each_iterate_is_an_object_with_keys_n_x_y(self, entry):
        doc = _short_doc()
        doc["iterates"][1] = entry
        with pytest.raises(ValueError, match=r"^iterates\[1\] "):
            trace_from_json(json.dumps(doc))

    def test_iterates_not_empty(self):
        doc = {**_short_doc(), "iterates": [], "residuals": [], "distances": []}
        with pytest.raises(ValueError, match="^iterates must be a non-empty array"):
            trace_from_json(json.dumps(doc))

    @pytest.mark.parametrize("status", ["done", "CONVERGED", 5, None])
    def test_status_is_one_of_four(self, status):
        with pytest.raises(ValueError, match="^status must be one of"):
            trace_from_json(json.dumps({**_short_doc(), "status": status}))

    @pytest.mark.parametrize("key", ["cycle_detected", "guard_domain"])
    @pytest.mark.parametrize("value", ["no", "false", 1, 0, None])
    def test_flags_are_json_booleans(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be a boolean"):
            trace_from_json(json.dumps({**_short_doc(), key: value}))

    @pytest.mark.parametrize("key", ["residuals", "distances"])
    # json.dumps writes math.inf as Infinity, which is not JSON; the writer spells it 1e999.
    @pytest.mark.parametrize("value", ["nan", True, float("nan"), -0.5, None, [1.0], 10**400, math.inf])
    def test_norms_are_numbers_at_least_zero(self, key, value):
        doc = _short_doc()
        doc[key][2] = value
        with pytest.raises(ValueError, match=rf"^{key}\[2\] must be a number >= 0"):
            trace_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["residuals", "distances"])
    @pytest.mark.parametrize("literal", ["1e400", "1E999", "1e+999", "1.0e999", "10e998", "2e308"])
    def test_overflowing_literal_other_than_1e999_names_its_key(self, key, literal):
        # Each reads as inf, but the writer spells inf 1e999 only, so the rewrite would differ.
        doc = _short_doc()
        doc[key][2] = "INF"
        text = json.dumps(doc).replace('"INF"', literal)
        with pytest.raises(ValueError, match=rf"^{key}\[2\] must be a number >= 0, got {re.escape(literal)}$"):
            trace_from_json(text)

    @pytest.mark.parametrize("key", ["residuals", "distances"])
    def test_writers_1e999_reads_back_as_inf(self, key):
        doc = _short_doc()
        doc[key][2] = "INF"
        text = json.dumps(doc).replace('"INF"', "1e999")
        trace = trace_from_json(text)
        values = trace.residuals if key == "residuals" else trace.distances_to_target
        assert values[2] == math.inf
        assert json.loads(trace_to_json(trace))[key][2] == math.inf

    @pytest.mark.parametrize("key", ["iterates", "residuals", "distances"])
    def test_lists_are_json_arrays(self, key):
        doc = _short_doc()
        with pytest.raises(ValueError, match=f"^{key} must be "):
            trace_from_json(json.dumps({**doc, key: {str(k): v for k, v in enumerate(doc[key])}}))

    @pytest.mark.parametrize("name", [5, None, ["example_4_1"], math.nan])
    def test_operator_name_is_a_string(self, name):
        with pytest.raises(ValueError, match="^operator_name must be a string"):
            trace_from_json(json.dumps({**_short_doc(), "operator_name": name}))

    @pytest.mark.parametrize(
        "key, value", [("max_iter", True), ("max_iter", 40.0), ("seed", 0.0), ("theta", False)]
    )
    def test_config_numbers_have_their_json_type(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be "):
            trace_from_json(json.dumps({**_short_doc(), key: value}))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"seed": 0', '"seed": {}', "seed must be an integer"),
            ('"max_iter": 3', '"max_iter": {}', "max_iter must be an integer"),
            ('"x": [1]', '"x": [{}]', r"iterates\[0\]: x and y must be arrays of numbers"),
        ],
    )
    def test_integer_past_the_digit_limit_names_its_key(self, old, new, message):
        # Python's int() refuses more than 4300 digits, and json.dumps cannot write
        # such an integer either, so it goes into the writer's text by hand.
        f = get_operator("example_4_1")
        text = trace_to_json(krasnoselskij_diagonal(f, [1.0], SchemeConfig(KRASNOSELSKIJ_DIAGONAL, max_iter=3)))
        assert old in text
        with pytest.raises(ValueError, match=f"^{message}, got "):
            trace_from_json(text.replace(old, new.format("9" * 5001), 1))

    def test_unknown_key_named(self):
        with pytest.raises(ValueError, match="^trace has an unknown key 'schema'$"):
            trace_from_json(json.dumps({**_short_doc(), "schema": 1}))

    @pytest.mark.parametrize("text", ["[]", "5", '"trace"', "null"])
    def test_document_is_an_object(self, text):
        with pytest.raises(ValueError, match="^trace must be a JSON object"):
            trace_from_json(text)

    @pytest.mark.parametrize(
        "text", ["[" * 100_000, '{"scheme": ' + "[" * 100_000 + "]" * 100_000 + "}"], ids=["unclosed", "closed"]
    )
    def test_document_nested_too_deep(self, text):
        with pytest.raises(ValueError, match="^trace is nested too deep to read$"):
            trace_from_json(text)


class TestCsv:
    def test_columns_and_values(self):
        trace = sample_traces()[1]
        lines = trace_to_csv(trace).strip().split("\n")
        assert lines[0] == "n,x0,y0,residual,distance_to_target"
        assert len(lines) == len(trace.iterates) + 1
        cells = lines[1].split(",")
        assert int(cells[0]) == 0
        assert float(cells[1]) == trace.iterates[0].x[0]
        assert float(cells[3]) == trace.residuals[0]
        assert float(cells[4]) == trace.distances_to_target[0]

    def test_empty_distance_column(self):
        trace = sample_traces()[0]
        lines = trace_to_csv(trace).strip().split("\n")
        assert lines[1].endswith(",")

    def test_multidim_header(self):
        rng = np.random.default_rng(8)
        lin = random_linear_operator(rng, d=2)
        trace = krasnoselskij_diagonal(
            lin,
            sample_in_box(rng, lin.domain),
            SchemeConfig(KRASNOSELSKIJ_DIAGONAL, theta=0.5, max_iter=50),
        )
        header = trace_to_csv(trace).split("\n", 1)[0]
        assert header == "n,x0,x1,y0,y1,residual,distance_to_target"


# ---------------------------------------------------------------- pinned bytes


def _start(d, seed):
    # Multiples of 1/8 inside every test box, so the start holds exactly.
    return (np.random.default_rng(seed).integers(-8, 9, size=d) / 8.0).tolist()


# problem -> (operator factory, x0, y0, target)
_TRACED_PROBLEMS = {
    "example_2_1": (lambda: get_operator("example_2_1"), [0.6], [-0.35], [0.0]),
    "example_2_2": (lambda: get_operator("example_2_2"), [3.0], [-2.5], [1.0]),
    "example_4_1": (lambda: get_operator("example_4_1"), [0.8], [-0.45], [0.0]),
    **{
        f"linear_{d}": (lambda d=d: dyadic_linear(d), _start(d, 200 + d), _start(d, 300 + d), None)
        for d in (1, 10, 100)
    },
}
_BROKEN_OPERATORS = {"escaper": escaper, "undefined_outside": undefined_outside, "blowup": blowup}


def _pinned_trace(name):
    problem, scheme, variant = name.split("/")
    if problem in _BROKEN_OPERATORS:
        f = _BROKEN_OPERATORS[problem]()
        cfg = SchemeConfig(scheme, theta=0.9, max_iter=50)
        with np.errstate(over="ignore"):
            return run_scheme(f, cfg, [0.5], [0.25])
    build, x0, y0, target = _TRACED_PROBLEMS[problem]
    f = build()
    if target is None:
        target = f.known_coupled_fixed_points[0].x
    guard = {"false": False, "guard": True}[variant]
    cfg = SchemeConfig(scheme, theta=0.3, tol=1e-12, max_iter=3000, guard_domain=guard)
    return run_scheme(f, cfg, x0, y0, target)


# First 16 hex digits of sha256(trace_to_json(trace)) for each run: every
# scheme with guard_domain False and True on the three examples and the dyadic
# linear operators at d = 1, 10 and 100 (theta 0.3, tol 1e-12, max_iter 3000,
# with a target), and every scheme on three operators that break the engine's
# assumptions. Recorded before the code they pin was simplified. Runs at
# d >= 10 go through BLAS (matrix-vector products and dot products), so their
# bits are those of the BLAS build they were recorded with.
PINNED_TRACE_DIGESTS = {
    "blowup/krasnoselskij_diagonal/plain": "d4ba974d272c1183",  # diverged_nonfinite 0
    "blowup/krasnoselskij_double/plain": "2191f66bfadfc7f6",  # diverged_nonfinite 0
    "blowup/picard_double/plain": "5a3ed8d11be92819",  # diverged_nonfinite 0
    "escaper/krasnoselskij_diagonal/plain": "a7313d12adacf088",  # left_domain 1
    "escaper/krasnoselskij_double/plain": "8634314ca745ec02",  # left_domain 1
    "escaper/picard_double/plain": "e51d124e4a4625d8",  # left_domain 1
    "example_2_1/krasnoselskij_diagonal/false": "30f19d9c2371d5b7",  # converged 54
    "example_2_1/krasnoselskij_diagonal/guard": "f3b01c3f66a3d022",  # converged 54
    "example_2_1/krasnoselskij_double/false": "106a03ecbde4acbb",  # converged 51
    "example_2_1/krasnoselskij_double/guard": "59f32e2b3efcd124",  # converged 51
    "example_2_1/picard_double/false": "4378eb17fde0dc4b",  # converged 24
    "example_2_1/picard_double/guard": "6213134cbdcde198",  # converged 24
    "example_2_2/krasnoselskij_diagonal/false": "ef22fd48b13f6f4e",  # converged 43
    "example_2_2/krasnoselskij_diagonal/guard": "ef22fd48b13f6f4e",  # converged 43
    "example_2_2/krasnoselskij_double/false": "f73edbeaadb8be46",  # max_iter_reached 3000
    "example_2_2/krasnoselskij_double/guard": "f73edbeaadb8be46",  # max_iter_reached 3000
    "example_2_2/picard_double/false": "160168b6de2f9943",  # converged 3
    "example_2_2/picard_double/guard": "160168b6de2f9943",  # converged 3
    "example_4_1/krasnoselskij_diagonal/false": "d75c90d2f5f44cad",  # converged 31
    "example_4_1/krasnoselskij_diagonal/guard": "c6a28f70dd1c3525",  # converged 31
    "example_4_1/krasnoselskij_double/false": "34b17338ef6d4716",  # converged 77
    "example_4_1/krasnoselskij_double/guard": "b52f60ca6e40a586",  # converged 77
    "example_4_1/picard_double/false": "d59577f52c3a9551",  # max_iter_reached 3
    "example_4_1/picard_double/guard": "5eec14cf87fa037c",  # max_iter_reached 3
    "linear_1/krasnoselskij_diagonal/false": "8ecee11fbba3588d",  # converged 117
    "linear_1/krasnoselskij_diagonal/guard": "09f59b17a0a79448",  # converged 117
    "linear_1/krasnoselskij_double/false": "493f125efb14694b",  # converged 117
    "linear_1/krasnoselskij_double/guard": "fb1df0e510848856",  # converged 117
    "linear_1/picard_double/false": "cfdb039bbbdb3113",  # converged 68
    "linear_1/picard_double/guard": "7faed83cb529bee1",  # converged 68
    "linear_10/krasnoselskij_diagonal/false": "4083e6842b3722c1",  # converged 93
    "linear_10/krasnoselskij_diagonal/guard": "3d472fd7ea18cf4e",  # converged 93
    "linear_10/krasnoselskij_double/false": "cbc8a4ecb305b08e",  # converged 94
    "linear_10/krasnoselskij_double/guard": "d11702bde947e05b",  # converged 94
    "linear_10/picard_double/false": "cfd100b174e61c0d",  # converged 15
    "linear_10/picard_double/guard": "9d983a58e2bee614",  # converged 15
    "linear_100/krasnoselskij_diagonal/false": "466a63058ecdcd33",  # converged 86
    "linear_100/krasnoselskij_diagonal/guard": "eaedffe140818b29",  # converged 86
    "linear_100/krasnoselskij_double/false": "32be245b6d77172e",  # converged 86
    "linear_100/krasnoselskij_double/guard": "acec12283ae3c28e",  # converged 86
    "linear_100/picard_double/false": "7bfe4266e8da3693",  # converged 10
    "linear_100/picard_double/guard": "8ce91da0d188ebda",  # converged 10
    "undefined_outside/krasnoselskij_diagonal/plain": "8bc893e89fedb225",  # left_domain 1
    "undefined_outside/krasnoselskij_double/plain": "a962cabb8372947f",  # left_domain 1
    "undefined_outside/picard_double/plain": "06380069aed41ffd",  # left_domain 1
}


@pytest.mark.parametrize("name", sorted(PINNED_TRACE_DIGESTS))
def test_pinned_trace_json_digests(name):
    text = trace_to_json(_pinned_trace(name))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINNED_TRACE_DIGESTS[name]
