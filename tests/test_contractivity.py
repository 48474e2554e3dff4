import hashlib
import json
import signal
from math import inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coupledfix.contractivity as contractivity_mod

from coupledfix import (
    BivariateOperator,
    Box,
    Witness,
    analyze_operator,
    classify,
    draw_quadruples,
    estimate_constants,
    get_operator,
    make_linear_operator,
    norm,
    report_to_dict,
    report_to_json,
    witness_ratio,
)
from coupledfix.contractivity import (
    CONTRACTION_CANDIDATE,
    MARGIN,
    NONEXPANSIVE_CANDIDATE,
    REFUTED_CONTRACTION,
    REFUTED_NONEXPANSIVE,
    REFUTED_WEAKLY_NONEXPANSIVE,
    WEAKLY_NONEXPANSIVE_CANDIDATE,
    WITNESS_AXIS_A,
    WITNESS_AXIS_B,
    WITNESS_NONEXPANSIVE,
    WITNESS_WEAKLY_NONEXPANSIVE,
)
from helpers import dyadic_linear


def constant_operator(c=0.4):
    return BivariateOperator(
        name="constant",
        domain=Box([-1.0], [1.0]),
        evaluator=lambda x, y: np.full_like(x, c),
        range_in_domain=True,
    )


class TestEstimateConstants:
    def test_skew_map_recovers_both_ratios(self):
        f = get_operator("example_2_1")
        report = estimate_constants(f, 10_000, seed=42)
        assert abs(report.a_hat - 1.0 / 3.0) <= 1e-9
        assert abs(report.b_hat - 2.0 / 3.0) <= 1e-9
        assert report.samples_used == 20_000

    def test_constant_operator_zero_ratios(self):
        report = estimate_constants(constant_operator(), 500, seed=1)
        assert report.a_hat == 0.0
        assert report.b_hat == 0.0

    def test_quadratic_map_ratios(self):
        f = get_operator("example_2_2")
        report = estimate_constants(f, 10_000, seed=42)
        # First-argument ratio is |x + u|, supremum 8 over [-4, 4]; the
        # sampled maximum is a lower bound that clears 7.9 at this seed.
        assert 7.9 <= report.a_hat <= 8.0 + 1e-9
        assert abs(report.b_hat - 2.0) <= 1e-12

    def test_degenerate_domain_rejected(self):
        f = BivariateOperator(
            name="point", domain=Box([1.0], [1.0]), evaluator=lambda x, y: x
        )
        with pytest.raises(ValueError, match="cannot vary arguments"):
            estimate_constants(f, 10, seed=0)

    def test_box_narrower_than_min_separation_rejected_promptly(self):
        # No pair drawn from a box of diameter 1e-13 is MIN_SEPARATION = 1e-12
        # apart, so resampling could never end: reject the domain up front.
        f = BivariateOperator(name="tiny", domain=Box([0.0], [1e-13]), evaluator=lambda x, y: x)
        assert not f.domain.is_degenerate()

        def too_slow(signum, frame):
            raise TimeoutError("estimate_constants did not return within 2 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            with pytest.raises(ValueError, match="MIN_SEPARATION"):
                estimate_constants(f, 10, seed=0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError, match="n_samples"):
            estimate_constants(get_operator("example_2_1"), 0, seed=0)

    @pytest.mark.parametrize("draw", [estimate_constants, analyze_operator, draw_quadruples])
    def test_box_too_wide_to_draw_from_rejected(self, draw):
        # upper - lower overflows, and numpy cannot draw uniformly over it.
        big = np.finfo(float).max
        f = make_linear_operator([[0.5, 0.0], [0.0, 0.5]], [[0.25, 0.0], [0.0, 0.25]], [0.0, 0.0],
                                 Box([-1.0, -big], [1.0, big]))
        with pytest.raises(ValueError, match=r"width of coordinate 1 .*overflows"):
            draw(f, 10, 0)

    def test_images_past_the_float_range_emit_no_warning(self):
        # F(x, y) = 1e308 x on [-1, 1]: image differences overflow to inf.
        f = make_linear_operator([[1e308]], [[0.0]], [0.0], Box([-1.0], [1.0]))
        report = analyze_operator(f, 50, 1)
        assert REFUTED_WEAKLY_NONEXPANSIVE in report.classification
        assert np.inf in [w.ratio for w in report.violations]
        for w in report.violations:
            assert witness_ratio(f, w) == w.ratio

    def test_ratios_whose_squares_underflow(self):
        # The image differences of A = diag(1e-170, 0) have squares near 1e-340, below the
        # float range; B = 0 makes every second-argument difference an all-zero row.
        f = make_linear_operator([[1e-170, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0],
                                 Box([-1.0, -1.0], [1.0, 1.0]))
        report = analyze_operator(f, 200, 1)
        assert 0.0 < report.a_hat <= 1e-170
        assert report.b_hat == 0.0

    def test_axis_witnesses_reproduce_hats(self):
        f = get_operator("example_2_2")
        report = estimate_constants(f, 2_000, seed=7)
        wa, wb = report.violations
        assert wa.kind == WITNESS_AXIS_A and wb.kind == WITNESS_AXIS_B
        assert np.array_equal(wa.y, wa.v)
        assert np.array_equal(wb.x, wb.u)
        assert wa.ratio == report.a_hat
        assert wb.ratio == report.b_hat

    def test_monotone_in_sample_count(self):
        # Nested draws: hats can only grow as samples are appended.
        f = get_operator("example_2_2")
        hats = [
            (r.a_hat, r.b_hat)
            for r in (estimate_constants(f, n, seed=5) for n in (100, 500, 2_000, 5_000))
        ]
        for (a1, b1), (a2, b2) in zip(hats, hats[1:]):
            assert a2 >= a1
            assert b2 >= b1

    def test_linear_family_bounded_by_operator_norms(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            d = int(rng.integers(1, 6))
            m1 = rng.standard_normal((d, d))
            m2 = rng.standard_normal((d, d))
            alpha, beta = rng.uniform(0.1, 0.6, size=2)
            a = m1 * (alpha / np.linalg.norm(m1, 2))
            b = m2 * (beta / np.linalg.norm(m2, 2))
            f_lin = make_linear_operator(a, b, np.zeros(d), Box(-np.ones(d), np.ones(d)))
            report = estimate_constants(f_lin, 2_000, seed=int(rng.integers(1 << 30)))
            assert report.a_hat <= alpha + 1e-9
            assert report.b_hat <= beta + 1e-9


# classify coerces its quadruples once and names them; an empty sequence means no samples.
_QUAD_SHAPE = "general_samples must have shape (n, 4, 1), got shape"
GENERAL_SAMPLES_MESSAGES = {
    "three_points_a_row": (np.zeros((5, 3, 1)), f"{_QUAD_SHAPE} (5, 3, 1)"),
    "no_coordinate_axis": (np.zeros((5, 4)), f"{_QUAD_SHAPE} (5, 4)"),
    "dimension_2": (np.zeros((5, 4, 2)), f"{_QUAD_SHAPE} (5, 4, 2)"),
    "scalar": (0.5, f"{_QUAD_SHAPE} ()"),
    "nan_in_y": ([[[0.0], [np.nan], [0.0], [0.0]]], "general_samples has non-finite coordinates"),
    "string": ("abc", "general_samples is not an array of reals: could not convert string to float: 'abc'"),
}


class TestClassify:
    def test_skew_map_labels(self):
        f = get_operator("example_2_1")
        report = analyze_operator(f, 10_000, seed=42)
        assert REFUTED_NONEXPANSIVE in report.classification
        assert REFUTED_CONTRACTION in report.classification
        assert WEAKLY_NONEXPANSIVE_CANDIDATE in report.classification
        assert REFUTED_WEAKLY_NONEXPANSIVE not in report.classification
        assert report.boundary  # a_hat + b_hat sits exactly on the simplex

    def test_averaging_map_labels(self):
        f = get_operator("example_4_1")
        report = analyze_operator(f, 10_000, seed=42)
        assert report.a_hat == pytest.approx(0.5, abs=1e-12)
        assert report.b_hat == pytest.approx(0.5, abs=1e-12)
        assert NONEXPANSIVE_CANDIDATE in report.classification
        assert WEAKLY_NONEXPANSIVE_CANDIDATE in report.classification
        assert REFUTED_CONTRACTION in report.classification

    def test_quadratic_map_labels(self):
        f = get_operator("example_2_2")
        report = analyze_operator(f, 10_000, seed=42)
        assert REFUTED_WEAKLY_NONEXPANSIVE in report.classification
        assert REFUTED_NONEXPANSIVE in report.classification
        assert REFUTED_CONTRACTION in report.classification
        assert not report.boundary

    def test_axis_hats_above_the_simplex_refute_weak_nonexpansiveness(self):
        # F(x, y) = (0.6 x1, 0.6 y2): no single quadruple breaks the max bound
        # (||dF|| <= 0.6 sqrt(2) max), but the axis witnesses force a, b >= 0.6,
        # so no admissible pair has a + b <= 1.
        f = make_linear_operator(
            np.diag([0.6, 0.0]), np.diag([0.0, 0.6]), np.zeros(2), Box([-1.0, -1.0], [1.0, 1.0])
        )
        report = analyze_operator(f, 5_000, seed=0)
        assert report.a_hat + report.b_hat > 1.0 + MARGIN
        assert REFUTED_WEAKLY_NONEXPANSIVE in report.classification
        assert WEAKLY_NONEXPANSIVE_CANDIDATE not in report.classification
        assert not report.boundary
        kinds = {w.kind: w for w in report.violations}
        assert WITNESS_WEAKLY_NONEXPANSIVE not in kinds
        assert witness_ratio(f, kinds[WITNESS_AXIS_A]) + witness_ratio(f, kinds[WITNESS_AXIS_B]) > 1.0 + MARGIN

    def test_constant_operator_all_candidates(self):
        f = constant_operator()
        report = analyze_operator(f, 1_000, seed=3)
        assert report.classification == frozenset(
            {CONTRACTION_CANDIDATE, NONEXPANSIVE_CANDIDATE, WEAKLY_NONEXPANSIVE_CANDIDATE}
        )

    def test_hand_built_nonexpansive_witness(self):
        # x = y = u = 0, v = 1: the second-argument deviation is 2/3 of
        # |y - v| while the 1/2-1/2 bound allows only 1/2.
        f = get_operator("example_2_1")
        report = estimate_constants(f, 100, seed=0)
        quad = np.array([[[0.0], [0.0], [0.0], [1.0]]])
        out = classify(report, quad, f)
        assert REFUTED_NONEXPANSIVE in out.classification
        df = norm(f.eval([0.0], [0.0]) - f.eval([0.0], [1.0]))
        assert df == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_hand_built_weak_witness_for_quadratic(self):
        # x=4, u=3.9, y=v: |F difference| = |x^2 - u^2| = 0.79 > 0.1 = |x-u|.
        f = get_operator("example_2_2")
        report = estimate_constants(f, 100, seed=0)
        quad = np.array([[[4.0], [0.0], [3.9], [0.0]]])
        out = classify(report, quad, f)
        assert REFUTED_WEAKLY_NONEXPANSIVE in out.classification
        df = norm(f.eval([4.0], [0.0]) - f.eval([3.9], [0.0]))
        assert df == pytest.approx(0.79, rel=1e-12)

    @pytest.mark.parametrize("name", ["example_2_1", "example_2_2", "example_4_1"])
    def test_quadruples_with_no_gap_are_counted_but_certify_nothing(self, name):
        # With x == u and y == v both bounds are 0, so no row is scanned for a witness.
        f = get_operator(name)
        report = estimate_constants(f, 100, seed=0)
        quads = draw_quadruples(f, 20, seed=1)
        quads[:, 2], quads[:, 3] = quads[:, 0], quads[:, 1]
        empty = classify(report, [], f)
        out = classify(report, quads, f)
        assert out.classification == empty.classification
        assert out.boundary == empty.boundary
        assert [w.kind for w in out.violations] == [w.kind for w in empty.violations]
        assert out.samples_used == empty.samples_used + 20

    def test_operator_mismatch_rejected(self):
        report = estimate_constants(get_operator("example_2_1"), 10, seed=0)
        with pytest.raises(ValueError, match="operator"):
            classify(report, [], get_operator("example_4_1"))

    @pytest.mark.parametrize("case", GENERAL_SAMPLES_MESSAGES)
    def test_general_samples_checked_once(self, case):
        f = get_operator("example_2_1")
        report = estimate_constants(f, 10, seed=0)
        samples, message = GENERAL_SAMPLES_MESSAGES[case]
        with pytest.raises(ValueError) as info:
            classify(report, samples, f)
        assert str(info.value) == message

    def test_refutation_witnesses_certify(self):
        # Every refuted_* label ships a witness whose re-evaluation confirms
        # the violated inequality with margin beyond the decision threshold.
        for name in ("example_2_1", "example_2_2"):
            f = get_operator(name)
            report = analyze_operator(f, 5_000, seed=11)
            kinds = {w.kind: w for w in report.violations}
            if REFUTED_NONEXPANSIVE in report.classification:
                w = kinds[WITNESS_NONEXPANSIVE]
                df = norm(f.eval(w.x, w.y) - f.eval(w.u, w.v))
                rhs = (norm(w.x - w.u) + norm(w.y - w.v)) / 2.0
                assert df - rhs > MARGIN
            if REFUTED_WEAKLY_NONEXPANSIVE in report.classification:
                w = kinds[WITNESS_WEAKLY_NONEXPANSIVE]
                df = norm(f.eval(w.x, w.y) - f.eval(w.u, w.v))
                rhs = max(norm(w.x - w.u), norm(w.y - w.v))
                assert df - rhs > MARGIN
            if REFUTED_CONTRACTION in report.classification:
                # The axis witnesses force any admissible (k, l) to satisfy
                # k + l >= a_hat + b_hat.
                assert kinds[WITNESS_AXIS_A].ratio + kinds[WITNESS_AXIS_B].ratio >= 1.0 - MARGIN

    def test_unknown_witness_kind_rejected(self):
        w = Witness("no_such_kind", np.array([0.5]), np.array([0.0]), np.array([0.0]), np.array([0.0]), 1.0)
        with pytest.raises(ValueError, match="unknown witness kind 'no_such_kind'"):
            witness_ratio(get_operator("example_2_1"), w)

    def test_all_witness_ratios_reproduce(self):
        for name in ("example_2_1", "example_2_2", "example_4_1"):
            f = get_operator(name)
            report = analyze_operator(f, 2_000, seed=13)
            for w in report.violations:
                again = witness_ratio(f, w)
                assert abs(again - w.ratio) <= 1e-10 * max(1.0, abs(w.ratio))


class TestDeterminism:
    def test_reports_identical_bit_for_bit(self):
        f = get_operator("example_2_2")
        r1 = analyze_operator(f, 3_000, seed=99)
        r2 = analyze_operator(get_operator("example_2_2"), 3_000, seed=99)
        assert r1.a_hat == r2.a_hat
        assert r1.b_hat == r2.b_hat
        assert r1.classification == r2.classification
        assert len(r1.violations) == len(r2.violations)
        for w1, w2 in zip(r1.violations, r2.violations):
            assert w1.kind == w2.kind
            assert w1.ratio == w2.ratio
            for attr in ("x", "y", "u", "v"):
                assert np.array_equal(getattr(w1, attr), getattr(w2, attr))
        assert report_to_json(r1) == report_to_json(r2)

    def test_different_seeds_differ(self):
        f = get_operator("example_2_2")
        r1 = estimate_constants(f, 1_000, seed=1)
        r2 = estimate_constants(f, 1_000, seed=2)
        assert r1.a_hat != r2.a_hat


class TestReportSerialization:
    def test_json_fields(self):
        f = get_operator("example_2_1")
        report = analyze_operator(f, 1_000, seed=42)
        doc = json.loads(report_to_json(report))
        assert set(doc) == {
            "operator", "a_hat", "b_hat", "samples_used", "seed",
            "classification", "boundary", "witnesses",
        }
        assert doc["operator"] == "example_2_1"
        assert doc["seed"] == 42
        assert doc["classification"] == sorted(report.classification)
        for w in doc["witnesses"]:
            assert set(w) == {"kind", "x", "y", "u", "v", "ratio"}

    def test_floats_round_trip(self):
        f = get_operator("example_2_2")
        report = analyze_operator(f, 500, seed=8)
        doc = json.loads(report_to_json(report))
        assert doc["a_hat"] == report.a_hat
        assert doc["witnesses"][0]["ratio"] == report.violations[0].ratio

    def test_dict_matches_json(self):
        f = get_operator("example_4_1")
        report = analyze_operator(f, 200, seed=0)
        assert json.loads(report_to_json(report)) == report_to_dict(report)

    @staticmethod
    def _strict_load(text):
        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        return json.loads(text, parse_constant=refuse)

    def test_overflowing_images_write_json(self):
        # Images 1e308 apart overflow df, so some ratios are inf; JSON spells none of them Infinity.
        f = make_linear_operator([[1e308]], [[0.0]], [0.0], Box([-1.0], [1.0]))
        report = analyze_operator(f, 50, 1)
        ratios = [w.ratio for w in report.violations]
        assert inf in ratios
        doc = self._strict_load(report_to_json(report))
        assert [w["ratio"] for w in doc["witnesses"]] == ratios
        assert '"ratio": 1e999' in report_to_json(report)

    def test_infinity_inside_a_string_is_kept(self):
        f = get_operator("example_2_2")
        report = analyze_operator(f, 50, 1)
        name = 'Infinity -Infinity "Infinity" \\Infinity'
        report.operator_name = name
        report.violations[0].ratio = inf
        text = report_to_json(report)
        assert self._strict_load(text)["operator"] == name
        assert json.dumps(name) in text
        assert self._strict_load(text)["witnesses"][0]["ratio"] == inf


class TestDrawQuadruples:
    def test_shape_and_domain(self):
        f = get_operator("example_2_2")
        quads = draw_quadruples(f, 250, seed=4)
        assert quads.shape == (250, 4, 1)
        assert (quads >= -4.0).all() and (quads <= 4.0).all()

    def test_deterministic(self):
        f = get_operator("example_2_1")
        assert np.array_equal(draw_quadruples(f, 50, 6), draw_quadruples(f, 50, 6))


class TestSampleArgumentsTyped:
    # Typed as SchemeConfig types max_iter and seed: an integral value is
    # taken as it is, anything else is rejected naming its argument.
    @pytest.mark.parametrize(
        "n_samples, seed",
        [(2.5, 0), (2.9, 0), ("3", 0), (None, 0), (True, 0), (10, 1.5), (10, "0"), (10, -1), (10, True)],
    )
    @pytest.mark.parametrize("call", [analyze_operator, estimate_constants, draw_quadruples])
    def test_non_integral_rejected_naming_the_argument(self, call, n_samples, seed):
        name = "n_samples" if seed == 0 else "seed"
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call(get_operator("example_2_1"), n_samples, seed)

    @pytest.mark.parametrize("edge", ["below", True, 2.5])
    @pytest.mark.parametrize("name", ["n_samples", "seed"])
    @pytest.mark.parametrize("call", [analyze_operator, estimate_constants, draw_quadruples])
    def test_edges_keep_their_messages(self, call, name, edge):
        # One below the least count (1 sample, 0 for draw_quadruples; seed 0), a bool, a fraction.
        least = 0 if name == "seed" or call is draw_quadruples else 1
        value = least - 1 if edge == "below" else edge
        args = {"n_samples": 10, "seed": 0, name: value}
        with pytest.raises(ValueError) as err:
            call(get_operator("example_2_1"), args["n_samples"], args["seed"])
        kind = f">= {least}" if edge == "below" else "an integer"
        assert str(err.value) == f"{name} must be {kind}, got {value}"

    @pytest.mark.parametrize("call", [analyze_operator, estimate_constants, draw_quadruples])
    def test_integral_floats_taken_as_ints(self, call):
        f = get_operator("example_2_1")
        a, b = call(f, 20.0, 3.0), call(f, 20, 3)
        assert np.array_equal(a, b) if call is draw_quadruples else report_to_json(a) == report_to_json(b)


# ---------------------------------------------------------------- pinned reports


def _narrow_box():
    # Width 3e-12: a pair lands closer than MIN_SEPARATION = 1e-12 with
    # probability 1 - (2/3)^2 = 5/9, so most samples are resampled.
    return BivariateOperator(
        name="narrow", domain=Box([0.0], [3e-12]), evaluator=lambda x, y: (x - 2.0 * y) / 3.0
    )


PINNED_OPERATORS = {
    "example_2_1": lambda: get_operator("example_2_1"),
    "example_2_2": lambda: get_operator("example_2_2"),
    "example_4_1": lambda: get_operator("example_4_1"),
    "linear_1": lambda: dyadic_linear(1),
    "linear_10": lambda: dyadic_linear(10),
    "narrow": _narrow_box,
}
PINNED_RUNS = [(1, 0), (1, 42), (7, 0), (7, 1), (7, 42), (400, 0), (400, 1), (400, 42), (5000, 3)]

# First 16 hex digits of sha256(report_to_json(analyze_operator(f, n, seed))),
# keyed by (n, seed), one row per operator.
PINNED_REPORT_DIGESTS = {
    "example_2_1": [
        "ebadd129b36f92f2", "30cbfb0a5d0bb51e", "ecec231c21f5c46e",
        "f88938fccc41b26e", "f7ed35bbebad1863", "d101e3f5cd5d15dc",
        "7407cd5fc4fbddf3", "ece19ed84d1a9cc8", "3625560fe735bc2d",
    ],
    "example_2_2": [
        "d507f681195bdec1", "5054bd649e84df38", "e2364dc7ea0a73e1",
        "4b69fc8110757218", "a2d1ec338af5dc85", "f1b7804ca3eeae41",
        "ec0b0fc51db125f4", "4cc87cc9ee6511be", "70745ba1fd674102",
    ],
    "example_4_1": [
        "fb2248622848d581", "dc83db677c35658a", "d9f2d66c16317fab",
        "94f5d537f97a6428", "6896fb0f9057e91c", "f6dcda8e91c4b9b6",
        "0ddddba22ee00f3c", "2603a64acb271d02", "fc6d45df1a48fe54",
    ],
    "linear_1": [
        "6d53d9f7d67b380e", "72d2f59643bff92e", "118722ae89beec79",
        "b93569fb2923f027", "555704307126bbc8", "f64cce7e1a3af215",
        "eab8a300a69d42c0", "13b874677ecf53b7", "1739885edaa4a666",
    ],
    "linear_10": [
        "38cab74488f67fd5", "0255f2328445cc20", "67ee3e5e747fd071",
        "15e15471be1e1649", "310203071300f151", "b9f6ee29eab87c0e",
        "4df2827498ffd85f", "451d46d4a884c109", "621b5773f62e390e",
    ],
    "narrow": [
        "31dfb4762674d2c5", "ba717d38d79ee043", "d710cc0a7e2890cf",
        "62c0ff07bfdaaf04", "3aa61c1bfffd3973", "f5bc9130dca2da3a",
        "45acc37653fef49c", "c8d2d8d46efbb967", "a402cb9866bc2d49",
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_OPERATORS))
def test_pinned_report_digests(name):
    f = PINNED_OPERATORS[name]()
    got = [
        hashlib.sha256(report_to_json(analyze_operator(f, n, seed)).encode()).hexdigest()[:16]
        for n, seed in PINNED_RUNS
    ]
    assert got == PINNED_REPORT_DIGESTS[name]


@pytest.mark.parametrize("name", ["example_2_2", "linear_10", "narrow"])
def test_block_size_does_not_change_reports(name, monkeypatch):
    f = PINNED_OPERATORS[name]()
    default = report_to_json(analyze_operator(f, 400, 5))
    monkeypatch.setattr(contractivity_mod, "_CHUNK", 7)
    assert report_to_json(analyze_operator(f, 400, 5)) == default
    # classify on a whole array walks it in blocks of the same size.
    report = estimate_constants(f, 400, 5)
    assert report_to_json(classify(report, draw_quadruples(f, 400, 5), f)) == default


special = st.sampled_from([float("nan"), float("-inf"), float("inf"), -1.0, 0.0, 0.5, 1.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(special | st.floats(), min_size=1, max_size=40), st.integers(min_value=1, max_value=9))
def test_block_reduction_follows_the_sequential_rule(values, chunk):
    # The loop the block scans replaced: take the first value, then each
    # later value strictly above the running best.
    expected = 0
    for i, v in enumerate(values):
        if v > values[expected]:
            expected = i
    best, at = None, -1
    for start in range(0, len(values), chunk):
        j = contractivity_mod._pick(np.array(values[start : start + chunk]), best)
        if j >= 0:
            best, at = values[start + j], start + j
    assert at == expected
