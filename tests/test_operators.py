import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coupledfix import (
    CONVERGED,
    KRASNOSELSKIJ_DIAGONAL,
    KRASNOSELSKIJ_DOUBLE,
    PICARD_DOUBLE,
    BivariateOperator,
    Box,
    CoupledPair,
    NonFiniteEvaluationError,
    OutputDimensionError,
    SchemeConfig,
    analyze_operator,
    get_operator,
    is_coupled_fixed_point,
    krasnoselskij_diagonal,
    krasnoselskij_double,
    make_linear_operator,
    norm,
    operator_names,
    run_scheme,
)
from coupledfix.operators import _takes_floats
from helpers import random_linear_operator, sample_in_box


class TestEval:
    def test_skew_map_value(self):
        f = get_operator("example_2_1")
        assert f.eval([1.0], [0.0]) == pytest.approx([1.0 / 3.0], abs=1e-15)
        assert f.eval(1.0, 0.0) == pytest.approx([1.0 / 3.0], abs=1e-15)  # a scalar is a vector (1,)

    def test_quadratic_map_value(self):
        f = get_operator("example_2_2")
        assert f.eval([-1.0], [2.0]) == pytest.approx([-1.0], abs=0)

    def test_averaging_map_value(self):
        f = get_operator("example_4_1")
        assert f.eval([1.0], [1.0]) == pytest.approx([-1.0], abs=0)

    def test_dimension_mismatch(self):
        f = get_operator("example_2_1")
        with pytest.raises(ValueError, match="dimension"):
            f.eval([1.0, 2.0], [0.0])
        with pytest.raises(ValueError, match="^x must be a 1-D sequence"):
            f.eval([], [])
        with pytest.raises(ValueError, match="^y must be a 1-D sequence"):
            f.eval([0.5], np.zeros((3, 1)))

    def test_non_finite_output_flagged(self):
        bad = BivariateOperator(
            name="overflowing",
            domain=Box([-2.0], [2.0]),
            evaluator=lambda x, y: x * 1e308 * 1e308,
        )
        with np.errstate(over="ignore"), pytest.raises(NonFiniteEvaluationError):
            bad.eval([1.0], [1.0])

    def test_wrong_output_dimension_has_its_own_error(self):
        wide = BivariateOperator(name="wide", domain=Box([-1.0], [1.0]), evaluator=lambda x, y: np.zeros(2))
        with pytest.raises(OutputDimensionError, match="returned") as info:
            wide.eval([0.5], [0.5])
        assert isinstance(info.value, ValueError)
        assert not isinstance(info.value, NonFiniteEvaluationError)

    def test_scalar_output_rejected_by_the_engine_and_the_analyzer_alike(self):
        # A vector call must return shape (d,) just as a block call returns (n, d).
        summing = BivariateOperator(
            name="summing", domain=Box([-1.0], [1.0]), evaluator=lambda x, y: 0.5 * np.sum(x), range_in_domain=True
        )
        with pytest.raises(OutputDimensionError, match=r"returned shape \(\), expected \(1,\)"):
            summing.eval([0.5], [0.5])
        with pytest.raises(OutputDimensionError):
            krasnoselskij_diagonal(summing, [0.5], SchemeConfig(KRASNOSELSKIJ_DIAGONAL))
        with pytest.raises(OutputDimensionError):
            analyze_operator(summing, 10, 0)

    def test_block_from_a_non_broadcasting_evaluator_rejected(self):
        # Reads only the first row: fine on a vector, wrong on a block of rows.
        first_row = BivariateOperator(
            name="first_row", domain=Box([-1.0], [1.0]), evaluator=lambda x, y: np.array([x[0] - y[0]])
        )
        assert first_row.eval([0.5], [0.25]) == pytest.approx([0.25], abs=0)
        with pytest.raises(OutputDimensionError, match="returned"):
            first_row.eval(np.zeros((3, 1)), np.ones((3, 1)))

    @pytest.mark.parametrize("d", [10, 100])
    def test_linear_block_equals_rows_bitwise(self, d):
        rng = np.random.default_rng(d)
        f = random_linear_operator(rng, d=d)
        x = sample_in_box(rng, f.domain, 64)
        y = sample_in_box(rng, f.domain, 64)
        block = f.eval(x, y)
        assert block.shape == (64, d)
        rows = np.array([f.eval(xi, yi) for xi, yi in zip(x, y)])
        assert np.array_equal(block.view(np.int64), rows.view(np.int64))

    def test_block_input_checks(self):
        f = get_operator("example_2_1")
        assert f.eval(np.zeros((3, 1)), np.ones((3, 1))).shape == (3, 1)
        with pytest.raises(ValueError, match="dimension"):
            f.eval(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="rows"):
            f.eval(np.zeros((3, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="non-finite"):
            f.eval(np.full((2, 1), np.nan), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="^x must be a block of rows"):
            f.eval(np.zeros((0, 1)), np.zeros((0, 1)))
        with pytest.raises(ValueError, match="^y must be a block of rows"):
            f.eval(np.zeros((3, 1)), np.zeros(1))
        with pytest.raises(ValueError, match="^x must be "):
            f.eval(np.zeros((2, 3, 1)), np.zeros((2, 3, 1)))

    def test_deterministic(self):
        f = get_operator("example_2_2")
        a = f.eval([0.3], [-1.2])
        b = f.eval([0.3], [-1.2])
        assert np.array_equal(a, b)


def _operator(name):
    if name != "plane":
        return get_operator(name)
    return make_linear_operator(0.1 * np.eye(2), 0.1 * np.eye(2), [0.0, 0.0], Box([-1.0, -1.0], [1.0, 1.0]))


# eval and CoupledPair coerce each argument alone, so each message is the one the
# argument alone gives. Ragged or non-numeric input is named, with numpy's reason.
_RAGGED = (
    "is not an array of reals: setting an array element with a sequence. The requested array has "
    "an inhomogeneous shape after 1 dimensions. The detected shape was (2,) + inhomogeneous part."
)
_NOT_A_NUMBER = "is not an array of reals: could not convert string to float:"
_NOT_A_REAL = "is not an array of reals: float() argument must be a string or a real number, not"
EVAL_MESSAGES = {
    "nan_only_in_y": ("example_2_1", [0.5], [np.nan], "y has non-finite coordinates"),
    "inf_only_in_y": ("example_2_1", [0.5], [-np.inf], "y has non-finite coordinates"),
    "int_past_floats_only_in_y": ("example_2_1", [0.5], [10**400], "y has non-finite coordinates"),
    "scalar_int_past_floats_in_y": ("example_2_1", 0.5, 10**400, "y has non-finite coordinates"),
    "none_as_x": ("example_2_1", None, [0.5], "x has non-finite coordinates"),
    "shapes_2_and_3": (
        "plane", [0.1, 0.2], [0.1, 0.2, 0.3], "operator 'linear' has dimension 2, got arguments of dimension 2 and 3"
    ),
    "ragged_x": ("plane", [[0.1, 0.2], [0.3]], [[0.1, 0.2], [0.3, 0.4]], f"x {_RAGGED}"),
    "ragged_y": ("plane", [0.1, 0.2], [[0.1], 0.2], f"y {_RAGGED}"),
    "string_x": ("example_2_1", ["a"], [0.5], f"x {_NOT_A_NUMBER} 'a'"),
    "string_y": ("example_2_1", [0.5], "abc", f"y {_NOT_A_NUMBER} 'abc'"),
    "complex_y": ("example_2_1", [0.5], [1j], f"y {_NOT_A_REAL} 'complex'"),
    "rows_3_and_4": ("plane", np.zeros((3, 2)), np.zeros((4, 2)), "operator 'linear' got 3 and 4 rows"),
    "block_and_vector": (
        "plane", np.zeros((3, 2)), np.zeros(2), "y must be a block of rows (n, d) of reals, got shape (2,)"
    ),
    "vector_and_block": (
        "plane", np.zeros(2), np.zeros((3, 2)), "y must be a 1-D sequence of reals, got shape (3, 2)"
    ),
}


class TestEvalCoercion:
    @pytest.mark.parametrize("case", EVAL_MESSAGES)
    def test_message_is_the_one_the_argument_alone_gives(self, case):
        name, x, y, message = EVAL_MESSAGES[case]
        with pytest.raises(ValueError) as info:
            _operator(name).eval(x, y)
        assert str(info.value) == message

    def test_scalar_pair_is_a_vector_of_one(self):
        f = get_operator("example_2_1")
        out = f.eval(0.5, np.float64(0.25))
        assert out.shape == (1,)
        assert np.array_equal(out, f.eval([0.5], [0.25]))

    def test_evaluator_gets_copies(self):
        def scaling(x, y):
            x *= 2.0  # an evaluator that writes into its arguments
            y *= 2.0
            return x - y

        f = BivariateOperator(name="scaling", domain=Box([-1.0, -1.0], [1.0, 1.0]), evaluator=scaling)
        x, y = np.array([0.5, -0.5]), np.array([0.25, 0.75])
        assert f.eval(x, y).tolist() == [0.5, -2.5]
        assert x.tolist() == [0.5, -0.5] and y.tolist() == [0.25, 0.75]


class TestIsCoupledFixedPoint:
    def test_quadratic_unequal_pair(self):
        f = get_operator("example_2_2")
        assert is_coupled_fixed_point(f, CoupledPair([2.0], [-1.0]), 1e-10)

    def test_quadratic_equal_pair(self):
        f = get_operator("example_2_2")
        assert is_coupled_fixed_point(f, CoupledPair([-4.0], [-4.0]), 1e-10)

    def test_skew_map_diagonal_point_rejected(self):
        f = get_operator("example_2_1")
        assert not is_coupled_fixed_point(f, CoupledPair([1.0], [1.0]), 1e-10)

    def test_skew_map_antidiagonal_family(self):
        # Every pair (t, -t) is fixed for (x - 2y)/3: F(t, -t) = 3t/3 = t.
        f = get_operator("example_2_1")
        for t in (0.25, -0.8, 1.0):
            assert is_coupled_fixed_point(f, CoupledPair([t], [-t]), 1e-12)

    def test_tol_must_be_positive(self):
        f = get_operator("example_2_1")
        with pytest.raises(ValueError, match="tol"):
            is_coupled_fixed_point(f, CoupledPair([0.0], [0.0]), 0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), "1e-3", None, True])
    def test_tol_is_a_positive_finite_number(self, tol):
        # (0.5, 0.5) is not fixed: F(0.5, 0.5) = -1/6, so no tolerance may pass it.
        f = get_operator("example_2_1")
        with pytest.raises(ValueError, match="^tol must be "):
            is_coupled_fixed_point(f, CoupledPair([0.5], [0.5]), tol)

    @pytest.mark.parametrize(
        "tol, message",
        [(0, "tol must be positive, got 0.0"), (float("inf"), "tol must be finite, got inf"),
         (True, "tol must be a real number, got True")],
    )
    def test_tol_edges_keep_their_messages(self, tol, message):
        with pytest.raises(ValueError) as err:
            is_coupled_fixed_point(get_operator("example_2_1"), CoupledPair([0.5], [0.5]), tol)
        assert str(err.value) == message

    def test_overflowed_residual_is_not_fixed(self):
        # F(x, y) = -x: F(x, y) - x = -3.4e308 overflows, and the engine records a residual of inf there.
        big = np.finfo(float).max
        f = BivariateOperator(name="negation", domain=Box([-big], [big]), evaluator=lambda x, y: -x)
        assert not is_coupled_fixed_point(f, CoupledPair([1.7e308], [0.0]), 1e-10)

    def test_residual_whose_square_underflows_is_not_fixed(self):
        # F(x, y) = x / 2: the residual at 2e-300 is 1e-300, whose square underflows to 0.
        f = make_linear_operator([[0.5]], [[0.0]], [0.0], Box([-1.0], [1.0]))
        assert not is_coupled_fixed_point(f, CoupledPair([2e-300], [2e-300]), 1e-305)

    def test_all_known_points_validate(self):
        for name in operator_names():
            f = get_operator(name)
            for pair in f.known_coupled_fixed_points:
                assert is_coupled_fixed_point(f, pair, 1e-10), (name, pair)

    @settings(deadline=None, max_examples=200)
    @given(st.sampled_from([*operator_names(), "linear"]), st.integers(0, 2**32 - 1), st.booleans())
    def test_decides_as_the_engine_stops_at_step_0(self, name, seed, at_known_point):
        # A random pair in the domain, or a known coupled fixed point, whose residual may
        # round to a tiny nonzero value. With tol at the step-0 residual and one float
        # below it, the answer is True exactly when the run stops converged at step 0.
        rng = np.random.default_rng(seed)
        f = random_linear_operator(rng) if name == "linear" else get_operator(name)
        if at_known_point and f.known_coupled_fixed_points:
            pair = f.known_coupled_fixed_points[int(rng.integers(len(f.known_coupled_fixed_points)))]
        else:
            pair = CoupledPair(sample_in_box(rng, f.domain), sample_in_box(rng, f.domain))
        r0 = run_scheme(f, SchemeConfig(PICARD_DOUBLE, max_iter=1), pair.x, pair.y).residuals[0]
        for tol in (r0, math.nextafter(r0, 0.0)):
            if tol > 0.0:
                trace = run_scheme(f, SchemeConfig(PICARD_DOUBLE, tol=tol, max_iter=1), pair.x, pair.y)
                stops = trace.status == CONVERGED and trace.n_steps == 0
                assert is_coupled_fixed_point(f, pair, tol) == stops == (tol == r0)


class TestSkewMapFixedPointStructure:
    def test_grid_residuals_concentrate_on_antidiagonal(self):
        # Grid search at step 1e-3 over the full square: every pair with
        # residual below 1e-6 lies on the antidiagonal {(t, -t)}, and the
        # family genuinely extends beyond the origin.
        ts = np.linspace(-1.0, 1.0, 2001)
        hit_far_from_origin = False
        for x in ts:
            fx = (x - 2.0 * ts) / 3.0
            fy = (ts - 2.0 * x) / 3.0
            res = np.maximum(np.abs(fx - x), np.abs(fy - ts))
            hits = ts[res < 1e-6]
            if hits.size:
                assert np.max(np.abs(x + hits)) <= np.sqrt(2) * 1e-3
                if abs(x) > 0.5:
                    hit_far_from_origin = True
        assert hit_far_from_origin

    def test_origin_only_equal_component_point(self):
        # Along the diagonal x = y the residual is 4|x|/3, so the origin is
        # the unique equal-component fixed point.
        ts = np.linspace(-1.0, 1.0, 2001)
        res = np.abs((ts - 2.0 * ts) / 3.0 - ts)
        assert set(ts[res < 1e-6]) == {0.0}


class TestRangeContainment:
    @pytest.mark.parametrize("name", ["example_2_1", "example_4_1"])
    def test_self_maps_sampled(self, name):
        f = get_operator(name)
        assert f.range_in_domain
        rng = np.random.default_rng(3)
        xs = sample_in_box(rng, f.domain, 500)
        ys = sample_in_box(rng, f.domain, 500)
        for x, y in zip(xs, ys):
            assert f.domain.contains(f.eval(x, y), slack=1e-12)

    def test_quadratic_map_escapes(self):
        f = get_operator("example_2_2")
        assert not f.range_in_domain
        assert f.eval([-4.0], [4.0]) == pytest.approx([-20.0], abs=0)
        assert not f.domain.contains(f.eval([-4.0], [4.0]))


class TestMakeLinearOperator:
    def test_reproduces_skew_map(self):
        f_lin = make_linear_operator([[1.0 / 3.0]], [[-2.0 / 3.0]], [0.0], Box([-1.0], [1.0]))
        f_reg = get_operator("example_2_1")
        rng = np.random.default_rng(5)
        for _ in range(50):
            x, y = rng.uniform(-1, 1, size=(2, 1))
            assert f_lin.eval(x, y) == pytest.approx(f_reg.eval(x, y), rel=1e-15, abs=1e-16)

    def test_constant_map_fixed_point(self):
        f = make_linear_operator([[0.0]], [[0.0]], [0.5], Box([0.0], [1.0]))
        (pair,) = f.known_coupled_fixed_points
        assert pair == CoupledPair([0.5], [0.5])
        assert f.range_in_domain

    def test_diagonal_two_dim_fixed_point(self):
        a = [[0.2, 0.0], [0.0, 0.1]]
        b = [[0.3, 0.0], [0.0, 0.4]]
        f = make_linear_operator(a, b, [1.0, 1.0], Box([-10.0, -10.0], [10.0, 10.0]))
        (pair,) = f.known_coupled_fixed_points
        assert pair.x == pytest.approx([2.0, 2.0], abs=1e-12)
        # The attached point really is a coupled fixed point.
        assert is_coupled_fixed_point(f, pair, 1e-10)

    def test_singular_system_rejected_when_forced(self):
        # A + B = I makes (I - A - B) singular.
        with pytest.raises(ValueError, match="singular"):
            make_linear_operator(
                [[0.5]], [[0.5]], [1.0], Box([-1.0], [1.0]), attach_fixed_point=True
            )

    def test_no_fixed_point_attached_for_expanding_map(self):
        f = make_linear_operator([[2.0]], [[0.5]], [0.0], Box([-1.0], [1.0]))
        assert f.known_coupled_fixed_points == ()

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="square"):
            make_linear_operator([[1.0, 2.0]], [[0.0]], [0.0], Box([-1.0], [1.0]))
        with pytest.raises(ValueError, match="shift"):
            make_linear_operator([[0.1]], [[0.1]], [0.0, 0.0], Box([-1.0], [1.0]))
        with pytest.raises(ValueError, match="a_matrix.*non-finite"):
            make_linear_operator([[np.nan]], [[0.1]], [0.0], Box([-1.0], [1.0]))
        with pytest.raises(ValueError, match="a_matrix and b_matrix differ in shape"):
            make_linear_operator([[0.1]], np.zeros((2, 2)), [0.0], Box([-1.0], [1.0]))
        with pytest.raises(ValueError, match="domain has dimension 2"):
            make_linear_operator([[0.1]], [[0.1]], [0.0], Box([-1.0, -1.0], [1.0, 1.0]))

    def test_integer_past_the_float_range_named(self):
        # float(10**400) overflows; every array argument reports it as a ValueError naming itself.
        with pytest.raises(ValueError, match="^a_matrix .*non-finite"):
            make_linear_operator([[10**400]], [[0.0]], [0.0], Box([-1.0], [1.0]))
        with pytest.raises(ValueError, match="^b_matrix .*non-finite"):
            make_linear_operator([[0.0]], [[-(10**400)]], [0.0], Box([-1.0], [1.0]))
        block = np.array([[10**400]], dtype=object)
        with pytest.raises(ValueError, match="^x .*non-finite"):
            get_operator("example_2_1").eval(block, np.zeros((1, 1)))

    @pytest.mark.parametrize(
        "a, b, box",
        [
            ([[1e308]], [[0.0]], Box([-1e308], [1e308])),  # A x overflows at both ends
            ([[-1e308]], [[1e308]], Box([1e308], [1e308])),  # and -inf + inf is nan
        ],
    )
    def test_overflowing_range_bounds_leave_the_box_without_a_warning(self, a, b, box):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = make_linear_operator(a, b, [0.0], box)
        assert f.range_in_domain is False

    def test_weak_nonexpansiveness_on_sampled_quadruples(self):
        # With ||A|| + ||B|| <= 1 the triangle inequality bounds ||dF|| by
        # ||A|| ||x-u|| + ||B|| ||y-v|| <= max(||x-u||, ||y-v||).
        rng = np.random.default_rng(17)
        for _ in range(10):
            f = random_linear_operator(rng, norm_sum=float(rng.uniform(0.4, 1.0)))
            quads = sample_in_box(rng, f.domain, 4 * 50).reshape(50, 4, -1)
            for x, y, u, v in quads:
                df = norm(f.eval(x, y) - f.eval(u, v))
                bound = max(norm(x - u), norm(y - v))
                assert df <= bound + 1e-9 * (1.0 + bound)


class TestRegistry:
    def test_names(self):
        assert operator_names() == ("example_2_1", "example_2_2", "example_4_1")

    def test_unknown_operator(self):
        with pytest.raises(ValueError, match="unknown operator"):
            get_operator("no_such_operator")

    def test_fresh_instances(self):
        assert get_operator("example_2_1") is not get_operator("example_2_1")


def _float_form_operator(kind, a, b, c):
    # An operator whose evaluator is marked as taking floats: a d = 1 linear one, or a built-in.
    if kind == "linear":
        return make_linear_operator([[a]], [[b]], [c], Box([-1.0], [1.0]), attach_fixed_point=False)
    return get_operator(kind)


_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_FLOAT_FORM_KINDS = st.sampled_from(["linear", "example_2_1", "example_2_2", "example_4_1"])


class TestFloatForms:
    @settings(deadline=None, max_examples=300)
    @given(_FLOAT_FORM_KINDS, _ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT)
    # Signed zeros: a @ x adds the product to +0.0, so [[2.0]] @ [-0.0] is +0.0.
    @example("linear", 2.0, 2.0, -0.0, -0.0, -0.0)
    @example("linear", -0.0, -0.0, -0.0, 1.0, 1.0)
    @example("example_4_1", 0.0, 0.0, 0.0, -0.0, -0.0)
    @example("example_2_1", 0.0, 0.0, 0.0, -0.0, 0.0)
    # Subnormal products, arguments and shift.
    @example("linear", 0.5, 1e-300, 5e-324, 5e-324, 1e-20)
    @example("linear", 1e-300, -1e-10, 0.0, 2.0**-1022, 2.0**-1030)
    @example("example_2_2", 0.0, 0.0, 0.0, 1e-170, 5e-324)
    # Products that overflow to +inf and to -inf, and inf - inf.
    @example("linear", 1e308, 1e308, 0.0, 10.0, 10.0)
    @example("linear", -1e308, 1.0, -1e308, 10.0, 1.0)
    @example("example_2_2", 0.0, 0.0, 0.0, 1e200, 0.0)
    @example("example_2_1", 0.0, 0.0, 0.0, 1e308, -1e308)
    @example("linear", 1e308, 1e308, 0.0, 10.0, -10.0)
    @example("example_2_2", 0.0, 0.0, 0.0, 1e200, -1e308)
    def test_the_float_form_is_the_array_form_bit_for_bit(self, kind, a, b, c, x, y):
        evaluator = _float_form_operator(kind, a, b, c).evaluator
        assert evaluator.takes_floats is True
        got = evaluator(x, y)
        with np.errstate(over="ignore", invalid="ignore"):
            want = evaluator(np.array([x]), np.array([y]))[0]
        assert type(got) is float
        assert got.hex() == float(want).hex()


_DOUBLE_RUN = SchemeConfig(KRASNOSELSKIJ_DOUBLE, theta=0.3, tol=1e-300, max_iter=20)


class TestFloatDeclarationFollowsTheCallable:
    def test_which_evaluators_are_marked(self):
        for name in operator_names():
            assert get_operator(name).evaluator.takes_floats is True
        assert make_linear_operator([[0.5]], [[0.25]], [0.0], Box([-1.0], [1.0])).evaluator.takes_floats is True
        plane = make_linear_operator(np.eye(2) / 4, np.eye(2) / 4, [0.0, 0.0], Box([-1.0, -1.0], [1.0, 1.0]))
        assert not hasattr(plane.evaluator, "takes_floats")

    @pytest.mark.parametrize("mark", [False, True])
    def test_a_replaced_evaluator_carries_its_own_declaration(self, mark):
        base = get_operator("example_4_1")
        seen = []

        def g(x, y):
            seen.append((type(x), np.shape(x), type(y), np.shape(y)))
            return base.evaluator(x, y)

        f = dataclasses.replace(base, evaluator=_takes_floats(g) if mark else g)
        trace = krasnoselskij_double(f, [0.5], [-0.25], _DOUBLE_RUN)
        assert len(seen) == 2 * (trace.n_steps + 1)
        assert set(seen) == {(float, (), float, ())} if mark else {(np.ndarray, (1,), np.ndarray, (1,))}
        assert trace == krasnoselskij_double(base, [0.5], [-0.25], _DOUBLE_RUN)

    @pytest.mark.parametrize("image", [lambda v: np.array([v]), np.float64], ids=["array", "float64"])
    def test_a_marked_evaluator_that_returns_no_float_is_named(self, image):
        base = get_operator("example_4_1")
        f = dataclasses.replace(base, evaluator=_takes_floats(lambda x, y: image(base.evaluator(x, y))))
        with pytest.raises(OutputDimensionError, match="^operator 'example_4_1' returned "):
            krasnoselskij_double(f, [0.5], [-0.25], _DOUBLE_RUN)


PAIR_MESSAGES = {
    "nan_only_in_y": ([0.5], [np.nan], "y has non-finite coordinates"),
    "int_past_floats_in_x": ([10**400], [0.5], "x has non-finite coordinates"),
    "none_as_y": ([0.5], None, "y has non-finite coordinates"),
    "empty": ([], [], "x must be a 1-D sequence of reals, got shape (0,)"),
    "two_axes_in_y": ([1.0], [[1.0]], "y must be a 1-D sequence of reals, got shape (1, 1)"),
    "dimensions_1_and_2": ([1.0], [1.0, 2.0], "pair components differ in dimension: 1 vs 2"),
    "ragged_x": ([[0.1, 0.2], [0.3]], [0.5], f"x {_RAGGED}"),
    "string_y": ([0.5], "abc", f"y {_NOT_A_NUMBER} 'abc'"),
    "dict_x": ({"a": 1}, [0.5], f"x {_NOT_A_REAL} 'dict'"),
    "object_y": ([0.5], object(), f"y {_NOT_A_REAL} 'object'"),
}


class TestCoupledPair:
    @pytest.mark.parametrize("case", PAIR_MESSAGES)
    def test_message_is_the_one_the_component_alone_gives(self, case):
        x, y, message = PAIR_MESSAGES[case]
        with pytest.raises(ValueError) as info:
            CoupledPair(x, y)
        assert str(info.value) == message

    def test_scalar_pair_is_a_vector_of_one(self):
        pair = CoupledPair(0.5, np.float64(0.25))
        assert pair.x.shape == pair.y.shape == (1,)
        assert pair == CoupledPair([0.5], [0.25])

    def test_equality_is_bitwise(self):
        assert CoupledPair([0.1], [0.2]) == CoupledPair([0.1], [0.2])
        assert CoupledPair([0.1], [0.2]) != CoupledPair([0.1], [0.2 + 1e-16])

    def test_unpacking(self):
        x, y = CoupledPair([1.0], [2.0])
        assert x == pytest.approx([1.0])
        assert y == pytest.approx([2.0])
