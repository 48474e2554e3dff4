import dataclasses
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    BivariateOperator,
    Box,
    CoupledPair,
    NonFiniteEvaluationError,
    OracleHandle,
    OutputDimensionError,
    SchemeConfig,
    engine_theta,
    get_operator,
    is_coupled_fixed_point,
    krasnoselskij_diagonal,
    krasnoselskij_double,
    make_linear_operator,
    norm,
    oracle_iterate,
    oracle_limit,
    picard_double,
    run_scheme,
    trace_to_json,
    verify_fejer_monotonicity,
    verify_residual_decay,
)
from coupledfix.operators import _takes_floats
from helpers import blowup, escaper, random_linear_operator, sample_in_box, undefined_outside


def cfg(scheme, **kw):
    return SchemeConfig(scheme=scheme, **kw)


def traces_equal(t1, t2):
    return t1 == t2


class TestConfigValidation:
    def test_bad_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            cfg("banach").validate()

    @pytest.mark.parametrize("theta", [0.0, 1.0, 1.5, -0.1])
    def test_bad_theta(self, theta):
        with pytest.raises(ValueError, match="theta"):
            cfg(KRASNOSELSKIJ_DIAGONAL, theta=theta).validate()

    def test_theta_ignored_for_picard(self):
        cfg(PICARD_DOUBLE, theta=1.5).validate()

    def test_bad_tol(self):
        with pytest.raises(ValueError, match="tol"):
            cfg(KRASNOSELSKIJ_DIAGONAL, tol=0.0).validate()

    @pytest.mark.parametrize("tol", [float("inf"), float("nan")])
    def test_non_finite_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            cfg(KRASNOSELSKIJ_DIAGONAL, tol=tol).validate()

    def test_bad_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            cfg(KRASNOSELSKIJ_DIAGONAL, max_iter=0).validate()

    @pytest.mark.parametrize("x0, y0", [([0.5], [0.5, 0.5]), ([0.5, 0.5, 0.5], [0.5])])
    def test_start_dimension_names_the_bad_start(self, x0, y0):
        f = get_operator("example_4_1")
        bad = max(len(x0), len(y0))
        with pytest.raises(ValueError, match=f"^initial point has dimension {bad}, operator expects 1$"):
            krasnoselskij_double(f, x0, y0, cfg(KRASNOSELSKIJ_DOUBLE))

    def test_start_outside_domain(self):
        f = get_operator("example_4_1")
        with pytest.raises(ValueError, match="x0"):
            krasnoselskij_diagonal(f, [2.0], cfg(KRASNOSELSKIJ_DIAGONAL))
        with pytest.raises(ValueError, match="^y0 .*outside"):
            krasnoselskij_double(f, [0.5], [2.0], cfg(KRASNOSELSKIJ_DOUBLE))

    def test_scheme_engine_mismatch(self):
        f = get_operator("example_4_1")
        with pytest.raises(ValueError, match="scheme"):
            krasnoselskij_diagonal(f, [1.0], cfg(PICARD_DOUBLE))


class TestConfigTypedOnce:
    # A config is typed and checked when it is built, whoever builds it.
    @pytest.mark.parametrize(
        "field, value",
        [("max_iter", 2.5), ("max_iter", float("inf")), ("max_iter", float("nan")), ("seed", 1.5),
         ("max_iter", "3"), ("theta", "0.5"), ("tol", None),
         pytest.param("max_iter", np.float64("inf"), id="max_iter-numpy-inf"),
         pytest.param("theta", 10**400, id="theta-int-past-float-range")],
    )
    def test_bad_type_names_the_field(self, field, value):
        with warnings.catch_warnings(), pytest.raises(ValueError, match=f"^{field} must be"):
            warnings.simplefilter("error")
            cfg(KRASNOSELSKIJ_DIAGONAL, **{field: value})

    @pytest.mark.parametrize("field, value", [("max_iter", True), ("seed", False), ("theta", True), ("tol", True)])
    def test_booleans_are_not_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an? (integer|real number), got {value}$"):
            cfg(PICARD_DOUBLE, **{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [("max_iter", 0, "max_iter must be >= 1, got 0"),
         ("max_iter", True, "max_iter must be an integer, got True"),
         ("max_iter", 2.5, "max_iter must be an integer, got 2.5"),
         ("tol", 0, "tol must be positive, got 0.0"),
         ("tol", float("inf"), "tol must be finite, got inf"),
         ("tol", True, "tol must be a real number, got True")],
    )
    def test_count_and_tol_edges_keep_their_messages(self, field, value, message):
        with pytest.raises(ValueError) as err:
            cfg(KRASNOSELSKIJ_DIAGONAL, **{field: value})
        assert str(err.value) == message

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf")])
    def test_picard_theta_must_be_finite(self, theta):
        # picard_double ignores theta, but the trace JSON carries it, and JSON has no nan or inf.
        with pytest.raises(ValueError, match="^theta must be finite"):
            cfg(PICARD_DOUBLE, theta=theta)

    def test_fields_are_typed(self):
        c = cfg(
            KRASNOSELSKIJ_DIAGONAL, theta=np.float64(0.25), tol=1, max_iter=np.int64(7),
            seed=3.0, guard_domain=np.bool_(True),
        )
        assert [type(v) for v in (c.theta, c.tol, c.max_iter, c.seed, c.guard_domain)] == [
            float, float, int, int, bool
        ]
        assert (c.theta, c.tol, c.max_iter, c.seed, c.guard_domain) == (0.25, 1.0, 7, 3, True)
        assert cfg(KRASNOSELSKIJ_DIAGONAL).guard_domain is False
        assert cfg(KRASNOSELSKIJ_DIAGONAL, guard_domain=None).guard_domain is False

    def test_replace_is_checked(self):
        base = cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.5)
        with pytest.raises(ValueError, match="theta"):
            dataclasses.replace(base, theta=1.5)
        with pytest.raises(ValueError, match="max_iter"):
            dataclasses.replace(base, max_iter=2.5)
        assert type(dataclasses.replace(base, max_iter=4.0).max_iter) is int

    def test_run_scheme_names_missing_y0(self):
        f = get_operator("example_4_1")
        for scheme in (PICARD_DOUBLE, KRASNOSELSKIJ_DOUBLE):
            with pytest.raises(ValueError, match=f"^y0: required for scheme {scheme}$"):
                run_scheme(f, cfg(scheme), [1.0])


class TestDiagonalScheme:
    def test_half_weight_converges_in_one_step(self):
        f = get_operator("example_4_1")
        tr = krasnoselskij_diagonal(f, [1.0], cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.5, tol=1e-10))
        assert tr.status == CONVERGED
        assert tr.step_indices == [0, 1]
        assert np.array_equal(tr.final_pair.x, [0.0])

    def test_quarter_weight_halves_each_step(self):
        # theta = 1/4 gives x_{n+1} = (1 - 2*theta) x_n = x_n / 2 exactly.
        f = get_operator("example_4_1")
        tr = krasnoselskij_diagonal(
            f, [1.0], cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.25, tol=1e-300, max_iter=40)
        )
        for n, pair in zip(tr.step_indices, tr.iterates):
            assert pair.x[0] == 0.5**n
            assert np.array_equal(pair.x, pair.y)

    def test_matches_formula_oracle(self):
        f = get_operator("example_4_1")
        for lam in (0.25, 0.5, 0.75, 0.3):
            h = OracleHandle("krasnoselskij_example_4_1", [1.0], lam=lam)
            tr = krasnoselskij_diagonal(
                f, [1.0],
                cfg(KRASNOSELSKIJ_DIAGONAL, theta=engine_theta(h), tol=1e-300, max_iter=60),
            )
            for n, pair in zip(tr.step_indices, tr.iterates):
                ref = oracle_iterate(h, n)
                assert abs(pair.x[0] - ref.x[0]) <= 1e-12 * (1.0 + abs(ref.x[0]))

    def test_fixed_start_converges_immediately(self):
        f = get_operator("example_4_1")
        tr = krasnoselskij_diagonal(f, [0.0], cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.3))
        assert tr.status == CONVERGED
        assert tr.step_indices == [0]
        assert tr.residuals == [0.0]

    def test_residual_whose_square_underflows_does_not_converge(self):
        # F = 21 x: the residual at 1e-300 is 2e-299, whose square underflows to 0.
        f = BivariateOperator(
            name="times_21",
            domain=Box([-FLOAT_MAX], [FLOAT_MAX]),
            evaluator=lambda x, y: 21.0 * x,
            range_in_domain=True,
        )
        tr = krasnoselskij_diagonal(f, [1e-300], cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.5, tol=1e-320, max_iter=50))
        assert tr.status == MAX_ITER_REACHED
        assert tr.residuals[0] == abs(1e-300 - 21.0 * 1e-300)

    def test_converged_pair_is_coupled_fixed_point(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            f = random_linear_operator(rng, d=3)
            x0 = sample_in_box(rng, f.domain)
            tr = krasnoselskij_diagonal(
                f, x0, cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.5, tol=1e-11, max_iter=5000)
            )
            assert tr.status == CONVERGED
            assert is_coupled_fixed_point(f, tr.final_pair, 1e-11)

    def test_iterates_stay_in_domain_without_guard(self):
        for name in ("example_2_1", "example_4_1"):
            f = get_operator(name)
            for theta in (0.1, 0.5, 0.9):
                tr = krasnoselskij_diagonal(
                    f, [1.0], cfg(KRASNOSELSKIJ_DIAGONAL, theta=theta, max_iter=200)
                )
                assert tr.scheme_config.guard_domain is False
                for pair in tr.iterates:
                    assert f.domain.contains(pair.x, slack=1e-12)


class TestPicardScheme:
    def test_skew_map_first_step_and_limit(self):
        f = get_operator("example_2_1")
        tr = picard_double(f, [1.0], [0.0], cfg(PICARD_DOUBLE, tol=1e-12, max_iter=200))
        assert tr.status == CONVERGED
        assert tr.iterates[1].x == pytest.approx([1.0 / 3.0], rel=1e-15)
        assert tr.iterates[1].y == pytest.approx([-2.0 / 3.0], rel=1e-15)
        assert tr.final_pair.x == pytest.approx([0.5], abs=1e-11)
        assert tr.final_pair.y == pytest.approx([-0.5], abs=1e-11)
        # The reached limit is itself a coupled fixed point (on the
        # antidiagonal family), just not the equal-component one.
        assert is_coupled_fixed_point(f, CoupledPair([0.5], [-0.5]), 1e-12)

    def test_matches_formula_oracle(self):
        f = get_operator("example_2_1")
        h = OracleHandle("picard_example_2_1", [1.0], [0.0])
        tr = picard_double(f, [1.0], [0.0], cfg(PICARD_DOUBLE, tol=1e-300, max_iter=60))
        # The iterates land exactly on the float fixed point around n = 35,
        # so the run may stop early with residual exactly zero.
        assert not tr.cycle_detected
        assert len(tr.iterates) >= 30
        for n, pair in zip(tr.step_indices, tr.iterates):
            ref = oracle_iterate(h, n)
            assert abs(pair.x[0] - ref.x[0]) <= 1e-12 * (1.0 + abs(ref.x[0]))
            assert abs(pair.y[0] - ref.y[0]) <= 1e-12 * (1.0 + abs(ref.y[0]))

    def test_equal_starts_stay_equal_and_reach_origin(self):
        f = get_operator("example_2_1")
        tr = picard_double(f, [0.7], [0.7], cfg(PICARD_DOUBLE, tol=1e-12, max_iter=100))
        assert tr.status == CONVERGED
        for pair in tr.iterates:
            assert np.array_equal(pair.x, pair.y)
        assert abs(tr.final_pair.x[0]) < 1e-11

    def test_averaging_map_two_cycle_detected(self):
        f = get_operator("example_4_1")
        tr = picard_double(f, [1.0], [1.0], cfg(PICARD_DOUBLE, max_iter=1000))
        assert tr.status == MAX_ITER_REACHED
        assert tr.cycle_detected
        assert tr.step_indices == [0, 1, 2]
        assert np.array_equal(tr.iterates[2].x, tr.iterates[0].x)

    @pytest.mark.parametrize("start", [1e308, 1.7e308, np.finfo(float).max])
    def test_two_cycle_detected_up_to_the_float_maximum(self, start):
        # F(x, y) = -x flips every iterate: an exact 2-cycle from any start,
        # here from starts where the cycle's scale and amplitude overflow a
        # double (from 1.0 the same run stops at step 2 too).
        big = np.finfo(float).max
        f = BivariateOperator(
            name="flip", domain=Box([-big], [big]), evaluator=lambda x, y: -x, range_in_domain=True
        )
        tr = picard_double(f, [start], [start], cfg(PICARD_DOUBLE, max_iter=50))
        assert (tr.status, tr.cycle_detected, tr.step_indices) == (MAX_ITER_REACHED, True, [0, 1, 2])
        assert np.array_equal(tr.iterates[2].x, tr.iterates[0].x)

    @pytest.mark.parametrize("d", [2, 5, 100])
    def test_two_cycle_detected_where_the_norms_pass_the_float_maximum(self, d):
        # The same flip in d dimensions: from 1.7e308 and up every iterate's
        # norm exceeds the float maximum, and so does 1e308 from d = 5 on.
        big = np.finfo(float).max
        f = BivariateOperator(
            name="flip", domain=Box([-big] * d, [big] * d), evaluator=lambda x, y: -x, range_in_domain=True
        )
        for start in (1e308, 1.7e308, big):
            tr = picard_double(f, [start] * d, [-start] * d, cfg(PICARD_DOUBLE, max_iter=50))
            assert (tr.status, tr.cycle_detected, tr.step_indices) == (MAX_ITER_REACHED, True, [0, 1, 2]), start

    def test_converged_pair_not_asserted_fixed(self):
        # The engine must stop by residual without claiming anything about
        # which fixed point (if any) was reached; the skew-map limit from
        # unequal starts is NOT the equal-component point.
        f = get_operator("example_2_1")
        tr = picard_double(f, [1.0], [0.0], cfg(PICARD_DOUBLE, tol=1e-10, max_iter=200))
        assert tr.status == CONVERGED
        assert norm(tr.final_pair.x - np.array([0.0])) > 0.4


class TestDoubleRelaxedScheme:
    def test_skew_map_preserves_component_difference(self):
        f = get_operator("example_2_1")
        tr = krasnoselskij_double(
            f, [1.0], [0.0], cfg(KRASNOSELSKIJ_DOUBLE, theta=0.5, tol=1e-12, max_iter=300)
        )
        assert tr.status == CONVERGED
        for pair in tr.iterates:
            assert pair.x[0] - pair.y[0] == pytest.approx(1.0, rel=1e-12)
        assert tr.final_pair.x == pytest.approx([0.5], abs=1e-11)
        assert tr.final_pair.y == pytest.approx([-0.5], abs=1e-11)

    def test_skew_map_unequal_fixed_pair_is_stationary(self):
        f = get_operator("example_2_1")
        tr = krasnoselskij_double(
            f, [1.0], [-1.0], cfg(KRASNOSELSKIJ_DOUBLE, theta=0.5, tol=1e-10)
        )
        assert tr.status == CONVERGED
        assert tr.step_indices == [0]
        assert tr.residuals == [0.0]

    def test_averaging_map_matches_pair_formula(self):
        f = get_operator("example_4_1")
        for lam in (0.3, 0.5, 0.7):
            h = OracleHandle("double_krasnoselskij_example_2_1", [0.8], [-0.45], lam=lam)
            tr = krasnoselskij_double(
                f, [0.8], [-0.45],
                cfg(KRASNOSELSKIJ_DOUBLE, theta=engine_theta(h), tol=1e-300, max_iter=60),
            )
            for n, pair in zip(tr.step_indices, tr.iterates):
                ref = oracle_iterate(h, n)
                assert abs(pair.x[0] - ref.x[0]) <= 1e-12 * (1.0 + abs(ref.x[0]))
                assert abs(pair.y[0] - ref.y[0]) <= 1e-12 * (1.0 + abs(ref.y[0]))
            assert oracle_limit(h) == CoupledPair([0.0], [0.0])

    def test_equal_starts_bit_identical_to_diagonal(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            f = random_linear_operator(rng, d=int(rng.integers(1, 6)))
            x0 = sample_in_box(rng, f.domain)
            theta = float(rng.uniform(0.1, 0.9))
            diag = krasnoselskij_diagonal(
                f, x0, cfg(KRASNOSELSKIJ_DIAGONAL, theta=theta, tol=1e-10, max_iter=400)
            )
            dbl = krasnoselskij_double(
                f, x0, x0.copy(), cfg(KRASNOSELSKIJ_DOUBLE, theta=theta, tol=1e-10, max_iter=400)
            )
            assert diag.step_indices == dbl.step_indices
            assert diag.residuals == dbl.residuals
            assert diag.status == dbl.status
            for p, q in zip(diag.iterates, dbl.iterates):
                assert p == q


class TestDomainHandling:
    def test_quadratic_map_forces_guard(self):
        f = get_operator("example_2_2")
        tr = krasnoselskij_diagonal(
            f, [3.0], cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.5, max_iter=50, guard_domain=False)
        )
        assert tr.scheme_config.guard_domain is True
        for pair in tr.iterates:
            assert f.domain.contains(pair.x, slack=1e-12)

    def test_lying_metadata_yields_left_domain(self):
        # Operator claims to be a self-map but pushes points outside.
        f = BivariateOperator(
            name="escaper",
            domain=Box([-1.0], [1.0]),
            evaluator=lambda x, y: x + 1.5,
            range_in_domain=True,
        )
        tr = krasnoselskij_diagonal(f, [0.5], cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.9, max_iter=50))
        assert tr.status == LEFT_DOMAIN
        assert not f.domain.contains(tr.final_pair.x)

    def test_escape_where_operator_is_undefined_yields_left_domain(self):
        # F is NaN off its box, so the escaped point cannot be evaluated; the
        # run still reports the escape and ends at the last pair inside.
        f = BivariateOperator(
            name="undefined_outside",
            domain=Box([-1.0], [1.0]),
            evaluator=lambda x, y: np.where(np.abs(x) <= 1.0, 1.5 * x, np.nan),
            range_in_domain=True,
        )
        tr = krasnoselskij_diagonal(f, [0.9], cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.9, max_iter=50))
        assert tr.status == LEFT_DOMAIN
        assert tr.n_steps == 0
        assert tr.final_pair == CoupledPair([0.9], [0.9])

    def test_wrong_output_dimension_propagates_after_step_zero(self):
        # Halves x until |x| <= 0.1, then returns two coordinates: an evaluator
        # defect, not a divergence, so no status may absorb it.
        f = BivariateOperator(
            name="shrinking",
            domain=Box([-1.0], [1.0]),
            evaluator=lambda x, y: 0.5 * x if abs(x[0]) > 0.1 else np.zeros(2),
            range_in_domain=True,
        )
        # The message public eval gives at the pair the run reaches at step 4.
        message = "^" + re.escape("operator 'shrinking' returned shape (2,), expected (1,)") + "$"
        with pytest.raises(OutputDimensionError, match=message):
            f.eval([0.0625], [0.0625])
        with pytest.raises(OutputDimensionError, match=message):
            picard_double(f, [1.0], [1.0], cfg(PICARD_DOUBLE, max_iter=50))

    @pytest.mark.parametrize("scheme", iteration_mod.SCHEMES)
    def test_wrong_output_shape_of_either_call_propagates(self, scheme):
        # Two coordinates where the first argument is negative: at the starting pair
        # (0.5, -0.5) that is F(y, x) alone, the step's second call; on the diagonal from -0.5, both.
        f = BivariateOperator(
            name="sign_shaped",
            domain=Box([-1.0], [1.0]),
            evaluator=lambda x, y: np.zeros(2) if x[0] < 0.0 else 0.5 * x,
            range_in_domain=True,
        )
        x0 = [-0.5] if scheme == KRASNOSELSKIJ_DIAGONAL else [0.5]
        message = "^" + re.escape("operator 'sign_shaped' returned shape (2,), expected (1,)") + "$"
        with pytest.raises(OutputDimensionError, match=message):
            run_scheme(f, cfg(scheme, theta=0.5, max_iter=50), x0, [-0.5])

    def test_nonfinite_second_image_ends_the_run_at_the_pair_before(self):
        # F is 0.9 where its first argument is at most 0.5, else NaN. From (-1, 0) at theta 0.3,
        # y passes 0.5 at step 3 while x does not: there F(x, y) is finite and F(y, x) is not.
        f = BivariateOperator(
            name="nan_above_half",
            domain=Box([-1.0], [1.0]),
            evaluator=lambda x, y: np.where(x > 0.5, np.nan, 0.9),
            range_in_domain=True,
        )
        tr = krasnoselskij_double(f, [-1.0], [0.0], cfg(KRASNOSELSKIJ_DOUBLE, theta=0.3, max_iter=50))
        x, y = -1.0, 0.0
        for _ in range(2):  # the engine's arithmetic: (1 - theta) * z, then += theta * F
            x, y = (1.0 - 0.3) * x + 0.3 * 0.9, (1.0 - 0.3) * y + 0.3 * 0.9
        assert y <= 0.5 < (1.0 - 0.3) * y + 0.3 * 0.9 and (1.0 - 0.3) * x + 0.3 * 0.9 <= 0.5
        assert (tr.status, tr.n_steps, tr.step_indices) == (DIVERGED_NONFINITE, 2, [0, 1, 2])
        assert [v.hex() for v in (*tr.final_pair.x.tolist(), *tr.final_pair.y.tolist())] == [x.hex(), y.hex()]
        assert tr.final_residual == max(abs(x - 0.9), abs(y - 0.9))

    def test_nonfinite_first_image_ends_the_run_at_the_pair_before(self):
        # The mirror of the test above: from (0, -1), x passes 0.5 at step 3 while y does not,
        # so F(x, y) is NaN and F(y, x) is finite. The residual's NaN row must not be dropped.
        f = BivariateOperator(
            name="nan_above_half",
            domain=Box([-1.0], [1.0]),
            evaluator=lambda x, y: np.where(x > 0.5, np.nan, 0.9),
            range_in_domain=True,
        )
        tr = krasnoselskij_double(f, [0.0], [-1.0], cfg(KRASNOSELSKIJ_DOUBLE, theta=0.3, max_iter=50))
        assert (tr.status, tr.n_steps, tr.step_indices) == (DIVERGED_NONFINITE, 2, [0, 1, 2])
        assert np.isfinite(tr.residuals).all()

    @pytest.mark.parametrize("scheme", iteration_mod.SCHEMES)
    def test_nonfinite_first_image_then_wrong_shape_propagates(self, scheme):
        # Step 1's F(x, y) is NaN and its F(y, x) has the wrong shape. Both calls run before
        # the images are counted, so the shape error propagates rather than ending the run.
        calls = []

        def evaluator(x, y):
            calls.append(None)
            if len(calls) == 3:
                return np.array([np.nan])
            return np.zeros(2) if len(calls) == 4 else 0.5 * x

        f = BivariateOperator(
            name="nan_then_wrong_shape", domain=Box([-1.0], [1.0]), evaluator=evaluator, range_in_domain=True
        )
        message = "^" + re.escape("operator 'nan_then_wrong_shape' returned shape (2,), expected (1,)") + "$"
        with pytest.raises(OutputDimensionError, match=message):
            run_scheme(f, cfg(scheme, theta=0.5, max_iter=50), [0.5], [0.25])
        assert len(calls) == 4

    def test_nonfinite_step_diverges(self):
        f = BivariateOperator(
            name="blowup",
            domain=Box([-np.finfo(float).max], [np.finfo(float).max]),
            evaluator=lambda x, y: x * 1e250,
            range_in_domain=True,
        )
        with np.errstate(over="ignore"):
            tr = krasnoselskij_diagonal(
                f, [1.0], cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.9, max_iter=50)
            )
        assert tr.status == DIVERGED_NONFINITE
        for pair in tr.iterates:
            assert np.isfinite(pair.x).all()

    def test_nonfinite_evaluation_at_the_start_propagates(self):
        # No pair was evaluated before, so there is nothing to end the trace on. The
        # message is the one public eval gives at the starting pair.
        message = "^" + re.escape("operator 'blowup' returned non-finite output") + "$"
        with np.errstate(over="ignore"), pytest.raises(NonFiniteEvaluationError, match=message):
            blowup().eval([1e100], [1e100])
        with pytest.raises(NonFiniteEvaluationError, match=message):
            krasnoselskij_diagonal(blowup(), [1e100], cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.9, max_iter=50))


FLOAT_MAX = np.finfo(float).max
NEXT_BELOW_MAX = np.nextafter(FLOAT_MAX, 0.0)


class TestRelaxedStepStaysFinite:
    # Why the engine tests no new iterate for finiteness. Take |a|, |b| <= M (the
    # float maximum), theta in (0, 1) and c = fl(1 - theta). Rounding is monotone,
    # so it is enough that fl(c M) + fl(theta M) < M + ulp(M) / 2. Scaled by
    # 2**-971, M is N = 2**53 - 1, and that bound reads N + 1/2.
    # - theta <= 1/2, c > 1/2: with k = 2**53 c and j = 2**53 - k = round(theta 2**53),
    #   fl(c N) = fl(k - c) = k - 1 and fl(theta N) <= theta 2**53 <= j + 1/2. Both
    #   equalities would need theta = 2**-54, and there fl(theta N) < 1/2.
    # - c = 1/2: theta is 1/2 or 1/2 - 2**-54, fl(c N) = 2**52 - 1/2 and
    #   fl(theta N) <= 2**52 - 1/2, so the sum is at most N.
    # - theta > 1/2: c = 1 - theta exactly (Sterbenz), fl(theta N) = theta 2**53 - 1
    #   and fl(c N) <= c N + 1/4, so the sum is at most N + 1/4.
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    @example(2.0**-54)
    @example(0.5 - 2.0**-54)
    @example(0.5)
    @example(1.0 - 2.0**-53)
    @settings(deadline=None)
    def test_convex_combination_next_to_the_float_maximum(self, theta):
        near = np.array([FLOAT_MAX, -FLOAT_MAX, NEXT_BELOW_MAX, -NEXT_BELOW_MAX])
        a, b = np.repeat(near, 4), np.tile(near, 4)
        assert np.isfinite((1.0 - theta) * a + theta * b).all()

    @pytest.mark.parametrize("theta", [2.0**-54, 0.5 - 2.0**-54, 0.5, 1.0 - 2.0**-53, 0.3, 0.9])
    @pytest.mark.parametrize("scheme", [KRASNOSELSKIJ_DIAGONAL, KRASNOSELSKIJ_DOUBLE])
    def test_run_from_the_float_minimum_to_the_maximum(self, scheme, theta):
        f = BivariateOperator(
            name="ceiling",
            domain=Box([-FLOAT_MAX], [FLOAT_MAX]),
            evaluator=lambda x, y: np.full_like(x, FLOAT_MAX),
            range_in_domain=True,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = run_scheme(f, cfg(scheme, theta=theta, max_iter=200), [-FLOAT_MAX], [-FLOAT_MAX])
        assert tr.status in (CONVERGED, MAX_ITER_REACHED)
        assert all(np.isfinite(pair.x).all() and np.isfinite(pair.y).all() for pair in tr.iterates)


class TestTraceMechanics:
    def test_lengths_consistent(self):
        f = get_operator("example_4_1")
        tr = krasnoselskij_diagonal(
            f, [1.0], cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.3, max_iter=25, tol=1e-300),
            target=[0.0],
        )
        assert len(tr.iterates) == len(tr.residuals) == len(tr.step_indices)
        assert tr.distances_to_target is not None
        assert len(tr.distances_to_target) == len(tr.iterates)
        # Distance here is just |x_n|, and residual is exactly 2|x_n|.
        for pair, r, d in zip(tr.iterates, tr.residuals, tr.distances_to_target):
            assert d == pytest.approx(abs(pair.x[0]), rel=1e-15, abs=1e-300)
            assert r == pytest.approx(2.0 * abs(pair.x[0]), rel=1e-14, abs=1e-300)

    def test_thinning_respects_cap(self, monkeypatch):
        monkeypatch.setattr(iteration_mod, "TRACE_CAP", 50)
        f = get_operator("example_4_1")
        tr = krasnoselskij_diagonal(
            f, [1.0], cfg(KRASNOSELSKIJ_DIAGONAL, theta=1e-5, max_iter=2000, tol=1e-300)
        )
        assert tr.status == MAX_ITER_REACHED
        assert len(tr.iterates) <= 51  # stride keeps the cap, plus the forced final entry
        assert tr.step_indices[-1] == 2000
        stride = tr.step_indices[1] - tr.step_indices[0]
        assert stride == -(-2001 // 50)
        assert len(tr.residuals) == len(tr.iterates)

    def test_thinned_run_keeps_the_last_pair_before_a_nonfinite_evaluation(self, monkeypatch):
        # Stride ceil(5001 / 50) = 101. F = 2x doubles the iterate until
        # F(2**1023) overflows, so the run ends at step 1022, which thinning
        # skipped: the trace must still end on the last pair evaluated.
        monkeypatch.setattr(iteration_mod, "TRACE_CAP", 50)
        big = np.finfo(float).max
        f = BivariateOperator(
            name="doubling", domain=Box([-big], [big]), evaluator=lambda x, y: 2.0 * x, range_in_domain=True
        )
        tr = picard_double(f, [1.0], [1.0], cfg(PICARD_DOUBLE, max_iter=5000))
        assert tr.status == DIVERGED_NONFINITE
        assert tr.n_steps == 1022
        assert tr.final_pair.x[0] == 2.0**1022
        assert tr.final_residual == 2.0**1022  # that pair's own residual, |2**1022 - 2**1023|
        assert tr.step_indices[:-1] == list(range(0, 1022, 101))

    def test_thinned_nonfinite_exit_keeps_the_distance_of_the_restored_pair(self, monkeypatch):
        # As above, with a target: the pair restored at step 1022 gets its own distance.
        monkeypatch.setattr(iteration_mod, "TRACE_CAP", 50)
        big = np.finfo(float).max
        f = BivariateOperator(
            name="doubling", domain=Box([-big], [big]), evaluator=lambda x, y: 2.0 * x, range_in_domain=True
        )
        tr = picard_double(f, [1.0], [1.0], cfg(PICARD_DOUBLE, max_iter=5000), target=[0.0])
        assert tr.status == DIVERGED_NONFINITE
        assert tr.n_steps == 1022
        assert len(tr.distances_to_target) == len(tr.iterates)
        assert tr.distances_to_target[-1] == 2.0**1022

    def test_seed_carried_in_config(self):
        f = get_operator("example_4_1")
        tr = krasnoselskij_diagonal(f, [1.0], cfg(KRASNOSELSKIJ_DIAGONAL, seed=77))
        assert tr.scheme_config.seed == 77

    def test_run_scheme_dispatch(self):
        f = get_operator("example_4_1")
        tr = run_scheme(f, cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.5), [1.0])
        assert tr.status == CONVERGED
        with pytest.raises(ValueError, match="y0"):
            run_scheme(f, cfg(PICARD_DOUBLE), [1.0])
        with pytest.raises(ValueError, match="scheme"):
            run_scheme(f, cfg("banach"), [1.0], [1.0])


def _linear_run(scheme, guard):
    f = random_linear_operator(np.random.default_rng(7), d=3)
    xbar = f.known_coupled_fixed_points[0].x
    x0, y0 = xbar + [0.5, -0.5, 1.0], xbar - [1.0, 0.25, 0.5]
    c = cfg(scheme, theta=0.4, tol=1e-300, max_iter=40, guard_domain=guard)
    return run_scheme(f, c, x0, y0), (x0, y0)


def _doubling():
    big = np.finfo(float).max
    return BivariateOperator(
        name="doubling", domain=Box([-big], [big]), evaluator=lambda x, y: 2.0 * x, range_in_domain=True
    )


def _counted_run(scheme, guard, tol, max_iter, d=3):
    # A run of a linear operator whose evaluator counts its calls, from arrays
    # the caller keeps: x0, y0 and the target. At d = 1 a relaxed unguarded run
    # takes the engine's float loop.
    base = random_linear_operator(np.random.default_rng(11), d=d)
    calls = []

    def counting(x, y):
        calls.append(1)
        return base.evaluator(x, y)

    f = dataclasses.replace(base, evaluator=counting)
    xbar = f.known_coupled_fixed_points[0].x
    x0, y0 = xbar + [0.5, -0.5, 1.0][:d], xbar - [1.0, 0.25, 0.5][:d]
    c = cfg(scheme, theta=0.4, tol=tol, max_iter=max_iter, guard_domain=guard)
    trace = run_scheme(f, c, x0, None if scheme == KRASNOSELSKIJ_DIAGONAL else y0, target=xbar)
    return trace, len(calls), (x0, y0, xbar)


# Converged, and stopped by max_iter while still moving.
_COUNTED_STOPS = {CONVERGED: dict(tol=1e-9, max_iter=1000), MAX_ITER_REACHED: dict(tol=1e-300, max_iter=12)}


# name: (TRACE_CAP, run, status, or None for any); run returns the trace and the arrays its
# caller keeps. Every scheme guarded and not, converged and stopped by max_iter, both
# non-finite exits (each steps back to the pair evaluated last), and two thinned runs.
_CAP = iteration_mod.TRACE_CAP
MEMORY_RUNS = {
    **{
        f"{scheme}-guard_{guard}": (_CAP, lambda s=scheme, g=guard: _linear_run(s, g), None)
        for scheme in iteration_mod.SCHEMES
        for guard in (False, True)
    },
    **{
        f"{scheme}-guard_{guard}-{status}{'' if d == 3 else f'-d{d}'}": (
            _CAP,
            lambda s=scheme, g=guard, st=status, d=d: _counted_run(s, g, **_COUNTED_STOPS[st], d=d)[::2],
            status,
        )
        for scheme in iteration_mod.SCHEMES
        for guard in (False, True)
        for status in sorted(_COUNTED_STOPS)
        for d in (3, 1)
    },
    "nonfinite_picard": (
        _CAP,
        lambda: (picard_double(blowup(), [1e-300], [1e-300], cfg(PICARD_DOUBLE, tol=1e-300)), ()),
        DIVERGED_NONFINITE,
    ),
    "nonfinite_after_escape": (
        _CAP,
        lambda: (krasnoselskij_double(undefined_outside(), [0.9], [0.8], cfg(KRASNOSELSKIJ_DOUBLE, theta=0.1)), ()),
        LEFT_DOMAIN,
    ),
    "thinned_nonfinite": (
        50,
        lambda: (picard_double(_doubling(), [1.0], [1.0], cfg(PICARD_DOUBLE, max_iter=5000)), ()),
        DIVERGED_NONFINITE,
    ),
    "thinned_relaxed": (
        50,
        lambda: (
            krasnoselskij_diagonal(
                get_operator("example_4_1"), [1.0], cfg(KRASNOSELSKIJ_DIAGONAL, theta=1e-5, max_iter=2000, tol=1e-300)
            ),
            (),
        ),
        MAX_ITER_REACHED,
    ),
}


class TestRecordedPairsOwnTheirMemory:
    @pytest.mark.parametrize("name", MEMORY_RUNS)
    def test_no_entry_shares_memory_with_another(self, name, monkeypatch):
        cap, run, status = MEMORY_RUNS[name]
        monkeypatch.setattr(iteration_mod, "TRACE_CAP", cap)
        trace, kept = run()
        assert status in (None, trace.status)
        arrays = [(k, v) for k, pair in enumerate(trace.iterates) for v in pair]
        shared = [
            (k, m) for i, (k, u) in enumerate(arrays) for m, v in arrays[i + 1 :] if k != m and np.shares_memory(u, v)
        ]
        assert shared == []
        # Nor with an array the caller passed in: x0, y0 or the target.
        assert [k for k, v in arrays if any(np.shares_memory(v, w) for w in kept)] == []

    @pytest.mark.parametrize("name", MEMORY_RUNS)
    def test_writing_one_entry_leaves_the_others(self, name, monkeypatch):
        cap, run, _ = MEMORY_RUNS[name]
        monkeypatch.setattr(iteration_mod, "TRACE_CAP", cap)
        trace, _ = run()
        before = [CoupledPair(pair.x.copy(), pair.y.copy()) for pair in trace.iterates]
        for k, pair in enumerate(trace.iterates):
            pair.x[...] = np.nan
            assert [m for m, (p, q) in enumerate(zip(trace.iterates, before)) if p != q] == [k]
            assert np.array_equal(pair.y, before[k].y)
            pair.x[...] = before[k].x


class TestEngineEvaluationsAndOwnership:
    # The benchmark's evals_per_step pin counts two evaluations a step. (The
    # same runs are in MEMORY_RUNS, which guards the in-place update.)
    @pytest.mark.parametrize("status", sorted(_COUNTED_STOPS))
    @pytest.mark.parametrize("guard", [False, True])
    @pytest.mark.parametrize("scheme", iteration_mod.SCHEMES)
    def test_two_evaluations_a_step_plus_two_at_the_final_pair(self, scheme, guard, status):
        for d in (3, 1):
            trace, calls, _ = _counted_run(scheme, guard, **_COUNTED_STOPS[status], d=d)
            assert trace.status == status
            assert calls == 2 * (trace.n_steps + 1)


def _quarter_difference(writes: bool, d: int) -> BivariateOperator:
    # F(x, y) = (x - y) / 4 on [-1, 1]^d. The writing form doubles its arguments in
    # place first, as test_evaluator_gets_copies's does; its images have the same bits.
    def writing(x, y):
        x *= 2.0
        y *= 2.0
        return (x - y) / 8.0

    return BivariateOperator(
        name="quarter_difference",
        domain=Box(-np.ones(d), np.ones(d)),
        evaluator=writing if writes else lambda x, y: (x - y) / 4.0,
        range_in_domain=True,
    )


class TestEvaluatorWritingIntoItsArguments:
    @pytest.mark.parametrize("guard", [False, True])
    @pytest.mark.parametrize("scheme", iteration_mod.SCHEMES)
    def test_cannot_change_the_trace(self, scheme, guard):
        # At d = 1 a relaxed unguarded run takes the engine's float loop.
        for d in (2, 1):
            x0, y0 = np.array([0.75, -0.5][:d]), np.array([-0.25, 0.625][:d])
            c = cfg(scheme, theta=0.4, tol=1e-300, max_iter=25, guard_domain=guard)
            runs = [
                run_scheme(_quarter_difference(writes, d), c, x0, None if scheme == KRASNOSELSKIJ_DIAGONAL else y0)
                for writes in (False, True)
            ]
            pure, written = runs
            assert (pure.status, pure.n_steps) == (MAX_ITER_REACHED, 25)
            assert written == pure
            hexes = [[v.hex() for v in (*t.final_pair.x.tolist(), *t.final_pair.y.tolist())] for t in runs]
            assert hexes[1] == hexes[0]
            assert x0.tolist() == [0.75, -0.5][:d] and y0.tolist() == [-0.25, 0.625][:d]


def _line_operator(kind, a, b, c, radius):
    # One-dimensional operators for the float loop's reference test. "linear" is F = a x + b y + c
    # on [-radius, radius] with make_linear_operator's range verdict; "claimed" is the same map
    # declared a self-map, so it runs unguarded and may leave its box or overflow; "nan_above" is
    # the claimed map where the first argument is at most 1/2, and NaN above.
    if kind in ("example_2_1", "example_2_2", "example_4_1"):
        return get_operator(kind)
    if kind == "escaper":
        return escaper()
    f = make_linear_operator([[a]], [[b]], [c], Box([-radius], [radius]), attach_fixed_point=False)
    if kind == "linear":
        return f
    if kind == "nan_above":
        f = dataclasses.replace(f, evaluator=lambda x, y, g=f.evaluator: np.where(x > 0.5, np.nan, g(x, y)))
    return dataclasses.replace(f, range_in_domain=True)


def _bits(run):
    # Everything a run returns, each float as float.hex, or the exception it raised.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run()
    except ValueError as exc:
        return type(exc), str(exc)
    distances = trace.distances_to_target
    return (
        trace.status, trace.step_indices, trace.scheme_config, trace.operator_name, trace.cycle_detected,
        [_hexes(pair.x.tolist() + pair.y.tolist()) for pair in trace.iterates],
        _hexes(trace.residuals), None if distances is None else _hexes(distances),
        {type(v) for v in (*trace.residuals, *(distances or ()))},
    )


def _hexes(values):
    return [v.hex() for v in values]


RELAXED = (KRASNOSELSKIJ_DIAGONAL, KRASNOSELSKIJ_DOUBLE)
_LINE_STARTS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e-300, 0.5, -1.0, 1e300, -1e300])


@st.composite
def _line_runs(draw):
    kinds = ["linear", "claimed", "nan_above", "example_2_1", "example_2_2", "example_4_1", "escaper"]
    kind = draw(st.sampled_from(kinds))
    a, b, c = (draw(st.floats(-3.0, 3.0)) for _ in range(3))
    radius = draw(st.sampled_from([1.0, 4.0, 2e300, FLOAT_MAX]))
    box = _line_operator(kind, a, b, c, radius).domain
    x0, y0 = (min(max(draw(_LINE_STARTS | st.floats(-radius, radius)), box.lower[0]), box.upper[0]) for _ in "xy")
    kw = dict(
        theta=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        tol=draw(st.sampled_from([5e-324, 1e-300, 1e-12]) | st.floats(1e-300, 1.0)),
        max_iter=draw(st.integers(1, 200)),
    )
    target = draw(st.none() | _LINE_STARTS | st.floats(allow_nan=False, allow_infinity=False))
    cap = draw(st.none() | st.integers(1, 20))
    return kind, a, b, c, radius, draw(st.sampled_from(RELAXED)), x0, y0, kw, target, cap


# F(y, x) turns NaN at step 3 while F(x, y) does not: the residual must keep a NaN in second place.
_NONFINITE_LINE_RUN = ("nan_above", 0.0, 0.0, 0.9, 1.0, KRASNOSELSKIJ_DOUBLE, -1.0, 0.0, dict(theta=0.3), None, None)


class TestFloatLoopMatchesTheBlockLoop:
    # A relaxed unguarded run at d = 1 takes the float loop; the block loop, called on the
    # same checked start, is its reference, bit for bit.
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("guard", [False, True])
    @pytest.mark.parametrize("scheme", iteration_mod.SCHEMES)
    def test_the_float_loop_takes_relaxed_unguarded_runs_at_d_1(self, scheme, guard, d):
        taken, float_loop = [], iteration_mod._float_loop

        def counted(*start):
            taken.append(None)
            return float_loop(*start)

        f = _quarter_difference(False, d)
        with mock.patch.object(iteration_mod, "_float_loop", counted):
            run_scheme(f, cfg(scheme, max_iter=5, guard_domain=guard), np.full(d, 0.5), np.full(d, -0.5))
        assert len(taken) == (d == 1 and not guard and scheme != PICARD_DOUBLE)

    @settings(deadline=None, max_examples=200)
    @given(_line_runs())
    # F(y, x) turns NaN at step 3 while F(x, y) does not: the residual must keep a NaN in second place.
    @example(("nan_above", 0.0, 0.0, 0.9, 1.0, KRASNOSELSKIJ_DOUBLE, -1.0, 0.0, dict(theta=0.3), None, None))
    # The iterates settle on 1 + 1e-13, above the box but inside the escape slack.
    @example((
        "claimed", 0.0, 0.0, 1.0 + 1e-13, 1.0, KRASNOSELSKIJ_DIAGONAL, 0.5, 0.5,
        dict(theta=0.5, tol=1e-300, max_iter=80), None, None,
    ))
    # From the float maximum's neighbourhood, F = 3x overflows; thinned by a cap of 3, with a target.
    @example((
        "claimed", 3.0, 0.0, 0.0, FLOAT_MAX, KRASNOSELSKIJ_DOUBLE, 1e300, -1e300, dict(theta=0.5, max_iter=200), 0.0, 3,
    ))
    @example(("linear", 0.5, -0.25, 0.0, 1.0, KRASNOSELSKIJ_DIAGONAL, -0.0, -0.0, dict(theta=0.3), -0.0, None))
    @example((
        "linear", 0.5, -0.25, 0.0, 1.0, KRASNOSELSKIJ_DOUBLE, 1e-320, -5e-324,
        dict(theta=0.3, tol=5e-324, max_iter=20), 5e-324, 2,
    ))
    @example(("escaper", 0.0, 0.0, 0.0, 1.0, KRASNOSELSKIJ_DOUBLE, 0.5, -0.5, dict(theta=0.9, max_iter=50), None, None))
    def test_run_scheme_equals_the_block_loop(self, run):
        kind, a, b, c, radius, scheme, x0, y0, kw, target, cap = run
        f = _line_operator(kind, a, b, c, radius)
        config = cfg(scheme, **kw)
        y0 = x0 if scheme == KRASNOSELSKIJ_DIAGONAL else y0
        target = None if target is None else [target]
        with mock.patch.object(iteration_mod, "TRACE_CAP", cap or iteration_mod.TRACE_CAP):
            got = _bits(lambda: run_scheme(f, config, [x0], [y0], target))
            want = _bits(lambda: iteration_mod._block_loop(*iteration_mod._start(f, [x0], [y0], config, target, scheme)))
        assert got == want

    @settings(deadline=None, max_examples=100)
    @given(_line_runs())
    @example(_NONFINITE_LINE_RUN)
    def test_the_evaluator_is_handed_the_same_arguments(self, run):
        # Trace equality cannot see x and y swapped in a call when F is symmetric, as example_4_1
        # is; the bits of every argument, in call order, can.
        logs = {loop: _argument_log(run, loop) for loop in ("run_scheme", "_block_loop")}
        assert logs["run_scheme"] == logs["_block_loop"]

    def test_the_explicit_run_ends_diverged_nonfinite(self):
        log, ended = _argument_log(_NONFINITE_LINE_RUN, "run_scheme")
        assert ended == DIVERGED_NONFINITE and len(log) == 8


class TestMarkedEvaluatorOnFloats:
    # The float loop evaluates a marked evaluator on floats; its arguments must still be the
    # block loop's, bit for bit and in call order.
    @settings(deadline=None, max_examples=100)
    @given(_line_runs())
    @example(_NONFINITE_LINE_RUN)
    @example(("linear", 2.0, 2.0, -0.0, 1.0, KRASNOSELSKIJ_DOUBLE, -0.0, -0.0, dict(theta=0.5), None, None))
    def test_a_marked_wrapper_is_handed_the_same_arguments(self, run):
        logs = {loop: _argument_log(run, loop, marked=True) for loop in ("run_scheme", "_block_loop")}
        assert logs["run_scheme"] == logs["_block_loop"]


def _argument_log(run, loop, marked=False):
    # float.hex of the x and y of every evaluator call of a _line_runs() run, in call order,
    # and the status it ended with or the exception it raised. A marked log's wrapper takes
    # floats when the evaluator it wraps does.
    kind, a, b, c, radius, scheme, x0, y0, kw, target, cap = run
    f = _line_operator(kind, a, b, c, radius)
    log = []

    def logging(x, y, g=f.evaluator):
        log.append(_hexes(np.ravel(x).tolist()) + _hexes(np.ravel(y).tolist()))
        return g(x, y)

    if marked and getattr(f.evaluator, "takes_floats", False):
        _takes_floats(logging)
    f = dataclasses.replace(f, evaluator=logging)
    config = cfg(scheme, **kw)
    y0 = x0 if scheme == KRASNOSELSKIJ_DIAGONAL else y0
    target = None if target is None else [target]
    with mock.patch.object(iteration_mod, "TRACE_CAP", cap or iteration_mod.TRACE_CAP):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                if loop == "run_scheme":
                    ended = run_scheme(f, config, [x0], [y0], target).status
                else:
                    ended = iteration_mod._block_loop(*iteration_mod._start(f, [x0], [y0], config, target, scheme)).status
        except ValueError as exc:
            ended = type(exc)
    return log, ended


class TestFejerMonotonicity:
    def test_averaging_map_strict_decay(self):
        f = get_operator("example_4_1")
        tr = krasnoselskij_diagonal(
            f, [1.0], cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.25, tol=1e-300, max_iter=100)
        )
        report = verify_fejer_monotonicity(tr, [0.0])
        assert report.passed
        assert report.check("distance_nonincreasing").passed
        assert report.check("residual_energy_bound").passed

    def test_constant_operator_one_step_structure(self):
        c = 0.4
        f = BivariateOperator(
            name="constant",
            domain=Box([-1.0], [1.0]),
            evaluator=lambda x, y: np.full_like(x, c),
            range_in_domain=True,
        )
        theta = 0.3
        tr = krasnoselskij_diagonal(
            f, [-0.8], cfg(KRASNOSELSKIJ_DIAGONAL, theta=theta, tol=1e-14, max_iter=200)
        )
        assert tr.status == CONVERGED
        report = verify_fejer_monotonicity(tr, [c])
        assert report.passed
        # One relaxed step scales the distance to the image point by (1 - theta).
        d0 = abs(-0.8 - c)
        d1 = abs(tr.iterates[1].x[0] - c)
        assert d1 == pytest.approx((1.0 - theta) * d0, rel=1e-12)

    def test_random_linear_operators_all_thetas(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            f = random_linear_operator(rng, norm_sum=0.9)
            (fixed,) = f.known_coupled_fixed_points
            x0 = sample_in_box(rng, f.domain)
            for theta in (0.1, 0.25, 0.5, 0.75, 0.9):
                tr = krasnoselskij_diagonal(
                    f, x0, cfg(KRASNOSELSKIJ_DIAGONAL, theta=theta, tol=1e-12, max_iter=3000)
                )
                assert verify_fejer_monotonicity(tr, fixed.x).passed

    def test_double_trace_uses_product_distance(self):
        # From (0.1, 0.9) the skew map's relaxed double scheme converges to
        # (-0.4, 0.4); the product distance to the coupled fixed points
        # (0, 0) and (-0.4, 0.4) never increases, though |x_n| does.
        f = get_operator("example_2_1")
        tr = krasnoselskij_double(
            f, [0.1], [0.9], cfg(KRASNOSELSKIJ_DOUBLE, theta=0.3, tol=1e-12, max_iter=500)
        )
        assert tr.status == CONVERGED
        for p in ([0.0], CoupledPair([0.0], [0.0]), CoupledPair([-0.4], [0.4])):
            report = verify_fejer_monotonicity(tr, p)
            assert report.passed is True
            assert report.check("distance_nonincreasing").passed is True
            assert report.check("residual_energy_bound").passed is True

    def test_overflowing_distances_fail_the_check(self):
        # F = 2x, declared a self-map of [-max, max]: from 1e200 each relaxed
        # step at theta = 0.5 multiplies x by 1.5. Squared distances overflow,
        # which must count as a violation, not be skipped.
        big = np.finfo(float).max
        f = BivariateOperator(
            name="doubling", domain=Box([-big], [big]), evaluator=lambda x, y: 2.0 * x, range_in_domain=True
        )
        with np.errstate(over="ignore"):
            tr = krasnoselskij_diagonal(f, [1e200], cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.5, max_iter=20))
        assert tr.final_pair.x[0] > 3e203
        assert tr.residuals[0] == 1e200
        report = verify_fejer_monotonicity(tr, [0.0])
        assert report.passed is False
        for name in ("distance_nonincreasing", "residual_energy_bound"):
            check = report.check(name)
            assert check.passed is False
            assert check.worst_violation == float("inf")
            assert "non-finite" in check.detail

    def test_handled_overflow_emits_no_warning(self):
        # The same doubling map, run until the iterate itself overflows: the
        # squares overflow in _norm first, then F's output does. Both end in a
        # status or a finite norm, so the run must not warn about them.
        big = np.finfo(float).max
        f = BivariateOperator(
            name="doubling", domain=Box([-big], [big]), evaluator=lambda x, y: 2.0 * x, range_in_domain=True
        )
        config = cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.5, max_iter=1000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = krasnoselskij_diagonal(f, [1e200], config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = krasnoselskij_diagonal(f, [1e200], config)
        assert tr.status == DIVERGED_NONFINITE
        assert tr.n_steps > 600
        assert tr == expected
        assert trace_to_json(tr) == trace_to_json(expected)

    def test_p_dimension_must_match_the_trace(self):
        tr = krasnoselskij_diagonal(get_operator("example_4_1"), [1.0], cfg(KRASNOSELSKIJ_DIAGONAL))
        with pytest.raises(ValueError, match="^p has dimension 2"):
            verify_fejer_monotonicity(tr, [0.0, 0.0])

    def test_report_check_of_an_unknown_name(self):
        tr = krasnoselskij_diagonal(get_operator("example_4_1"), [1.0], cfg(KRASNOSELSKIJ_DIAGONAL))
        report = verify_fejer_monotonicity(tr, [0.0])
        assert report.check("distance_nonincreasing").passed
        with pytest.raises(KeyError, match="no_such_check"):
            report.check("no_such_check")

    def test_rejects_picard_traces(self):
        f = get_operator("example_2_1")
        tr = picard_double(f, [1.0], [0.0], cfg(PICARD_DOUBLE, max_iter=20))
        with pytest.raises(ValueError, match="Krasnoselskij"):
            verify_fejer_monotonicity(tr, [0.0])


class TestResidualDecay:
    def test_averaging_map_geometric_decay(self):
        f = get_operator("example_4_1")
        theta = 0.3
        tr = krasnoselskij_diagonal(
            f, [1.0], cfg(KRASNOSELSKIJ_DIAGONAL, theta=theta, tol=1e-300, max_iter=100)
        )
        report = verify_residual_decay(tr)
        assert report.passed
        # r_n = 2 |x_n| = 2 |1 - 2*theta|^n, geometric with ratio 0.4.
        for n, r in zip(tr.step_indices, tr.residuals):
            assert r == pytest.approx(2.0 * 0.4**n, rel=1e-12)

    def test_already_fixed_start(self):
        f = get_operator("example_4_1")
        tr = krasnoselskij_diagonal(f, [0.0], cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.5))
        report = verify_residual_decay(tr)
        assert report.passed
        assert tr.residuals == [0.0]

    def test_linear_family_converges_within_budget(self):
        rng = np.random.default_rng(53)
        f = random_linear_operator(rng, d=20, norm_sum=0.945)
        x0 = sample_in_box(rng, f.domain)
        tr = krasnoselskij_diagonal(
            f, x0, cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.5, tol=1e-10, max_iter=2000)
        )
        assert tr.status == CONVERGED
        assert verify_residual_decay(tr).passed

    def test_residuals_at_their_floor_from_the_first_tenth(self):
        # The run reaches its rounding floor, a nonzero residual it then keeps, within
        # its first tenth, so the tail median equals the head median.
        rng = np.random.default_rng(0)
        f = random_linear_operator(rng, d=5, norm_sum=0.5)
        tr = krasnoselskij_diagonal(
            f, sample_in_box(rng, f.domain), cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.5, tol=1e-300, max_iter=2000)
        )
        assert len(set(tr.residuals[200:])) == 1 and 0.0 < tr.final_residual < 1e-15
        report = verify_residual_decay(tr)
        assert report.passed, report.checks

    def test_residual_held_above_the_floor_fails(self):
        # Clamped at 1 by the guard while F pushes on to 2.5: the residual stays 1.5.
        c = cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.5, max_iter=100, guard_domain=True)
        tr = krasnoselskij_diagonal(escaper(), [0.5], c)
        assert set(tr.residuals) == {1.5}
        report = verify_residual_decay(tr)
        assert not report.passed
        assert report.check("tail_median_below_head_median").detail == "head=1.500e+00 tail=1.500e+00"

    @pytest.mark.parametrize("x0, max_iter", [(1e-140, 100), (1e-20, 300)])
    def test_growing_residuals_fail(self, x0, max_iter):
        # Unguarded, theta 0.5 and F = 21 x make each step x -> 11 x, so the residual 20 |x|
        # grows by 11 a step. From 1e-140 the whole run stays below 1e-12; from 1e-20 it
        # ends near 1e292, and its tail, 11**-15 of the final pair, is below 1e-12 of it.
        # A tail above its head fails either way.
        f = BivariateOperator(
            name="times_21",
            domain=Box([-FLOAT_MAX], [FLOAT_MAX]),
            evaluator=lambda x, y: 21.0 * x,
            range_in_domain=True,
        )
        tr = krasnoselskij_diagonal(f, [x0], cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.5, tol=1e-300, max_iter=max_iter))
        assert tr.status == MAX_ITER_REACHED and np.all(np.diff(tr.residuals) > 0)
        report = verify_residual_decay(tr)
        assert not report.passed
        assert report.check("tail_median_below_head_median").worst_violation > 0.0

    def test_residuals_that_start_at_inf(self):
        # ||F(x, x) - x|| = 2|x| overflows while |x| > M / 2, so the residuals start inf, inf, inf.
        f = BivariateOperator(
            name="negation",
            domain=Box([-FLOAT_MAX], [FLOAT_MAX]),
            evaluator=lambda x, y: -x,
            range_in_domain=True,
        )
        tr = krasnoselskij_diagonal(
            f, [1.7e308], cfg(KRASNOSELSKIJ_DIAGONAL, theta=0.1, tol=1e-10, max_iter=5000)
        )
        assert tr.status == CONVERGED
        assert tr.residuals[:3] == [np.inf] * 3 and np.isfinite(tr.residuals[3])
        assert verify_residual_decay(tr).passed


class TestRelaxedMapNonexpansive:
    def test_sampled_pairs(self):
        # T(x) = (1-theta) x + theta F(x, x) contracts distances whenever F
        # is (weakly) nonexpansive; spot-check on samples.
        rng = np.random.default_rng(61)
        operators = [get_operator("example_2_1"), get_operator("example_4_1")]
        operators.append(random_linear_operator(rng, d=4, norm_sum=0.98))
        for f in operators:
            for theta in (0.25, 0.6):
                for _ in range(100):
                    x = sample_in_box(rng, f.domain)
                    y = sample_in_box(rng, f.domain)
                    tx = (1.0 - theta) * x + theta * f.eval(x, x)
                    ty = (1.0 - theta) * y + theta * f.eval(y, y)
                    d0 = norm(x - y)
                    assert norm(tx - ty) <= d0 + 1e-9 * (1.0 + d0)


# (operator, scheme, x0, y0, config) -> (status, n_steps, recorded entries,
# final x, final y and final residual as float.hex). Every run is 1-D, so
# no BLAS kernel enters the arithmetic.
PINNED_RUNS = {
    "diagonal_example_2_1": (
        "example_2_1", KRASNOSELSKIJ_DIAGONAL, [0.6], None, dict(theta=0.3, tol=1e-12, max_iter=500),
        ("converged", 54, 55, "0x1.61d33582f7a3dp-41", "0x1.61d33582f7a3dp-41", "0x1.d7c447594a2fcp-41"),
    ),
    "double_example_2_1": (
        "example_2_1", KRASNOSELSKIJ_DOUBLE, [0.1], [0.9], dict(theta=0.3, tol=1e-12, max_iter=500),
        ("converged", 54, 55, "-0x1.99999999974acp-2", "0x1.999999999be62p-2", "0x1.8928000000000p-41"),
    ),
    "picard_example_2_1": (
        "example_2_1", PICARD_DOUBLE, [1.0], [0.0], dict(tol=1e-12, max_iter=200),
        ("converged", 25, 26, "0x1.fffffffffd678p-2", "-0x1.00000000014c3p-1", "0x1.baf0000000000p-41"),
    ),
    "diagonal_example_4_1": (
        "example_4_1", KRASNOSELSKIJ_DIAGONAL, [0.7], None, dict(theta=0.3, tol=1e-12, max_iter=500),
        ("converged", 31, 32, "0x1.6b75f5af39235p-42", "0x1.6b75f5af39235p-42", "0x1.6b75f5af39235p-41"),
    ),
    "double_example_4_1": (
        "example_4_1", KRASNOSELSKIJ_DOUBLE, [0.8], [-0.45], dict(theta=0.35, tol=1e-12, max_iter=500),
        ("converged", 64, 65, "0x1.75f13c8dc8cc7p-41", "-0x1.75f13c8dc8cc7p-41", "0x1.75f13c8dc8cc7p-41"),
    ),
    "picard_example_4_1": (
        "example_4_1", PICARD_DOUBLE, [0.8], [-0.45], dict(tol=1e-12, max_iter=200),
        ("max_iter_reached", 3, 4, "-0x1.6666666666667p-3", "-0x1.6666666666667p-3", "0x1.6666666666667p-2"),
    ),
    "guarded_example_2_2": (
        "example_2_2", KRASNOSELSKIJ_DIAGONAL, [3.0], None, dict(theta=0.5, max_iter=50, guard_domain=True),
        ("converged", 1, 2, "-0x1.0000000000000p+2", "-0x1.0000000000000p+2", "0x0.0p+0"),
    ),
    "picard_two_cycle": (
        "example_4_1", PICARD_DOUBLE, [1.0], [1.0], dict(max_iter=1000),
        ("max_iter_reached", 2, 3, "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+1"),
    ),
    "left_domain_lying_metadata": (
        escaper, KRASNOSELSKIJ_DIAGONAL, [0.5], None, dict(theta=0.9, max_iter=50),
        ("left_domain", 1, 2, "0x1.d99999999999ap+0", "0x1.d99999999999ap+0", "0x1.8000000000000p+0"),
    ),
    "left_domain_undefined_outside": (
        undefined_outside, KRASNOSELSKIJ_DIAGONAL, [0.9], None, dict(theta=0.9, max_iter=50),
        ("left_domain", 0, 1, "0x1.ccccccccccccdp-1", "0x1.ccccccccccccdp-1", "0x1.ccccccccccccep-2"),
    ),
    "diverged_nonfinite": (
        blowup, KRASNOSELSKIJ_DIAGONAL, [1.0], None, dict(theta=0.9, max_iter=50),
        ("diverged_nonfinite", 0, 1, "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.658e3ab795204p+830"),
    ),
    "thinned_cap_50": (
        "example_4_1", KRASNOSELSKIJ_DIAGONAL, [1.0], None, dict(theta=1e-5, tol=1e-300, max_iter=2000),
        ("max_iter_reached", 2000, 50, "0x1.ebec8b01b67e2p-1", "0x1.ebec8b01b67e2p-1", "0x1.ebec8b01b67e2p+0"),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_pinned_final_bits(name, monkeypatch):
    operator, scheme, x0, y0, kw, expected = PINNED_RUNS[name]
    if name.startswith("thinned"):
        monkeypatch.setattr(iteration_mod, "TRACE_CAP", 50)
    f = get_operator(operator) if isinstance(operator, str) else operator()
    with np.errstate(over="ignore"):
        tr = run_scheme(f, cfg(scheme, **kw), x0, y0)
    fp = tr.final_pair
    got = (tr.status, tr.n_steps, len(tr.step_indices), fp.x[0].hex(), fp.y[0].hex(), float(tr.final_residual).hex())
    assert got == expected
