import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coupledfix import (
    Box,
    as_vector,
    convex_combination,
    convex_identity_defect,
    inner,
    norm,
    project_box,
)
from helpers import reference_norm

coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
unit_interval = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
shared_dim = st.shared(st.integers(min_value=1, max_value=8), key="dim")


def vectors():
    return hnp.arrays(np.float64, shared_dim, elements=coords)


class TestInner:
    def test_orthogonal(self):
        assert inner([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_scalar_product(self):
        assert inner([2.0], [3.0]) == 6.0

    def test_norm_squared_identity(self):
        assert inner([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 14.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            inner([1.0, 2.0], [1.0])

    @given(vectors(), vectors())
    def test_symmetry(self, x, y):
        assert inner(x, y) == inner(y, x)

    @given(vectors(), vectors())
    @settings(deadline=None)
    def test_cauchy_schwarz(self, x, y):
        bound = norm(x) * norm(y)
        assert abs(inner(x, y)) <= bound + 1e-12 * (1.0 + bound)


class TestNorm:
    def test_zero_vector(self):
        assert norm([0.0, 0.0]) == 0.0

    def test_pythagorean(self):
        assert norm([3.0, 4.0]) == 5.0

    def test_absolute_value(self):
        assert norm([-2.0]) == 2.0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_no_overflow_above_sqrt_of_max(self):
        assert norm([1e200]) == 1e200
        assert norm([-1e250]) == 1e250
        assert norm([3e200, 4e200]) == pytest.approx(5e200, rel=1e-15)
        assert norm([np.finfo(float).max, 0.0]) == np.finfo(float).max

    def test_overflowed_square_emits_no_warning(self):
        # Runs under the suite's error::RuntimeWarning filter.
        from coupledfix.space import _row_norms

        assert norm([1e200, 1e200]) == pytest.approx(2**0.5 * 1e200, rel=1e-15)
        assert _row_norms(np.array([[1e200, 1e200]])).tolist() == [norm([1e200, 1e200])]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_row_form_matches_norm_bitwise(self):
        from coupledfix.space import _norm, _row_norms

        rng = np.random.default_rng(5)
        scales = [0.0, 5e-324, 1e-310, 1e-300, 1e-170, 1e-160, 1.0, 1e100, 1e160, 1e300]
        for d in (1, 2, 3, 10, 100, 257):
            # Most rows take one scale (all-zero, subnormal, tiny, ..., huge); one row in four
            # takes a scale per coordinate, so it mixes them.
            mixed = rng.random((200, 1)) < 0.25
            scale = np.where(mixed, rng.choice(scales, size=(200, d)), rng.choice(scales, size=(200, 1)))
            rows = rng.standard_normal((200, d)) * scale
            got = _row_norms(rows)
            assert got.shape == (200,)
            assert [v.hex() for v in got.tolist()] == [_norm(r).hex() for r in rows]
            assert [v.hex() for v in got.tolist()] == [reference_norm(r).hex() for r in rows]

    def test_agrees_with_hypot_over_the_whole_exponent_range(self):
        # Coordinates from the subnormals to about 2**1000, within a vector either of one
        # scale or of scales up to 2**100 apart: squares that underflow, overflow or neither.
        rng = np.random.default_rng(11)
        for d in (1, 2, 3, 10, 100):
            for _ in range(300):
                top = int(rng.integers(-1074, 1000))
                spread = int(rng.choice([0, 4, 100]))
                v = np.ldexp(rng.uniform(-1.0, 1.0, d), top - rng.integers(0, spread + 1, size=d))
                want = math.hypot(*v.tolist())
                assert abs(norm(v) - want) <= 2 * math.ulp(want), (v.tolist(), norm(v), want)

    def test_in_range_squares_keep_the_bits_of_sqrt_dot(self):
        # A square in [2**-968, inf) is not scaled: the norm is sqrt(dot(v, v)), bit for bit.
        from coupledfix.space import _max_row_norm, _norm

        rng = np.random.default_rng(12)
        for d in (1, 2, 3, 10, 100):
            for _ in range(300):
                signs = rng.choice([-1.0, 1.0], size=(2, d))
                block = np.ldexp(signs * rng.uniform(0.5, 1.0, (2, d)), rng.integers(-480, 508, size=(2, 1)))
                roots = [math.sqrt(float(np.dot(row, row))) for row in block]
                assert [_norm(row) for row in block] == roots
                assert _max_row_norm(block) == max(roots)

    def test_one_coordinate_rows_give_the_larger_absolute_value(self):
        # What the engine's float loop relies on at d = 1: the larger norm of the rows of a (2, 1)
        # block is max(|a|, |b|) bit for bit, NaN if either is. For a square in [2**-968, inf),
        # sqrt(fl(a * a)) rounds back to |a|; any other square (zero, subnormal, underflowed,
        # overflowed) takes the scaled path, which divides a by |a|.
        from coupledfix.space import _max_row_norm

        rng = np.random.default_rng(14)
        exponents = np.arange(-1074, 1024)
        values = np.concatenate([
            np.ldexp(mantissa, exponents) for mantissa in (1.0, 2.0 - 2.0**-52, rng.uniform(1.0, 2.0))
        ])
        root_max, square_floor = math.sqrt(np.finfo(float).max), 2.0**-484  # squares at the ends of the range
        edges = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, np.finfo(float).max, root_max, square_floor]
        edges += [math.nextafter(v, w) for v in (root_max, square_floor) for w in (0.0, math.inf)]
        values = np.concatenate([values, edges]) * rng.choice([-1.0, 1.0], size=values.size + len(edges))
        # Each value against another, a zero row or a NaN row, in both places.
        others = rng.choice([0.0, np.nan], values.size)
        partners = np.where(rng.random(values.size) < 0.8, rng.permutation(values), others)
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b in zip(np.concatenate([values, partners]).tolist(), np.concatenate([partners, values]).tolist()):
                want = math.nan if math.isnan(a) or math.isnan(b) else max(abs(a), abs(b))
                assert _max_row_norm(np.array([[a], [b]])).hex() == want.hex(), (a, b)

    @given(vectors())
    def test_zero_iff_zero(self, x):
        # A square that underflows is scaled first, so only the zero vector has norm 0.
        assert (norm(x) == 0.0) == bool((x == 0).all())


class TestConvexCombination:
    def test_endpoints(self):
        x, y = np.array([2.0, -1.0]), np.array([0.5, 3.0])
        assert np.array_equal(convex_combination(1.0, x, y), x)
        assert np.array_equal(convex_combination(0.0, x, y), y)

    def test_midpoint(self):
        assert convex_combination(0.5, [2.0], [0.0]) == pytest.approx([1.0])

    @pytest.mark.parametrize("lam", [-0.1, 1.5, np.inf])
    def test_lambda_out_of_range(self, lam):
        with pytest.raises(ValueError, match="lambda"):
            convex_combination(lam, [1.0], [0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            convex_combination(0.5, [1.0], [1.0, 2.0])

    @pytest.mark.parametrize("lam", ["0.5", True, False, None, [0.5]])
    def test_lambda_is_a_real_number(self, lam):
        # Typed like every other library number: a string or a bool is not a weight.
        with pytest.raises(ValueError, match="^lam must be a real number"):
            convex_combination(lam, [1.0], [0.0])
        with pytest.raises(ValueError, match="^lam must be a real number"):
            convex_identity_defect(lam, [1.0], [0.0], [0.0])

    def test_integral_and_numpy_weights_accepted(self):
        assert convex_combination(1, [1.0], [0.0]).tolist() == [1.0]
        assert convex_combination(np.float64(0.25), [1.0], [0.0]).tolist() == [0.25]
        assert convex_identity_defect(np.float32(0.5), [2.0], [0.0], [1.0]) == 0.0

    @given(unit_interval, vectors(), vectors())
    @settings(deadline=None)
    def test_distance_scales_linearly(self, lam, x, y):
        # ||lam*x + (1-lam)*y - y|| = lam * ||x - y||, up to rounding.
        lhs = norm(convex_combination(lam, x, y) - y)
        rhs = lam * norm(x - y)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + rhs)


def _defect_by_expansion(lam, x, y, z):
    # Independent evaluation of both sides via bilinearity of the inner product.
    xx, yy, zz = inner(x, x), inner(y, y), inner(z, z)
    xy, xz, yz = inner(x, y), inner(x, z), inner(y, z)
    lhs = (
        lam * lam * xx + (1 - lam) ** 2 * yy + zz
        + 2 * lam * (1 - lam) * xy - 2 * lam * xz - 2 * (1 - lam) * yz
    )
    rhs = (
        lam * (xx - 2 * xz + zz)
        + (1 - lam) * (yy - 2 * yz + zz)
        - lam * (1 - lam) * (xx - 2 * xy + yy)
    )
    return lhs - rhs


class TestConvexIdentityDefect:
    def test_symmetric_scalar_case(self):
        assert abs(convex_identity_defect(0.5, [2.0], [0.0], [1.0])) <= 1e-12

    def test_lambda_zero_collapses_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, y, z = rng.uniform(-5, 5, size=(3, 4))
            assert convex_identity_defect(0.0, x, y, z) == 0.0

    def test_random_dimension_five(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            lam = rng.uniform(0, 1)
            x, y, z = rng.uniform(-10, 10, size=(3, 5))
            d = convex_identity_defect(lam, x, y, z)
            assert abs(d) <= 1e-10
            # Cross-check against the independent expansion; both are pure
            # rounding noise, so they agree at the same absolute scale.
            assert abs(d - _defect_by_expansion(lam, x, y, z)) <= 1e-10

    @given(unit_interval, vectors(), vectors(), vectors())
    @settings(deadline=None, max_examples=300)
    def test_defect_bounded_by_operand_scale(self, lam, x, y, z):
        d = convex_identity_defect(lam, x, y, z)
        scale = 1.0 + inner(x, x) + inner(y, y) + inner(z, z)
        assert abs(d) <= 1e-10 * scale

    def test_lambda_out_of_range(self):
        with pytest.raises(ValueError, match=r"^lambda must lie in \[0, 1\], got 1.5$"):
            convex_identity_defect(1.5, [1.0], [0.0], [0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            convex_identity_defect(0.5, [1.0], [2.0], [1.0, 2.0])

    def test_xy_mismatch_names_this_function(self):
        with pytest.raises(ValueError, match=r"^dimension mismatch in convex_identity_defect: 1 vs 2$"):
            convex_identity_defect(0.5, [1.0], [2.0, 3.0], [1.0])


class TestBox:
    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="lower"):
            Box([1.0], [0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            Box([0.0], [1.0, 2.0])

    def test_contains_and_degenerate(self):
        b = Box([-1.0, 0.0], [1.0, 0.0])
        assert b.contains([0.5, 0.0])
        assert not b.contains([1.5, 0.0])
        assert not b.is_degenerate()
        assert Box([2.0], [2.0]).is_degenerate()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Box([0.0], [np.inf])

    def test_equality_compares_bounds(self):
        assert Box([0.0], [1.0]) == Box([0], [1])
        assert Box([0.0], [1.0]) != Box([0.0], [2.0])
        assert Box([0.0], [1.0]) != Box([0.0, 0.0], [1.0, 1.0])
        assert Box([0.0], [1.0]) != (np.zeros(1), np.ones(1))


class TestProjectBox:
    def test_clamp_upper(self):
        assert project_box([5.0], Box([-4.0], [4.0])) == pytest.approx([4.0])

    def test_interior_identity(self):
        b = Box([-1.0], [1.0])
        assert np.array_equal(project_box([0.0], b), [0.0])

    def test_clamp_lower_quadratic_image(self):
        # The quadratic operator maps the corner (-4, 4) of its box to -20,
        # far below the domain; the projection clamps it back to the face.
        x, y = np.array([-4.0]), np.array([4.0])
        image = 4.0 - x * x - 2.0 * y
        assert image == pytest.approx([-20.0])
        assert project_box(image, Box([-4.0], [4.0])) == pytest.approx([-4.0])

    @given(vectors())
    @settings(deadline=None)
    def test_idempotent(self, x):
        b = Box(np.full(x.shape, -10.0), np.full(x.shape, 10.0))
        once = project_box(x, b)
        assert np.array_equal(project_box(once, b), once)
        assert b.contains(once)


class TestAsVector:
    def test_scalar_promoted(self):
        assert as_vector(3.0).tolist() == [3.0]

    def test_copies(self):
        src = np.array([1.0, 2.0])
        out = as_vector(src)
        out[0] = 9.0
        assert src[0] == 1.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_vector([np.nan])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            as_vector([[1.0, 2.0]])
