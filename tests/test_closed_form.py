import tracemalloc

import numpy as np
import pytest

from coupledfix import (
    DOUBLE_KRASNOSELSKIJ_EXAMPLE_2_1,
    KRASNOSELSKIJ_EXAMPLE_4_1,
    ORACLE_KINDS,
    PICARD_EXAMPLE_2_1,
    CoupledPair,
    OracleHandle,
    engine_theta,
    get_operator,
    norm,
    oracle_iterate,
    oracle_limit,
    oracle_trace,
)


def close_pair(p: CoupledPair, q: CoupledPair, rtol=1e-12) -> bool:
    sx = 1.0 + max(norm(p.x), norm(q.x))
    sy = 1.0 + max(norm(p.y), norm(q.y))
    return norm(p.x - q.x) <= rtol * sx and norm(p.y - q.y) <= rtol * sy


class TestHandles:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown oracle kind"):
            OracleHandle("no_such_formula", [1.0])

    def test_picard_requires_y0(self):
        with pytest.raises(ValueError, match="y0"):
            OracleHandle(PICARD_EXAMPLE_2_1, [1.0])

    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.2, None])
    def test_relaxed_kinds_require_interior_lam(self, lam):
        with pytest.raises(ValueError, match="lam"):
            OracleHandle(KRASNOSELSKIJ_EXAMPLE_4_1, [1.0], lam=lam)

    @pytest.mark.parametrize("lam", ["0.5", True])
    def test_lam_is_a_real_number(self, lam):
        with pytest.raises(ValueError, match="^lam must be a real number"):
            OracleHandle(KRASNOSELSKIJ_EXAMPLE_4_1, [1.0], lam=lam)

    def test_diagonal_kind_takes_y0_only_equal_to_x0(self):
        h = OracleHandle(KRASNOSELSKIJ_EXAMPLE_4_1, [0.5], [0.5], lam=0.25)
        assert oracle_iterate(h, 0) == CoupledPair([0.5], [0.5])
        with pytest.raises(ValueError, match="diagonal; y0 must equal x0"):
            OracleHandle(KRASNOSELSKIJ_EXAMPLE_4_1, [0.5], [0.25], lam=0.25)

    def test_double_kind_needs_equal_dimensions(self):
        with pytest.raises(ValueError, match="x0 and y0 .*dimension"):
            OracleHandle(DOUBLE_KRASNOSELSKIJ_EXAMPLE_2_1, [0.5], [0.5, 0.5], lam=0.25)

    def test_picard_kind_has_no_engine_theta(self):
        assert engine_theta(OracleHandle(PICARD_EXAMPLE_2_1, [0.5], [0.25])) is None

    def test_initial_values_exact(self):
        x0, y0 = [0.1234567890123], [-0.9876543210987]
        h = OracleHandle(PICARD_EXAMPLE_2_1, x0, y0)
        assert oracle_iterate(h, 0) == CoupledPair(x0, y0)
        h2 = OracleHandle(KRASNOSELSKIJ_EXAMPLE_4_1, x0, lam=0.37)
        assert oracle_iterate(h2, 0) == CoupledPair(x0, x0)


class TestPicardFormula:
    def test_first_step_values(self):
        h = OracleHandle(PICARD_EXAMPLE_2_1, [1.0], [0.0])
        p = oracle_iterate(h, 1)
        assert p.x == pytest.approx([1.0 / 3.0], rel=1e-15)
        assert p.y == pytest.approx([-2.0 / 3.0], rel=1e-15)

    def test_limit_half_difference(self):
        h = OracleHandle(PICARD_EXAMPLE_2_1, [1.0], [0.0])
        lim = oracle_limit(h)
        assert lim.x == pytest.approx([0.5], abs=0)
        assert lim.y == pytest.approx([-0.5], abs=0)

    def test_equal_starts_converge_to_origin(self):
        h = OracleHandle(PICARD_EXAMPLE_2_1, [0.7], [0.7])
        lim = oracle_limit(h)
        assert lim == CoupledPair([0.0], [0.0])
        # x_n = y_n = (-1/3)^n * c along the way.
        p = 1.0
        for n in range(1, 20):
            p *= -1.0 / 3.0
            it = oracle_iterate(h, n)
            assert it.x == pytest.approx([p * 0.7], rel=1e-13)
            assert np.array_equal(it.x, it.y)

    def test_recurrence_consistency(self):
        # Oracle at n+1 equals the plain double step applied to oracle at n.
        f = get_operator("example_2_1")
        h = OracleHandle(PICARD_EXAMPLE_2_1, [0.83], [-0.41])
        for n in range(0, 61):
            cur = oracle_iterate(h, n)
            nxt = oracle_iterate(h, n + 1)
            stepped = CoupledPair(f.eval(cur.x, cur.y), f.eval(cur.y, cur.x))
            assert close_pair(nxt, stepped)


class TestDiagonalRelaxedFormula:
    def test_half_weight_reaches_zero_in_one_step(self):
        h = OracleHandle(KRASNOSELSKIJ_EXAMPLE_4_1, [1.0], lam=0.5)
        for n in (1, 2, 7):
            assert oracle_iterate(h, n) == CoupledPair([0.0], [0.0])

    def test_recurrence_consistency(self):
        f = get_operator("example_4_1")
        for lam in (0.25, 0.5, 0.75, 0.37):
            h = OracleHandle(KRASNOSELSKIJ_EXAMPLE_4_1, [0.9], lam=lam)
            theta = engine_theta(h)
            assert theta == lam
            for n in range(0, 61):
                cur = oracle_iterate(h, n)
                nxt = oracle_iterate(h, n + 1)
                fx = f.eval(cur.x, cur.x)
                stepped_x = (1.0 - theta) * cur.x + theta * fx
                assert close_pair(nxt, CoupledPair(stepped_x, stepped_x))

    def test_limit_is_origin(self):
        h = OracleHandle(KRASNOSELSKIJ_EXAMPLE_4_1, [0.4], lam=0.3)
        assert oracle_limit(h) == CoupledPair([0.0], [0.0])


class TestDoubleRelaxedFormula:
    def test_equal_starts_collapse_to_sum_part(self):
        c, lam = 0.63, 0.41
        h = OracleHandle(DOUBLE_KRASNOSELSKIJ_EXAMPLE_2_1, [c], [c], lam=lam)
        p = 1.0
        for n in range(1, 30):
            p *= 1.0 - 2.0 * lam
            it = oracle_iterate(h, n)
            assert it.x == pytest.approx([p * c], rel=1e-12, abs=1e-300)
            assert np.array_equal(it.x, it.y)

    def test_recurrence_consistency_with_averaging_operator(self):
        # The pair formulas are generated by the relaxed double scheme for
        # the averaging operator -(x+y)/2, not for the skew map (x-2y)/3,
        # which keeps x - y invariant under this scheme.
        f = get_operator("example_4_1")
        for lam in (0.3, 0.5, 0.7):
            h = OracleHandle(DOUBLE_KRASNOSELSKIJ_EXAMPLE_2_1, [0.8], [-0.45], lam=lam)
            theta = engine_theta(h)
            for n in range(0, 61):
                cur = oracle_iterate(h, n)
                nxt = oracle_iterate(h, n + 1)
                stepped = CoupledPair(
                    (1.0 - theta) * cur.x + theta * f.eval(cur.x, cur.y),
                    (1.0 - theta) * cur.y + theta * f.eval(cur.y, cur.x),
                )
                assert close_pair(nxt, stepped)

    def test_skew_map_does_not_generate_these_formulas(self):
        f = get_operator("example_2_1")
        lam = 0.5
        h = OracleHandle(DOUBLE_KRASNOSELSKIJ_EXAMPLE_2_1, [1.0], [0.0], lam=lam)
        cur = oracle_iterate(h, 0)
        stepped_x = (1.0 - lam) * cur.x + lam * f.eval(cur.x, cur.y)
        # Formula says 1/4 at n=1; the actual skew-map step gives 2/3.
        assert oracle_iterate(h, 1).x == pytest.approx([0.25], abs=0)
        assert stepped_x == pytest.approx([2.0 / 3.0], rel=1e-15)

    def test_limit_is_origin(self):
        h = OracleHandle(DOUBLE_KRASNOSELSKIJ_EXAMPLE_2_1, [0.8], [-0.2], lam=0.3)
        assert oracle_limit(h) == CoupledPair([0.0], [0.0])


class TestOperatorMetadataCoherence:
    def test_advertised_formulas_reproduce_their_schemes(self):
        # Every (scheme -> oracle kind) entry on a registered operator must
        # actually reproduce that scheme's trace on that operator.
        from coupledfix import (
            SchemeConfig,
            krasnoselskij_diagonal,
            krasnoselskij_double,
            operator_names,
            picard_double,
        )

        lam = 0.4
        checked = 0
        for name in operator_names():
            f = get_operator(name)
            for scheme, kind in f.closed_forms.items():
                if scheme == "picard_double":
                    h = OracleHandle(kind, [0.8], [-0.45])
                    tr = picard_double(
                        f, [0.8], [-0.45], SchemeConfig(scheme, tol=1e-300, max_iter=30)
                    )
                elif scheme == "krasnoselskij_diagonal":
                    h = OracleHandle(kind, [0.8], lam=lam)
                    tr = krasnoselskij_diagonal(
                        f, [0.8],
                        SchemeConfig(scheme, theta=engine_theta(h), tol=1e-300, max_iter=30),
                    )
                else:
                    h = OracleHandle(kind, [0.8], [-0.45], lam=lam)
                    tr = krasnoselskij_double(
                        f, [0.8], [-0.45],
                        SchemeConfig(scheme, theta=engine_theta(h), tol=1e-300, max_iter=30),
                    )
                for n, pair in zip(tr.step_indices, tr.iterates):
                    assert close_pair(pair, oracle_iterate(h, n)), (name, scheme, n)
                checked += 1
        assert checked >= 3


class TestLimitsMatchIterates:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: OracleHandle(PICARD_EXAMPLE_2_1, [0.9, -0.3], [0.1, 0.4]),
            lambda: OracleHandle(KRASNOSELSKIJ_EXAMPLE_4_1, [0.9, -0.3], lam=0.4),
            lambda: OracleHandle(DOUBLE_KRASNOSELSKIJ_EXAMPLE_2_1, [0.9, -0.3], [0.1, 0.4], lam=0.4),
        ],
    )
    def test_iterate_200_near_limit(self, make):
        h = make()
        lim = oracle_limit(h)
        it = oracle_iterate(h, 200)
        assert norm(it.x - lim.x) <= 1e-10
        assert norm(it.y - lim.y) <= 1e-10

    def test_trace_matches_per_index_calls(self):
        for h in (
            OracleHandle(PICARD_EXAMPLE_2_1, [0.5], [0.25]),
            OracleHandle(KRASNOSELSKIJ_EXAMPLE_4_1, [0.5], lam=0.35),
            OracleHandle(DOUBLE_KRASNOSELSKIJ_EXAMPLE_2_1, [0.5], [0.25], lam=0.35),
        ):
            tr = oracle_trace(h, 400)
            assert len(tr) == 401
            for n, pair in enumerate(tr):
                assert pair == oracle_iterate(h, n), (h.kind, n)


def _hexes(pairs):
    return [v.hex() for p in pairs for v in (*p.x.tolist(), *p.y.tolist())]


# One handle per kind, with signed zeros in the start: row 0 must be the start exactly.
BLOCK_HANDLES = {
    PICARD_EXAMPLE_2_1: lambda: OracleHandle(PICARD_EXAMPLE_2_1, [0.5, -0.0], [0.25, 0.0]),
    KRASNOSELSKIJ_EXAMPLE_4_1: lambda: OracleHandle(KRASNOSELSKIJ_EXAMPLE_4_1, [0.5, -0.0], lam=0.0011),
    DOUBLE_KRASNOSELSKIJ_EXAMPLE_2_1: lambda: OracleHandle(
        DOUBLE_KRASNOSELSKIJ_EXAMPLE_2_1, [0.5, -0.0], [-0.75, 0.0], lam=0.0011
    ),
    "diagonal_with_y0": lambda: OracleHandle(KRASNOSELSKIJ_EXAMPLE_4_1, [0.5, -0.0], [0.5, 0.0], lam=0.3),
}


class TestOracleTraceBlocks:
    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_every_index_matches_oracle_iterate_by_hex(self, kind):
        h = BLOCK_HANDLES[kind]()
        tr = oracle_trace(h, 5000)
        assert len(tr) == 5001
        assert _hexes(tr) == _hexes(oracle_iterate(h, n) for n in range(5001))

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_a_single_iterate_takes_constant_memory(self, kind):
        # A block of powers up to n would take 2 (n + 1) doubles, 1.6 MB here.
        h = BLOCK_HANDLES[kind]()
        tracemalloc.start()
        try:
            oracle_iterate(h, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("name", sorted(BLOCK_HANDLES))
    def test_a_write_into_one_x_changes_nothing_else(self, name):
        h = BLOCK_HANDLES[name]()
        starts = _hexes([CoupledPair(h.x0, h.x0 if h.y0 is None else h.y0)])
        tr = oracle_trace(h, 6)
        before = [_hexes([p]) for p in tr]
        d = h.x0.size
        for k, pair in enumerate(tr):
            saved = pair.x.copy()
            pair.x[...] = 7.0
            now = [_hexes([p]) for p in tr]
            assert [m for m in range(len(tr)) if now[m] != before[m]] == [k]
            assert now[k][d:] == before[k][d:]  # its own y
            assert _hexes([CoupledPair(h.x0, h.x0 if h.y0 is None else h.y0)]) == starts
            pair.x[...] = saved


class TestIndexArgumentsTyped:
    # Typed as SchemeConfig types max_iter: integral, never rounded, and >= 0.
    @pytest.mark.parametrize("n", [2.5, "2", None, np.nan, True])
    def test_oracle_iterate(self, n):
        with pytest.raises(ValueError, match="^n must be an integer"):
            oracle_iterate(OracleHandle(PICARD_EXAMPLE_2_1, [0.5], [0.25]), n)

    @pytest.mark.parametrize(
        "n_max, message",
        [(2.7, "an integer"), ("2", "an integer"), (None, "an integer"), (True, "an integer"), (-1, ">= 0")],
    )
    def test_oracle_trace(self, n_max, message):
        with pytest.raises(ValueError, match=f"^n_max must be {message}"):
            oracle_trace(OracleHandle(PICARD_EXAMPLE_2_1, [0.5], [0.25]), n_max)

    @pytest.mark.parametrize("edge", [-1, True, 2.5])
    @pytest.mark.parametrize("call, name", [(oracle_iterate, "n"), (oracle_trace, "n_max")])
    def test_edges_keep_their_messages(self, call, name, edge):
        with pytest.raises(ValueError) as err:
            call(OracleHandle(PICARD_EXAMPLE_2_1, [0.5], [0.25]), edge)
        kind = ">= 0" if edge == -1 else "an integer"
        assert str(err.value) == f"{name} must be {kind}, got {edge}"

    def test_oracle_iterate_index_not_negative(self):
        with pytest.raises(ValueError, match="^n must be >= 0"):
            oracle_iterate(OracleHandle(PICARD_EXAMPLE_2_1, [0.5], [0.25]), -1)

    def test_integral_floats_taken_as_ints(self):
        h = OracleHandle(PICARD_EXAMPLE_2_1, [0.5], [0.25])
        assert oracle_iterate(h, 3.0) == oracle_iterate(h, 3)
        assert oracle_trace(h, 3.0) == oracle_trace(h, 3)
