"""Order, partial arithmetic, sections and text form of the doubled interval."""

import itertools
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import gamma_values, rationals01
from stonepair.errors import DomainError, ParseError
from stonepair.gamma import (
    ONE,
    ONE_APPROX,
    ZERO,
    GammaGrid,
    GammaValue,
    common_denominator,
    format_gamma,
    gamma_collapse,
    gamma_sum,
    iota_approx,
    iota_exact,
    mip,
    mip_of_ranks,
    miss,
    miss_of_ranks,
    parse_gamma,
    plus,
    rank,
)


def gv(text: str) -> GammaValue:
    return parse_gamma(text)


class TestCompare:
    def test_approx_below_exact_same_value(self):
        assert gv("1/2^-") < gv("1/2^o")

    def test_reflexive(self):
        assert ZERO == ZERO and not ZERO < ZERO and not ZERO > ZERO

    def test_value_dominates_tag(self):
        assert gv("1/3^o") < gv("1/2^-")
        assert gv("1/2^-") > gv("1/3^o")

    def test_total_order_exhaustive(self):
        # exactly one of LT/EQ/GT, and transitivity, over a whole grid
        pts = GammaGrid(16).points
        for x, y in itertools.product(pts, repeat=2):
            results = [x < y, x == y, x > y]
            assert sum(results) == 1
        for x, y, z in itertools.combinations(pts, 3):
            if x <= y and y <= z:
                assert x <= z

    def test_covering(self):
        # no grid point strictly between q^- and q^o
        pts = GammaGrid(12).points
        for a in range(1, 13):
            lo, hi = GammaValue(F(a, 12), False), GammaValue(F(a, 12), True)
            assert not any(lo < p < hi for p in pts)


class TestMip:
    def test_exact_exact(self):
        assert mip(gv("3/4^o"), gv("1/4^o")) == gv("1/2^o")

    def test_subtract_bottom(self):
        for x in GammaGrid(5).points:
            assert mip(x, ZERO) == x

    def test_approx_approx_is_exact(self):
        assert mip(gv("3/4^-"), gv("1/4^-")) == gv("1/2^o")

    def test_approx_exact_is_approx(self):
        assert mip(gv("3/4^-"), gv("1/4^o")) == gv("1/2^-")

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            mip(gv("1/4^o"), gv("1/2^o"))
        with pytest.raises(DomainError):
            mip(gv("1/2^-"), gv("1/2^o"))


class TestMiss:
    def test_diagonal(self):
        assert miss(gv("1/2^o"), gv("1/2^o")) == ZERO
        assert miss(gv("1/2^-"), gv("1/2^-")) == ZERO

    def test_exact_exact_is_approx(self):
        assert miss(gv("3/4^o"), gv("1/4^o")) == gv("1/2^-")

    def test_exact_approx_is_exact(self):
        assert miss(gv("3/4^o"), gv("1/4^-")) == gv("1/2^o")
        # the covering pair itself
        assert miss(gv("1/2^o"), gv("1/2^-")) == ZERO

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            miss(gv("1/4^o"), gv("1/2^-"))


class TestPlus:
    def test_exact_exact(self):
        assert plus(gv("1/4^o"), gv("1/2^o")) == gv("3/4^o")

    def test_any_approx_gives_approx(self):
        assert plus(gv("1/4^-"), gv("1/2^o")) == gv("3/4^-")
        assert plus(gv("1/4^o"), gv("1/2^-")) == gv("3/4^-")
        assert plus(gv("1/4^-"), gv("1/2^-")) == gv("3/4^-")

    def test_add_bottom(self):
        for x in GammaGrid(5).points:
            assert plus(ZERO, x) == x

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            plus(gv("1/2^o"), gv("3/4^o"))


class TestSum:
    def test_exact_sum_to_one(self):
        assert gamma_sum([gv("1/4^o"), gv("1/4^o"), gv("1/2^o")]) == ONE

    def test_empty(self):
        assert gamma_sum([]) == ZERO

    def test_overflow(self):
        with pytest.raises(DomainError):
            gamma_sum([gv("1/2^o"), gv("3/4^o")])

    @given(st.permutations([F(1, 8), F(1, 4), F(1, 8), F(1, 2)]))
    def test_order_independent(self, parts):
        values = [iota_exact(p) for p in parts]
        assert gamma_sum(values) == ONE


class TestSections:
    def test_collapse_strips_tag(self):
        assert gamma_collapse(gv("1/2^-")) == F(1, 2)
        assert gamma_collapse(gv("1/2^o")) == F(1, 2)
        assert gamma_collapse(ZERO) == 0

    def test_iota_exact(self):
        assert iota_exact(F(1, 2)) == gv("1/2^o")
        assert iota_exact(F(0)) == ZERO
        assert iota_exact(F(1)) == ONE

    def test_iota_approx(self):
        assert iota_approx(F(0)) == ZERO
        assert iota_approx(F(1, 2)) == gv("1/2^-")
        assert iota_approx(F(1)) == ONE_APPROX

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            iota_exact(F(3, 2))
        with pytest.raises(DomainError):
            iota_approx(F(-1, 2))

    @given(rationals01)
    def test_retraction(self, q):
        assert gamma_collapse(iota_exact(q)) == q
        assert gamma_collapse(iota_approx(q)) == q

    def test_galois_exact_section(self):
        # gamma(y) <= x iff y <= iota_exact(x), over grid points and rationals
        for y in GammaGrid(6).points:
            for x in (F(a, 6) for a in range(7)):
                assert (gamma_collapse(y) <= x) == (y <= iota_exact(x))

    def test_galois_approx_section(self):
        # iota_approx(x) <= y iff x <= gamma(y)
        for y in GammaGrid(6).points:
            for x in (F(a, 6) for a in range(7)):
                assert (iota_approx(x) <= y) == (x <= gamma_collapse(y))


class TestText:
    def test_examples(self):
        assert parse_gamma("3/4^o") == GammaValue(F(3, 4), True)
        assert parse_gamma("1^-") == ONE_APPROX
        assert format_gamma(ZERO) == "0^o"
        assert format_gamma(gv("2/3^o")) == "2/3^o"

    def test_normalisation(self):
        assert parse_gamma("4/6^o") == gv("2/3^o")
        assert format_gamma(parse_gamma("4/6^o")) == "2/3^o"

    @given(gamma_values())
    def test_round_trip(self, x):
        assert parse_gamma(format_gamma(x)) == x

    @pytest.mark.parametrize(
        "bad, column",
        [
            ("^o", 1),
            ("1/2", 4),
            ("1/2^x", 5),
            ("1/0^o", 3),
            ("1/2^o junk", 7),
            ("-1/2^o", 1),
            ("²/2^o", 1),  # digits int() rejects
            ("1/²^o", 3),
        ],
    )
    def test_errors_carry_positions(self, bad, column):
        with pytest.raises(ParseError) as exc:
            parse_gamma(bad)
        assert exc.value.column == column

    def test_out_of_range_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_gamma("3/2^o")
        with pytest.raises(ParseError):
            parse_gamma("0^-")


class TestGrid:
    def test_size_and_order(self):
        g = GammaGrid(12)
        assert len(g) == 25
        assert list(g.points) == sorted(g.points)
        assert g.points[0] == ZERO and g.points[-1] == ONE
        assert [str(x) for x in GammaGrid(2).points] == ["0^o", "1/2^-", "1/2^o", "1^-", "1^o"]

    def test_bad_resolution(self):
        with pytest.raises(DomainError):
            GammaGrid(0)


def _domain_pairs(points):
    return [(x, y) for x in points for y in points if y <= x]


class TestAlgebraicLaws:
    def test_adjunction(self):
        # plus(y, x) <= z iff y <= mip(z, x), with both sides in domain
        pts = GammaGrid(8).points
        for x in pts:
            for y in pts:
                if y.value + x.value > 1:
                    continue
                for z in pts:
                    if not x <= z:
                        continue
                    assert (plus(y, x) <= z) == (y <= mip(z, x))

    def test_monotone(self):
        pts = GammaGrid(8).points
        for x, y in _domain_pairs(pts):
            for x2 in pts:
                if not x <= x2:
                    continue
                for y2 in pts:
                    if not y2 <= y:
                        continue
                    assert mip(x, y) <= mip(x2, y2)
                    assert miss(x, y) <= miss(x2, y2)

    def test_miss_below_mip(self):
        for x, y in _domain_pairs(GammaGrid(10).points):
            assert miss(x, y) <= mip(x, y)

    def test_collapse_compatible(self):
        for x, y in _domain_pairs(GammaGrid(10).points):
            d = gamma_collapse(x) - gamma_collapse(y)
            assert gamma_collapse(mip(x, y)) == d
            assert gamma_collapse(miss(x, y)) == d

    @given(rationals01, rationals01)
    def test_iota_exact_preserves_subtraction(self, x, y):
        if y <= x:
            assert iota_exact(x - y) == mip(iota_exact(x), iota_exact(y))

    def test_plus_miss_identity(self):
        # miss(plus(x, y), y) recovers x through the approx section
        pts = GammaGrid(8).points
        for x in pts:
            for y in pts:
                if x.value + y.value > 1:
                    continue
                assert miss(plus(x, y), y) == iota_approx(gamma_collapse(x))

    def test_miss_as_grid_supremum(self):
        # max over exact grid points approximates miss from below,
        # nondecreasing under grid refinement
        x, y = iota_exact(F(5, 6)), iota_exact(F(1, 6))
        target = miss(x, y)
        previous = ZERO
        for k in (6, 12, 24, 48):
            qs = [F(a, k) for a in range(k + 1)]
            candidates = [
                mip(iota_exact(p), iota_exact(q))
                for q in qs
                for p in qs
                if y < iota_exact(q) <= iota_exact(p) <= x
            ]
            best = max(candidates)
            assert best <= target
            assert previous <= best
            previous = best


class TestRankKernel:
    """The integer kernel against the Fraction-based operations."""

    @given(gamma_values(), gamma_values(), st.integers(1, 6))
    def test_operations_match(self, x, y, multiple):
        # mixed denominators: ranks on a common multiple of both
        denom = common_denominator((x, y)) * multiple
        rx, ry = rank(x, denom), rank(y, denom)
        assert (rx <= ry) == (x <= y)
        x, y, rx, ry = (x, y, rx, ry) if y <= x else (y, x, ry, rx)
        assert mip_of_ranks(rx, ry) == rank(mip(x, y), denom)
        assert miss_of_ranks(rx, ry) == rank(miss(x, y), denom)

    @given(
        st.lists(st.tuples(gamma_values(), gamma_values()), min_size=1, max_size=8),
        st.sampled_from([1, 2, 5, 2**64]),
    )
    def test_branch_free_formulas(self, pairs, multiple):
        # on scalars and elementwise
        # on int64 (when the ranks fit) and object arrays
        pairs = [(max(x, y), min(x, y)) for x, y in pairs]
        denom = common_denominator(v for pair in pairs for v in pair) * multiple
        xs = [rank(x, denom) for x, _ in pairs]
        ys = [rank(y, denom) for _, y in pairs]
        mips = [rank(mip(x, y), denom) for x, y in pairs]
        misses = [rank(miss(x, y), denom) for x, y in pairs]
        assert [mip_of_ranks(x, y) for x, y in zip(xs, ys)] == mips
        assert [miss_of_ranks(x, y) for x, y in zip(xs, ys)] == misses
        dtypes = (np.int64, object) if 2 * denom < 2**62 else (object,)
        for dtype in dtypes:
            x, y = np.array(xs, dtype=dtype), np.array(ys, dtype=dtype)
            assert mip_of_ranks(x, y).tolist() == mips
            assert miss_of_ranks(x, y).tolist() == misses

    def test_exhaustive_on_the_grid(self):
        pts = GammaGrid(12).points
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                if j <= i:
                    assert pts[mip_of_ranks(i, j)] == mip(x, y)
                    assert pts[miss_of_ranks(i, j)] == miss(x, y)

    def test_grid_points_are_their_ranks(self):
        for k in (1, 2, 5):
            assert [rank(p, k) for p in GammaGrid(k).points] == list(range(2 * k + 1))

    def test_codec_domain(self):
        assert common_denominator(()) == 1
        assert common_denominator((gv("1/4^o"), gv("5/6^-"))) == 12
        with pytest.raises(DomainError):
            rank(gv("1/3^o"), 4)
