"""Order, partial arithmetic, sections and text form of the doubled interval."""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import (
    gamma_values,
    rationals01,
    reference_gamma_sum,
    reference_mip,
    reference_miss,
    reference_plus,
    reference_project_gamma,
)
from stonepair.chains import project_gamma
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
    plus_of_ranks,
    point_of_rank,
    project_of_ranks,
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

    def test_iota_exact_equals_the_validating_construction(self):
        for d in range(1, 13):
            for n in range(d + 1):
                x = iota_exact(F(n, d))
                assert x == GammaValue(F(n, d), True)
                assert type(x.value) is F and x.exact is True

    def test_iota_approx(self):
        assert iota_approx(F(0)) == ZERO
        assert iota_approx(F(1, 2)) == gv("1/2^-")
        assert iota_approx(F(1)) == ONE_APPROX

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            iota_exact(F(3, 2))
        with pytest.raises(DomainError):
            iota_approx(F(-1, 2))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: GammaValue(F(3, 2), True), "exact point 3/2 lies outside [0, 1]"),
            (lambda: GammaValue(F(-1, 2), True), "exact point -1/2 lies outside [0, 1]"),
            (lambda: GammaValue(F(0), False), "approximation point 0 lies outside (0, 1]"),
            (lambda: GammaValue(F(-1, 3), False), "approximation point -1/3 lies outside (0, 1]"),
            (lambda: GammaValue(F(7, 6), False), "approximation point 7/6 lies outside (0, 1]"),
            (lambda: iota_exact(F(3, 2)), "3/2 lies outside [0, 1]"),
            (lambda: iota_exact(-1), "-1 lies outside [0, 1]"),
            (lambda: iota_approx(F(-1, 2)), "-1/2 lies outside [0, 1]"),
            (lambda: iota_approx(F(5, 4)), "5/4 lies outside [0, 1]"),
        ],
    )
    def test_domain_messages(self, make, message):
        with pytest.raises(DomainError) as exc:
            make()
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "make, message",
        [
            # silently kept, 0.1 would be 3602879701896397/36028797018963968
            (lambda: GammaValue(0.1, True), "0.1 is not an exact rational"),
            (lambda: GammaValue(0.5, False), "0.5 is not an exact rational"),
            (lambda: iota_exact(0.1), "0.1 is not an exact rational"),
            (lambda: iota_exact(float("inf")), "inf is not an exact rational"),
            (lambda: iota_approx(0.3), "0.3 is not an exact rational"),
            (lambda: iota_approx(0.0), "0.0 is not an exact rational"),
        ],
    )
    def test_floats_are_refused(self, make, message):
        with pytest.raises(DomainError) as exc:
            make()
        assert str(exc.value) == message

    def test_domain_ends(self):
        # the bounds are inclusive on both sides except the approximation at 0
        assert GammaValue(F(0), True) == ZERO and GammaValue(1, True) == ONE
        assert GammaValue(F(1), False) == ONE_APPROX
        assert GammaValue(F(1, 10**30), False).value == F(1, 10**30)

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


def _outcome(op, *args):
    """What ``op`` gives: its value (compared with its tag), or its error's
    type and text."""
    try:
        return op(*args)
    except DomainError as exc:
        return type(exc), str(exc)


class TestRankKernel:
    """The public operations, which compute on the integer kernel, against
    the ``Fraction`` case splits kept as references in conftest."""

    @given(gamma_values(), gamma_values(), st.integers(1, 6))
    def test_operations_match(self, x, y, multiple):
        # mixed denominators, both argument orders, in and out of the domains
        for op, ref in ((mip, reference_mip), (miss, reference_miss), (plus, reference_plus)):
            assert _outcome(op, x, y) == _outcome(ref, x, y)
            assert _outcome(op, y, x) == _outcome(ref, y, x)
        # the kernel itself on a common multiple of both denominators
        denom = common_denominator((x, y)) * multiple
        rx, ry = rank(x, denom), rank(y, denom)
        assert (rx <= ry) == (x <= y)
        if x.value + y.value <= 1:
            assert plus_of_ranks(rx, ry) == rank(reference_plus(x, y), denom)
        x, y, rx, ry = (x, y, rx, ry) if y <= x else (y, x, ry, rx)
        assert mip_of_ranks(rx, ry) == rank(reference_mip(x, y), denom)
        assert miss_of_ranks(rx, ry) == rank(reference_miss(x, y), denom)

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
        mips = [rank(reference_mip(x, y), denom) for x, y in pairs]
        misses = [rank(reference_miss(x, y), denom) for x, y in pairs]
        # plus on the differences: mip(x, y) + y is defined
        sums = [rank(reference_plus(reference_mip(x, y), y), denom) for x, y in pairs]
        assert [mip_of_ranks(x, y) for x, y in zip(xs, ys)] == mips
        assert [miss_of_ranks(x, y) for x, y in zip(xs, ys)] == misses
        assert [plus_of_ranks(d, y) for d, y in zip(mips, ys)] == sums
        dtypes = (np.int64, object) if 2 * denom < 2**62 else (object,)
        for dtype in dtypes:
            x, y = np.array(xs, dtype=dtype), np.array(ys, dtype=dtype)
            assert mip_of_ranks(x, y).tolist() == mips
            assert miss_of_ranks(x, y).tolist() == misses
            assert plus_of_ranks(np.array(mips, dtype=dtype), y).tolist() == sums

    @given(gamma_values(), st.integers(1, 40), st.integers(1, 6))
    def test_projection_matches(self, x, n, multiple):
        assert project_gamma(x, n) == reference_project_gamma(x, n)
        denom = x.value.denominator * multiple
        assert project_of_ranks(rank(x, denom), n, denom) == reference_project_gamma(x, n).a

    @given(st.lists(gamma_values(), max_size=6))
    def test_sum_matches(self, xs):
        # mostly overflowing lists: the error names the same partial sum
        assert _outcome(gamma_sum, xs) == _outcome(reference_gamma_sum, xs)
        small = [GammaValue(x.value / 4, x.exact) if x.value else x for x in xs[:4]]
        assert _outcome(gamma_sum, small) == _outcome(reference_gamma_sum, small)
        assert _outcome(gamma_sum, iter(small)) == _outcome(reference_gamma_sum, small)

    def test_exhaustive_on_the_grid(self):
        pts = GammaGrid(12).points
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                for op, ref in ((mip, reference_mip), (miss, reference_miss), (plus, reference_plus)):
                    assert _outcome(op, x, y) == _outcome(ref, x, y)
                for xs in ((x, y), (x, y, ONE_APPROX)):
                    assert _outcome(gamma_sum, xs) == _outcome(reference_gamma_sum, xs)
                if j <= i:
                    assert pts[mip_of_ranks(i, j)] == reference_mip(x, y)
                    assert pts[miss_of_ranks(i, j)] == reference_miss(x, y)
                if x.value + y.value <= 1:
                    assert pts[plus_of_ranks(i, j)] == reference_plus(x, y)
            for n in range(1, 25):
                assert project_gamma(x, n) == reference_project_gamma(x, n)
                assert project_of_ranks(i, n, 12) == reference_project_gamma(x, n).a
        ranks = np.arange(25)[:, None]
        table = project_of_ranks(ranks, np.arange(1, 25), 12)
        assert table.tolist() == [
            [reference_project_gamma(x, n).a for n in range(1, 25)] for x in pts
        ]

    @pytest.mark.parametrize(
        "op, x, y, message",
        [
            (mip, "1/4^o", "1/2^o", "mip undefined: 1/2^o > 1/4^o"),
            (mip, "1/2^-", "1/2^o", "mip undefined: 1/2^o > 1/2^-"),
            (mip, "1/3^o", "1/2^-", "mip undefined: 1/2^- > 1/3^o"),
            (miss, "1/4^o", "1/2^-", "miss undefined: 1/2^- > 1/4^o"),
            (miss, "1/2^-", "1/2^o", "miss undefined: 1/2^o > 1/2^-"),
            (miss, "2/3^-", "3/4^o", "miss undefined: 3/4^o > 2/3^-"),
            (plus, "1/2^o", "3/4^o", "plus undefined: 1/2^o + 3/4^o exceeds 1"),
            (plus, "1/3^-", "5/7^o", "plus undefined: 1/3^- + 5/7^o exceeds 1"),
            (plus, "1^-", "1/1000^o", "plus undefined: 1^- + 1/1000^o exceeds 1"),
        ],
    )
    def test_domain_errors(self, op, x, y, message):
        with pytest.raises(DomainError) as exc:
            op(gv(x), gv(y))
        assert str(exc.value) == message
        ref = {mip: reference_mip, miss: reference_miss, plus: reference_plus}[op]
        assert _outcome(ref, gv(x), gv(y)) == (DomainError, message)

    @pytest.mark.parametrize(
        "op, x, y, result",
        [
            # the diagonal, the covering pair and the ends
            (mip, "2/3^o", "2/3^o", "0^o"),
            (mip, "2/3^-", "2/3^-", "0^o"),
            (mip, "2/3^o", "2/3^-", "0^o"),
            (mip, "1^o", "1^-", "0^o"),
            (mip, "1^-", "0^o", "1^-"),
            (mip, "3/4^-", "1/6^o", "7/12^-"),
            (miss, "2/3^-", "2/3^-", "0^o"),
            (miss, "2/3^o", "2/3^-", "0^o"),
            (miss, "1^o", "0^o", "1^-"),
            (miss, "3/4^o", "1/6^-", "7/12^o"),
            # sums of exactly 1, on mixed denominators
            (plus, "1/3^o", "2/3^o", "1^o"),
            (plus, "1/3^-", "2/3^o", "1^-"),
            (plus, "1/4^-", "3/4^-", "1^-"),
            (plus, "1/6^o", "1/4^-", "5/12^-"),
            (plus, "0^o", "1^o", "1^o"),
        ],
    )
    def test_domain_edges(self, op, x, y, result):
        ref = {mip: reference_mip, miss: reference_miss, plus: reference_plus}[op]
        assert str(op(gv(x), gv(y))) == str(ref(gv(x), gv(y))) == result

    def test_sum_names_the_first_overflowing_partial_sum(self):
        xs = [gv("1/2^o"), gv("1/4^-"), gv("1/3^o"), gv("1/2^o")]
        message = "plus undefined: 3/4^- + 1/3^o exceeds 1"
        assert _outcome(gamma_sum, xs) == _outcome(reference_gamma_sum, xs) == (DomainError, message)
        assert gamma_sum([gv("1/6^o"), gv("1/3^-"), gv("1/2^o")]) == ONE_APPROX
        assert gamma_sum([gv("1/6^o"), gv("1/3^o"), gv("1/2^o")]) == ONE
        assert gamma_sum([ZERO, ZERO]) == ZERO

    def test_projection_domain(self):
        for n in (0, -2):
            with pytest.raises(DomainError, match="chain parameter must be positive"):
                project_gamma(ONE, n)

    def test_grid_points_are_their_ranks(self):
        for k in (1, 2, 5):
            assert [rank(p, k) for p in GammaGrid(k).points] == list(range(2 * k + 1))

    def test_codec_domain(self):
        assert common_denominator(()) == 1
        assert common_denominator((gv("1/4^o"), gv("5/6^-"))) == 12
        with pytest.raises(DomainError):
            rank(gv("1/3^o"), 4)


def _pair_order(x: GammaValue, y: GammaValue) -> tuple[bool, bool, bool, bool]:
    """(<, <=, >, >=) on the pairs ``(value, exact)``: the order the
    comparisons on ranks must reproduce."""
    a, b = (x.value, x.exact), (y.value, y.exact)
    return a < b, a <= b, a > b, a >= b


class TestIntegerPaths:
    """The comparisons, the operations and the points built without the
    constructor's checks, against the order of ``(value, exact)`` pairs and
    the ``Fraction`` references."""

    @given(gamma_values(), gamma_values())
    def test_comparisons_match_pair_order(self, x, y):
        assert (x < y, x <= y, x > y, x >= y) == _pair_order(x, y)
        assert (y < x, y <= x, y > x, y >= x) == _pair_order(y, x)

    def test_comparisons_exhaustive_on_the_grids(self):
        points = sorted(
            {p for k in range(1, 13) for p in GammaGrid(k).points},
            key=lambda p: (p.value, p.exact),
        )
        for i, x in enumerate(points):
            for j, y in enumerate(points):
                assert (x < y, x <= y, x > y, x >= y) == (i < j, i <= j, i > j, i >= j)
                assert (x < y, x <= y, x > y, x >= y) == _pair_order(x, y)

    def test_comparing_other_types_is_not_implemented(self):
        x = gv("1/2^o")
        for other in (F(1, 2), 0.5, (F(1, 2), True), None):
            assert x.__lt__(other) is NotImplemented
            assert x.__le__(other) is NotImplemented
            assert x.__gt__(other) is NotImplemented
            assert x.__ge__(other) is NotImplemented
            with pytest.raises(TypeError):
                x < other  # noqa: B015

    @given(st.integers(1, 40), st.data())
    def test_operations_on_equal_denominators(self, d, data):
        # numerators prime to d keep d the denominator of both values
        numerators = [a for a in range(d + 1) if math.gcd(a, d) == 1]
        tagged = st.tuples(st.sampled_from(numerators), st.booleans())
        (a, e), (b, f) = data.draw(tagged), data.draw(tagged)
        x = GammaValue(F(a, d), e or a == 0)
        y = GammaValue(F(b, d), f or b == 0)
        assert x.value.denominator == y.value.denominator == d
        for op, ref in ((mip, reference_mip), (miss, reference_miss), (plus, reference_plus)):
            assert _outcome(op, x, y) == _outcome(ref, x, y)
            assert _outcome(op, y, x) == _outcome(ref, y, x)

    @given(gamma_values(), gamma_values())
    def test_operations_on_unequal_denominators(self, x, y):
        assume(x.value.denominator != y.value.denominator)
        for op, ref in ((mip, reference_mip), (miss, reference_miss), (plus, reference_plus)):
            assert _outcome(op, x, y) == _outcome(ref, x, y)
            assert _outcome(op, y, x) == _outcome(ref, y, x)

    def test_points_equal_the_validating_construction(self):
        for denom in range(1, 25):
            for r in range(2 * denom + 1):
                p = point_of_rank(r, denom)
                q = GammaValue(F((r + 1) // 2, denom), r % 2 == 0)
                assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
                assert type(p.value) is F and type(p.exact) is bool

    @pytest.mark.parametrize(
        "r, denom, message",
        [
            (-1, 4, "approximation point 0 lies outside (0, 1]"),
            (-2, 4, "exact point -1/4 lies outside [0, 1]"),
            (-3, 4, "approximation point -1/4 lies outside (0, 1]"),
            (9, 4, "approximation point 5/4 lies outside (0, 1]"),
            (10, 4, "exact point 5/4 lies outside [0, 1]"),
            (3, 1, "approximation point 2 lies outside (0, 1]"),
        ],
    )
    def test_point_of_rank_outside_the_ranks(self, r, denom, message):
        with pytest.raises(DomainError) as exc:
            point_of_rank(r, denom)
        assert str(exc.value) == message
