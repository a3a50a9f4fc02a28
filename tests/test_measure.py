"""Measure axioms, retraction, pushforward, integration."""

import random
import re
from fractions import Fraction as F

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    identity_hom,
    random_classical_measure,
    reference_validate_classical_measure,
    reference_validate_measure,
    small_lattice_corpus,
)
from stonepair import gamma
from stonepair.errors import DomainError, LatticeError, ParseError
from stonepair.gamma import ZERO, ONE, iota_approx, iota_exact, parse_gamma
from stonepair.lattice import (
    FiniteLattice,
    LatticeHom,
    boolean_algebra,
    chain,
    product_lattice,
)
from stonepair.measure import (
    ClassicalMeasure,
    FinSuppFn,
    Measure,
    collapse_measure,
    format_measure,
    integrate,
    integration_measure,
    lift_measure,
    measure_lattice_reference,
    parse_measure,
    pushforward,
    validate_classical_measure,
    validate_measure,
)
from stonepair.pl import GE, eval_pl_measure, presentation_of_measure

B4 = boolean_algebra(2)
C3 = chain(3, ["0", "d", "1"])


def b4_measure(v0, va, vb, v1) -> Measure:
    return Measure(B4, tuple(parse_gamma(s) for s in (v0, va, vb, v1)))


class TestValidate:
    def test_half_half_ok(self):
        mu = b4_measure("0^o", "1/2^o", "1/2^o", "1^o")
        assert validate_measure(mu) == []

    def test_top_must_be_exact_one(self):
        mu = b4_measure("0^o", "1/2^o", "1/2^o", "1^-")
        assert any(v.kind == "top" for v in validate_measure(mu))

    def test_unbalanced_complements_fail_additivity(self):
        mu = b4_measure("0^o", "1/2^o", "3/4^o", "1^o")
        kinds = {v.kind for v in validate_measure(mu)}
        assert kinds & {"additivity-left", "additivity-right"}
        pairs = {(v.a, v.b) for v in validate_measure(mu)}
        a, b = B4.index_of("a"), B4.index_of("b")
        assert (a, b) in pairs or (b, a) in pairs

    def test_monotonicity_reported(self):
        mu = b4_measure("0^o", "1^o", "1/2^o", "1^o")
        # a <= 1 holds, but the (a, b) values cannot be additive
        assert validate_measure(mu)

    def test_violations_are_reproducible(self):
        mu = b4_measure("0^o", "1/2^o", "3/4^o", "1^o")
        for v in validate_measure(mu):
            if v.kind.startswith("additivity"):
                lo = mu(B4.meet(v.a, v.b))
                hi = mu(B4.join(v.a, v.b))
                left = gamma.miss(mu(v.a), lo) <= gamma.mip(hi, mu(v.b))
                right = gamma.mip(mu(v.a), lo) >= gamma.miss(hi, mu(v.b))
                if v.kind == "additivity-left":
                    assert not left
                else:
                    assert not right

    def test_render(self):
        mu = b4_measure("0^o", "1/2^o", "3/4^o", "1^o")
        lines = [v.render(B4) for v in validate_measure(mu)]
        assert any(line.startswith("FAIL additivity-") and "a=" in line for line in lines)

    def test_approx_exact_complement_pairs_ok(self):
        assert validate_measure(b4_measure("0^o", "1/2^-", "1/2^o", "1^o")) == []
        assert validate_measure(b4_measure("0^o", "1/2^o", "1/2^-", "1^o")) == []
        assert validate_measure(b4_measure("0^o", "1/2^-", "1/2^-", "1^o")) != []

    def test_boolean_four_closed_form(self):
        # independent characterisation: values on complementary atoms must
        # collapse to a sum of exactly 1 and cannot both be approximations
        from stonepair.gamma import GammaGrid

        for x in GammaGrid(4).points:
            for y in GammaGrid(4).points:
                mu = Measure(B4, (ZERO, x, y, ONE))
                expected_ok = (
                    x.value + y.value == 1 and (x.exact or y.exact)
                )
                assert (validate_measure(mu) == []) == expected_ok, (x, y)


DIFF_LATTICES = (C3, B4, product_lattice(chain(2), chain(3)), boolean_algebra(3))


@st.composite
def tagged_maps(draw):
    """Maps into the doubled interval: lifted classical measures with some
    values re-tagged or moved by a small step, or arbitrary values."""
    L = draw(st.sampled_from(DIFF_LATTICES))
    if draw(st.booleans()):
        m = random_classical_measure(L, random.Random(draw(st.integers(0, 2**16))))
        values = [iota_exact(v) for v in m.values]
        for a in draw(st.lists(st.integers(0, L.n - 1), max_size=3)):
            v = values[a].value
            if draw(st.booleans()) and v > 0:
                values[a] = gamma.GammaValue(v, not values[a].exact)
            else:
                moved = v + F(draw(st.integers(-2, 2)), draw(st.integers(1, 12)))
                values[a] = iota_exact(min(max(moved, F(0)), F(1)))
    else:
        den = draw(st.integers(1, 8))
        values = []
        for _ in range(L.n):
            q = F(draw(st.integers(0, den)), den)
            exact = q == 0 or draw(st.booleans())
            values.append(gamma.GammaValue(q, exact))
    return Measure(L, tuple(values))


class TestValidateAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(tagged_maps())
    def test_same_violations_in_the_same_order(self, mu):
        assert validate_measure(mu) == reference_validate_measure(mu)


WIDE_LATTICES = (
    boolean_algebra(6),
    product_lattice(chain(3), chain(3)),
    product_lattice(chain(2), chain(4)),
    chain(6),
)


def _valuation(L, rng: random.Random, denom: int) -> list:
    """A lifted classical valuation with weights on the denominator ``denom``."""
    J = L.join_irreducibles()
    cuts = sorted(rng.randrange(denom + 1) for _ in range(len(J) - 1))
    weight = {j: F(b - a, denom) for j, a, b in zip(J, [0] + cuts, cuts + [denom])}
    return [iota_exact(sum((weight[j] for j in J if L.leq(j, a)), F(0))) for a in range(L.n)]


@st.composite
def wide_tagged_maps(draw):
    """Lifted, perturbed, non-monotone and endpoint-broken maps on the wider
    lattices; the denominator is sometimes past the int64 ranks."""
    L = draw(st.sampled_from(WIDE_LATTICES))
    rng = random.Random(draw(st.integers(0, 2**16)))
    denom = draw(st.sampled_from([6, 24, 2**62 + 3]))
    values = _valuation(L, rng, denom)
    kind = draw(st.sampled_from(["lifted", "perturbed", "non-monotone", "endpoints"]))
    if kind == "perturbed":
        for a in draw(st.lists(st.integers(0, L.n - 1), min_size=1, max_size=3)):
            v = values[a].value
            if draw(st.booleans()) and v > 0:
                values[a] = gamma.GammaValue(v, not values[a].exact)
            else:
                step = F(draw(st.integers(-2, 2)), draw(st.sampled_from([denom, 2 * denom, 7])))
                values[a] = iota_exact(min(max(v + step, F(0)), F(1)))
    elif kind == "non-monotone":
        a, b = draw(st.sampled_from([(a, b) for a in range(L.n) for b in range(L.n) if a != b and L.leq(a, b)]))
        values[a], values[b] = values[b], values[a]
    elif kind == "endpoints":
        values[L.bottom] = gamma.GammaValue(F(1, draw(st.integers(1, 5))), draw(st.booleans()))
        values[L.top] = draw(st.sampled_from([gamma.ONE_APPROX, iota_exact(F(1, 2)), ZERO]))
    return Measure(L, tuple(values))


class TestWholeTableValidation:
    @settings(max_examples=60, deadline=None)
    @given(wide_tagged_maps())
    def test_same_violations_in_the_same_order(self, mu):
        assert validate_measure(mu) == reference_validate_measure(mu)

    def test_object_ranks_past_int64(self):
        # common denominators above 2**62 take the object-dtype path
        rng = random.Random(7)
        denom = 2**62 + 3
        for L in WIDE_LATTICES:
            values = _valuation(L, rng, denom)
            mu = Measure(L, tuple(values))
            assert gamma.common_denominator(mu.values) > 2**62
            assert validate_measure(mu) == reference_validate_measure(mu) == []
            # one inner value half a step off breaks additivity off chains
            e = next(a for a in range(L.n) if a not in (L.bottom, L.top))
            step = F(1, 2 * denom)
            moved = list(values)
            v = values[e].value
            moved[e] = iota_exact(v + step if v < 1 else v - step)
            # swapped values on a comparable pair break monotonicity
            a, b = e, L.top
            swapped = list(values)
            swapped[a], swapped[b] = values[b], values[a]
            for broken in (moved, swapped):
                nu = Measure(L, tuple(broken))
                assert validate_measure(nu) == reference_validate_measure(nu)
            assert validate_measure(Measure(L, tuple(swapped)))
            if L.n != len(L.join_irreducibles()) + 1:  # not a chain
                assert validate_measure(Measure(L, tuple(moved)))

    def test_order_arrays_are_read_only(self):
        leq, meets, joins = B4._order_arrays
        assert leq.tolist() == [[B4.leq(a, b) for b in range(4)] for a in range(4)]
        assert meets.tolist() == [[B4.meet(a, b) for b in range(4)] for a in range(4)]
        assert joins.tolist() == [[B4.join(a, b) for b in range(4)] for a in range(4)]
        assert not (leq.flags.writeable or meets.flags.writeable or joins.flags.writeable)
        assert B4._order_arrays is B4._order_arrays


def _reversed(values):
    """Each value v replaced by 1 - v, tagged exact: antitone, so every
    monotonicity violation sits on a pair a < b of distinct values."""
    return tuple(iota_exact(1 - v.value) for v in values)


class TestComparablePairs:
    """Monotonicity is tested on the pairs a <= b and additivity, or the
    modular law, on the incomparable pairs only."""

    def test_a_comparable_pair_never_fails_additivity(self):
        # for b <= a both inequalities reduce to miss(x, y) <= mip(x, y) on y <= x
        for denom in range(1, 13):
            for x in range(2 * denom + 1):
                for y in range(x + 1):
                    assert gamma.miss_of_ranks(x, y) <= gamma.mip_of_ranks(x, y), (denom, x, y)

    @pytest.mark.parametrize("denom", [6, 24, 2**61, 2**61 + 1])
    @pytest.mark.parametrize("L", WIDE_LATTICES + tuple(small_lattice_corpus(max_size=12)), ids=lambda L: f"n{L.n}")
    def test_violations_on_comparable_pairs(self, L, denom):
        rng = random.Random(denom)
        values = _valuation(L, rng, denom)
        for broken in (_reversed(values), values[::-1], sorted(values, reverse=True)):
            mu = Measure(L, tuple(broken))
            got = validate_measure(mu)
            assert got == reference_validate_measure(mu)
            assert any(v.kind == "monotone" for v in got)
            assert all(L.leq(v.a, v.b) for v in got if v.kind == "monotone")
            m = ClassicalMeasure(L, tuple(v.value for v in broken))
            assert validate_classical_measure(m) == reference_validate_classical_measure(m)
        # 1 - m is antitone but still modular: only the endpoints and monotonicity fail
        m = ClassicalMeasure(L, tuple(v.value for v in _reversed(values)))
        assert {v.kind for v in validate_classical_measure(m)} == {"bottom", "top", "monotone"}

    def test_object_ranks_at_the_int64_boundary(self):
        # 2**61 is the least denominator ranked as Python integers
        L = boolean_algebra(6)
        for denom in (2**61 - 1, 2**61):
            values = _valuation(L, random.Random(3), denom)
            assert gamma.common_denominator(values) == denom
            for broken in (values, _reversed(values)):
                mu = Measure(L, tuple(broken))
                assert validate_measure(mu) == reference_validate_measure(mu)
                m = ClassicalMeasure(L, tuple(v.value for v in broken))
                assert validate_classical_measure(m) == reference_validate_classical_measure(m)

    def test_a_poset_without_a_meet(self):
        # c and d have the two maximal lower bounds a and b: both validators
        # raise the oracle's LatticeError and cache no pair table
        pairs = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]
        values = tuple(F(i, 5) for i in range(6))
        cases = (
            (validate_measure, reference_validate_measure, lambda L: Measure(L, tuple(map(iota_exact, values)))),
            (validate_classical_measure, reference_validate_classical_measure, lambda L: ClassicalMeasure(L, values)),
        )
        for validate, reference, build in cases:
            L = FiniteLattice(list("0abcd1"), pairs)
            with pytest.raises(LatticeError) as got:
                validate(build(L))
            assert not {"_comparable", "_incomparable", "_placements"} & set(vars(L))
            with pytest.raises(LatticeError) as want:
                reference(build(FiniteLattice(list("0abcd1"), pairs)))
            assert str(got.value) == str(want.value) == "no meet for (c, d)"


def _exact_maps(L, denom: int):
    """Exact-valued maps on ``L``: a lifted valuation on ``denom``, its
    antitone reversal, and the valuation with one value moved half a step
    at each element in turn."""
    values = [v.value for v in _valuation(L, random.Random(L.n * denom), denom)]
    yield values
    yield [1 - v for v in values]
    step = F(1, 2 * denom)
    for e in range(L.n):
        yield values[:e] + [values[e] + step if values[e] < 1 else values[e] - step] + values[e + 1:]


class TestExactLawsAgree:
    """On exact values the two additivity inequalities are the modular law:
    on even ranks with meet <= x and y <= join, left fails iff x - meet >
    join - y and right iff x - meet < join - y."""

    @pytest.mark.parametrize("L", small_lattice_corpus(), ids=lambda L: f"n{L.n}")
    def test_the_laws_agree(self, L):
        split = 0
        for denom in (6, 24):
            for values in _exact_maps(L, denom):
                tagged = validate_measure(Measure(L, tuple(map(iota_exact, values))))
                classical = validate_classical_measure(ClassicalMeasure(L, tuple(values)))
                assert (tagged == []) == (classical == []), values
                if any(v.kind == "monotone" for v in tagged):
                    continue
                additivity = [(v.a, v.b) for v in tagged if v.kind.startswith("additivity")]
                modular = [(v.a, v.b) for v in classical if v.kind == "modular"]
                assert list(dict.fromkeys(additivity)) == modular, values
                split += bool(modular)
        # a moved value breaks the laws on every lattice but a chain
        assert split or L.n == len(L.join_irreducibles()) + 1


class TestClassical:
    def test_modular_law_checked(self):
        m = ClassicalMeasure(B4, (F(0), F(1, 2), F(3, 4), F(1)))
        assert any(v.kind == "modular" for v in validate_classical_measure(m))

    def test_float_values_are_refused(self):
        # so neither validate_classical_measure nor lift_measure meets one
        for values in ((0, 0.1, 0.9, 1), (F(0), F(1, 2), F(1, 2), 1.0)):
            with pytest.raises(DomainError, match=r"^0\.1 is not|^1\.0 is not"):
                ClassicalMeasure(B4, values)
        assert lift_measure(ClassicalMeasure(C3, (0, F(1, 2), 1))).values[2] == ONE

    def test_random_valuations_are_valid(self):
        rng = random.Random(7)
        for L in small_lattice_corpus(max_size=8):
            for _ in range(5):
                m = random_classical_measure(L, rng)
                assert validate_classical_measure(m) == []


@st.composite
def classical_maps(draw):
    """Maps into the rationals on a corpus lattice: valid valuations, ones
    with a few values moved, and ones with values anywhere in [-1, 3]."""
    L = draw(st.sampled_from(small_lattice_corpus()))
    values = list(random_classical_measure(L, random.Random(draw(st.integers(0, 2**16)))).values)
    kind = draw(st.sampled_from(["valid", "perturbed", "out of range"]))
    for a in draw(st.lists(st.integers(0, L.n - 1), max_size=3)) if kind != "valid" else ():
        if kind == "perturbed":
            values[a] += F(draw(st.integers(-2, 2)), draw(st.integers(1, 12)))
        else:
            values[a] = F(draw(st.integers(-6, 18)), draw(st.integers(1, 6)))
    return ClassicalMeasure(L, tuple(values))


class TestClassicalAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(classical_maps())
    def test_same_violations_in_the_same_order(self, m):
        assert validate_classical_measure(m) == reference_validate_classical_measure(m)

    def test_every_kind_in_order(self):
        # bottom 1/2, top 2: bottom, top, range at 1, then monotone and modular pairs
        m = ClassicalMeasure(B4, (F(1, 2), F(0), F(3, 4), F(2)))
        got = validate_classical_measure(m)
        assert got == reference_validate_classical_measure(m)
        assert [v.kind for v in got][:3] == ["bottom", "top", "range"]
        assert {v.kind for v in got[3:]} == {"monotone", "modular"}

    def test_huge_denominators(self):
        # numerators past int64 are compared as Python integers
        big = 2**70
        for values in (
            (F(0), F(1, big), F(1, 3 * big), F(1)),
            (F(0), F(big + 1, big), F(1, 3), F(1)),
            (F(0), F(1, 2), F(1, 2), F(1)),
        ):
            m = ClassicalMeasure(B4, values)
            assert validate_classical_measure(m) == reference_validate_classical_measure(m)

    @pytest.mark.parametrize("edge", [2**62 - 1, 2**62], ids=["int64", "object"])
    def test_at_the_int64_bound(self, edge):
        # the numerators are int64 while they and the denominator stay below
        # 2**62 in magnitude, and the modular law's sums of two still fit
        for values in (
            (F(0), F(1, edge), F(edge - 1, edge), F(1)),
            (F(0), F(-edge), F(edge), F(1)),
            (F(0), F(edge), F(edge), F(1)),
            (F(0), F(-edge), F(-edge), F(1)),
            (F(-edge), F(edge), F(edge), F(-edge)),  # a wrapped sum would pass the law
        ):
            m = ClassicalMeasure(B4, values)
            assert validate_classical_measure(m) == reference_validate_classical_measure(m)


class TestRetraction:
    def test_collapse_strips_tags(self):
        mu = Measure(C3, (ZERO, parse_gamma("1/2^-"), ONE))
        m = collapse_measure(mu)
        assert m.values == (F(0), F(1, 2), F(1))

    def test_lift_tags_exact(self):
        m = ClassicalMeasure(C3, (F(0), F(1, 2), F(1)))
        assert lift_measure(m).values == (ZERO, parse_gamma("1/2^o"), ONE)

    def test_collapse_after_lift_is_identity(self):
        rng = random.Random(11)
        for L in small_lattice_corpus(max_size=8):
            for _ in range(5):
                m = random_classical_measure(L, rng)
                assert collapse_measure(lift_measure(m)) == m

    def test_collapse_satisfies_exact_additivity(self):
        mu = b4_measure("0^o", "1/2^-", "1/2^o", "1^o")
        m = collapse_measure(mu)
        for a in range(B4.n):
            for b in range(B4.n):
                assert m(a) + m(b) == m(B4.join(a, b)) + m(B4.meet(a, b))


class TestPushforward:
    def test_identity(self):
        mu = b4_measure("0^o", "1/2^o", "1/2^o", "1^o")
        assert pushforward(mu, identity_hom(B4)).values == mu.values

    def test_endpoints_through_two_chain(self):
        two = chain(2)
        h = LatticeHom(two, B4, (B4.bottom, B4.top))
        mu = b4_measure("0^o", "1/3^-", "2/3^o", "1^o")
        nu = pushforward(mu, h)
        assert nu.values == (ZERO, ONE)

    def test_sublattice_restriction(self):
        # {bottom, a, top} inside the four-element Boolean algebra
        sub = chain(3, ["0", "m", "1"])
        h = LatticeHom(sub, B4, (B4.bottom, B4.index_of("a"), B4.top))
        mu = b4_measure("0^o", "1/3^-", "2/3^o", "1^o")
        nu = pushforward(mu, h)
        assert validate_measure(nu) == []
        assert nu.values[1] == parse_gamma("1/3^-")

    def test_functorial(self):
        sub = chain(3, ["0", "m", "1"])
        two = chain(2)
        g = LatticeHom(two, sub, (0, 2))
        h = LatticeHom(sub, B4, (B4.bottom, B4.index_of("b"), B4.top))
        mu = b4_measure("0^o", "1/2^o", "1/2^o", "1^o")
        via_composite = pushforward(mu, h.compose(g))
        step_by_step = pushforward(pushforward(mu, h), g)
        assert via_composite == step_by_step

    def test_restriction_path_independence(self):
        # restricting along a chain of inclusions agrees with the direct one
        d0 = chain(2)
        d1 = chain(3, ["0", "m", "1"])
        inc_01 = LatticeHom(d0, d1, (0, 2))
        inc_12 = LatticeHom(d1, B4, (B4.bottom, B4.index_of("a"), B4.top))
        mu = b4_measure("0^o", "1/4^-", "3/4^o", "1^o")
        assert pushforward(mu, inc_12.compose(inc_01)) == pushforward(
            pushforward(mu, inc_12), inc_01
        )


class TestFinSupp:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            FinSuppFn(("p", "q"), (iota_exact(F(1, 4)), iota_exact(F(1, 4))))

    def test_uniform_integration(self):
        f = FinSuppFn(tuple("abcd"), (iota_exact(F(1, 4)),) * 4)
        assert integrate(f, {"a", "b"}) == iota_exact(F(1, 2))

    def test_empty_and_full(self):
        f = FinSuppFn(tuple("abcd"), (iota_exact(F(1, 4)),) * 4)
        assert integrate(f, set()) == ZERO
        assert integrate(f, set("abcd")) == ONE

    def test_carrier_faults(self):
        with pytest.raises(DomainError, match="^one weight per carrier point required$"):
            FinSuppFn(("p", "q"), (ONE,))
        with pytest.raises(DomainError, match="^carrier points must be distinct$"):
            FinSuppFn(("p", "p"), (ONE, ZERO))

    def test_support_excludes_zero_weights(self):
        f = FinSuppFn(("p", "q"), (ONE, ZERO))
        assert f.support == ("p",)


# B4 maps with a value that is not a point: a rational, then a string
NOT_POINTS = (
    (ZERO, F(1, 2), parse_gamma("1/2^o"), ONE),
    (ZERO, parse_gamma("1/2^o"), "1/2^o", ONE),
)
# each entry point that takes a Measure, applied to one
MEASURE_ENTRY_POINTS = {
    "validate_measure": validate_measure,
    "pushforward": lambda mu: pushforward(mu, identity_hom(B4)),
    "format_measure": format_measure,
    "presentation_of_measure": lambda mu: presentation_of_measure(mu, 2),
    "eval_pl_measure": lambda mu: eval_pl_measure(mu, GE(F(1, 2), 1)),
}


class TestValuesArePoints:
    """A ``Measure`` or ``FinSuppFn`` holding anything but points of the
    doubled interval is refused when built, with a ``DomainError`` naming
    the first such value, so no entry point meets one."""

    @pytest.mark.parametrize("values", NOT_POINTS, ids=["Fraction", "str"])
    @pytest.mark.parametrize("entry", MEASURE_ENTRY_POINTS.values(), ids=MEASURE_ENTRY_POINTS)
    def test_measure_entry_points(self, entry, values):
        first = next(v for v in values if not isinstance(v, gamma.GammaValue))
        with pytest.raises(DomainError, match=f"^{re.escape(repr(first))} is not a point of the doubled interval$"):
            entry(Measure(B4, values))

    @pytest.mark.parametrize("weight", [F(1, 2), "1/2^o"], ids=["Fraction", "str"])
    def test_fin_supp_fn(self, weight):
        with pytest.raises(DomainError, match=f"^{re.escape(repr(weight))} is not a point of the doubled interval$"):
            FinSuppFn(("p", "q", "r"), (iota_exact(F(1, 2)), weight, F(1, 4)))


def powerset(points):
    out = [frozenset()]
    for p in points:
        out += [s | {p} for s in out]
    return out


class TestIntegrationMeasure:
    def test_powerset_uniform(self):
        f = FinSuppFn((0, 1, 2), (iota_exact(F(1, 3)),) * 3)
        L, mu = integration_measure(f, powerset((0, 1, 2)))
        assert validate_measure(mu) == []
        assert mu(L.bottom) == ZERO and mu(L.top) == ONE

    def test_nested_chain(self):
        f = FinSuppFn((0, 1, 2, 3), (iota_exact(F(1, 4)),) * 4)
        sets = [frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2, 3})]
        L, mu = integration_measure(f, sets)
        assert validate_measure(mu) == []
        assert mu(2) == iota_exact(F(1, 2))

    def test_point_mass_is_two_valued(self):
        f = FinSuppFn((0, 1), (ONE, ZERO))
        _, mu = integration_measure(f, powerset((0, 1)))
        assert set(mu.values) == {ZERO, ONE}

    def test_approx_weights_cannot_sum_to_one(self):
        # a single approximation weight makes every total an approximation
        with pytest.raises(DomainError):
            FinSuppFn((0, 1), (iota_approx(F(1, 2)), iota_approx(F(1, 2))))

    def test_requires_closure(self):
        f = FinSuppFn((0, 1), (iota_exact(F(1, 2)),) * 2)
        with pytest.raises(DomainError):
            integration_measure(f, [frozenset(), frozenset({0}), frozenset({1})])

    def test_requires_distinct_members_closed_under_meets(self):
        f = FinSuppFn((0, 1, 2), (iota_exact(F(1, 3)),) * 3)
        empty, full = frozenset(), frozenset({0, 1, 2})
        with pytest.raises(DomainError, match="^algebra members must be distinct$"):
            integration_measure(f, [empty, full, frozenset(full)])
        # {0, 1} & {1, 2} = {1} is missing; every union is present
        sets = [empty, frozenset({0, 1}), frozenset({1, 2}), full]
        with pytest.raises(DomainError, match="^algebra not closed under intersection$"):
            integration_measure(f, sets)

    def test_requires_bounds(self):
        f = FinSuppFn((0, 1), (iota_exact(F(1, 2)),) * 2)
        with pytest.raises(DomainError):
            integration_measure(f, [frozenset({0}), frozenset({0, 1})])


class TestMeasureFiles:
    def test_round_trip(self):
        mu = b4_measure("0^o", "1/2^-", "1/2^o", "1^o")
        text = format_measure(mu, "b4.lat")
        assert measure_lattice_reference(text) == "b4.lat"
        assert parse_measure(text, B4) == mu

    def test_missing_value(self):
        with pytest.raises(ParseError):
            parse_measure("value(0) = 0^o\n", B4)

    def test_unknown_label(self):
        with pytest.raises(ParseError) as exc:
            parse_measure("value(0) = 0^o\n  value(zz) = 0^o # comment\n", B4)
        assert (exc.value.line, exc.value.column) == (2, 9)
        assert exc.value.message == "unknown element label 'zz'"
