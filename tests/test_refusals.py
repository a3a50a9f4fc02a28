"""User-reachable refusals that the other tests do not reach, each with its
message pinned."""

from fractions import Fraction as F

import pytest

from conftest import identity_hom
from stonepair import chains, fo, measure, pairing, pl
from stonepair.errors import DomainError
from stonepair.fo import POSET_SIGNATURE, gen_example_structure
from stonepair.gamma import ONE, ZERO, iota_exact
from stonepair.lattice import FiniteLattice, LatticeHom, PrimeFilter, boolean_algebra, chain, from_subsets

B4 = boolean_algebra(2)
C3 = chain(3)
HALF = iota_exact(F(1, 2))
COIN = measure.FinSuppFn((0, 1), (HALF, HALF))
GE_HALF = pl.GE(F(1, 2), 1)

REFUSALS = {
    "chain element past n": (lambda: chains.ChainElement(3, 4), "4/3 is not on the chain"),
    "chain element below 0": (lambda: chains.ChainElement(3, -1), "-1/3 is not on the chain"),
    "chain point past n": (lambda: chains.ChainPoint(2, 3), "3/2 is not on the chain"),
    "ceiling on the wrong chain": (
        lambda: chains.ceiling_map(2, 3, chains.ChainPoint(4, 1)),
        "point lives on chain 4, expected 6",
    ),
    "arity of an unknown relation": (
        lambda: POSET_SIGNATURE.arity("r"),
        "unknown relation 'r'",
    ),
    "satisfies on a threshold leaf": (
        lambda: fo.satisfies(gen_example_structure(2), {}, GE_HALF),
        f"not an evaluable node: {GE_HALF!r}",
    ),
    "index of an unknown label": (lambda: B4.index_of("z"), "unknown element label 'z'"),
    "kappa inverse outside kappa's image": (
        lambda: C3.kappa_inverse(2),
        "c2 is not in the image of kappa",
    ),
    "composing mismatched homomorphisms": (
        lambda: identity_hom(B4).compose(identity_hom(C3)),
        "homomorphisms do not compose: target/source mismatch",
    ),
    "chain(0)": (lambda: chain(0), "a chain needs at least one element"),
    # a chain's labels are one per element of its order table, no fewer, no more
    "chain(3) with two labels": (
        lambda: chain(3, ["a", "b"]),
        "2 labels for an order table of shape (3, 3)",
    ),
    "chain(3) with four labels": (
        lambda: chain(3, ["a", "b", "c", "d"]),
        "4 labels for an order table of shape (3, 3)",
    ),
    "boolean_algebra(9)": (lambda: boolean_algebra(9), "supported atom counts are 0..8"),
    "from_subsets with a repeated set": (
        lambda: from_subsets([frozenset(), frozenset({0}), frozenset()]),
        "subsets must be distinct",
    ),
    "a measure with too few values": (
        lambda: measure.Measure(B4, (ZERO, HALF, ONE)),
        "3 values for 4 elements",
    ),
    "pushforward onto another lattice": (
        lambda: measure.pushforward(
            measure.Measure(C3, (ZERO, HALF, ONE)), LatticeHom(B4, B4, (0, 1, 2, 3))
        ),
        "homomorphism target does not match the measure's lattice",
    ),
    "integration over a non-subset": (
        lambda: measure.integration_measure(COIN, [frozenset(), frozenset({5}), frozenset({0, 1})]),
        "[5] is not a subset of the carrier",
    ),
    "integration over a family not closed under union": (
        lambda: measure.integration_measure(
            measure.FinSuppFn((0, 1, 2), (iota_exact(F(1, 3)),) * 3),
            [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1, 2})],
        ),
        "algebra not closed under union",
    ),
    "threshold formula with both signature and lattice": (
        lambda: pl.parse_pl_formula("true", signature=POSET_SIGNATURE, lattice=B4),
        "pass exactly one of signature or lattice",
    ),
    "threshold formula with neither signature nor lattice": (
        lambda: pl.parse_pl_formula("true"),
        "pass exactly one of signature or lattice",
    ),
    # a size or index that is not an integer, once truncated, wrapped or
    # passed on to range(), islice() or numpy
    "order pair of a non-integer": (
        lambda: FiniteLattice(["a", "b", "c"], [(0, 1.5)]),
        "order pair must be a pair of integers: (0, 1.5)",
    ),
    "chain element numerator 1.0": (
        lambda: chains.ChainElement(2, 1.0),
        "point numerator must be an integer: 1.0",
    ),
    "chain element on chain 2.5": (
        lambda: chains.ChainElement(2.5, 1),
        "chain parameter must be an integer: 2.5",
    ),
    "top of chain 2.5": (
        lambda: chains.ChainElement(2.5, None),
        "chain parameter must be an integer: 2.5",
    ),
    "chain point numerator 1.0": (
        lambda: chains.ChainPoint(2, 1.0),
        "point numerator must be an integer: 1.0",
    ),
    "embedding by 1.5": (
        lambda: chains.embed(chains.ChainElement(2, 1), 1.5),
        "embedding factor must be an integer: 1.5",
    ),
    "point embedding by 1.5": (
        lambda: chains.embed_point(chains.ChainPoint(2, 1), 1.5),
        "embedding factor must be an integer: 1.5",
    ),
    "floor by 1.5": (
        lambda: chains.floor_map(2, 1.5, chains.ChainPoint(3, 1)),
        "embedding factor must be an integer: 1.5",
    ),
    "ceiling by 1.5": (
        lambda: chains.ceiling_map(2, 1.5, chains.ChainPoint(3, 1)),
        "embedding factor must be an integer: 1.5",
    ),
    "floor onto chain 2.5": (
        lambda: chains.floor_map(2.5, 2, chains.ChainPoint(5, 1)),
        "chain parameter must be an integer: 2.5",
    ),
    "floor onto chain -1": (
        lambda: chains.floor_map(-1, -3, chains.ChainPoint(3, 1)),
        "chain parameter must be positive",
    ),
    "ominus witness for m = 2.5": (
        lambda: chains.find_ominus_counterexample(2, 2.5),
        "embedding factor must be an integer: 2.5",
    ),
    "oplus preservation for m = 1.5": (
        lambda: chains.check_oplus_preserved(2, 1.5),
        "embedding factor must be an integer: 1.5",
    ),
    "floor-ceiling check for m = 1.5": (
        lambda: chains.check_floor_ceiling(2, 1.5),
        "embedding factor must be an integer: 1.5",
    ),
    "adjunction check on chain 2.5": (
        lambda: chains.check_adjunction(2.5),
        "chain parameter must be an integer: 2.5",
    ),
    "derived minus on chain 2.0": (
        lambda: chains.derive_partial_minus(2.0),
        "chain parameter must be an integer: 2.0",
    ),
    "duality sweep to n = 2.5": (
        lambda: list(chains.verify_duality(2.5, 2)),
        "chain bound must be an integer: 2.5",
    ),
    "duality sweep to m = 2.5": (
        lambda: list(chains.verify_duality(2, 2.5)),
        "factor bound must be an integer: 2.5",
    ),
    "chain(2.5)": (lambda: chain(2.5), "chain length must be an integer: 2.5"),
    "boolean_algebra(2.5)": (
        lambda: boolean_algebra(2.5),
        "atom count must be an integer: 2.5",
    ),
    "gen_example_structure(2.5)": (
        lambda: gen_example_structure(2.5),
        "family index must be an integer: 2.5",
    ),
    "structure of size 2.5": (
        lambda: fo.FiniteStructure(POSET_SIGNATURE, 2.5, {}),
        "universe size must be an integer: 2.5",
    ),
    "context of length 2.5": (
        lambda: pairing.padded_context(fo.TRUE, 2.5),
        "context length must be an integer: 2.5",
    ),
    "leq at index 1.5": (lambda: B4.leq(1.5, 0), "element index must be an integer: 1.5"),
    "meet at index 1.5": (lambda: B4.meet(0, 1.5), "element index must be an integer: 1.5"),
    "join at index 1.5": (lambda: B4.join(1.5, 1), "element index must be an integer: 1.5"),
    "kappa at index 1.5": (lambda: B4.kappa(1.5), "element index must be an integer: 1.5"),
    "order pair of three": (
        lambda: FiniteLattice(["a", "b", "c"], [(0, 1, 2)]),
        "order pair must be a pair of integers: (0, 1, 2)",
    ),
    "order pair that is a number": (
        lambda: FiniteLattice(["a", "b"], [5]),
        "order pair must be a pair of integers: 5",
    ),
    "measure at index 1.5": (
        lambda: measure.Measure(B4, (ZERO, HALF, HALF, ONE))(1.5),
        "element index must be an integer: 1.5",
    ),
    "measure at index -1": (
        lambda: measure.Measure(B4, (ZERO, HALF, HALF, ONE))(-1),
        "element index -1 out of range for 4 elements",
    ),
    "homomorphism onto 3.0": (
        lambda: LatticeHom(B4, B4, (0, 1, 2, 3.0)),
        "mapping entry must be an integer: 3.0",
    ),
    "homomorphism at index 1.5": (
        lambda: LatticeHom(B4, B4, (0, 1, 2, 3))(1.5),
        "element index must be an integer: 1.5",
    ),
    "prime filter holding 1.5": (
        lambda: PrimeFilter(B4, frozenset({1.5})),
        "filter member must be an integer: 1.5",
    ),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_message(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


def test_a_structure_is_not_equal_to_a_number():
    A = gen_example_structure(2)
    assert A.__eq__(1) is NotImplemented
    assert (A == 1) is False
