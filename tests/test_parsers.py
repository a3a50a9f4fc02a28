"""Every text parser fed arbitrary text, token soup, or a well-formed text
with one character edited: each call returns or raises a library ``Error``
other than ``InternalInvariantError``, and every ``ParseError`` carries a
line and column inside the text."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stonepair import fo
from stonepair.errors import Error, InternalInvariantError, ParseError
from stonepair.fo import parse_formula, parse_structure
from stonepair.gamma import parse_gamma
from stonepair.lattice import boolean_algebra, parse_lattice
from stonepair.measure import measure_lattice_reference, parse_measure
from stonepair.pl import GE, LT, parse_pl_formula

B4 = boolean_algebra(2)  # labels 0, a, b, 1
SIGNATURE = fo.Signature((("lt", 2), ("p", 1)))

# each parser with well-formed texts to edit and the tokens it is written in
PARSERS = {
    "formula": (
        lambda text: parse_formula(text, SIGNATURE),
        ("forall x. exists y. lt(x, y) & !(x = y) -> p(y)", "true | (false & p(z))"),
        ("forall", "exists", "x", "y", ".", "!", "&", "|", "->", "(", ")", ",", "lt", "p", "=", "true"),
    ),
    "threshold over a signature": (
        lambda text: parse_pl_formula(text, signature=SIGNATURE),
        ("[>= 1/2]{exists y. lt(x, y)} & ![< 1]{ p(x) | x = x }", "(true | [>= 0]{false})"),
        ("[>=", "[<", "1/2", "0", "]", "{", "}", "!", "&", "|", "(", ")", "lt(x,y)", "x = x", "true"),
    ),
    "threshold over a lattice": (
        lambda text: parse_pl_formula(text, lattice=B4),
        ("[>= 1/2]{a} | ![< 1]{ b } & [>= 0]{0}", "!(true & [<1/3]{1})"),
        ("[>=", "[<", "1/2", "0", "]", "{", "}", "!", "&", "|", "(", ")", "a", "b", "true"),
    ),
    "structure": (
        parse_structure,
        (
            "signature: lt/2, p/1\nuniverse: 3\nlt = {(0,1), (1,2)}\np = {(2)}\n",
            "# a path\n  signature: lt/2 ,p/1  # two\n\n\tuniverse:  3\n  lt = { (0,1),(1,2) }  # covers\np={(2)}\n",
        ),
        ("signature:", "universe:", " lt/2", "p/1", "lt", "=", "{", "}", "(", ")", ",", " ", "\n", "0", "3"),
    ),
    "lattice": (
        parse_lattice,
        (
            "elements: 0, a, b, 1  # B4\norder: 0<=a, 0<=b, a<=1, b<=1\n",
            "# B4\n  elements:  0 ,a, b,1  # four\n\torder: 0<=a , 0 <= b,  # bottom\n  order: a<=1, b<=1,\n",
        ),
        ("elements:", "order:", "<=", ",", " ", "\n", "#", "0", "1", "a", "b"),
    ),
    "measure": (
        lambda text: parse_measure(text, B4),
        (
            "lattice: b4.lat\nvalue(0) = 0^o\nvalue(a) = 1/2^o\n  value(b) = 1/2^-\nvalue(1) = 2/2^o\n",
            "# B4\n  lattice:  b4.lat  # beside\n\n\tvalue(0)=0^o  # bottom\n  value(a) =  1/2^o\nvalue(b) = 1/2^-\n value(1) = 1^o #\n",
        ),
        ("lattice:", "value(", ")", "=", " ", "\n", "#", "0", "1", "/", "2", "^o", "^-", "a", "b"),
    ),
    "gamma": (parse_gamma, ("1/2^o", " 0^o ", "3/4^-"), ("1", "0", "/", "2", "^", "o", "-", " ")),
}

# characters an edit puts in: each grammar's marks, digits int() rejects,
# and line breaks other than '\n'
EDIT_CHARS = st.sampled_from("()[]{}<>=!&|.,/^#:-_ xyab012²٣\n\r\x0c ") | st.characters()


@st.composite
def edited(draw, seeds):
    """A well-formed text with one character inserted, deleted or replaced."""
    text = draw(st.sampled_from(seeds))
    i = draw(st.integers(0, len(text)))
    op = draw(st.sampled_from(("insert", "delete", "replace")))
    if op == "delete":
        return text[:i] + text[i + 1:]
    c = draw(EDIT_CHARS)
    return text[:i] + c + text[i + (op == "replace"):]


def texts(name):
    _, seeds, tokens = PARSERS[name]
    soup = st.lists(st.sampled_from(tokens), max_size=30).map("".join)
    return st.text(max_size=60) | soup | edited(seeds)


def assert_positioned(exc: ParseError, text: str) -> None:
    lines = text.splitlines()
    assert 1 <= exc.line <= len(lines) + 1, (exc, text)
    line = lines[exc.line - 1] if exc.line <= len(lines) else ""
    assert 1 <= exc.column <= len(line) + 1, (exc, text)


def is_threshold_tree(phi) -> bool:
    """Whether ``phi`` is a tree of ``fo`` constants and connectives over
    threshold atoms."""
    match phi:
        case fo.Not(body):
            return is_threshold_tree(body)
        case fo.And(left, right) | fo.Or(left, right):
            return is_threshold_tree(left) and is_threshold_tree(right)
    return isinstance(phi, (fo.Const, GE, LT))


def assert_parsed(name: str, result, text: str) -> None:
    """Every parsed value renders, and a threshold formula is an ``fo``
    connective tree over threshold atoms."""
    str(result)
    if name.startswith("threshold"):
        assert is_threshold_tree(result), text


@pytest.mark.parametrize("name", PARSERS)
def test_seeds_parse(name):
    parse, seeds, _ = PARSERS[name]
    for text in seeds:
        assert_parsed(name, parse(text), text)


@pytest.mark.parametrize("name", PARSERS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parsers_return_or_raise_a_positioned_error(name, data):
    parse = PARSERS[name][0]
    text = data.draw(texts(name))
    # a small budget keeps any structure the parser accepts cheap to build
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fo, "MAX_TENSOR_CELLS", 2**20)
        try:
            result = parse(text)
        except InternalInvariantError:
            raise
        except ParseError as exc:
            assert_positioned(exc, text)
        except Error:
            pass
        else:
            assert_parsed(name, result, text)


def test_numbers_past_the_digit_limit_are_positioned():
    # more digits than ``int`` converts from text
    many = "9" * 5000
    for name, text, (line, column) in (
        ("structure", f"signature: p/{many}\n", (1, 14)),
        ("structure", f"signature: p/1\nuniverse: {many}\n", (2, 11)),
        ("structure", f"signature: p/1\nuniverse: 3\n  p = {{(1), ({many})}}\n", (3, 13)),
        ("threshold over a lattice", f"[>= {many}]{{a}}", (1, 5)),
        ("threshold over a lattice", f"[< 1/{many}]{{a}}", (1, 4)),
        ("measure", f"value(0) = 0^o\nvalue(a) = 1/{many}^o\n", (2, 12)),
        ("gamma", f" {many}^o", (1, 2)),
    ):
        with pytest.raises(ParseError) as exc:
            PARSERS[name][0](text)
        assert (exc.value.line, exc.value.column, exc.value.message) == (line, column, "too many digits")


HEAD = "  signature: lt/2  # order\n  universe: 3  # size\n"
LONG = "9" * 5000

# every fault of the three file formats on indented, commented lines; only
# a missing line or value is a whole-file fault, at 1:1
FILE_FAULTS = (
    ("structure", "  signature: lt/2  # one\n  signature: lt/2  # two\n", "2:3: duplicate signature line"),
    ("structure", "  signature: lt/2, r  # no arity\n", "1:20: expected 'name/arity' in signature, got 'r'"),
    ("structure", f"  signature: lt/2, p/{LONG}  # long\n", "1:22: too many digits"),
    ("structure", "  signature: r/1, r/2  # twice\n", "1:19: relation names must be unique"),
    ("structure", "  signature: lt/2, r/0  # nullary\n", "1:20: relation r must have arity >= 1"),
    ("structure", HEAD + "  universe: 3  # again\n", "3:3: duplicate universe line"),
    ("structure", "  signature: lt/2  # order\n  universe: x  # size\n", "2:13: universe must be a nonnegative integer"),
    ("structure", f"  signature: lt/2  # order\n  universe: {LONG}  # size\n", "2:13: too many digits"),
    ("structure", "  signature: lt/2  # order\n  universe: 0  # size\n", "2:13: universe must be nonempty"),
    ("structure", HEAD + "  l t = {(0,1)}  # spaced\n", "3:3: bad relation name 'l t'"),
    ("structure", HEAD + "  lt = {(0,1)}  # one\n  lt = {(1,2)}  # two\n", "4:3: duplicate relation body for lt"),
    ("structure", HEAD + "  lt = (0,1)  # no braces\n", "3:8: relation body must be {...}"),
    ("structure", HEAD + "  lt = {(0,1) x}  # junk\n", "3:15: malformed tuple set"),
    ("structure", HEAD + f"  lt = {{(0,1), (1,{LONG})}}  # long\n", "3:16: too many digits"),
    ("structure", HEAD + "  lt: {(0,1)}  # colon\n", "3:3: unrecognised line 'lt: {(0,1)}'"),
    ("structure", "  universe: 3  # size\n", "1:1: missing signature line"),
    ("structure", "  signature: lt/2  # order\n", "1:1: missing universe line"),
    ("structure", HEAD + "  edge = {(0,1)}  # unknown\n", "3:3: relations not in signature: ['edge']"),
    ("structure", HEAD + "  lt = {(0,1), (1,2,0)}  # long\n", "3:16: tuple (1, 2, 0) has wrong arity for lt/2"),
    ("structure", HEAD + "  lt = {(0,1), (1,3)}  # past\n", "3:16: tuple (1, 3) out of range for universe 3"),
    ("lattice", "  elements: 0, 1  # one\n  elements: 0, 1  # two\n", "2:3: duplicate elements line"),
    ("lattice", "  elements: 0, b$d, 1  # bad\n", "1:16: bad element label 'b$d'"),
    ("lattice", "  elements: 0, 1, 1  # twice\n", "1:19: duplicate element label '1'"),
    ("lattice", "  elements: ,  # none\n", "1:13: empty elements line"),
    ("lattice", "  elements: 0, 1  # two\n  order: 0<=1, 1=>0  # turned\n", "2:16: expected 'a<=b' in order item '1=>0'"),
    ("lattice", "  elements: 0, 1  # two\n  order: 0<=1, 2 <= 1  # low\n", "2:16: unknown element '2'"),
    ("lattice", "  elements: 0, 1  # two\n  order: 0 <=   2  # high\n", "2:17: unknown element '2'"),
    ("lattice", "  elements: 0, 1  # two\n  orders: 0<=1  # typo\n", "2:3: unrecognised line 'orders: 0<=1'"),
    ("lattice", "  order: 0<=1  # no elements\n", "1:1: missing elements line"),
    ("measure", "  lattice: b4.lat  # one\n  lattice: b4.lat  # two\n", "2:3: duplicate lattice line"),
    ("measure", "  value(0) = 0^o  # bottom\n  value[a] = 1^o  # square\n", "2:3: unrecognised line 'value[a] = 1^o'"),
    ("measure", "  value(0) = 0^o  # bottom\n  value(zz) = 1^o  # unknown\n", "2:9: unknown element label 'zz'"),
    ("measure", "  value(a) = 1/2^o  # one\n  value(0) = 0^o\n  value(a) = 1/2^o  # two\n", "3:9: duplicate value for a"),
    ("measure", "  value(0) = 0^o  # bottom\n  value(a) = 1/0^o  # zero\n", "2:16: zero denominator"),
    ("measure", "  value(0) = 0^o  # bottom\n  value(a) = 1/2^o  # a\n  value(b) = 1/2^o\n", "1:1: missing values for ['1']"),
    ("lattice reference", "  lattice:  # none\n", "1:11: expected a lattice path"),
    ("lattice reference", "  lattice: b4.lat  # one\n  lattice: c3.lat  # two\n", "2:3: duplicate lattice line"),
)


@pytest.mark.parametrize(
    "name, text, fault", FILE_FAULTS, ids=[f"{name} {fault}" for name, _, fault in FILE_FAULTS]
)
def test_every_file_fault_is_at_its_token(name, text, fault):
    parse = measure_lattice_reference if name == "lattice reference" else PARSERS[name][0]
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == fault
