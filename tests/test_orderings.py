import itertools

import pytest
from hypothesis import given, strategies as st

from logrewrite.orderings import OrderSpec, parse_letter_order
from logrewrite.words import Alphabet, MonoidWord, WordError, parse_monoid

AB = Alphabet(["a", "b"])
XY = Alphabet(["x", "y"])

SHORTLEX = OrderSpec("shortlex", AB)
SYLLABLE = OrderSpec("syllable", XY)

LT, EQ, GT = -1, 0, 1


def compare(spec, u, v):
    """LT, EQ or GT as ``spec.key``, which orients completion's rules,
    orders ``u`` and ``v``."""
    ku, kv = spec.key(u), spec.key(v)
    return (ku > kv) - (ku < kv)


def monoid_words(alphabet, max_size=8):
    n = 2 * len(alphabet)
    return st.lists(
        st.integers(min_value=0, max_value=n - 1), max_size=max_size
    ).map(lambda ls: MonoidWord(alphabet, ls))


def reference_compare(kind, letter_order, u, v):
    """The comparison the orderings made before they became sort keys:
    shortlex letter by letter, syllable by the recursion on the greatest
    letter."""
    rank = {c: i for i, c in enumerate(letter_order)}
    if kind == "shortlex":
        if len(u) != len(v):
            return LT if len(u) < len(v) else GT
        for a, b in zip(u.letters, v.letters):
            if a != b:
                return LT if rank[a] < rank[b] else GT
        return EQ
    return _reference_syllable(u.letters, v.letters, tuple(reversed(letter_order)))


def _reference_syllable(u, v, desc):
    if u == v or not desc:
        return EQ
    m = desc[0]
    cu, cv = u.count(m), v.count(m)
    if cu != cv:
        return LT if cu < cv else GT
    if cu == 0:
        return _reference_syllable(u, v, desc[1:])
    for su, sv in zip(_reference_split(u, m), _reference_split(v, m)):
        r = _reference_syllable(su, sv, desc[1:])
        if r != EQ:
            return r
    return EQ


def _reference_split(w, m):
    chunks, current = [], []
    for c in w:
        if c == m:
            chunks.append(tuple(current))
            current = []
        else:
            current.append(c)
    chunks.append(tuple(current))
    return chunks


def shortlex_oracle(u, v, rank):
    """Independent reference: compare (length, rank tuple)."""
    ku = (len(u), tuple(rank[c] for c in u.letters))
    kv = (len(v), tuple(rank[c] for c in v.letters))
    return (ku > kv) - (ku < kv)


class TestShortlex:
    def test_length_dominates(self):
        assert compare(SHORTLEX, parse_monoid(AB, "B"), parse_monoid(AB, "aa")) == LT

    def test_letter_order_default_is_declaration(self):
        # a < A < b < B
        assert compare(SHORTLEX, parse_monoid(AB, "aB"), parse_monoid(AB, "Ab")) == LT
        assert compare(SHORTLEX, parse_monoid(AB, "ba"), parse_monoid(AB, "bA")) == LT

    def test_equal(self):
        w = parse_monoid(AB, "abA")
        assert compare(SHORTLEX, w, w) == EQ

    @given(monoid_words(AB), monoid_words(AB))
    def test_matches_oracle(self, u, v):
        rank = {c: i for i, c in enumerate(SHORTLEX.letter_order)}
        assert compare(SHORTLEX, u, v) == shortlex_oracle(u, v, rank)

    def test_custom_letter_order(self):
        spec = OrderSpec("shortlex", AB, parse_letter_order(AB, ["b", "B", "a", "A"]))
        assert compare(spec, parse_monoid(AB, "b"), parse_monoid(AB, "a")) == LT


class TestSyllable:
    # default letter order is x- > x+ > y- > y+ (greatest first)

    def test_inverse_heavier_than_any_positive_word(self):
        X = parse_monoid(XY, "X")
        assert compare(SYLLABLE, X, parse_monoid(XY, "xxYY")) == GT

    def test_rule_orientations(self):
        assert compare(SYLLABLE, parse_monoid(XY, "yyx"), parse_monoid(XY, "xyy")) == GT
        assert compare(SYLLABLE, parse_monoid(XY, "Yx"), parse_monoid(XY, "yxYY")) == GT
        assert compare(SYLLABLE, parse_monoid(XY, "xxx"), parse_monoid(XY, "yy")) == GT

    def test_count_of_greatest_letter_dominates(self):
        assert compare(SYLLABLE, parse_monoid(XY, "XX"), parse_monoid(XY, "X")) == GT

    @given(monoid_words(XY), monoid_words(XY))
    def test_total_and_antisymmetric(self, u, v):
        r = compare(SYLLABLE, u, v)
        assert r == -compare(SYLLABLE, v, u)
        assert (r == EQ) == (u == v)


class TestAdmissibility:
    @pytest.mark.parametrize("spec", [SHORTLEX, OrderSpec("syllable", AB)])
    @given(data=st.data())
    def test_compatible_with_concatenation(self, spec, data):
        u = data.draw(monoid_words(AB, max_size=6))
        v = data.draw(monoid_words(AB, max_size=6))
        x = data.draw(monoid_words(AB, max_size=3))
        y = data.draw(monoid_words(AB, max_size=3))
        r = compare(spec, u, v)
        if r != EQ:
            xuy = MonoidWord(AB, x.letters + u.letters + y.letters)
            xvy = MonoidWord(AB, x.letters + v.letters + y.letters)
            assert compare(spec, xuy, xvy) == r


@st.composite
def orders_and_words(draw):
    """An ordering over 1-3 generators with a random letter order, and
    two words of up to 8 letters."""
    alphabet = Alphabet("abc"[: draw(st.integers(min_value=1, max_value=3))])
    letter_order = tuple(draw(st.permutations(list(alphabet.letters()))))
    kind = draw(st.sampled_from(["shortlex", "syllable"]))
    spec = OrderSpec(kind, alphabet, letter_order)
    return spec, draw(monoid_words(alphabet)), draw(monoid_words(alphabet))


class TestAgainstReference:
    @given(orders_and_words())
    def test_random_orders(self, case):
        spec, u, v = case
        want = reference_compare(spec.kind, spec.letter_order, u, v)
        assert compare(spec, u, v) == want

    @pytest.mark.parametrize("kind", ["shortlex", "syllable"])
    def test_every_pair_of_short_words(self, kind):
        spec = OrderSpec(kind, AB)
        words = [
            MonoidWord(AB, w)
            for n in range(4)
            for w in itertools.product(AB.letters(), repeat=n)
        ]
        for u, v in itertools.product(words, repeat=2):
            want = reference_compare(kind, spec.letter_order, u, v)
            assert compare(spec, u, v) == want


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(WordError):
            OrderSpec("degree", AB)

    def test_bad_permutation(self):
        with pytest.raises(WordError):
            OrderSpec("shortlex", AB, (0, 1, 2, 2))

    def test_code_outside_the_alphabet(self):
        with pytest.raises(WordError) as exc:
            OrderSpec("shortlex", AB, (0, 1, 2, 7))
        assert str(exc.value) == (
            "letter order a, A, b, 7 is not a permutation of the signed "
            "alphabet a, A, b, B"
        )

    @pytest.mark.parametrize("kind", ["shortlex", "syllable"])
    def test_default_letter_orders(self, kind):
        # shortlex: a < A < b < B; syllable: b < B < a < A
        expected = {"shortlex": (0, 1, 2, 3), "syllable": (2, 3, 0, 1)}[kind]
        assert OrderSpec(kind, AB).letter_order == expected

    def test_parse_letter_order_forms(self):
        assert parse_letter_order(AB, ["a+", "a-", "b+", "b-"]) == (0, 1, 2, 3)
        assert parse_letter_order(AB, ["A", "a", "B", "b"]) == (1, 0, 3, 2)
