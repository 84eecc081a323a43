import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from logrewrite import words
from logrewrite.orderings import parse_letter_order
from logrewrite.words import (
    Alphabet,
    GroupWord,
    MonoidWord,
    WordError,
    free_multiply,
    inverse,
    mu,
    mu_inverse,
    parse_group,
    parse_monoid,
    render_group,
    render_monoid,
)

AB = Alphabet(["a", "b"])
XY = Alphabet(["x", "y"])
SRC = Path(__file__).resolve().parent.parent / "src"


def group_words(alphabet=AB, max_size=12):
    n = 2 * len(alphabet)
    return st.lists(
        st.integers(min_value=0, max_value=n - 1), max_size=max_size
    ).map(lambda ls: GroupWord(alphabet, ls))


def monoid_words(alphabet=AB, max_size=12):
    n = 2 * len(alphabet)
    return st.lists(
        st.integers(min_value=0, max_value=n - 1), max_size=max_size
    ).map(lambda ls: MonoidWord(alphabet, ls))


def assert_letters_read_back(alphabet):
    """Every signed letter, rendered alone, parses back to itself."""
    for c in alphabet.letters():
        text = render_monoid(MonoidWord(alphabet, [c]))
        assert parse_monoid(alphabet, text).letters == (c,), (alphabet, c, text)


# generator names: single letters of any case and script, alphanumeric
# names, and the names whose printed forms once read back wrongly
GENERATOR_NAMES = st.one_of(
    st.characters(categories=["Ll", "Lm", "Lo", "Lt", "Lu"]),
    st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,2}", fullmatch=True),
    st.sampled_from(["ı", "i", "s", "ß", "ª", "a", "é", "x1", "ǅ", "Ab"]),
)


class TestAlphabet:
    def test_codes(self):
        assert [AB.code(t) for t in ("a", "A", "b", "B")] == [0, 1, 2, 3]
        assert [AB.code(t) for t in ("a+", "a-", "b+", "b-")] == [0, 1, 2, 3]
        assert list(AB.letters()) == [0, 1, 2, 3]

    def test_letter_names(self):
        assert AB.letter_name(0) == "a"
        assert AB.letter_name(1) == "A"
        assert AB.letter_name(3) == "B"
        multi = Alphabet(["x1"])
        assert multi.letter_name(0) == "x1+"
        assert multi.letter_name(1) == "x1-"

    # the uppercase of ``ı`` is ``I``, which is read as i^-1, and that of
    # ``ß`` is ``SS``, which is read as s^-1 s^-1
    @pytest.mark.parametrize(
        "names", [["ı", "i", "s"], ["ß", "s"], ["ª", "a"], ["é", "x1", "ǅ"]]
    )
    def test_rendered_letters_read_back(self, names):
        assert_letters_read_back(Alphabet(names))

    @given(
        st.lists(
            st.characters(categories=["Ll", "Lm", "Lo", "Lt", "Lu"]),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    def test_rendered_letters_read_back_drawn(self, names):
        try:
            alphabet = Alphabet(names)
        except WordError:  # a single uppercase letter
            return
        assert_letters_read_back(alphabet)

    def test_printed_words_read_back_over_a_name_of_printed_letters(self):
        """Over ``a, b, Ab``, a^-1 b prints as two letters, not as the
        generator ``Ab``."""
        al = Alphabet(["a", "b", "Ab"])
        w = MonoidWord(al, (1, 2))
        assert render_monoid(w) == "A b"
        assert parse_monoid(al, render_monoid(w)) == w

    def test_multi_letter_names_print_spaced(self):
        al = Alphabet(["x1", "y"])
        w = MonoidWord(al, (0, 0, 3, 3))
        assert render_monoid(w) == "x1+ x1+ Y Y"
        assert parse_monoid(al, render_monoid(w)) == w
        assert render_monoid(MonoidWord(AB, (0, 0, 3))) == "aaB"

    @given(st.lists(GENERATOR_NAMES, min_size=1, max_size=4, unique=True), st.data())
    def test_printed_words_and_letter_orders_read_back(self, names, data):
        try:
            al = Alphabet(names)
        except WordError:  # a single uppercase letter
            assume(False)
        n = 2 * len(al)
        w = MonoidWord(al, data.draw(st.lists(st.integers(0, n - 1), max_size=8)))
        assert parse_monoid(al, render_monoid(w)) == w
        perm = tuple(data.draw(st.permutations(range(n))))
        assert parse_letter_order(al, [al.letter_name(c) for c in perm]) == perm

    def test_invalid(self):
        with pytest.raises(WordError):
            Alphabet(["a", "a"])
        with pytest.raises(WordError):
            Alphabet(["1a"])
        with pytest.raises(WordError, match="inverse of 'a'"):
            Alphabet(["a", "A"])  # `A` is read as a^-1
        with pytest.raises(WordError):
            AB.index("c")


class TestMonoidWord:
    def test_no_cancellation(self):
        w = parse_monoid(AB, "a a^-1")
        assert len(w) == 2

    def test_bad_letter_code(self):
        with pytest.raises(WordError):
            MonoidWord(AB, (7,))


class TestGroupWord:
    def test_free_reduction_on_build(self):
        assert parse_group(AB, "a a^-1 b") == parse_group(AB, "b")
        assert parse_group(AB, "a b b^-1 a^-1").is_identity()

    def test_free_multiply_cancels_across_join(self):
        u = parse_group(AB, "a b")
        v = parse_group(AB, "b^-1 a")
        assert free_multiply(u, v) == parse_group(AB, "a a")

    def test_mu_is_letterwise(self):
        w = parse_group(AB, "a^-1 b")
        assert render_monoid(mu(w)) == "Ab"

    @given(group_words())
    def test_double_inverse(self, w):
        assert inverse(inverse(w)) == w

    @given(group_words())
    def test_multiply_by_inverse_is_identity(self, w):
        assert free_multiply(w, inverse(w)).is_identity()
        assert free_multiply(inverse(w), w).is_identity()

    @given(group_words())
    def test_mu_roundtrip(self, w):
        assert mu_inverse(mu(w)) == w

    @given(group_words(), group_words(), group_words())
    def test_multiply_associative(self, u, v, w):
        assert free_multiply(free_multiply(u, v), w) == free_multiply(
            u, free_multiply(v, w)
        )

    @given(group_words(), group_words())
    def test_multiply_matches_full_reduction(self, u, v):
        assert free_multiply(u, v).letters == GroupWord(AB, u.letters + v.letters).letters

    @given(group_words())
    def test_inverse_is_reduced(self, w):
        inv = inverse(w)
        assert GroupWord(AB, inv.letters).letters == inv.letters

    @given(group_words(), group_words(XY))
    def test_product_across_alphabets_raises(self, u, v):
        with pytest.raises(WordError):
            free_multiply(u, v)
        with pytest.raises(WordError):
            free_multiply(v, u)

    @given(group_words())
    def test_equal_alphabets_need_not_be_one_object(self, w):
        twin = GroupWord(Alphabet(["a", "b"]), w.letters)
        assert free_multiply(w, inverse(twin)).is_identity()

    @given(
        st.lists(st.integers(min_value=0, max_value=3), max_size=6),
        st.one_of(st.integers(max_value=-1), st.integers(min_value=4)),
        st.integers(min_value=0, max_value=6),
    )
    def test_constructor_rejects_out_of_range_codes(self, codes, bad, at):
        codes.insert(min(at, len(codes)), bad)
        with pytest.raises(WordError):
            GroupWord(AB, codes)
        with pytest.raises(WordError):
            MonoidWord(AB, codes)

    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=12))
    def test_equal_words_hash_equal(self, codes):
        twin = Alphabet(["a", "b"])
        for make in (GroupWord, MonoidWord):
            u, v = make(AB, codes), make(twin, codes)
            assert u == v
            assert hash(u) == hash(v)

    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=12))
    def test_alphabet_takes_part_in_equality(self, codes):
        for make in (GroupWord, MonoidWord):
            assert make(AB, codes) != make(XY, codes)

    def test_type_takes_part_in_equality(self):
        assert MonoidWord(AB, (0,)) != GroupWord(AB, (0,))


def test_reimport_keeps_no_old_module_alive():
    # module-level typing subscriptions are cached by typing, and the cache
    # would keep each re-imported copy of the package alive
    script = """
import gc, importlib, sys
for _ in range(5):
    for name in [n for n in sys.modules if n.split(".")[0] == "logrewrite"]:
        del sys.modules[name]
    importlib.import_module("logrewrite")
gc.collect()
print(sum(
    1 for o in gc.get_objects()
    if isinstance(o, type) and o.__qualname__ == "GroupWord"
    and o.__module__ == "logrewrite.words"
))
"""
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert out.stdout.strip() == "1"


class TestRendering:
    def test_empty_forms(self):
        assert render_monoid(MonoidWord(AB)) == "<id>"
        assert render_group(GroupWord(AB)) == "<id>"
        assert parse_monoid(AB, "<id>").letters == ()
        assert parse_group(AB, "<id>").is_identity()

    def test_powers_in_text(self):
        assert parse_group(AB, "a^3 b^-2") == parse_group(AB, "a a a b^-1 b^-1")
        assert parse_monoid(AB, "a A") == MonoidWord(AB, (0, 1))

    @given(monoid_words())
    def test_monoid_roundtrip(self, w):
        assert parse_monoid(AB, render_monoid(w)) == w

    @given(group_words())
    def test_group_roundtrip(self, w):
        assert parse_group(AB, render_group(w)) == w

    def test_unknown_generator(self):
        with pytest.raises(WordError):
            parse_group(AB, "c")

    def test_parsed_word_bounded(self, monkeypatch):
        """A word of more than ``MAX_PARSED_LETTERS`` letters is refused,
        in power and in compact form."""
        monkeypatch.setattr(words, "MAX_PARSED_LETTERS", 100)
        assert len(parse_monoid(AB, "a^60 b^40")) == 100
        for parse in (parse_group, parse_monoid):
            for text in ("a^60 b^41", "a^60 b^-41", "a^99 ab"):
                with pytest.raises(WordError) as exc:
                    parse(AB, text)
                assert str(exc.value) == "a parsed word is limited to 100 letters"

    # "a^1_0" and "a^\u0663" (Arabic-Indic three) are numbers to int()
    @pytest.mark.parametrize(
        "text", ["a^", "b a^", "a^x", "ab^", "a^1_0", "a^\u0663"]
    )
    def test_bad_exponent(self, text):
        bad = text.split()[-1]
        for parse in (parse_group, parse_monoid):
            with pytest.raises(WordError) as exc:
                parse(AB, text)
            assert str(exc.value) == f"bad exponent in {bad!r}"
