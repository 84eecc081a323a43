import pytest

from logrewrite import words
from logrewrite.presentation import ParseError, parse_presentation
from logrewrite.rewriting import initial_logged_system
from logrewrite.words import (
    WordError,
    free_multiply,
    mu_inverse,
    parse_group,
    render_monoid,
)
from logrewrite.ysequences import boundary

from tests.conftest import ABELIAN_TEXT, Q8_TEXT, TREFOIL_TEXT


class TestParsing:
    def test_q8(self):
        p = parse_presentation(Q8_TEXT)
        assert p.alphabet.names == ("a", "b")
        assert [r.label for r in p.relators] == ["r1", "r2", "r3", "r4"]
        assert p.relator_map()["r3"].word == parse_group(p.alphabet, "a b a b^-1")
        assert p.order.kind == "shortlex"

    def test_trefoil_declares_syllable(self):
        p = parse_presentation(TREFOIL_TEXT)
        assert p.order.kind == "syllable"
        assert p.relator_map()["r"].word == parse_group(p.alphabet, "x^3 y^-2")

    def test_relator_words_freely_reduced(self):
        p = parse_presentation(
            "generators: a\nrelators:\n  r = a a^-1 a a a\n"
        )
        assert p.relator_map()["r"].word == parse_group(p.alphabet, "a^3")

    def test_comments_and_blank_lines(self):
        text = "# header\ngenerators: a  # trailing\n\nrelators:\n  r = a^2\n"
        p = parse_presentation(text)
        assert len(p.relators) == 1

    def test_word_labels(self):
        labels = ["r", "r1", "r2", "r3", "r4", "r5", "r6", "rho_2"]
        text = "generators: a\nrelators:\n" + "".join(
            f"  {label} = a^{i}\n" for i, label in enumerate(labels, start=1)
        )
        assert [r.label for r in parse_presentation(text).relators] == labels

    def test_free_presentation(self):
        p = parse_presentation("generators: a, b\nrelators:\n")
        assert p.relators == ()

    def test_overrides(self):
        p = parse_presentation(
            Q8_TEXT, order_override="syllable", letter_order_override="b+,b-,a+,a-"
        )
        assert p.order.kind == "syllable"
        assert p.order.letter_order == (2, 3, 0, 1)

    def test_relator_map(self):
        p = parse_presentation(Q8_TEXT)
        assert set(p.relator_map()) == {"r1", "r2", "r3", "r4"}


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,line",
        [
            ("relators:\n  r = a\n", 1),  # no generators
            ("generators: a, A\nrelators:\n  r = A^3\n", 1),  # `A` is a^-1
            ("generators: a\nnonsense\n", 2),
            ("generators: a\norder: degree\n", 2),
            ("generators: a\nrelators:\n  r = \n", 3),
            ("generators: a\nrelators:\n  r = a\n  r = a^2\n", 4),
            ("generators: a\nrelators:\n  r = b\n", 3),  # unknown generator
            ("generators: a\nrelators:\n  r = a a^-1\n", 3),  # empty relator
            ("generators: a, b\nletters: a+, b+\n", 2),  # not a permutation
            ("generators: a, b\nletters: a+, a-, c+\n", 2),  # unknown letter
            ("generators: a\ngenerators: b\nrelators:\n  r = a^2\n", 2),
            ("generators: a\norder: syllable\norder: shortlex\n", 3),
            ("generators: a\nletters: a+, a-\nrelators:\nletters: a-, a+\n", 4),
            ("generators: a\nrelators:\n  r = a^2\ngenerators: b\n", 4),
            ("generators: a, b\nletters:\nrelators:\n  r = a^2\n", 2),
            ("generators: a\nrelators:\n  r1 = a^2\n  r2 = a^\n", 4),  # no exponent
            ("generators: a\nrelators:\n  r = a^1_0\n", 3),  # not ASCII digits
            ("generators: a\nrelators:\n  r = a^\u0663\n", 3),
            ("generators: a\nrelators: r1 = a^3\n", 2),  # text after relators:
        ],
    )
    def test_line_numbers(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_presentation(text)
        assert exc.value.line == line
        assert f"line {line}:" in str(exc.value)

    def test_relator_past_the_word_bound(self, monkeypatch):
        monkeypatch.setattr(words, "MAX_PARSED_LETTERS", 100)
        text = "generators: a, b\nrelators:\n  r1 = a^2\n  r2 = a^60 b^41\n"
        with pytest.raises(ParseError) as exc:
            parse_presentation(text)
        assert str(exc.value) == "line 4: a parsed word is limited to 100 letters"

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "generators: a, b\nletters: a+, b+\n",
                "line 2: letter order a, b is not a permutation of the signed "
                "alphabet a, A, b, B",
            ),
            (
                "generators: a, b\nletters: a+, a-, c+\n",
                "line 2: unknown generator 'c'",
            ),
            (
                "generators: a\ngenerators: b\n",
                "line 2: duplicate 'generators:' declaration",
            ),
            (
                "generators: a, b\nletters:   # none\nrelators:\n  r = a^2\n",
                "line 2: empty 'letters:' declaration",
            ),
            # a label that a printed Y-sequence term could not hold
            (
                "generators: a\nrelators:\n  r^1 = a^2\n",
                "line 3: relator label 'r^1' is not a word",
            ),
            (
                "generators: a\nrelators:\n  r1 = a^2\n  r) x = a^3\n",
                "line 4: relator label 'r) x' is not a word",
            ),
            (
                "generators: a\nrelators: r1 = a^3\n",
                "line 2: unexpected text after 'relators:': 'r1 = a^3'",
            ),
        ],
    )
    def test_header_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_presentation(text)
        assert str(exc.value) == message

    def test_letters_override_names_letters(self):
        with pytest.raises(WordError) as exc:
            parse_presentation(Q8_TEXT, letter_order_override="a+, b+")
        assert not isinstance(exc.value, ParseError)
        assert str(exc.value) == (
            "letter order a, b is not a permutation of the signed alphabet a, A, b, B"
        )

    # the kind is the override's, not the letters line's
    @pytest.mark.parametrize("letters", ["", "letters: a+, a-, b+, b-\n"])
    def test_unknown_order_override_has_no_line(self, letters):
        with pytest.raises(WordError) as exc:
            parse_presentation(
                f"generators: a, b\n{letters}", order_override="degree"
            )
        assert not isinstance(exc.value, ParseError)
        assert str(exc.value) == "unknown ordering kind 'degree'"

    @pytest.mark.parametrize("override", ["", "  "])
    def test_empty_letters_override(self, override):
        with pytest.raises(WordError) as exc:
            parse_presentation(Q8_TEXT, letter_order_override=override)
        assert not isinstance(exc.value, ParseError)
        assert str(exc.value) == "empty letter order"


class TestInitialRules:
    @pytest.mark.parametrize("text", [Q8_TEXT, ABELIAN_TEXT, TREFOIL_TEXT])
    def test_counts_and_invariant(self, text):
        p = parse_presentation(text)
        rules = initial_logged_system(p).rules
        assert len(rules) == len(p.relators) + 2 * len(p.alphabet)
        for r in rules:
            # l = (boundary of the log) . r in the free group
            assert mu_inverse(r.lhs) == free_multiply(
                boundary(r.log, p.alphabet), mu_inverse(r.rhs)
            )

    def test_q8_relator_rule_logs(self):
        p = parse_presentation(Q8_TEXT)
        rules = initial_logged_system(p).rules
        from logrewrite.ysequences import render_ysequence

        assert [render_ysequence(r.log) for r in rules[:4]] == [
            "(r1^+)",
            "(r2^+)",
            "(r3^+)",
            "(r4^+)",
        ]
        assert all(not r.log for r in rules[4:])
        # the relator images, then one cancellation pair per signed letter
        assert " ".join(render_monoid(r.lhs) for r in rules) == (
            "aaaa bbbb abaB aabb aA Aa bB Bb"
        )
