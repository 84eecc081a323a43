"""Signed alphabets, free monoid words and free group words.

Letters of the signed alphabet are interned as small integer codes:
generator ``i`` gives ``2*i`` for the positive letter and ``2*i + 1`` for
the negative letter.  Monoid words (over the signed alphabet) and group
words (freely reduced elements of the free group) share this encoding,
which makes the translation between them a cheap rewrap.

Only the public constructors ``MonoidWord(...)`` and ``GroupWord(...)``
validate: they take letters from outside the module (parsers, callers,
tests), so they check every code against the alphabet, and
``GroupWord`` freely reduces.  The operations here (products, inverses,
the ``mu`` translations) build their results through the trusted
``_monoid_word`` / ``_group_word`` instead.  Their inputs are already
valid words over one alphabet, so every output code is valid too; and
since a product of two reduced words can only cancel where they meet
and a reduced word read backwards with every letter inverted is
reduced, neither needs a full reduction pass.  The product and the
inverse are done on bare letter tuples by ``_product`` and
``_inverted``, which the conjugators of Y-sequence terms (tuples of
letter codes, see ``ysequences``) use directly.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

POS = 1
NEG = -1

# the most letters a parsed word may have
MAX_PARSED_LETTERS = 1_000_000


class WordError(ValueError):
    """Malformed word or alphabet mismatch."""


class Alphabet:
    """The generator set X with its signed letters interned as codes."""

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise WordError(f"duplicate generator names in {names!r}")
        for name in names:
            if not name or not name[0].isalpha() or not name.isalnum():
                raise WordError(f"invalid generator name {name!r}")
            if len(name) == 1 and name.isupper():
                raise WordError(
                    f"invalid generator name {name!r}: a single uppercase "
                    f"letter is read as the inverse of {name.lower()!r}"
                )
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}
        # each signed letter's printed form (`letter_name`), and the code of
        # every spelling the parsers read (`code`)
        printed: list[str] = []
        self._codes: dict[str, int] = {}
        for i, name in enumerate(names):
            upper = name.upper()
            if len(upper) == 1 and upper.isupper() and upper.lower() == name:
                printed += [name, upper]
                self._codes[upper] = 2 * i + 1
            else:
                printed += [name + "+", name + "-"]
            self._codes.update({name: 2 * i, name + "+": 2 * i, name + "-": 2 * i + 1})
        self._printed = tuple(printed)
        self._separator = "" if all(len(t) == 1 for t in printed) else " "

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.names)!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise WordError(f"unknown generator {name!r}") from None

    def code(self, spelling: str) -> int:
        """The code of the signed letter ``spelling``: ``a`` / ``A`` for a
        generator ``letter_name`` prints that way, and ``name`` /
        ``name+`` / ``name-`` for any generator.  Any other spelling
        raises ``WordError``."""
        try:
            return self._codes[spelling]
        except KeyError:
            name = spelling[:-1] if spelling[1:] and spelling[-1] in "+-" else spelling
            raise WordError(f"unknown generator {name!r}") from None

    def letters(self) -> range:
        """All signed letter codes, declaration order, positive first."""
        return range(2 * len(self.names))

    def letter_name(self, code: int) -> str:
        """The name of a signed letter as ``render_monoid`` prints it: ``a``
        and ``A`` for a one-letter generator whose uppercase is one
        uppercase letter that lowercases back to it, else ``name+`` and
        ``name-``.  ``ı`` (uppercase ``I``, the inverse of ``i``) and
        ``ß`` (uppercase ``SS``) take the second form.  Every name reads
        back as its letter (``code``)."""
        return self._printed[code]


class _Word:
    """The body the two word types share: an alphabet and a tuple of
    letter codes, checked against the alphabet.  Words compare equal only
    to words of the same type with the same letters and alphabet."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: Iterable[int] = ()):
        self.alphabet = alphabet
        self.letters = tuple(letters)
        n = 2 * len(alphabet)
        for c in self.letters:
            if not 0 <= c < n:
                raise WordError(f"letter code {c} outside alphabet {alphabet!r}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.letters == other.letters
            and (self.alphabet is other.alphabet or self.alphabet == other.alphabet)
        )

    def __hash__(self) -> int:
        # equal words have equal letters; the alphabet only refines equality
        return hash(self.letters)


class MonoidWord(_Word):
    """A word in the free monoid on the signed alphabet.

    No cancellation is performed: ``x+ x-`` stays four letters long until a
    rewrite rule removes it.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"MonoidWord({render_monoid(self)!r})"


class GroupWord(_Word):
    """A freely reduced word in the free group F(X).

    The reduced invariant is maintained eagerly: any letter sequence given
    to the constructor is validated and reduced with a stack scan.
    """

    __slots__ = ()

    def __init__(self, alphabet: Alphabet, letters: Iterable[int] = ()):
        super().__init__(alphabet, letters)
        self.letters = _reduce(self.letters)

    def __repr__(self) -> str:
        return f"GroupWord({render_group(self)!r})"

    def is_identity(self) -> bool:
        return not self.letters


def _reduce(letters: tuple) -> tuple:
    """Free reduction of a tuple of codes with a stack scan."""
    stack: list[int] = []
    for c in letters:
        if stack and stack[-1] == c ^ 1:
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


def _monoid_word(alphabet: Alphabet, letters: tuple) -> MonoidWord:
    """Trusted constructor: ``letters`` must be valid codes of ``alphabet``."""
    w = object.__new__(MonoidWord)
    w.alphabet = alphabet
    w.letters = letters
    return w


def _group_word(alphabet: Alphabet, letters: tuple) -> GroupWord:
    """Trusted constructor: ``letters`` must be valid, freely reduced codes
    of ``alphabet``."""
    w = object.__new__(GroupWord)
    w.alphabet = alphabet
    w.letters = letters
    return w


def _check_same(u, v) -> None:
    if u.alphabet is not v.alphabet and u.alphabet != v.alphabet:
        raise WordError(f"alphabet mismatch: {u.alphabet!r} vs {v.alphabet!r}")


def mu(w: GroupWord) -> MonoidWord:
    """Translate a reduced group word into a monoid word letter for letter."""
    return _monoid_word(w.alphabet, w.letters)


def mu_inverse(w: MonoidWord) -> GroupWord:
    """Translate back to the free group, freely reducing."""
    return _group_word(w.alphabet, _reduce(w.letters))


def _product(a: tuple, b: tuple) -> tuple:
    """The letters of the product of two reduced words: letters cancel
    only at the seam, pairwise outwards from it."""
    i, j, n = len(a), 0, len(b)
    while i and j < n and a[i - 1] ^ 1 == b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:] if j else a + b


def _inverted(a: tuple) -> tuple:
    """The letters of the inverse of a reduced word: read backwards with
    every letter inverted, it is reduced."""
    return tuple([c ^ 1 for c in reversed(a)])


def free_multiply(u: GroupWord, v: GroupWord) -> GroupWord:
    """Product in F(X) (``_product``)."""
    if u.alphabet is not v.alphabet:
        _check_same(u, v)
    return _group_word(u.alphabet, _product(u.letters, v.letters))


def inverse(w: GroupWord) -> GroupWord:
    """Group inverse (``_inverted``)."""
    return _group_word(w.alphabet, _inverted(w.letters))


# -- textual rendering and parsing -------------------------------------------
#
# Monoid words print each letter as `Alphabet.letter_name` names it: `a` /
# `A` (uppercase for the negative letter) for a one-letter generator, and
# `x1+` / `x1-` for other generators.  The letters are joined with nothing
# when every letter of the alphabet prints as one character (`aaB`), and
# with a space otherwise (`x1+ x1+ Y Y`), so every printed word reads back.
# Group words print as `a` / `a^-1`.  The empty word is `<id>`.  Parsers
# read every spelling of `Alphabet.code`, `a^3` / `b^-2` power notation and
# the compact form `aaB` (one-character spellings), and are whitespace
# tolerant.


def render_monoid(w: MonoidWord) -> str:
    if not w.letters:
        return "<id>"
    al = w.alphabet
    return al._separator.join([al._printed[c] for c in w.letters])


def render_group(w: GroupWord) -> str:
    if not w.letters:
        return "<id>"
    parts = []
    for c in w.letters:
        name = w.alphabet.names[c >> 1]
        parts.append(name + "^-1" if c & 1 else name)
    return " ".join(parts)


def _tokenize(text: str) -> list[tuple[str, int]]:
    """Split into (spelling, exponent) tokens."""
    tokens: list[tuple[str, int]] = []
    for raw in text.replace("*", " ").split():
        if raw == "<id>":
            continue
        name, caret, exp_text = raw.partition("^")
        if not name:
            raise WordError(f"bad token {raw!r}")
        exp = 1
        if caret:
            # int() alone would also take underscores and non-ASCII digits
            if not re.fullmatch(r"[+-]?[0-9]+", exp_text):
                raise WordError(f"bad exponent in {raw!r}")
            exp = int(exp_text)
        tokens.append((name, exp))
    return tokens


def _token_letters(alphabet: Alphabet, tokens: list[tuple[str, int]]) -> list[int]:
    letters: list[int] = []
    for name, exp in tokens:
        compact = name not in alphabet._codes and exp == 1 and len(name) > 1
        # tested before the letters are made: `a^1000000000` is a short text
        if len(letters) + (len(name) if compact else abs(exp)) > MAX_PARSED_LETTERS:
            raise WordError(f"a parsed word is limited to {MAX_PARSED_LETTERS} letters")
        if compact:  # one-character spellings run together, e.g. `aaB`
            letters.extend([alphabet.code(ch) for ch in name])
            continue
        code = alphabet.code(name)
        letters.extend([code ^ 1 if exp < 0 else code] * abs(exp))
    return letters


def parse_monoid(alphabet: Alphabet, text: str) -> MonoidWord:
    return MonoidWord(alphabet, _token_letters(alphabet, _tokenize(text)))


def parse_group(alphabet: Alphabet, text: str) -> GroupWord:
    return GroupWord(alphabet, _token_letters(alphabet, _tokenize(text)))
