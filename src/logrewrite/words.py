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
and the reversed flipped form of a reduced word is reduced, neither
needs a full reduction pass.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

POS = 1
NEG = -1


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

    def pos(self, name: str) -> int:
        return 2 * self.index(name)

    def neg(self, name: str) -> int:
        return 2 * self.index(name) + 1

    def letters(self) -> range:
        """All signed letter codes, declaration order, positive first."""
        return range(2 * len(self.names))

    def letter_name(self, code: int) -> str:
        name = self.names[code >> 1]
        if code & 1:
            return name.upper() if len(name) == 1 and name.islower() else name + "-"
        return name if len(name) == 1 and name.islower() else name + "+"


def flip(code: int) -> int:
    return code ^ 1


def sign_of(code: int) -> int:
    return NEG if code & 1 else POS


def gen_index(code: int) -> int:
    return code >> 1


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

    def concat(self, other: "MonoidWord") -> "MonoidWord":
        _check_same(self, other)
        return _monoid_word(self.alphabet, self.letters + other.letters)


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


def free_multiply(u: GroupWord, v: GroupWord) -> GroupWord:
    """Product in F(X): both factors are reduced, so letters cancel only
    at the seam, pairwise outwards from it."""
    if u.alphabet is not v.alphabet:
        _check_same(u, v)
    a, b = u.letters, v.letters
    if not a:
        return v
    if not b:
        return u
    i, j, n = len(a), 0, len(b)
    while i and j < n and a[i - 1] ^ 1 == b[j]:
        i -= 1
        j += 1
    return _group_word(u.alphabet, a[:i] + b[j:] if j else a + b)


def inverse(w: GroupWord) -> GroupWord:
    """Group inverse; the reversed flipped word of a reduced word is reduced."""
    if not w.letters:
        return w
    return _group_word(w.alphabet, tuple([c ^ 1 for c in reversed(w.letters)]))


def conjugate(w: GroupWord, by: GroupWord) -> GroupWord:
    """``by^-1 * w * by`` in F(X)."""
    return free_multiply(free_multiply(inverse(by), w), by)


def power(w: GroupWord, n: int) -> GroupWord:
    if n < 0:
        return power(inverse(w), -n)
    out = GroupWord(w.alphabet)
    for _ in range(n):
        out = free_multiply(out, w)
    return out


# -- textual rendering and parsing -------------------------------------------
#
# Monoid words render single-letter generators as `a` / `A` (uppercase for
# the negative letter); group words as `a` / `a^-1`.  The empty word is
# `<id>`.  Parsers accept `a^3` / `b^-2` power notation and are
# whitespace tolerant.


def render_monoid(w: MonoidWord) -> str:
    if not w.letters:
        return "<id>"
    return "".join(w.alphabet.letter_name(c) for c in w.letters)


def render_group(w: GroupWord) -> str:
    if not w.letters:
        return "<id>"
    parts = []
    for c in w.letters:
        name = w.alphabet.names[gen_index(c)]
        parts.append(name + "^-1" if c & 1 else name)
    return " ".join(parts)


def _tokenize(text: str) -> list[tuple[str, int]]:
    """Split into (name, exponent) tokens; `A` means (a, -1) for 1-char names."""
    tokens: list[tuple[str, int]] = []
    for raw in text.replace("*", " ").split():
        if raw == "<id>":
            continue
        name, _, exp_text = raw.partition("^")
        if not name:
            raise WordError(f"bad token {raw!r}")
        exp = 1
        if exp_text:
            try:
                exp = int(exp_text)
            except ValueError:
                raise WordError(f"bad exponent in {raw!r}") from None
        if len(name) == 1 and name.isupper():
            name = name.lower()
            exp = -exp
        tokens.append((name, exp))
    return tokens


def _token_letters(alphabet: Alphabet, tokens: list[tuple[str, int]]) -> list[int]:
    letters: list[int] = []
    for name, exp in tokens:
        if name not in alphabet._index and exp == 1 and len(name) > 1:
            # compact form over 1-char generators, e.g. `aaB`
            for ch in name:
                low = ch.lower()
                code = alphabet.pos(low) if ch.islower() else alphabet.neg(low)
                letters.append(code)
            continue
        code = alphabet.pos(name) if exp >= 0 else alphabet.neg(name)
        letters.extend([code] * abs(exp))
    return letters


def parse_monoid(alphabet: Alphabet, text: str) -> MonoidWord:
    return MonoidWord(alphabet, _token_letters(alphabet, _tokenize(text)))


def parse_group(alphabet: Alphabet, text: str) -> GroupWord:
    return GroupWord(alphabet, _token_letters(alphabet, _tokenize(text)))
