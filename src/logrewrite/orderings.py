"""Admissible well-orderings on monoid words: shortlex and syllable.

Both orient rewrite rules: a rule l -> r is only admitted when l > r,
which with admissibility (u > v implies xuy > xvy) makes rewriting
terminate.  Each ordering is a sort key: u < v exactly when
key(u) < key(v).

* shortlex: ``(len(w), ranks of the letters of w)``; the default letter
  order is ``a < A < b < B < ...`` (declaration order, positive first).
* syllable (wreath product): ``(count of the greatest letter m, keys of
  the syllables between the m's, over the letters below m)``, and ``()``
  for the empty word.  Equal counts give equal numbers of syllables,
  compared one by one.  The default letter order is
  ``x1- > x1+ > x2- > ... > xn+``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .words import Alphabet, MonoidWord, WordError


@dataclass(frozen=True)
class OrderSpec:
    """Which ordering to use and the total order on the signed letters.

    ``letter_order`` lists every signed letter code exactly once, least
    first; empty means the kind's default.
    """

    kind: str  # "shortlex" or "syllable"
    alphabet: Alphabet
    letter_order: tuple[int, ...] = ()
    _rank: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.kind not in ("shortlex", "syllable"):
            raise WordError(f"unknown ordering kind {self.kind!r}")
        letters = self.alphabet.letters()
        order = self.letter_order
        if not order:
            order = tuple(letters)
            if self.kind == "syllable":  # xn+ < xn- < ... < x1+ < x1-
                order = tuple(c ^ 1 for c in reversed(order))
            object.__setattr__(self, "letter_order", order)
        if sorted(order) != list(letters):
            name = self.alphabet.letter_name
            names = ", ".join(name(c) if c in letters else repr(c) for c in order)
            every = ", ".join(name(c) for c in letters)
            raise WordError(
                f"letter order {names} is not a permutation of the signed "
                f"alphabet {every}"
            )
        object.__setattr__(self, "_rank", {c: i for i, c in enumerate(order)})

    def key(self, w: MonoidWord) -> tuple:
        """The sort key of ``w`` (see the module docstring)."""
        if w.alphabet != self.alphabet:
            raise WordError(f"word {w!r} not over ordering alphabet {self.alphabet!r}")
        if self.kind == "shortlex":
            return len(w), tuple(map(self._rank.__getitem__, w.letters))
        return _syllable_key(w.letters, self.letter_order)


def _syllable_key(letters: tuple, order: tuple) -> tuple:
    """The syllable key of ``letters``, a word over ``order`` (least first)."""
    if not letters:
        return ()  # the empty word is the least word, () the least key
    m, below = order[-1], order[:-1]
    syllables, start = [], 0
    for _ in range(letters.count(m)):
        end = letters.index(m, start)
        syllables.append(_syllable_key(letters[start:end], below))
        start = end + 1
    syllables.append(_syllable_key(letters[start:], below))
    return len(syllables) - 1, tuple(syllables)


def parse_letter_order(alphabet: Alphabet, items: Sequence[str]) -> tuple[int, ...]:
    """Parse signed letters, least first, into codes: each item is a
    spelling ``Alphabet.code`` reads, such as ``a+``, ``a-``, ``a``, ``A``
    or ``x1-``; ``OrderSpec`` checks that they are a permutation."""
    return tuple(alphabet.code(item.strip()) for item in items)
