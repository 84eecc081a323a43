"""Admissible well-orderings on monoid words: shortlex and syllable.

Both orderings orient rewrite rules: a rule l -> r is only admitted when
l > r, which together with admissibility (u > v implies xuy > xvy) makes
rewriting terminate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .words import Alphabet, MonoidWord, WordError

LT, EQ, GT = -1, 0, 1


def default_shortlex_letters(alphabet: Alphabet) -> tuple[int, ...]:
    """Declaration order, positive before negative, least first."""
    return tuple(alphabet.letters())


def default_syllable_letters(alphabet: Alphabet) -> tuple[int, ...]:
    """The pattern x1- > x1+ > x2- > ... > xn+, returned least first."""
    desc: list[int] = []
    for i in range(len(alphabet)):
        desc.append(2 * i + 1)
        desc.append(2 * i)
    return tuple(reversed(desc))


@dataclass(frozen=True)
class OrderSpec:
    """Which ordering to use and the total order on the signed letters.

    ``letter_order`` lists every signed letter code exactly once, least
    first.
    """

    kind: str  # "shortlex" or "syllable"
    alphabet: Alphabet
    letter_order: tuple[int, ...] = ()
    _rank: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.kind not in ("shortlex", "syllable"):
            raise WordError(f"unknown ordering kind {self.kind!r}")
        order = self.letter_order
        if not order:
            order = (
                default_shortlex_letters(self.alphabet)
                if self.kind == "shortlex"
                else default_syllable_letters(self.alphabet)
            )
            object.__setattr__(self, "letter_order", order)
        if sorted(order) != list(self.alphabet.letters()):
            raise WordError(
                f"letter order {order!r} is not a permutation of the signed alphabet"
            )
        object.__setattr__(self, "_rank", {c: i for i, c in enumerate(order)})

    def compare(self, u: MonoidWord, v: MonoidWord) -> int:
        if self.kind == "shortlex":
            return shortlex_compare(u, v, self)
        return syllable_compare(u, v, self)

    def _check(self, w: MonoidWord) -> None:
        if w.alphabet != self.alphabet:
            raise WordError(f"word {w!r} not over ordering alphabet {self.alphabet!r}")


def shortlex_compare(u: MonoidWord, v: MonoidWord, spec: OrderSpec) -> int:
    """Compare by length, then letter by letter in the declared order."""
    spec._check(u)
    spec._check(v)
    if len(u) != len(v):
        return LT if len(u) < len(v) else GT
    rank = spec._rank
    for a, b in zip(u.letters, v.letters):
        if a != b:
            return LT if rank[a] < rank[b] else GT
    return EQ


def syllable_compare(u: MonoidWord, v: MonoidWord, spec: OrderSpec) -> int:
    """Recursive wreath-product comparison.

    Count occurrences of the greatest letter; more occurrences wins.  On a
    tie, split both words at that letter and compare the syllable tuples
    position by position, recursively, over the alphabet without it.
    """
    spec._check(u)
    spec._check(v)
    desc = tuple(reversed(spec.letter_order))
    return _syllable(u.letters, v.letters, desc, spec._rank)


def _syllable(u: tuple, v: tuple, desc: tuple, rank: dict) -> int:
    if u == v:
        return EQ
    if not desc:
        # both words must be empty over the empty alphabet
        return EQ
    m = desc[0]
    cu = u.count(m)
    cv = v.count(m)
    if cu != cv:
        return LT if cu < cv else GT
    if cu == 0:
        return _syllable(u, v, desc[1:], rank)
    for su, sv in zip(_split(u, m), _split(v, m)):
        r = _syllable(su, sv, desc[1:], rank)
        if r != EQ:
            return r
    return EQ


def _split(w: tuple, m: int) -> list[tuple]:
    chunks: list[tuple] = []
    current: list = []
    for c in w:
        if c == m:
            chunks.append(tuple(current))
            current = []
        else:
            current.append(c)
    chunks.append(tuple(current))
    return chunks


def parse_letter_order(alphabet: Alphabet, items: Sequence[str]) -> tuple[int, ...]:
    """Parse letter names like ``a+``, ``a-`` (or ``a`` / ``A``), least
    first; every signed letter must appear exactly once."""
    codes: list[int] = []
    for item in items:
        item = item.strip()
        if item.endswith("+"):
            codes.append(alphabet.pos(item[:-1]))
        elif item.endswith("-"):
            codes.append(alphabet.neg(item[:-1]))
        elif len(item) == 1 and item.isupper():
            codes.append(alphabet.neg(item.lower()))
        else:
            codes.append(alphabet.pos(item))
    if sorted(codes) != list(alphabet.letters()):
        names = ", ".join(alphabet.letter_name(c) for c in codes)
        every = ", ".join(alphabet.letter_name(c) for c in alphabet.letters())
        raise WordError(
            f"letter order {names} is not a permutation of the signed "
            f"alphabet {every}"
        )
    return tuple(codes)
