"""Group presentations: the file format and its parser."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .orderings import OrderSpec, parse_letter_order
from .words import Alphabet, WordError, parse_group
from .ysequences import RelatorRef


class ParseError(WordError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Presentation:
    alphabet: Alphabet
    relators: tuple[RelatorRef, ...]
    order: OrderSpec

    def relator_map(self) -> dict[str, RelatorRef]:
        return {rho.label: rho for rho in self.relators}


def parse_presentation(
    text: str,
    *,
    order_override: Optional[str] = None,
    letter_order_override: Optional[str] = None,
) -> Presentation:
    """Parse the presentation file format.

    ::

        generators: a, b
        order: shortlex            # or: syllable
        letters: a+, a-, b+, b-    # optional letter order, least first
        relators:
          r1 = a^4
          r3 = a b a b^-1

    ``#`` starts a comment; each relator has a line of its own after
    ``relators:``; a relator label is letters, digits and underscores;
    relator words are whitespace separated with ``^k`` powers and are
    freely reduced on ingest.
    """
    alphabet: Optional[Alphabet] = None
    order_kind = "shortlex"
    letters_text: Optional[str] = None
    letters_line = 0
    relator_items: list[tuple[str, str, int]] = []
    in_relators = False
    declared: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        key = key.strip().lower()
        if sep and key in ("generators", "order", "letters", "relators"):
            in_relators = False
            if key in declared and key != "relators":
                raise ParseError(f"duplicate '{key}:' declaration", lineno)
            declared.add(key)
            if key == "generators":
                names = [n.strip() for n in value.split(",") if n.strip()]
                try:
                    alphabet = Alphabet(names)
                except WordError as exc:
                    raise ParseError(str(exc), lineno) from None
            elif key == "order":
                order_kind = value.strip().lower()
                if order_kind not in ("shortlex", "syllable"):
                    raise ParseError(f"unknown order {value.strip()!r}", lineno)
            elif key == "letters":
                letters_text = value.strip()
                letters_line = lineno
                if not letters_text:
                    raise ParseError("empty 'letters:' declaration", lineno)
            elif value.strip():  # each relator has a line of its own
                raise ParseError(
                    f"unexpected text after 'relators:': {value.strip()!r}", lineno
                )
            else:
                in_relators = True
            continue
        if not in_relators:
            raise ParseError(f"unexpected line {line!r}", lineno)
        label, eq, word_text = line.partition("=")
        label = label.strip()
        if not eq or not label:
            raise ParseError(f"expected 'label = word', got {line!r}", lineno)
        if not re.fullmatch(r"\w+", label):
            raise ParseError(f"relator label {label!r} is not a word", lineno)
        if not word_text.strip():
            raise ParseError(f"relator {label!r} is empty", lineno)
        relator_items.append((label, word_text.strip(), lineno))

    if alphabet is None:
        raise ParseError("missing 'generators:' declaration", 1)
    if order_override:
        order_kind = order_override
    relators = []
    seen = set()
    for label, word_text, lineno in relator_items:
        if label in seen:
            raise ParseError(f"duplicate relator label {label!r}", lineno)
        seen.add(label)
        try:
            word = parse_group(alphabet, word_text)
        except WordError as exc:
            raise ParseError(str(exc), lineno) from None
        if word.is_identity():
            raise ParseError(f"relator {label!r} reduces to the empty word", lineno)
        relators.append(RelatorRef.make(label, word))

    # the kind first, on its own: an override's unknown kind has no line
    order = OrderSpec(order_kind, alphabet)
    if letter_order_override is not None:
        if not letter_order_override.strip():
            raise WordError("empty letter order")
        letters_text = letter_order_override
    if letters_text is not None:
        try:
            letter_order = parse_letter_order(alphabet, letters_text.split(","))
            order = OrderSpec(order_kind, alphabet, letter_order)
        except WordError as exc:
            if letter_order_override is not None:
                raise  # an override has no line
            raise ParseError(str(exc), letters_line) from None
    return Presentation(alphabet, tuple(relators), order)
