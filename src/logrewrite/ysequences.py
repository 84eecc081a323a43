"""Y-sequences: formal products of conjugated relators.

A term ``(rho^e)^u`` is a relator ``rho``, a sign ``e`` and a conjugating
word ``u`` in the free group.  A Y-sequence is a plain ``tuple`` of
``YTerm``: an element of the free monoid on the terms, with ``+`` as the
product and ``()`` as the identity.  Sequences carry the logging
information of every rewrite, and sequences with trivial boundary are
identities among the relations.

``YTerm(...)`` is the one constructor of a term, and it validates
nothing: the operations here and the logged reducer in ``rewriting``
build terms from a relator, a sign and a word they already hold.

The module keeps no state between calls: boundaries (:func:`boundary`,
one free reduction over the letters of all the terms) and stripped
conjugators are computed afresh each time, so nothing here grows with
the number of presentations or terms a process has seen.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .words import (
    Alphabet,
    GroupWord,
    MonoidWord,
    NEG,
    POS,
    WordError,
    _group_word,
    _reduce,
    free_multiply,
    inverse,
    mu,
    parse_group,
    render_group,
)

# Normal forms are annotated ``Callable[[MonoidWord], MonoidWord]`` in
# signatures only: subscripting at import time would let typing's cache
# keep every re-imported copy of ``logrewrite.words`` alive.

# the budgets of simplify's best-first search
SIMPLIFY_MAX_NODES = 3000
SIMPLIFY_MAX_TERMS = 24
SIMPLIFY_MAX_STALE = 400


@dataclass(frozen=True)
class RelatorRef:
    """A labelled relator with its root decomposition.

    ``word`` is the relator image in F(X); ``root`` is the shortest prefix
    ``v`` with ``word == v^m`` and ``root_power`` that ``m``.
    """

    label: str
    word: GroupWord
    root: GroupWord
    root_power: int

    @staticmethod
    def make(label: str, word: GroupWord) -> "RelatorRef":
        if word.is_identity():
            raise WordError(f"relator {label!r} is the empty word")
        root, m = _root_of(word)
        return RelatorRef(label, word, root, m)

    def __hash__(self) -> int:
        # equal relators have equal labels and letters; this is cheaper
        # than the generated hash over every field (the sandwich search
        # hashes a relator per term)
        return hash((self.label, self.word.letters))

    def __repr__(self) -> str:
        return f"RelatorRef({self.label}={render_group(self.word)})"


def _root_of(word: GroupWord) -> tuple[GroupWord, int]:
    n = len(word)
    for k in range(1, n + 1):
        if n % k:
            continue
        prefix = word.letters[:k]
        if prefix * (n // k) == word.letters:
            return GroupWord(word.alphabet, prefix), n // k
    raise AssertionError("unreachable: the word is its own root")


class YTerm:
    """A term ``(rho^e)^u``: a relator, a sign (POS or NEG) and a
    conjugator.  Terms compare equal and hash on the three fields."""

    __slots__ = ("relator", "sign", "conjugator")

    def __init__(self, relator: RelatorRef, sign: int, conjugator: GroupWord):
        self.relator = relator
        self.sign = sign
        self.conjugator = conjugator

    def __eq__(self, other) -> bool:
        if type(other) is not YTerm:
            return NotImplemented
        return (self.relator, self.sign, self.conjugator) == (
            other.relator, other.sign, other.conjugator
        )

    def __hash__(self) -> int:
        return hash((self.relator, self.sign, self.conjugator))

    def __repr__(self) -> str:
        return (
            f"YTerm(relator={self.relator!r}, sign={self.sign!r}, "
            f"conjugator={self.conjugator!r})"
        )

    def inverted(self) -> "YTerm":
        return YTerm(self.relator, -self.sign, self.conjugator)


# a Y-sequence is a tuple of YTerm; the name is kept for annotations
YSequence = tuple


def boundary(s: YSequence, alphabet: Alphabet) -> GroupWord:
    """The image in F(X): the product of every term's ``u^-1 w^e u``
    (the identity of ``alphabet`` for the empty sequence).  The letters
    of all the factors go through one free reduction (``words._reduce``),
    so the cost is linear in the letters."""
    letters: list[int] = []
    for t in s:
        u = t.conjugator.letters
        w = t.relator.word.letters
        letters += [c ^ 1 for c in reversed(u)]
        letters += w if t.sign == POS else [c ^ 1 for c in reversed(w)]
        letters += u
    return _group_word(alphabet, _reduce(letters))


def act(s: YSequence, v: GroupWord) -> YSequence:
    """Right action of F(X): append ``v`` to every conjugator."""
    if v.is_identity() or not s:
        return s
    return tuple(
        [YTerm(t.relator, t.sign, free_multiply(t.conjugator, v)) for t in s]
    )


def invert(s: YSequence) -> YSequence:
    """Formal inverse: reverse the terms and negate each sign."""
    return tuple([t.inverted() for t in reversed(s)])


# -- simplification ----------------------------------------------------------


def cancel_adjacent(s: YSequence) -> YSequence:
    """Remove adjacent exact inverse pairs until none remain.

    This is the only move used on identity records: it never mixes in root
    identities, so what survives is what the raw relator cycles produced.
    """
    stack: list[YTerm] = []
    for t in s:
        if (
            stack
            and stack[-1].relator == t.relator
            and stack[-1].sign == -t.sign
            and stack[-1].conjugator == t.conjugator
        ):
            stack.pop()
        else:
            stack.append(t)
    return tuple(stack)


def _strip_conjugator(t: YTerm, use_root: bool) -> YTerm:
    """Absorb leading relator (or root) powers of the conjugator, to a
    fixpoint.

    ``(rho^e)^{w v} -> (rho^e)^{v}`` is Peiffer-neutral when ``w`` is the
    relator word; with ``use_root`` the root of the relator is absorbed as
    well, which changes the class only by a root module identity.  A head
    ``h`` can shorten ``u`` only by cancelling at the seam of ``h^-1 u``,
    which needs ``h`` and ``u`` to start with the same letter, so the
    other heads are skipped.
    """
    heads = [t.relator.word, inverse(t.relator.word)]
    if use_root and t.relator.root_power > 1:
        heads += [t.relator.root, inverse(t.relator.root)]
    u = t.conjugator
    changed = True
    while changed and len(u):
        changed = False
        for head in heads:
            if head.letters[0] != u.letters[0]:
                continue
            candidate = free_multiply(inverse(head), u)
            if len(candidate) < len(u):
                u = candidate
                changed = True
                break
    return t if u == t.conjugator else YTerm(t.relator, t.sign, u)


def _sandwich_once(terms: tuple, use_root: bool):
    """Collapse the first sandwich ``y^- Z y^+`` (or ``y^+ Z y^-``): the
    lowest ``i`` with an inverse term at some ``j > i``, and the lowest
    such ``j``.  Right to left, ``nearest`` maps each term's (relator,
    sign, conjugator letters) to its nearest later position, so the pair
    found last is the first one, without a scan over all pairs."""
    nearest: dict[tuple, int] = {}
    first = None
    for i in range(len(terms) - 1, -1, -1):
        t = terms[i]
        letters = t.conjugator.letters
        j = nearest.get((t.relator, -t.sign, letters))
        if j is not None:
            first = i, j
        nearest[(t.relator, t.sign, letters)] = i
    if first is None:
        return None
    i, j = first
    shift = inverse(boundary((terms[i],), terms[i].conjugator.alphabet))
    middle = [
        _strip_conjugator(
            YTerm(t.relator, t.sign, free_multiply(t.conjugator, shift)),
            use_root,
        )
        for t in terms[i + 1 : j]
    ]
    return terms[:i] + tuple(middle) + terms[j + 1 :]


def _transpositions(terms: tuple, max_conj: int):
    """Neighbours under the Peiffer exchange rule, both directions."""
    for i in range(len(terms) - 1):
        a, b = terms[i], terms[i + 1]
        alphabet = a.conjugator.alphabet
        # move a rightwards: (a b) -> (b a^{delta b})
        shift = boundary((b,), alphabet)
        moved = YTerm(a.relator, a.sign, free_multiply(a.conjugator, shift))
        moved = _strip_conjugator(moved, True)
        if len(moved.conjugator) <= max_conj:
            yield terms[:i] + (b, moved) + terms[i + 2 :]
        # move b leftwards: (a b) -> (b^{(delta a)^-1} a)
        shift = inverse(boundary((a,), alphabet))
        moved = YTerm(b.relator, b.sign, free_multiply(b.conjugator, shift))
        moved = _strip_conjugator(moved, True)
        if len(moved.conjugator) <= max_conj:
            yield terms[:i] + (moved, a) + terms[i + 2 :]


def _seq_key(terms: tuple) -> tuple:
    return tuple(
        (t.relator.label, t.sign, t.conjugator.letters) for t in terms
    )


def _weight(terms: tuple) -> tuple[int, int]:
    return len(terms), sum(len(t.conjugator) for t in terms)


def root_normalize(s: YSequence) -> YSequence:
    """Term-wise absorption of relator-root powers from the conjugators,
    then adjacent cancellation.

    One pass is a fixpoint: every conjugator is already stripped as far as
    it goes, and the cancellation stack leaves no adjacent inverse pair.
    Changes the represented class only by root module identities; no
    reordering of terms is performed.
    """
    return cancel_adjacent([_strip_conjugator(t, True) for t in s])


def peiffer_closure(s: YSequence, *, use_root_moves: bool = True) -> YSequence:
    """Cheap one-shot normalisation: strip conjugators, cancel adjacent
    pairs, and collapse sandwiches ``y^- Z y^+ -> Z^{delta y}`` until
    nothing applies; no exchange-rule search.

    Much faster than :func:`simplify`; used to keep logs short during
    completion.
    """
    if not s:
        return ()
    terms = tuple([_strip_conjugator(t, use_root_moves) for t in s])
    while True:
        terms = cancel_adjacent(terms)
        reduced = _sandwich_once(terms, use_root_moves)
        if reduced is None:
            return terms
        terms = reduced


def simplify(s: YSequence) -> YSequence:
    """Search for a short Peiffer-equivalent representative.

    Best-first search over cancellation, conjugator absorption (with root
    moves) and the exchange rule; terminates on the empty sequence, after
    ``SIMPLIFY_MAX_NODES`` expansions, or after ``SIMPLIFY_MAX_STALE``
    expansions without improvement, returning the lightest sequence seen.
    Sequences longer than ``SIMPLIFY_MAX_TERMS`` only get the closure.  The
    result may differ from the input by root module identities, which is a
    valid alternative log.
    """
    start = peiffer_closure(s)
    if not start or len(s) > SIMPLIFY_MAX_TERMS:
        return start
    max_conj = max(len(t.conjugator) for t in start) + 2 * max(
        len(t.relator.word) for t in start
    )

    counter = itertools.count()
    heap = [(_weight(start), next(counter), start)]
    seen = {_seq_key(start)}
    best = start
    best_w = _weight(start)
    expanded = 0
    stale = 0
    while heap and expanded < SIMPLIFY_MAX_NODES and stale < SIMPLIFY_MAX_STALE:
        w, _, terms = heapq.heappop(heap)
        if w < best_w:
            best, best_w = terms, w
            stale = 0
        else:
            stale += 1
        if not terms:
            return ()
        expanded += 1
        for nxt in _transpositions(terms, max_conj):
            nxt = peiffer_closure(nxt)
            key = _seq_key(nxt)
            if key in seen:
                continue
            seen.add(key)
            heapq.heappush(heap, (_weight(nxt), next(counter), nxt))
            if not nxt:
                return ()
    return best


# -- the primary identity property -------------------------------------------


def is_primary_identity(
    s: YSequence,
    nf: Callable[[MonoidWord], MonoidWord],
    alphabet: Alphabet,
) -> bool:
    """True when the terms pair off as ``(rho^e)^u``, ``(rho^-e)^v`` with
    ``u = v`` in G; such an identity is trivial in the module of
    identities.

    "Same relator, and conjugators with one normal form under ``nf``" is
    an equivalence relation on the terms.  Inside a class every positive
    term pairs with every negative one, and no term pairs with a term of
    another class, so the terms pair off exactly when each class has as
    many positive terms as negative ones.  A relator's signs must balance
    before any of its classes can, so they are counted first, with no
    normal form.  ``nf`` is the normal form function of a complete system
    for the same presentation.
    """
    if not boundary(s, alphabet).is_identity():
        raise WordError("primary identity test requires a boundary-trivial sequence")
    by_relator = Counter()
    for t in s:
        by_relator[t.relator] += t.sign
    if any(by_relator.values()):
        return False
    by_class = Counter()
    for t in s:
        by_class[t.relator, nf(mu(t.conjugator)).letters] += t.sign
    return not any(by_class.values())


# -- rendering and parsing ---------------------------------------------------
#
# `(r1^+)^{a^-1 b}` style; the empty sequence renders as `<idY>`.


def render_yterm(t: YTerm) -> str:
    sign = "+" if t.sign == POS else "-"
    head = f"({t.relator.label}^{sign})"
    if t.conjugator.is_identity():
        return head
    return f"{head}^{{{render_group(t.conjugator)}}}"


def render_ysequence(s: YSequence) -> str:
    if not s:
        return "<idY>"
    return " ".join(render_yterm(t) for t in s)


def parse_ysequence(
    text: str, relators: dict[str, RelatorRef], alphabet: Alphabet
) -> YSequence:
    text = text.strip()
    if text in ("", "<idY>"):
        return ()
    terms: list[YTerm] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        if text[pos] != "(":
            raise WordError(f"expected '(' at {text[pos:]!r}")
        start = pos
        close = text.find(")", start)
        if close < 0:
            raise WordError(f"unclosed term {text[start:]!r}")
        label, _, sign_text = text[start + 1 : close].partition("^")
        if sign_text not in ("+", "-"):
            raise WordError(f"bad sign in term {text[start:close + 1]!r}")
        if label not in relators:
            raise WordError(f"unknown relator {label!r}")
        conj = GroupWord(alphabet)
        pos = close + 1
        if text[pos : pos + 2] == "^{":
            end = text.find("}", pos)
            if end < 0:
                raise WordError(f"unclosed term {text[start:]!r}")
            conj = parse_group(alphabet, text[pos + 2 : end])
            pos = end + 1
        terms.append(
            YTerm(relators[label], POS if sign_text == "+" else NEG, conj)
        )
    return tuple(terms)
