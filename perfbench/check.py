"""Independent certificate checker.

Works on the rendered text the library prints, parsed here into tuples
of signed integers (``+ord(x)`` for a generator ``x``, ``-ord(x)`` for its
inverse), and does its own free-group arithmetic.  It shares no code path
with ``logrewrite``: a change that breaks a certificate cannot also break
the check of it.

Only single-letter generator names are supported, which is all the
benchmark corpus uses.
"""

from __future__ import annotations

import re

_TERM = re.compile(r"\((\w+)\^([+-])\)(?:\^\{([^}]*)\})? ?")


class CheckError(ValueError):
    """A certificate failed, or rendered text could not be read."""


def free_reduce(letters) -> tuple:
    stack: list = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def inverse(word: tuple) -> tuple:
    return tuple(-x for x in reversed(word))


def parse_relator(text: str) -> tuple:
    """``a^3 b^-1 a`` (the benchmark's own relator notation), reduced."""
    out = []
    for token in text.split():
        name, _, exp = token.partition("^")
        n = int(exp) if exp else 1
        out.extend([ord(name) if n > 0 else -ord(name)] * abs(n))
    return free_reduce(out)


def parse_group_render(text: str) -> tuple:
    """``a b^-1`` as printed for conjugators; ``<id>`` is empty."""
    if text in ("", "<id>"):
        return ()
    out = []
    for token in text.split():
        if len(token) == 1:
            out.append(ord(token))
        elif len(token) == 4 and token.endswith("^-1"):
            out.append(-ord(token[0]))
        else:
            raise CheckError(f"unreadable group word {text!r}")
    return tuple(out)


def parse_monoid_render(text: str) -> tuple:
    """``aaB`` as printed for rules and normal forms (``B`` = b^-1)."""
    if text == "<id>":
        return ()
    if not text.isalpha():
        raise CheckError(f"unreadable monoid word {text!r}")
    return tuple(-ord(ch.lower()) if ch.isupper() else ord(ch) for ch in text)


def boundary(text: str, relators: dict) -> tuple:
    """The boundary of a printed Y-sequence such as ``(r1^+)^{a^-1 b}
    (r2^-)``: the product of its terms ``u^-1 rho^e u`` in the free group.
    ``<idY>`` is the empty sequence."""
    if text == "<idY>":
        return ()
    conjugators: dict = {}
    stack: list = []
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m:
            raise CheckError(f"unreadable Y-sequence at {text[pos:pos + 40]!r}")
        pos = m.end()
        label, sign, conj_text = m.groups()
        if label not in relators:
            raise CheckError(f"unknown relator {label!r}")
        conj = conjugators.get(conj_text)
        if conj is None:
            u = parse_group_render(conj_text or "")
            conj = conjugators[conj_text] = (inverse(u), u)
        rho = relators[label] if sign == "+" else inverse(relators[label])
        for part in (conj[0], rho, conj[1]):
            for x in part:
                if stack and stack[-1] == -x:
                    stack.pop()
                else:
                    stack.append(x)
    return tuple(stack)


def check_rule(lhs: str, rhs: str, log: str, relators: dict) -> None:
    """``l = delta(c) * r`` in the free group."""
    left = free_reduce(parse_monoid_render(lhs))
    right = free_reduce(boundary(log, relators) + parse_monoid_render(rhs))
    if left != right:
        raise CheckError(f"rule {lhs} -> {rhs} does not satisfy l = delta(c) r")


def check_edge(source: str, gen: str, target: str, k1: str, relators: dict) -> None:
    """``delta(k1) = sigma(g) x sigma(g x)^-1`` in the free group."""
    want = free_reduce(
        parse_monoid_render(source) + (ord(gen),) + inverse(parse_monoid_render(target))
    )
    if boundary(k1, relators) != want:
        raise CheckError(f"k1[{source}, {gen}] has the wrong boundary")


def check_identity(seq: str, relators: dict) -> None:
    """An identity among the relations has trivial boundary."""
    if boundary(seq, relators):
        raise CheckError(f"identity {seq[:60]!r} is not boundary-trivial")


def check_answer(word: tuple, nf: str, log: str, relators: dict, lhs_set: set) -> None:
    """``w = delta(L) * I(w)``, and ``I(w)`` contains no left-hand side."""
    normal = parse_monoid_render(nf)
    if free_reduce(word) != free_reduce(boundary(log, relators) + normal):
        raise CheckError("reduction certificate w = delta(L) I(w) fails")
    longest = max(map(len, lhs_set))
    for i in range(len(normal)):
        for j in range(i + 1, min(len(normal), i + longest) + 1):
            if normal[i:j] in lhs_set:
                raise CheckError(f"normal form {nf!r} is reducible")


def count_irreducible(lhs_set: set, generators, cap: int) -> int:
    """Number of words over the signed alphabet with no left-hand side as
    a factor, enumerated by length; stops counting at ``cap``.

    For a complete system of a finite group this is the group order.
    """
    longest = max(map(len, lhs_set))
    letters = [s * ord(g) for g in generators for s in (1, -1)]
    layer = [()]
    count = 1
    while layer and count < cap:
        nxt = []
        for w in layer:
            for x in letters:
                v = w + (x,)
                if not any(v[-k:] in lhs_set for k in range(1, min(len(v), longest) + 1)):
                    nxt.append(v)
        count += len(nxt)
        layer = nxt
    return count
