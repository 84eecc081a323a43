"""An independent oracle for the order of a finitely presented group.

HLT coset enumeration (Todd & Coxeter 1936; Holt, Eick & O'Brien,
*Handbook of Computational Group Theory*, 5.1) of the trivial subgroup:
the number of cosets it closes with is |G|.  It does no rewriting and
imports nothing from ``logrewrite``; a relator is a tuple of nonzero
integers, ``+g`` for a generator ``g`` and ``-g`` for its inverse, the
form ``perfbench/check.py``'s ``parse_relator`` returns (``g = ord(name)``).
"""

from __future__ import annotations


class CosetCapError(RuntimeError):
    """The enumeration defined more cosets than its cap."""


def coset_count(generators, relators, cap: int = 100_000) -> int:
    """|G| for ``< generators | relators >``.  ``generators`` are the
    integers the relators use; raises ``CosetCapError`` once more than
    ``cap`` cosets have been defined, as on an infinite group."""
    column = {}
    for i, g in enumerate(generators):
        column[g], column[-g] = 2 * i, 2 * i + 1
    width = 2 * len(generators)
    words = [[column[x] for x in r] for r in relators]
    table = [[None] * width]  # table[c][x]: the coset c·x, None if unknown
    parent = [0]  # union-find over cosets; a live coset is its own parent

    def define(c, x):
        if len(table) >= cap:
            raise CosetCapError(f"more than {cap} cosets")
        d = len(table)
        table.append([None] * width)
        parent.append(d)
        table[c][x], table[d][x ^ 1] = d, c

    def rep(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def merge(a, b, queue):
        a, b = rep(a), rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            parent[b] = a
            queue.append(b)

    def coincidence(a, b):
        queue = []
        merge(a, b, queue)
        for e in queue:  # the queue grows while it is read
            for x in range(width):
                f = table[e][x]
                if f is None:
                    continue
                table[f][x ^ 1] = None
                e1, f1 = rep(e), rep(f)
                if table[e1][x] is not None:
                    merge(f1, table[e1][x], queue)
                elif table[f1][x ^ 1] is not None:
                    merge(e1, table[f1][x ^ 1], queue)
                else:
                    table[e1][x], table[f1][x ^ 1] = f1, e1

    def scan_and_fill(c, w):
        f, b, i, j = c, c, 0, len(w) - 1
        while True:
            while i <= j and table[f][w[i]] is not None:  # forward
                f, i = table[f][w[i]], i + 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][w[j] ^ 1] is not None:  # backward
                b, j = table[b][w[j] ^ 1], j - 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:  # a deduction closes the relator
                table[f][w[i]], table[b][w[i] ^ 1] = b, f
                return
            define(f, w[i])

    c = 0
    while c < len(table):
        for w in words:
            if parent[c] != c:
                break
            scan_and_fill(c, w)
        for x in range(width):
            if parent[c] == c and table[c][x] is None:
                define(c, x)
        c += 1
    return sum(1 for c in range(len(table)) if parent[c] == c)
