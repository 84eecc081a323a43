"""The benchmark corpus and the three workloads.

Each workload splits a round into an untimed set-up (``setup``), a list
of timed operations (``operations``), and an untimed ``render`` of each
operation's result into plain strings.  The runner hashes the rendered
form for the fingerprint and hands it to :mod:`check`, so everything the
benchmark verifies is what a user of the library would see printed.
See README.md for why each workload and presentation was chosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import check


@dataclass(frozen=True)
class Group:
    key: str
    generators: tuple
    relators: tuple  # (label, word) pairs in the notation of check.parse_relator
    order: str = "shortlex"
    size: Optional[int] = None  # known group order; None for infinite groups

    def text(self) -> str:
        lines = [f"generators: {', '.join(self.generators)}", f"order: {self.order}", "relators:"]
        lines += [f"  {label} = {word}" for label, word in self.relators]
        return "\n".join(lines) + "\n"

    def relator_words(self) -> dict:
        return {label: check.parse_relator(word) for label, word in self.relators}


def _power(word: str, n: int) -> str:
    return " ".join([word] * n)


Q8 = Group("q8", ("a", "b"), (("r1", "a^4"), ("r2", "b^4"), ("r3", "a b a b^-1"), ("r4", "a^2 b^2")), size=8)
S4 = Group("s4", ("a", "b"), (("r1", "a^2"), ("r2", "b^3"), ("r3", _power("a b", 4))), size=24)
S4_COXETER = Group(
    "s4_coxeter",
    ("a", "b", "c"),
    (
        ("r1", "a^2"), ("r2", "b^2"), ("r3", "c^2"),
        ("r4", _power("a b", 3)), ("r5", _power("b c", 3)), ("r6", _power("a c", 2)),
    ),
    size=24,
)
Z6XZ6 = Group("z6xz6", ("a", "b"), (("r1", "a^6"), ("r2", "b^6"), ("r3", "a b a^-1 b^-1")), size=36)
A5 = Group("a5", ("a", "b"), (("r1", "a^2"), ("r2", "b^3"), ("r3", _power("a b", 5))), size=60)
Z64 = Group("z64", ("a",), (("r1", "a^64"),), size=64)
D40 = Group("d40", ("a", "b"), (("r1", "a^40"), ("r2", "b^2"), ("r3", "a b a b")), size=80)
D20 = Group("d20", ("a", "b"), (("r1", "a^20"), ("r2", "b^2"), ("r3", "a b a b")), size=40)
TREFOIL = Group("trefoil", ("x", "y"), (("r", "x^3 y^-2"),), order="syllable")
TORUS_3_4 = Group("torus34", ("x", "y"), (("r", "x^3 y^-4"),), order="syllable")
Z2 = Group("z2", ("x", "y"), (("r", "x y x^-1 y^-1"),))
Z3 = Group(
    "z3",
    ("x", "y", "z"),
    (("r1", "x y x^-1 y^-1"), ("r2", "x z x^-1 z^-1"), ("r3", "y z y^-1 z^-1")),
)


def _rules(lib, system) -> tuple:
    if not system.complete:
        raise check.CheckError("completion returned with complete=False (limit hit)")
    return tuple(
        (lib.render_monoid(r.lhs), lib.render_monoid(r.rhs), lib.render_ysequence(r.log))
        for r in system.rules_by_id()
    )


def _check_rules(rules: tuple, relators: dict) -> None:
    for lhs, rhs, log in rules:
        check.check_rule(lhs, rhs, log, relators)


def _lhs_set(rules: tuple) -> set:
    return {check.parse_monoid_render(lhs) for lhs, _, _ in rules}


class Workload:
    """A workload's round: ``setup(lib)`` returns a state, untimed;
    ``operations(lib, state, index)`` lists the round's timed calls as
    (name, callable); ``render`` turns a result into plain strings and
    ``check`` verifies them with the independent checker."""

    ops_per_round = 0
    seeded = False  # whether the seed changes the inputs

    def setup_blob(self, lib, state) -> tuple:
        """Rendered output of the set-up itself, part of the fingerprint."""
        return ()

    def check_setup(self, blob) -> None:
        pass


class Identities(Workload):
    """The full identity pipeline, parse to kept list, on five finite groups."""

    groups = (Q8, S4, S4_COXETER, Z6XZ6, A5)
    ops_per_round = len(groups)

    def __init__(self, seed: int):
        del seed  # the corpus is fixed

    def setup(self, lib):
        return {g.key: lib.parse_presentation(g.text()) for g in self.groups}

    def operations(self, lib, state, index):
        return [(g.key, lambda p=state[g.key]: lib.identities_pipeline(p)) for g in self.groups]

    def render(self, lib, state, name, result):
        names = state[name].alphabet.names
        rules = _rules(lib, result.report.final_system)
        edges = tuple(
            (lib.render_monoid(e.source), names[e.label], lib.render_monoid(e.target), lib.render_ysequence(e.k1))
            for e in result.graph.edges.values()
        )
        kept = tuple(
            (lib.render_monoid(r.vertex), r.relator.label, lib.render_ysequence(r.sequence)) for r in result.kept
        )
        return (len(result.graph), rules, edges, kept)

    def check(self, name, blob):
        group = next(g for g in self.groups if g.key == name)
        relators = group.relator_words()
        vertices, rules, edges, kept = blob
        if vertices != group.size:
            raise check.CheckError(f"{name}: {vertices} Cayley vertices, known order {group.size}")
        _check_rules(rules, relators)
        for source, gen, target, k1 in edges:
            check.check_edge(source, gen, target, k1, relators)
        for _, _, seq in kept:
            check.check_identity(seq, relators)


class Completion(Workload):
    """Logged completion alone: two long cyclic orders and a batch of
    small infinite groups, two of them under the syllable order."""

    items = (("z64", (Z64,)), ("d40", (D40,)), ("infinite", (TREFOIL, TORUS_3_4, Z2, Z3)))
    ops_per_round = len(items)

    def __init__(self, seed: int):
        del seed  # the corpus is fixed

    def setup(self, lib):
        return {g.key: lib.parse_presentation(g.text()) for _, groups in self.items for g in groups}

    def operations(self, lib, state, index):
        def run(groups):
            return [lib.complete_presentation(state[g.key]) for g in groups]

        return [(name, lambda groups=groups: run(groups)) for name, groups in self.items]

    def render(self, lib, state, name, result):
        # harvested identities are counted, not rendered: D40 alone yields
        # 1640 of them, 14.5 million characters in print
        return tuple((_rules(lib, r.final_system), len(r.identities)) for r in result)

    def check(self, name, blob):
        groups = dict(self.items)[name]
        for group, (rules, _) in zip(groups, blob):
            _check_rules(rules, group.relator_words())
            if group.size is not None:
                found = check.count_irreducible(_lhs_set(rules), group.generators, group.size + 1)
                if found != group.size:
                    raise check.CheckError(f"{group.key}: {found} normal forms, known order {group.size}")


class Reduce(Workload):
    """Logged reduction of random long words against four fixed complete
    systems, one closed-loop client, round robin over the systems.  Each
    round sends a new block of queries, so a run answers several thousand
    distinct words."""

    systems = ((A5, 256), (D20, 256), (Z2, 96), (TREFOIL, 96))  # (group, longest query)
    ops_per_round = 1000
    shortest = 16
    seeded = True

    def __init__(self, seed: int):
        self.seed = seed
        self.asked: dict = {}  # operation name -> (system index, word)

    def block(self, index: int) -> list:
        """The queries of round ``index``: (system index, word) pairs.

        Lengths are stratified: each system's lengths are evenly spaced
        over its range, in an order shuffled by the seed, so the seed
        changes which words are asked but not how long they are.  Query
        time grows steeply with length, and uniformly drawn lengths would
        let the seed, not the code, move the totals.
        """
        rng = random.Random(f"{self.seed}/{index}")
        count = self.ops_per_round // len(self.systems)
        streams = []
        for group, longest in self.systems:
            letters = [s * ord(g) for g in group.generators for s in (1, -1)]
            lengths = [self.shortest + (k * (longest - self.shortest)) // (count - 1) for k in range(count)]
            rng.shuffle(lengths)
            streams.append([tuple(rng.choice(letters) for _ in range(n)) for n in lengths])
        k = len(streams)
        return [(i % k, streams[i % k][i // k]) for i in range(self.ops_per_round)]

    def setup(self, lib):
        systems = []
        for group, _ in self.systems:
            p = lib.parse_presentation(group.text())
            systems.append((p, lib.complete_presentation(p).final_system))
        return systems

    def setup_blob(self, lib, state):
        return tuple(_rules(lib, system) for _, system in state)

    def check_setup(self, blob):
        for (group, _), rules in zip(self.systems, blob):
            _check_rules(rules, group.relator_words())
        self.lhs_sets = [_lhs_set(rules) for rules in blob]

    def operations(self, lib, state, index):
        ops = []
        for i, (k, word) in enumerate(self.block(index)):
            name = f"q{index}.{i}"
            self.asked[name] = (k, word)
            p, system = state[k]
            text = " ".join(chr(x) if x > 0 else chr(-x).upper() for x in word)
            w = lib.parse_monoid(p.alphabet, text)
            ops.append((name, lambda w=w, system=system: lib.logged_reduce(w, system)))
        return ops

    def render(self, lib, state, name, result):
        nf, log = result
        return (lib.render_monoid(nf), lib.render_ysequence(log))

    def check(self, name, blob):
        k, word = self.asked[name]
        group, _ = self.systems[k]
        check.check_answer(word, blob[0], blob[1], group.relator_words(), self.lhs_sets[k])


WORKLOADS = {"identities": Identities, "completion": Completion, "reduce": Reduce}
