"""Cayley graphs, the section sigma, the morphism k1, separation
identities and the simplification pipeline.

For a finite group with a complete logged rewrite system, the vertices of
the Cayley graph are the irreducible words (one per group element) and
every edge [g, x] carries a Y-sequence k1 with
``boundary(k1) = (sigma g) x (sigma(g x))^-1``.  Walking a relator around
a vertex and collecting the edge values yields an identity among the
relations; over all (vertex, relator) pairs these generate the module of
identities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentation import Presentation
from .rewriting import (
    CompletionReport,
    Limits,
    LoggedRewriteSystem,
    complete_presentation,
    logged_reduce,
    normal_form_fn,
    require_complete,
)
from .words import (
    GroupWord,
    MonoidWord,
    WordError,
    _monoid_word,
    free_multiply,
    gen_index,
    inverse,
    mu,
    mu_inverse,
    sign_of,
)
from .ysequences import (
    NEG,
    RelatorRef,
    YSequence,
    YTerm,
    act,
    boundary,
    cancel_adjacent,
    invert,
    is_primary_identity,
    peiffer_closure,
    root_normalize,
)


VERTEX_CAP = 10_000  # vertices the Cayley closure visits before it gives up
# Only records of at most this many terms get the primary test.  The test
# is linear, so the cap does not bound its cost: it pins the discard's
# results, since lifting it makes a few longer records primary.
PRIMARY_MAX_TERMS = 20


class InfiniteGroupError(RuntimeError):
    """The vertex closure exceeded its cap; the group is (probably)
    infinite.  Use the sampled ``identity_for`` / ``k1_for`` API instead."""


@dataclass(frozen=True)
class Edge:
    """The edge [g, x] for a vertex g and a positive generator x."""

    source: MonoidWord
    label: int  # generator index
    target: MonoidWord
    k1: YSequence


class CayleyGraph:
    def __init__(self, sys: LoggedRewriteSystem, vertices, edges):
        self.sys = sys
        self.vertices: list[MonoidWord] = list(vertices)
        self.edges: dict[tuple[MonoidWord, int], Edge] = dict(edges)
        # right multiplication by a generator is a bijection of G, so
        # exactly one edge labelled x lands on each vertex
        self._into = {(e.target, e.label): e for e in self.edges.values()}

    def edge(self, g: MonoidWord, gen: int) -> Edge:
        return self.edges[(g, gen)]

    def edge_into(self, h: MonoidWord, gen: int) -> Edge:
        """The edge labelled ``gen`` whose target is ``h``."""
        return self._into[(h, gen)]

    def __len__(self) -> int:
        return len(self.vertices)


def _times_gen(g: MonoidWord, gen: int) -> MonoidWord:
    """The unreduced word ``g x`` for the positive generator x."""
    return _monoid_word(g.alphabet, g.letters + (2 * gen,))


def k1_word(g: MonoidWord, gen: int, target: MonoidWord) -> MonoidWord:
    """The word ``(sigma g) x (sigma(g x))^-1`` of the edge [g, x], where
    ``target`` is the normal form of ``g x``."""
    step = mu_inverse(_times_gen(g, gen))
    return mu(free_multiply(step, inverse(mu_inverse(target))))


def compute_k1(
    sys: LoggedRewriteSystem, g: MonoidWord, gen: int, target: MonoidWord
) -> YSequence:
    """The chosen value k1[g, x], given the normal form ``target`` of
    ``(sigma g) x``: the empty sequence when ``(sigma g) x`` is already
    irreducible, else the simplified log of reducing :func:`k1_word` to
    the empty word."""
    if target == _times_gen(g, gen):
        return ()
    full = k1_word(g, gen, target)
    reduced, log = logged_reduce(full, sys)
    if len(reduced):  # pragma: no cover - target is the normal form of g x
        raise WordError(f"k1 word {full!r} did not reduce to the identity")
    # cancellation, conjugator absorption and term-wise root absorption
    # only -- no exchange-rule search, so chosen values stay close to the
    # raw reduction logs
    chosen = log
    while True:
        normalized = root_normalize(peiffer_closure(chosen, use_root_moves=False))
        if normalized == chosen:
            return chosen
        chosen = normalized


def build_cayley_graph(
    sys: LoggedRewriteSystem, vertex_cap: int = VERTEX_CAP
) -> CayleyGraph:
    """Breadth-first closure from the identity under right multiplication
    by the positive generators, with chosen k1 on every edge."""
    nf = normal_form_fn(sys)  # raises WordError unless sys is complete
    alphabet = sys.presentation.alphabet
    origin = MonoidWord(alphabet)
    vertices = [origin]
    index = {origin}
    edges: dict[tuple[MonoidWord, int], Edge] = {}
    targets: dict[tuple[MonoidWord, int], MonoidWord] = {}
    for g in vertices:  # the list is the queue: vertices are found in BFS order
        for gen in range(len(alphabet)):
            target = nf(_times_gen(g, gen))
            if target not in index:
                if len(vertices) >= vertex_cap:
                    raise InfiniteGroupError(
                        f"vertex cap {vertex_cap} exceeded; the group may be "
                        "infinite -- use identity_for/k1_for to sample"
                    )
                index.add(target)
                vertices.append(target)
            targets[(g, gen)] = target
    for (g, gen), target in targets.items():
        edges[(g, gen)] = Edge(g, gen, target, compute_k1(sys, g, gen, target))
    return CayleyGraph(sys, vertices, edges)


def relator_cycle_edges(
    g: MonoidWord, rho: RelatorRef, graph: CayleyGraph
) -> list[tuple[Edge, int]]:
    """The relator cycle based at g, edge by edge.

    A positive letter contributes the forward edge at the current vertex;
    a negative letter moves against the arrow of the edge that lands on
    the current vertex, contributing it reversed (direction -1).
    """
    current = g
    out: list[tuple[Edge, int]] = []
    for c in mu(rho.word):
        gen = gen_index(c)
        if sign_of(c) > 0:
            e = graph.edge(current, gen)
            out.append((e, 1))
            current = e.target
        else:
            e = graph.edge_into(current, gen)
            out.append((e, -1))
            current = e.source
    if current != g:  # pragma: no cover - relators map to the identity
        raise WordError(f"relator cycle for {rho!r} did not close at {g!r}")
    return out


def separation_identity(
    g: MonoidWord, rho: RelatorRef, graph: CayleyGraph
) -> YSequence:
    """The identity of the relator cycle [g, rho]:
    ``(rho^-) . (k1 of the cycle)^{sigma g}``, adjacent inverse pairs
    cancelled.  Always boundary-trivial.  A relator not of the graph's
    presentation raises ``WordError``."""
    if rho not in graph.sys.presentation.relators:
        raise WordError(f"relator {rho!r} is not one of the presentation's")
    alphabet = g.alphabet
    cycle = ()
    for e, direction in relator_cycle_edges(g, rho, graph):
        cycle += e.k1 if direction > 0 else invert(e.k1)
    head = (YTerm(rho, NEG, GroupWord(alphabet)),)
    iota = cancel_adjacent(head + act(cycle, mu_inverse(g)))
    if not boundary(iota, alphabet).is_identity():  # pragma: no cover
        raise WordError(f"cycle identity for [{g!r}, {rho!r}] has a boundary")
    return iota


# -- the simplification pipeline ---------------------------------------------

KEPT = "kept"
TRIVIAL = "trivial"
DUPLICATE = "duplicate"
INVERSE_DUP = "inverse-dup"
CONJUGATE_DUP = "conjugate-dup"
PRIMARY = "primary"


@dataclass
class IdentityRecord:
    vertex: MonoidWord
    relator: RelatorRef
    sequence: YSequence  # as produced by separation_identity
    status: str = KEPT


def _sort_key(r: IdentityRecord) -> tuple:
    return (
        len(r.sequence),
        tuple(t.relator.label for t in r.sequence),
        len(r.vertex),
        r.vertex.letters,
    )


def _orbit_key(s: YSequence) -> tuple:
    """The terms of a non-empty ``s`` with every conjugator ``u_i`` replaced
    by ``u_i u_0^-1``.

    ``act(s, g)`` maps every ``u_i`` to ``u_i g``, which leaves each
    ``u_i u_0^-1`` unchanged: a sequence and all its translates share the
    key, and two sequences with equal keys are translates of each other.
    """
    back = inverse(s[0].conjugator)
    return tuple(
        (t.relator, t.sign, free_multiply(t.conjugator, back).letters) for t in s
    )


def _translates_to_kept(c: YSequence, kept_orbits: dict, vertex_words: set) -> bool:
    """True when ``act(c, sigma)`` is a kept form for some ``sigma`` in
    ``vertex_words``."""
    if not c:
        return False
    back = inverse(c[0].conjugator)
    return any(
        free_multiply(back, u0).letters in vertex_words
        for u0 in kept_orbits.get(_orbit_key(c), ())
    )


def simplify_identity_list(
    records: list[IdentityRecord], graph: CayleyGraph
) -> list[IdentityRecord]:
    """Sort by (length, relator labels) and discard the redundant records.

    A record is dropped when its sequence is empty, satisfies the primary
    identity property, or matches an earlier kept record exactly, as an
    inverse, or as a conjugate by a group element.  Only adjacent inverse
    pairs are cancelled here -- no exchange-rule search -- so the kept
    forms are exactly what the relator cycles produced.

    A record is a conjugate duplicate when ``act(c, sigma)`` equals a kept
    form ``K`` for some non-trivial vertex word ``sigma``, where ``c`` is
    the record with adjacent pairs cancelled or its cancelled inverse.
    (Cancelling after acting is cancelling before: right multiplication
    by ``sigma`` is injective, so it neither makes nor breaks an inverse
    pair.)  Rather than acting by every vertex, the kept forms are filed
    by :func:`_orbit_key`: ``act(c, sigma) = K`` holds exactly when the
    keys of ``c`` and ``K`` agree and ``sigma`` is the quotient
    ``u_0(c)^-1 u_0(K)`` of their first conjugators, so the test is a key
    lookup and one product per kept form in that orbit, and it decides
    the same as scanning every vertex.

    The primary test reduces with ``graph.sys``, which is complete.
    Records longer than ``PRIMARY_MAX_TERMS`` are not tested and count
    as not primary (``PipelineResult.too_long_for_primary`` counts
    them).  A shorter record with a non-trivial boundary makes the
    primary test raise ``WordError``.
    """
    alphabet = graph.sys.presentation.alphabet
    nf = normal_form_fn(graph.sys)
    ordered = sorted(records, key=_sort_key)
    kept_forms: set[YSequence] = set()
    # orbit key -> the first conjugators of the kept forms with that key
    kept_orbits: dict[tuple, list[GroupWord]] = {}
    vertex_words = {mu_inverse(v).letters for v in graph.vertices}
    vertex_words.discard(())
    for rec in ordered:
        seq = rec.sequence
        if not seq:
            rec.status = TRIVIAL
            continue
        if len(seq) <= PRIMARY_MAX_TERMS and is_primary_identity(seq, nf, alphabet):
            rec.status = PRIMARY
            continue
        if seq in kept_forms:
            rec.status = DUPLICATE
            continue
        inverted = cancel_adjacent(invert(seq))
        if inverted in kept_forms:
            rec.status = INVERSE_DUP
            continue
        if any(
            _translates_to_kept(c, kept_orbits, vertex_words)
            for c in (cancel_adjacent(seq), inverted)
        ):
            rec.status = CONJUGATE_DUP
            continue
        rec.status = KEPT
        kept_forms.add(seq)
        kept_orbits.setdefault(_orbit_key(seq), []).append(seq[0].conjugator)
    return ordered


@dataclass
class PipelineResult:
    report: CompletionReport
    graph: CayleyGraph
    records: list[IdentityRecord]

    @property
    def kept(self) -> list[IdentityRecord]:
        return [r for r in self.records if r.status == KEPT]

    @property
    def too_long_for_primary(self) -> int:
        """The number of records longer than ``PRIMARY_MAX_TERMS``, which
        are not given the primary test and count as not primary."""
        return sum(len(r.sequence) > PRIMARY_MAX_TERMS for r in self.records)


def identities_pipeline(
    p: Presentation,
    limits: Limits = Limits(),
    vertex_cap: int = VERTEX_CAP,
) -> PipelineResult:
    """Completion, Cayley graph, one identity per (vertex, relator) pair,
    then the discard pipeline.  Raises ``BudgetError`` when completion
    stops before the system is complete (``require_complete``)."""
    report = complete_presentation(p, limits)
    sys = require_complete(report)
    graph = build_cayley_graph(sys, vertex_cap)
    records = [
        IdentityRecord(g, rho, separation_identity(g, rho, graph))
        for g in graph.vertices
        for rho in p.relators
    ]
    records = simplify_identity_list(records, graph)
    return PipelineResult(report, graph, records)


# -- sampled API for infinite groups -----------------------------------------


def identity_for(
    sys: LoggedRewriteSystem,
    g: GroupWord,
    rho: RelatorRef,
) -> YSequence:
    """A single separation identity for a user-supplied group element,
    without building the (possibly infinite) Cayley graph; ``sys`` must
    be complete, and ``rho`` one of its presentation's relators."""
    if rho not in sys.presentation.relators:
        raise WordError(f"relator {rho!r} is not one of the presentation's")
    n = normal_form_fn(sys)(mu(g))
    sigma = mu_inverse(n)
    word = mu(free_multiply(free_multiply(sigma, rho.word), inverse(sigma)))
    reduced, log = logged_reduce(word, sys)
    if len(reduced):  # pragma: no cover - conjugates of relators are trivial
        raise WordError(f"conjugated relator {word!r} did not reduce to the identity")
    return cancel_adjacent((YTerm(rho, NEG, inverse(sigma)),) + log)


def k1_for(
    sys: LoggedRewriteSystem,
    g: GroupWord,
    gen_name: str,
) -> YSequence:
    """The sampled edge value k1[g, x] for a user-supplied group element;
    ``sys`` must be complete."""
    nf = normal_form_fn(sys)
    n = nf(mu(g))
    gen = sys.presentation.alphabet.index(gen_name)
    target = nf(_times_gen(n, gen))
    return compute_k1(sys, n, gen, target)
