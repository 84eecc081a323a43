"""Cayley graphs, the section sigma, the morphism k1, separation
identities and the simplification pipeline.

For a finite group with a complete logged rewrite system, the vertices of
the Cayley graph are the irreducible words (one per group element) and
every edge [g, x] carries a Y-sequence k1 with
``boundary(k1) = (sigma g) x (sigma(g x))^-1``, checked per edge.  The
edge values along a relator cycle at a vertex telescope to an identity
among the relations; over all (vertex, relator) pairs these generate
the module of identities.
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
    inverse,
    mu,
    mu_inverse,
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
    """The vertices (irreducible words, BFS order), the edges [g, x] keyed
    by ``(g, x)`` with their k1, and one step table for walks: reading
    the signed letter ``c`` at ``v`` crosses ``_step[(v, c)]``, the pair
    ``([v, x], +1)`` for the letter x, or ``(e, -1)`` for x^-1 and the one
    edge e labelled x that lands on v (right multiplication by x is a
    bijection of G)."""

    def __init__(self, sys: LoggedRewriteSystem, vertices, edges):
        self.sys = sys
        self.vertices: list[MonoidWord] = list(vertices)
        self.edges: dict[tuple[MonoidWord, int], Edge] = dict(edges)
        self._step: dict[tuple[MonoidWord, int], tuple[Edge, int]] = {}
        for e in self.edges.values():
            self._step[(e.source, 2 * e.label)] = (e, 1)
            self._step[(e.target, 2 * e.label + 1)] = (e, -1)

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
    the empty word.  A value whose boundary is not :func:`k1_word`, as
    when ``target`` is not ``g x`` in G, raises ``WordError`` naming the
    edge."""
    if target == _times_gen(g, gen):
        return ()
    full = k1_word(g, gen, target)
    _, log = logged_reduce(full, sys)
    # cancellation, conjugator absorption and term-wise root absorption
    # only -- no exchange-rule search, so chosen values stay close to the
    # raw reduction logs
    chosen = log
    while True:
        normalized = root_normalize(peiffer_closure(chosen, use_root_moves=False))
        if normalized == chosen:
            break
        chosen = normalized
    if boundary(chosen, g.alphabet) != mu_inverse(full):
        raise WordError(f"k1[{g!r}, {g.alphabet.names[gen]}] breaks the edge contract")
    return chosen


def build_cayley_graph(
    sys: LoggedRewriteSystem, vertex_cap: int = VERTEX_CAP
) -> CayleyGraph:
    """Breadth-first closure from the identity under right multiplication
    by the positive generators, with chosen k1 on every edge.  The k1
    values wait for the closure, so a group that exceeds ``vertex_cap``
    raises ``InfiniteGroupError`` before any is computed."""
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
    """The relator cycle based at g, edge by edge: one step-table lookup
    per letter of ``rho``, giving the edge the letter crosses and its
    direction, +1 forwards, -1 backwards.  A ``g`` that is not a vertex
    of ``graph`` raises ``WordError``."""
    if (g, 0) not in graph.edges:  # a vertex has an edge for each generator
        raise WordError(f"{g!r} is not a vertex of the Cayley graph")
    step = graph._step
    current = g
    out: list[tuple[Edge, int]] = []
    for c in rho.word.letters:
        e, direction = hop = step[(current, c)]
        out.append(hop)
        current = e.target if direction > 0 else e.source
    if current != g:  # pragma: no cover - relators map to the identity
        raise WordError(f"relator cycle for {rho!r} did not close at {g!r}")
    return out


def separation_identity(
    g: MonoidWord, rho: RelatorRef, graph: CayleyGraph
) -> YSequence:
    """The identity of the relator cycle [g, rho]:
    ``(rho^-) . (k1 of the cycle)^{sigma g}``, adjacent inverse pairs
    cancelled.  A relator not of the graph's presentation, or a ``g``
    that is not a vertex, raises ``WordError``.  Boundary-trivial: the k1
    boundaries, checked per edge, telescope along the cycle to
    ``(sigma g) rho (sigma g)^-1``, which acting by ``sigma g`` and
    cancelling adjacent inverse pairs keep, so it is ``rho^-1 rho = 1``."""
    if rho not in graph.sys.presentation.relators:
        raise WordError(f"relator {rho!r} is not one of the presentation's")
    cycle = ()
    for e, direction in relator_cycle_edges(g, rho, graph):
        cycle += e.k1 if direction > 0 else invert(e.k1)
    head = (YTerm(rho, NEG, GroupWord(g.alphabet)),)
    return cancel_adjacent(head + act(cycle, mu_inverse(g)))


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


def _duplicate_status(
    form: YSequence, kept_orbits: dict, vertex_words: set
) -> str | None:
    """``duplicate``, ``inverse-dup``, ``conjugate-dup`` or ``None`` for a
    record with the cancelled form ``form``: ``act(c, sigma)`` is a kept
    form exactly when ``c`` has its orbit key and ``sigma`` is the
    quotient of their first conjugators.  A quotient of 1 is an exact
    match of ``form`` or of its inverse, decided at once; another vertex
    word is a conjugate match."""
    conjugate = False
    for c, exact in ((form, DUPLICATE), (invert(form), INVERSE_DUP)):
        if not c:
            continue
        back = inverse(c[0].conjugator)
        for u0 in kept_orbits.get(_orbit_key(c), ()):
            quotient = free_multiply(back, u0).letters
            if not quotient:
                return exact
            conjugate = conjugate or quotient in vertex_words
    return CONJUGATE_DUP if conjugate else None


def simplify_identity_list(
    records: list[IdentityRecord], graph: CayleyGraph
) -> list[IdentityRecord]:
    """Sort by (length, relator labels) and discard the redundant records.

    A record is dropped when its sequence is empty, satisfies the primary
    identity property, or matches an earlier kept record exactly, as an
    inverse, or as a conjugate by a group element, in that order.  Only
    adjacent inverse pairs are cancelled here -- no exchange-rule search
    -- so the kept forms are exactly what the relator cycles produced.

    A match is ``act(c, sigma) = K`` for a kept form ``K`` and a vertex
    word ``sigma``, exact when ``sigma`` is 1, the identity vertex's word,
    where ``c`` is the record with adjacent inverse pairs cancelled, or
    its inverse.  (Cancelling after acting is cancelling before: right
    multiplication by ``sigma`` is injective, so it neither makes nor
    breaks an inverse pair.)  The relator cycles' records are cancelled
    already; a caller's uncancelled record is decided, and filed when
    kept, by its cancelled form, and one that cancels to nothing matches
    nothing.  The kept forms are filed by :func:`_orbit_key`, so one key
    lookup and one product per kept form in that orbit decide all three
    matches, as acting by every vertex would.

    The primary test reduces with ``graph.sys``, which is complete.
    Records longer than ``PRIMARY_MAX_TERMS`` are not tested and count
    as not primary (``PipelineResult.too_long_for_primary`` counts
    them).  A shorter record with a non-trivial boundary makes the
    primary test raise ``WordError``.
    """
    alphabet = graph.sys.presentation.alphabet
    nf = normal_form_fn(graph.sys)
    ordered = sorted(records, key=_sort_key)
    # orbit key -> the first conjugators of the kept forms with that key
    kept_orbits: dict[tuple, list[GroupWord]] = {}
    vertex_words = {mu_inverse(v).letters for v in graph.vertices}
    for rec in ordered:
        seq = rec.sequence
        if not seq:
            rec.status = TRIVIAL
            continue
        if len(seq) <= PRIMARY_MAX_TERMS and is_primary_identity(seq, nf, alphabet):
            rec.status = PRIMARY
            continue
        form = cancel_adjacent(seq)
        rec.status = _duplicate_status(form, kept_orbits, vertex_words) or KEPT
        if rec.status == KEPT and form:
            kept_orbits.setdefault(_orbit_key(form), []).append(form[0].conjugator)
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
