import re

import pytest
from hypothesis import given, settings, strategies as st

from logrewrite import identities
from logrewrite.identities import (
    CONJUGATE_DUP,
    DUPLICATE,
    INVERSE_DUP,
    KEPT,
    PRIMARY,
    PRIMARY_MAX_TERMS,
    TRIVIAL,
    IdentityRecord,
    InfiniteGroupError,
    build_cayley_graph,
    compute_k1,
    identities_pipeline,
    identity_for,
    k1_for,
    relator_cycle_edges,
    separation_identity,
    simplify_identity_list,
    _sort_key,
)
from logrewrite.presentation import parse_presentation
from logrewrite.rewriting import (
    MAX_PASSES,
    Limits,
    complete_presentation,
    logged_reduce,
    normal_form_fn,
)
from logrewrite.words import (
    Alphabet,
    GroupWord,
    WordError,
    free_multiply,
    inverse,
    mu,
    mu_inverse,
    parse_group,
    parse_monoid,
    render_monoid,
)
from logrewrite.ysequences import (
    POS,
    YSequence,
    YTerm,
    act,
    boundary,
    cancel_adjacent,
    invert,
    is_primary_identity,
    parse_ysequence,
    peiffer_closure,
    render_ysequence,
    root_normalize,
    simplify,
)

from tests.conftest import ABELIAN_TEXT, Q8_TEXT, TREFOIL_TEXT, conjugate, power

C3_TEXT = "generators: a\nrelators:\n  r = a^3\n"
TRIVIAL_TEXT = "generators: x\nrelators:\n  r = x\n"
S4_TEXT = "generators: a, b\nrelators:\n  r1 = a^2\n  r2 = b^3\n  r3 = a b a b a b a b\n"
S4_COXETER_TEXT = """\
generators: a, b, c
relators:
  r1 = a^2
  r2 = b^2
  r3 = c^2
  r4 = a b a b a b
  r5 = b c b c b c
  r6 = a c a c
"""
Z6XZ6_TEXT = "generators: a, b\nrelators:\n  r1 = a^6\n  r2 = b^6\n  r3 = a b a^-1 b^-1\n"
A5_TEXT = "generators: a, b\nrelators:\n  r1 = a^2\n  r2 = b^3\n  r3 = a b a b a b a b a b\n"


@pytest.fixture(scope="module")
def q8_graph(q8_pipeline):
    return q8_pipeline.graph


class TestCayleyGraph:
    def test_q8_vertices_and_edges(self, q8, q8_graph):
        assert len(q8_graph) == 8
        assert len(q8_graph.edges) == 16
        names = {render_monoid(v) for v in q8_graph.vertices}
        assert names == {"<id>", "a", "b", "aa", "ab", "A", "B", "aB"}
        # identity vertex first
        assert q8_graph.vertices[0].letters == ()

    def test_edge_boundary_contract(self, q8, q8_graph):
        # boundary(k1) = (sigma g) x (sigma(gx))^-1 on every edge
        for (g, gen), e in q8_graph.edges.items():
            x = parse_group(q8.alphabet, q8.alphabet.names[gen])
            expected = free_multiply(
                free_multiply(mu_inverse(g), x), inverse(mu_inverse(e.target))
            )
            assert boundary(e.k1, q8.alphabet) == expected

    def test_k1_empty_when_step_irreducible(self, q8, q8_graph):
        from logrewrite.words import MonoidWord

        for (g, gen), e in q8_graph.edges.items():
            step = MonoidWord(q8.alphabet, g.letters + (2 * gen,))
            nf, _ = logged_reduce(step, q8_graph.sys)
            if nf == step:
                assert not e.k1

    def test_trivial_group(self):
        p = parse_presentation(TRIVIAL_TEXT)
        sys = complete_presentation(p).final_system
        graph = build_cayley_graph(sys)
        assert len(graph) == 1
        assert len(graph.edges) == 1
        loop = graph.edges[(graph.vertices[0], 0)]
        assert loop.target == graph.vertices[0]

    def test_infinite_group_cap(self, abelian_system):
        with pytest.raises(InfiniteGroupError):
            build_cayley_graph(abelian_system, vertex_cap=64)

    def test_cap_is_hit_before_any_k1(self, abelian_system, monkeypatch):
        """k1 waits for the vertex closure, so an infinite group exceeds
        the cap before a single k1 is computed.  With k1 computed as each
        vertex leaves the queue, Z^2 reached the default cap about eight
        times slower."""
        calls = []
        monkeypatch.setattr(identities, "compute_k1", lambda *args: calls.append(args))
        with pytest.raises(InfiniteGroupError):
            build_cayley_graph(abelian_system, vertex_cap=64)
        assert not calls

    def test_requires_complete_system(self, q8):
        from logrewrite.rewriting import initial_logged_system
        from logrewrite.words import WordError

        with pytest.raises(WordError):
            build_cayley_graph(initial_logged_system(q8))


class TestK1Values:
    def test_exact_rows(self, q8, q8_graph):
        al = q8.alphabet

        def k1(g, x):
            return render_ysequence(
                q8_graph.edges[(parse_monoid(al, g), al.index(x))].k1
            )

        assert k1("aa", "a") == "(r1^+)"
        assert k1("aa", "b") == "(r4^+)"
        assert k1("ab", "a") == "(r3^+)"
        assert k1("b", "a") == "(r3^+)^{a} (r1^-) (r4^+)^{a^-1}"
        assert k1("A", "b") == "(r1^-) (r4^+)^{a^-1}"

    def test_nine_nontrivial(self, q8_graph):
        nontrivial = [e for e in q8_graph.edges.values() if e.k1]
        assert len(nontrivial) == 9


class TestEdgeContract:
    """``compute_k1`` checks ``boundary(k1) = (sigma g) x (sigma(g x))^-1``
    on each value it makes, so a broken k1 raises at its edge, in the
    Cayley graph and in the sampled API alike."""

    @pytest.fixture
    def lossy_reduce(self, monkeypatch):
        """``logged_reduce`` as the identities layer sees it, with the last
        term of every log dropped: the normal forms stay right and every
        non-empty log loses a term's boundary."""
        real = identities.logged_reduce

        def lossy(w, sys):
            nf, log = real(w, sys)
            return nf, log[:-1]

        monkeypatch.setattr(identities, "logged_reduce", lossy)

    @staticmethod
    def broken(g, x):
        return re.escape(f"k1[MonoidWord('{g}'), {x}] breaks the edge contract")

    def test_wrong_target_raises(self, q8, q8_system):
        # aa a is A in Q8, not b
        al = q8.alphabet
        g, a = parse_monoid(al, "aa"), al.index("a")
        with pytest.raises(WordError, match=self.broken("aa", "a")):
            compute_k1(q8_system, g, a, parse_monoid(al, "b"))

    def test_cayley_graph_raises_on_a_broken_log(self, q8_system, lossy_reduce):
        # [b, a] is the first edge in BFS order whose k1 is not empty
        with pytest.raises(WordError, match=self.broken("b", "a")):
            build_cayley_graph(q8_system)

    def test_k1_for_raises_on_a_broken_log(self, abelian, abelian_system, lossy_reduce):
        g = parse_group(abelian.alphabet, "y")
        with pytest.raises(WordError, match=self.broken("y", "x")):
            k1_for(abelian_system, g, "x")


class TestRelatorCycles:
    def test_q8_ab_r3_cycle(self, q8, q8_graph):
        rho = q8.relator_map()["r3"]
        base = parse_monoid(q8.alphabet, "ab")
        path = relator_cycle_edges(base, rho, q8_graph)
        rendered = [
            (render_monoid(e.source), q8.alphabet.names[e.label], d)
            for e, d in path
        ]
        assert rendered == [
            ("ab", "a", 1),
            ("b", "b", 1),
            ("aa", "a", 1),
            ("ab", "b", -1),
        ]

    def test_cycle_length_and_closure(self, q8, q8_graph):
        for rho in q8.relators:
            for g in q8_graph.vertices:
                path = relator_cycle_edges(g, rho, q8_graph)
                assert len(path) == len(rho.word)

    @pytest.mark.parametrize("word", ["aaaa", "Ab", "x"])
    def test_non_vertex_raises(self, q8, q8_graph, word):
        """A word that is not a vertex of Q8's graph (reducible, or over
        another alphabet) is refused before the walk, not left to fail
        with ``KeyError`` at an edge lookup."""
        alphabet = Alphabet(["x", "y"]) if word == "x" else q8.alphabet
        g = parse_monoid(alphabet, word)
        rho = q8.relators[0]
        message = re.escape(f"{g!r} is not a vertex")
        with pytest.raises(WordError, match=message):
            relator_cycle_edges(g, rho, q8_graph)
        with pytest.raises(WordError, match=message):
            separation_identity(g, rho, q8_graph)


class TestSeparationIdentities:
    def test_all_records_boundary_trivial(self, q8, q8_pipeline):
        assert len(q8_pipeline.records) == 32
        for rec in q8_pipeline.records:
            assert boundary(rec.sequence, q8.alphabet).is_identity()

    def test_c3(self):
        p = parse_presentation(C3_TEXT)
        result = identities_pipeline(p)
        assert len(result.graph) == 3
        assert len(result.records) == 3
        for rec in result.kept:
            assert boundary(rec.sequence, p.alphabet).is_identity()
            assert rec.status == KEPT


class TestSimplifyIdentityList:
    def test_q8_statuses(self, q8_pipeline):
        by_status: dict = {}
        for rec in q8_pipeline.records:
            by_status.setdefault(rec.status, []).append(rec)
        assert len(by_status[KEPT]) == 18
        assert len(by_status[PRIMARY]) == 1
        primary = by_status[PRIMARY][0]
        assert (render_monoid(primary.vertex), primary.relator.label) == ("A", "r2")
        assert (
            render_ysequence(primary.sequence)
            == "(r2^-) (r1^-)^{a^-1} (r2^+)^{a^-1 a^-1 a^-1 a^-1} (r1^+)^{a^-1}"
        )

    @pytest.mark.parametrize(
        "text,records,too_long", [(Q8_TEXT, 32, 0), (S4_TEXT, 72, 10)],
        ids=["q8", "s4"],
    )
    def test_records_too_long_for_primary(self, text, records, too_long):
        result = identities_pipeline(parse_presentation(text))
        assert len(result.records) == records
        assert result.too_long_for_primary == too_long
        # they are not given the primary test, so none of them is primary
        long = [r for r in result.records if len(r.sequence) > PRIMARY_MAX_TERMS]
        assert len(long) == too_long
        assert all(r.status != PRIMARY for r in long)

    def test_single_trivial_record(self, q8, q8_system):
        graph = build_cayley_graph(q8_system)
        rec = IdentityRecord(
            graph.vertices[0], q8.relators[0], YSequence()
        )
        out = simplify_identity_list([rec], graph)
        assert out[0].status == TRIVIAL
        assert [r for r in out if r.status == KEPT] == []

    def test_sorted_by_length_then_labels(self, q8_pipeline):
        lengths = [len(r.sequence) for r in q8_pipeline.records]
        assert lengths == sorted(lengths)

    def test_deterministic(self, q8):
        a = identities_pipeline(q8)
        b = identities_pipeline(q8)
        render = lambda res: [
            (render_monoid(r.vertex), r.relator.label, r.status,
             render_ysequence(r.sequence))
            for r in res.records
        ]
        assert render(a) == render(b)


def pairing_search(s, nf):
    """The primary test as a backtracking search for a pairing of the
    terms into ``(rho^e)^u``, ``(rho^-e)^v`` with ``u = v`` in G.
    Exponential in the term count; kept as the reference for
    is_primary_identity."""
    n = len(s)
    if n % 2:
        return False

    def compatible(i, j):
        ti, tj = s[i], s[j]
        if ti.relator != tj.relator or ti.sign != -tj.sign:
            return False
        al = ti.relator.word.alphabet
        u, v = GroupWord(al, ti.conjugator), GroupWord(al, tj.conjugator)
        q = free_multiply(u, inverse(v))
        return len(nf(mu(q))) == 0

    def match(unused):
        if not unused:
            return True
        i = min(unused)
        rest = unused - {i}
        for j in rest:
            if compatible(i, j) and match(rest - {j}):
                return True
        return False

    return match(frozenset(range(n)))


def translate_scan(records, graph):
    """The discard as it was before the orbit-key lookup: act each record
    and its inverse by every non-trivial vertex word and scan the kept
    forms, with the pairing search as the primary test.  Kept as the
    reference for simplify_identity_list."""
    nf = normal_form_fn(graph.sys)
    ordered = sorted(records, key=_sort_key)
    kept_forms = []
    sigma_images = [mu_inverse(v) for v in graph.vertices]
    for rec in ordered:
        seq = rec.sequence
        if not seq:
            rec.status = TRIVIAL
            continue
        if len(seq) <= PRIMARY_MAX_TERMS and pairing_search(seq, nf):
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
            cancel_adjacent(act(candidate, sigma)) in kept_forms
            for sigma in sigma_images
            if not sigma.is_identity()
            for candidate in (seq, inverted)
        ):
            rec.status = CONJUGATE_DUP
            continue
        rec.status = KEPT
        kept_forms.append(seq)
    return ordered


def both_discards(records, graph):
    """Statuses of (simplify_identity_list, translate_scan), each run on
    its own copy of the records, in output order."""
    out = []
    for discard in (simplify_identity_list, translate_scan):
        copies = [IdentityRecord(r.vertex, r.relator, r.sequence) for r in records]
        out.append(
            [
                (render_monoid(r.vertex), r.relator.label, r.status)
                for r in discard(copies, graph)
            ]
        )
    return out


class TestDiscardMatchesTranslateScan:
    @pytest.mark.parametrize(
        "text",
        [Q8_TEXT, S4_TEXT, S4_COXETER_TEXT, Z6XZ6_TEXT, A5_TEXT],
        ids=["q8", "s4", "s4_coxeter", "z6xz6", "a5"],
    )
    def test_corpus(self, text):
        p = parse_presentation(text)
        sys = complete_presentation(p).final_system
        graph = build_cayley_graph(sys)
        records = [
            IdentityRecord(g, rho, separation_identity(g, rho, graph))
            for g in graph.vertices
            for rho in p.relators
        ]
        new, reference = both_discards(records, graph)
        assert new == reference
        assert {status for _, _, status in new} >= {KEPT, TRIVIAL, DUPLICATE}


class TestDiscardCases:
    @pytest.fixture(scope="class")
    def setting(self, q8, q8_system, q8_pipeline):
        graph = build_cayley_graph(q8_system)
        kept = next(r for r in q8_pipeline.kept if len(r.sequence) > 1)
        return graph, kept

    def _with_kept(self, q8, setting, seq):
        """Statuses of a kept form and a record with the sequence ``seq``."""
        graph, kept = setting
        records = [
            IdentityRecord(graph.vertices[0], kept.relator, kept.sequence),
            IdentityRecord(parse_monoid(q8.alphabet, "ab"), kept.relator, seq),
        ]
        return both_discards(records, graph)

    def _pair(self, q8, setting, sigma):
        """Statuses of a kept form and the record that ``sigma`` moves onto it."""
        kept = setting[1]
        moved = act(kept.sequence, inverse(sigma))
        assert act(moved, sigma) == kept.sequence
        return self._with_kept(q8, setting, moved)

    def test_inverse_is_inverse_dup(self, q8, setting):
        kept = setting[1]
        new, reference = self._with_kept(
            q8, setting, cancel_adjacent(invert(kept.sequence))
        )
        assert [status for _, _, status in new] == [KEPT, INVERSE_DUP]
        assert new == reference

    def test_inverse_of_translate_is_conjugate_dup(self, q8, setting):
        graph, kept = setting
        for v in graph.vertices[1:]:
            moved = act(kept.sequence, inverse(mu_inverse(v)))
            new, reference = self._with_kept(q8, setting, invert(moved))
            assert [status for _, _, status in new] == [KEPT, CONJUGATE_DUP]
            assert new == reference

    def test_translate_by_vertex_word_is_conjugate_dup(self, q8, setting):
        graph = setting[0]
        for v in graph.vertices[1:]:
            new, reference = self._pair(q8, setting, mu_inverse(v))
            assert [status for _, _, status in new] == [KEPT, CONJUGATE_DUP]
            assert new == reference

    def test_translate_by_other_word_is_kept(self, q8, setting):
        for word in ("b a", "a^3 b"):
            new, reference = self._pair(q8, setting, parse_group(q8.alphabet, word))
            assert [status for _, _, status in new] == [KEPT, KEPT]
            assert new == reference

    def test_long_record_cancelling_to_empty(self, q8, setting):
        graph, kept = setting
        t = YTerm(q8.relators[0], POS, ())
        seq = YSequence([t, t.inverted()] * 11)
        assert len(seq) > 20 and not cancel_adjacent(seq)
        records = [
            IdentityRecord(graph.vertices[0], kept.relator, kept.sequence),
            IdentityRecord(graph.vertices[1], q8.relators[0], seq),
        ]
        new, reference = both_discards(records, graph)
        assert new == reference

    def test_nontrivial_boundary_raises(self, q8, setting):
        graph, _ = setting
        t = YTerm(q8.relators[0], POS, ())
        rec = IdentityRecord(graph.vertices[0], q8.relators[0], YSequence([t]))
        with pytest.raises(WordError):
            simplify_identity_list([rec], graph)


class TestPrimaryMatchesPairingSearch:
    """``s + invert(act(s, v))`` for a short record ``s`` pairs off term by
    term when ``v = 1`` in G, and may or may not pair off otherwise."""

    @pytest.fixture(scope="class", params=[Q8_TEXT, S4_TEXT], ids=["q8", "s4"])
    def setting(self, request):
        result = identities_pipeline(parse_presentation(request.param))
        short = [r.sequence for r in result.records if 0 < len(r.sequence) <= 10]
        return result.graph.sys.presentation, normal_form_fn(result.graph.sys), short

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_doubled_records(self, setting, data):
        p, nf, short = setting
        s = data.draw(st.sampled_from(short))
        letters = st.integers(min_value=0, max_value=2 * len(p.alphabet) - 1)
        u = GroupWord(p.alphabet, data.draw(st.lists(letters, max_size=6)))
        trivial = data.draw(st.booleans())
        if trivial:
            rho = data.draw(st.sampled_from(p.relators))
            v = conjugate(power(rho.word, data.draw(st.sampled_from([1, -1]))), u)
        else:
            v = u
        seq = s + invert(act(s, v))
        primary = is_primary_identity(seq, nf, p.alphabet)
        assert primary == pairing_search(seq, nf)
        assert primary or not trivial


class TestSampledApi:
    def test_abelian_identities_trivial(self, abelian, abelian_system):
        rho = abelian.relators[0]
        for n in (-2, 0, 1):
            for m in (-2, 1, 3):
                g = parse_group(abelian.alphabet, f"x^{n} y^{m}")
                s = identity_for(abelian_system, g, rho)
                assert boundary(s, abelian.alphabet).is_identity()
                assert not simplify(s)

    def test_abelian_k1_product(self, abelian, abelian_system):
        # m applications of the rule yx -> xy give m terms (r^-)^{y^-j x^-n}
        al = abelian.alphabet
        for n in (-1, 0, 2):
            for m in (1, 2, 3):
                g = parse_group(al, f"x^{n} y^{m}")
                s = k1_for(abelian_system, g, "x")
                assert len(s) == m
                expected = [
                    conjugate_text(al, j, n) for j in range(m - 1, -1, -1)
                ]
                got = [render_ysequence(YSequence([t])) for t in s]
                assert got == expected

    def test_incomplete_system_raises(self):
        # the trefoil does not complete under shortlex: a stopped system
        # gives no normal forms to sample with
        p = parse_presentation(TREFOIL_TEXT, order_override="shortlex")
        report = complete_presentation(p, Limits(max_passes=3))
        assert report.stopped == MAX_PASSES
        g = parse_group(p.alphabet, "x y")
        with pytest.raises(WordError, match="require a complete system"):
            identity_for(report.final_system, g, p.relators[0])
        with pytest.raises(WordError, match="require a complete system"):
            k1_for(report.final_system, g, "x")

    def test_q8_sampled_matches_pipeline(self, q8, q8_system, q8_pipeline):
        rho = q8.relator_map()["r4"]
        g = parse_group(q8.alphabet, "a a")
        s = identity_for(q8_system, g, rho)
        assert boundary(s, q8.alphabet).is_identity()

    @pytest.mark.parametrize("relator", ["r1 = a^3", "r8 = a^8"])
    def test_foreign_relator_raises(self, q8_system, q8_graph, relator):
        """A relator that is not Q8's is refused up front.  Taken on trust,
        ``a^3`` left its relator cycle open and its conjugate unreduced,
        and ``a^8`` gave ``(r8^-) (r1^+)^{a} (r1^+)^{a}`` as an identity."""
        other = parse_presentation(f"generators: a, b\nrelators:\n  {relator}\n")
        rho = other.relators[0]
        g = q8_graph.vertices[1]
        message = rf"relator RelatorRef\({relator.split()[0]}=.* not one of"
        with pytest.raises(WordError, match=message):
            identity_for(q8_system, mu_inverse(g), rho)
        with pytest.raises(WordError, match=message):
            separation_identity(g, rho, q8_graph)

    def test_relator_of_a_second_parse(self, q8, q8_system, q8_graph):
        """A relator from another parse of Q8's text is Q8's relator."""
        rho = q8.relator_map()["r3"]
        again = parse_presentation(Q8_TEXT).relator_map()["r3"]
        assert again is not rho
        g = q8_graph.vertices[3]
        assert identity_for(q8_system, mu_inverse(g), again) == identity_for(
            q8_system, mu_inverse(g), rho
        )
        assert separation_identity(g, again, q8_graph) == separation_identity(
            g, rho, q8_graph
        )


# every producer of Y-sequences, as a function of the Q8 fixtures, giving
# the sequences it returned
def _seq(p):
    return parse_ysequence(
        "(r1^+)^{a} (r3^+) (r3^-) (r2^-)^{b^-1}", p.relator_map(), p.alphabet
    )


PRODUCERS = {
    "logged_reduce": lambda p, report, graph: [
        logged_reduce(parse_monoid(p.alphabet, "a b b a"), report.final_system)[1]
    ],
    "rule logs": lambda p, report, graph: [r.log for r in report.final_system.rules],
    "report.identities": lambda p, report, graph: report.identities,
    "act": lambda p, report, graph: [act(_seq(p), parse_group(p.alphabet, "b"))],
    "invert": lambda p, report, graph: [invert(_seq(p))],
    "cancel_adjacent": lambda p, report, graph: [cancel_adjacent(_seq(p))],
    "root_normalize": lambda p, report, graph: [root_normalize(_seq(p))],
    "peiffer_closure": lambda p, report, graph: [peiffer_closure(_seq(p))],
    "simplify": lambda p, report, graph: [simplify(_seq(p))],
    "parse_ysequence": lambda p, report, graph: [
        _seq(p),
        parse_ysequence("<idY>", p.relator_map(), p.alphabet),
    ],
    "compute_k1": lambda p, report, graph: [
        compute_k1(report.final_system, e.source, e.label, e.target)
        for e in graph.edges.values()
    ],
    "separation_identity": lambda p, report, graph: [
        separation_identity(g, rho, graph)
        for g in graph.vertices
        for rho in p.relators
    ],
    "identity_for": lambda p, report, graph: [
        identity_for(report.final_system, parse_group(p.alphabet, "a b"), rho)
        for rho in p.relators
    ],
    "k1_for": lambda p, report, graph: [
        k1_for(report.final_system, parse_group(p.alphabet, w), x)
        for w in ("<id>", "a", "a b")
        for x in ("a", "b")
    ],
}


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_ysequences_are_plain_tuples(producer, q8, q8_report, q8_graph):
    values = PRODUCERS[producer](q8, q8_report, q8_graph)
    assert values
    for x in values:
        assert type(x) is tuple


def conjugate_text(al, j, n):
    from logrewrite.ysequences import YTerm, NEG

    conj = free_multiply(
        power(parse_group(al, "y"), -j), power(parse_group(al, "x"), -n)
    )
    return render_ysequence(
        YSequence([YTerm(_abelian_rho(al), NEG, conj.letters)])
    )


def _abelian_rho(al):
    from logrewrite.ysequences import RelatorRef

    return RelatorRef.make("r", parse_group(al, "x y x^-1 y^-1"))
