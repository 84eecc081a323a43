"""|G| against an oracle that does not rewrite.

For each finite group of the benchmark corpus, the Cayley graph that the
completed system's normal forms span has as many vertices as HLT coset
enumeration (``tests/todd_coxeter.py``) closes with cosets of the trivial
subgroup.  The enumerator reads the relators with ``perfbench/check.py``'s
parser and shares no code with ``logrewrite``.

A generated corpus of cyclic, dihedral, dicyclic, product and symmetric
groups is checked the same way, and every certificate the pipeline makes
for it (rule logs, ``k1`` on every edge, every identity record) is
checked on its rendered text by ``perfbench/check.py``.
"""

import pytest

from logrewrite import complete_presentation, identities_pipeline, parse_presentation
from logrewrite.identities import build_cayley_graph
from logrewrite.rewriting import require_complete
from logrewrite.words import render_monoid
from logrewrite.ysequences import render_ysequence
from tests.conftest import load_checker
from tests.todd_coxeter import CosetCapError, coset_count

check = load_checker()


def _power(word, n):
    return " ".join([word] * n)


# name -> generators, relators in the notation of check.parse_relator
GROUPS = {
    "q8": ("ab", ("a^4", "b^4", "a b a b^-1", "a^2 b^2")),
    "s4": ("ab", ("a^2", "b^3", _power("a b", 4))),
    "s4_coxeter": (
        "abc",
        ("a^2", "b^2", "c^2", _power("a b", 3), _power("b c", 3), _power("a c", 2)),
    ),
    "z6xz6": ("ab", ("a^6", "b^6", "a b a^-1 b^-1")),
    "a5": ("ab", ("a^2", "b^3", _power("a b", 5))),
    "d20": ("ab", ("a^20", "b^2", "a b a b")),
    "d40": ("ab", ("a^40", "b^2", "a b a b")),
    "z64": ("a", ("a^64",)),
}


# the generated corpus: name -> generators, relators
CORPUS = {
    **{f"z{n}": ("a", (f"a^{n}",)) for n in (2, 3, 7, 12, 31)},
    **{f"d{2 * n}": ("ab", (f"a^{n}", "b^2", "a b a b")) for n in (3, 5, 8, 13)},
    **{
        f"dic{4 * n}": ("ab", (f"a^{2 * n}", f"b^2 a^-{n}", "b^-1 a b a"))
        for n in (2, 3, 5)
    },
    "z2xz4": ("ab", ("a^2", "b^4", "a b a^-1 b^-1")),
    "z3xs3": (
        "abc",
        ("a^3", "b^3", "c^2", "b c b c", "a b a^-1 b^-1", "a c a^-1 c^-1"),
    ),
    "s5_coxeter": (
        "abcd",
        (
            *(f"{x}^2" for x in "abcd"),
            *(_power(pair, 3) for pair in ("a b", "b c", "c d")),
            *(_power(pair, 2) for pair in ("a c", "a d", "b d")),
        ),
    ),
    "s5": ("ab", ("a^2", "b^5", _power("a b", 4), _power("a b^-1 a b", 3))),
}


def cosets(generators, relators, cap=100_000):
    return coset_count(
        [ord(g) for g in generators], [check.parse_relator(r) for r in relators], cap
    )


def presentation_text(generators, relators):
    """The shortlex presentation file, the relators labelled r1, r2, ..."""
    text = f"generators: {', '.join(generators)}\norder: shortlex\nrelators:\n"
    return text + "".join(f"  r{i} = {r}\n" for i, r in enumerate(relators, 1))


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_cayley_vertices_are_the_coset_count(name):
    generators, relators = GROUPS[name]
    p = parse_presentation(presentation_text(generators, relators))
    system = require_complete(complete_presentation(p))
    assert len(build_cayley_graph(system).vertices) == cosets(generators, relators)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_order_and_certificates(name):
    generators, relators = CORPUS[name]
    rels = {f"r{i}": check.parse_relator(r) for i, r in enumerate(relators, 1)}
    p = parse_presentation(presentation_text(generators, relators))
    result = identities_pipeline(p)
    graph = result.graph
    assert len(graph.vertices) == cosets(generators, relators)
    for r in result.report.final_system.rules:
        check.check_rule(
            render_monoid(r.lhs), render_monoid(r.rhs), render_ysequence(r.log), rels
        )
    assert len(graph.edges) == len(graph.vertices) * len(generators)
    for (g, gen), e in graph.edges.items():
        check.check_edge(
            render_monoid(g),
            generators[gen],
            render_monoid(e.target),
            render_ysequence(e.k1),
            rels,
        )
    assert result.kept
    # every record, not only the kept: the library checks k1 per edge and
    # leaves each record's boundary to the telescoping argument
    for record in result.records:
        check.check_identity(render_ysequence(record.sequence), rels)


@pytest.mark.parametrize(
    "generators, relators, order",
    [
        ("a", ("a",), 1),
        ("a", ("a^5",), 5),
        ("ab", ("a^2", "b^2", "a b a b"), 4),  # Klein four
        ("ab", ("a^3", "b^2", "a b a b"), 6),  # S3
        ("ab", ("a^2", "b^3", _power("a b", 7), _power("a b^-1 a b", 4)), 168),
    ],
)
def test_known_orders(generators, relators, order):
    assert cosets(generators, relators) == order


@pytest.mark.parametrize(
    "generators, relators",
    [("xy", ("x y x^-1 y^-1",)), ("ab", ("a^2",))],  # Z^2; a free factor
)
def test_cap_on_an_infinite_group(generators, relators):
    with pytest.raises(CosetCapError):
        cosets(generators, relators, cap=500)
