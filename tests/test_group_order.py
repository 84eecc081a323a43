"""|G| against an oracle that does not rewrite.

For each finite group of the benchmark corpus, the Cayley graph that the
completed system's normal forms span has as many vertices as HLT coset
enumeration (``tests/todd_coxeter.py``) closes with cosets of the trivial
subgroup.  The enumerator reads the relators with ``perfbench/check.py``'s
parser and shares no code with ``logrewrite``.
"""

import pytest

from logrewrite import complete_presentation, parse_presentation
from logrewrite.identities import build_cayley_graph
from logrewrite.rewriting import require_complete
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


def cosets(generators, relators, cap=100_000):
    return coset_count(
        [ord(g) for g in generators], [check.parse_relator(r) for r in relators], cap
    )


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_cayley_vertices_are_the_coset_count(name):
    generators, relators = GROUPS[name]
    text = f"generators: {', '.join(generators)}\norder: shortlex\nrelators:\n"
    text += "".join(f"  r{i} = {r}\n" for i, r in enumerate(relators, 1))
    system = require_complete(complete_presentation(parse_presentation(text)))
    assert len(build_cayley_graph(system).vertices) == cosets(generators, relators)


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
