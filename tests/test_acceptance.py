"""Acceptance gate: one test per criterion, each ending in a single
PASS/FAIL line on stdout."""

import random
import time
from itertools import product

import pytest

from logrewrite.identities import identities_pipeline, identity_for, k1_for
from logrewrite.orderings import OrderSpec
from logrewrite.presentation import parse_presentation
from logrewrite.rewriting import (
    complete_presentation,
    find_overlaps,
    logged_reduce,
    normal_form_fn,
)
from logrewrite.words import (
    GroupWord,
    MonoidWord,
    free_multiply,
    mu_inverse,
    parse_group,
    render_monoid,
)
from logrewrite.ysequences import (
    YSequence,
    YTerm,
    act,
    boundary,
    invert,
    parse_ysequence,
    render_ysequence,
    simplify,
)

from tests.conftest import ABELIAN_TEXT, Q8_TEXT, TREFOIL_TEXT, power, rescan_reduce


class gate:
    """Prints exactly one PASS/FAIL line for the enclosed criterion."""

    def __init__(self, n, label):
        self.n, self.label = n, label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.n} [{self.label}]: {verdict}")
        return False


# the complete system for the order-8 quaternion presentation:
# (lhs, rhs) pairs, fixed independently of any run of the code
Q8_RULE_PAIRS = {
    ("aA", "<id>"), ("Aa", "<id>"), ("bB", "<id>"), ("Bb", "<id>"),
    ("ba", "aB"), ("bb", "aa"), ("bA", "ab"), ("Ab", "aB"),
    ("AA", "aa"), ("AB", "ab"), ("Ba", "ab"), ("BA", "aB"),
    ("BB", "aa"), ("aaa", "A"), ("aab", "B"), ("aaB", "b"),
}

# the nine edges of the Q8 Cayley graph with non-trivial k1, with the
# expected value (edge -> sequence)
Q8_K1_TABLE = {
    ("A", "b"): "(r1^-) (r4^+)^{a^-1}",
    ("b", "a"): "(r3^+)^{a} (r1^-) (r4^+)^{a^-1}",
    ("b", "b"): "(r4^-) (r2^+)^{a^-1 a^-1}",
    ("B", "a"): "(r4^-) (r3^+)^{a^-1}",
    ("aa", "a"): "(r1^+)",
    ("aa", "b"): "(r4^+)",
    ("ab", "a"): "(r3^+)",
    ("ab", "b"): "(r4^-)^{a^-1} (r2^+)^{a^-1 a^-1 a^-1} (r1^+)",
    ("aB", "a"): "(r4^-)^{a^-1} (r3^+)^{a^-1 a^-1} (r4^+)",
}

# four reference generators of the Q8 identity module, term for term
Q8_IOTAS = {
    "iota1": "(r1^-) (r1^+)^{a}",
    "iota2": "(r1^-) (r1^+)^{a a}",
    "iota3": "(r2^-) (r4^-) (r2^+)^{a^-1 a^-1} (r4^+)",
    "iota7": "(r4^-) (r1^+)^{a a} (r4^-)^{a a} (r2^+)",
}

ABELIAN_RULES = {
    ("xX", "<id>"), ("Xx", "<id>"), ("yY", "<id>"), ("Yy", "<id>"),
    ("yx", "xy"), ("yX", "Xy"), ("YX", "XY"), ("Yx", "xY"),
}

TREFOIL_RULES = {
    ("yY", "<id>"), ("Yy", "<id>"), ("xxx", "yy"),
    ("yyx", "xyy"), ("Yx", "yxYY"), ("X", "xxYY"),
}

TREFOIL_OVERLAP_WORDS = {"yYy", "YyY", "Yyyx", "yYx", "Yxxx", "yyxxx"}

TREFOIL_IDENTITIES = [
    "(r^-)^{y} (r^+)^{x^-1 y} (r^-)^{x^-1 y} (r^+)^{y}",
    "(r^-)^{x^-1} (r^+) (r^-) (r^+)^{x^-1}",
    "(r^-)^{x^-1 y} (r^+)^{y} (r^-)^{x^-1 y y x^-1 y^-1} (r^+)^{y y x^-1 y^-1}"
    " (r^+)^{y^-1} (r^-)^{x^-1 y y x y^-1 y^-1 y^-1}"
    " (r^+)^{y y x y^-1 y^-1 y^-1} (r^-)^{y}",
    "(r^-) (r^+)^{x^-1} (r^-)^{x^-1} (r^+)^{x^-1 x^-1} (r^-)^{x^-1 x^-1}"
    " (r^+) (r^+)^{y^-1 y^-1} (r^-)^{y^-1 y^-1}",
]


def test_criterion_1_q8_completion():
    with gate(1, "Q8 complete system"):
        p = parse_presentation(Q8_TEXT)
        start = time.perf_counter()
        report = complete_presentation(p)
        elapsed = time.perf_counter() - start
        sys = report.final_system
        assert sys.complete
        assert len(sys.rules) == 16
        pairs = {
            (render_monoid(r.lhs), render_monoid(r.rhs)) for r in sys.rules
        }
        assert pairs == Q8_RULE_PAIRS
        # every log witnesses its rule exactly: l = boundary(c) . r in F(X)
        assert all(r.holds() for r in sys.rules)
        assert elapsed < 1.0, f"completion took {elapsed:.2f}s"


def test_criterion_2_q8_rule_telemetry():
    with gate(2, "Q8 rule counts"):
        report = complete_presentation(parse_presentation(Q8_TEXT))
        formed, removed = report.rules_formed, report.rules_removed
        print(f"  rules formed: {formed} (reference 44 +/- 50%)")
        print(f"  rules removed: {removed} (reference 22 +/- 50%)")
        assert 22 <= formed <= 66
        assert 11 <= removed <= 33


def test_criterion_3_q8_k1_table(q8, q8_pipeline):
    with gate(3, "Q8 k1 on the Cayley graph"):
        graph = q8_pipeline.graph
        nontrivial = {}
        for (g, gen), e in graph.edges.items():
            # boundary contract on every edge
            x = parse_group(q8.alphabet, q8.alphabet.names[gen])
            sg = mu_inverse(g)
            from logrewrite.words import inverse

            assert boundary(e.k1, q8.alphabet) == free_multiply(
                free_multiply(sg, x), inverse(mu_inverse(e.target))
            )
            if e.k1:
                nontrivial[(render_monoid(g), q8.alphabet.names[gen])] = (
                    render_ysequence(e.k1)
                )
        assert len(nontrivial) == 9
        # the three pinned rows term for term
        assert nontrivial[("aa", "a")] == "(r1^+)"
        assert nontrivial[("aa", "b")] == "(r4^+)"
        assert nontrivial[("ab", "a")] == "(r3^+)"
        # remaining rows: term count no greater than the reference table
        # (here they in fact agree term for term)
        for edge, expected in Q8_K1_TABLE.items():
            got = nontrivial[edge]
            assert got.count("(") <= expected.count("(")
            assert got == expected


def test_criterion_4_q8_identities(q8):
    with gate(4, "Q8 identity generators"):
        start = time.perf_counter()
        result = identities_pipeline(q8)
        elapsed = time.perf_counter() - start
        assert len(result.records) == 32
        primaries = [r for r in result.records if r.status == "primary"]
        assert len(primaries) == 1
        assert (
            render_monoid(primaries[0].vertex),
            primaries[0].relator.label,
        ) == ("A", "r2")
        kept = result.kept
        assert len(kept) == 18
        for rec in result.records:
            assert boundary(rec.sequence, q8.alphabet).is_identity()
        kept_forms = {render_ysequence(r.sequence) for r in kept}
        for name, expected in Q8_IOTAS.items():
            assert expected in kept_forms, name
        assert elapsed < 5.0, f"pipeline took {elapsed:.2f}s"


def test_criterion_5_abelian():
    with gate(5, "free abelian group"):
        p = parse_presentation(ABELIAN_TEXT)
        system = complete_presentation(p).final_system
        assert system.complete
        pairs = {
            (render_monoid(r.lhs), render_monoid(r.rhs)) for r in system.rules
        }
        assert pairs == ABELIAN_RULES
        assert all(r.holds() for r in system.rules)
        rho = p.relators[0]
        al = p.alphabet
        for n, m in product(range(-3, 4), range(-3, 4)):
            if m == 0:
                continue
            g = parse_group(al, f"x^{n} y^{m}")
            s = identity_for(system, g, rho)
            assert not simplify(s), (n, m)
        # k1[x^n y^m, x] for m in 1..3: m terms (r^-)^{y^-j x^-n}
        from logrewrite.ysequences import NEG

        for n, m in product(range(-3, 4), range(1, 4)):
            g = parse_group(al, f"x^{n} y^{m}")
            s = k1_for(system, g, "x")
            expected = YSequence(
                [
                    YTerm(
                        rho,
                        NEG,
                        free_multiply(
                            power(parse_group(al, "y"), -j),
                            power(parse_group(al, "x"), -n),
                        ).letters,
                    )
                    for j in range(m - 1, -1, -1)
                ]
            )
            assert s == expected, (n, m)


def test_criterion_6_trefoil():
    with gate(6, "trefoil knot group"):
        p = parse_presentation(TREFOIL_TEXT)
        report = complete_presentation(p)
        system = report.final_system
        assert system.complete
        pairs = {
            (render_monoid(r.lhs), render_monoid(r.rhs)) for r in system.rules
        }
        assert pairs == TREFOIL_RULES
        words = {
            render_monoid(o.word(system))
            for o in find_overlaps(system)
            if o.rule_a != o.rule_b
        }
        assert words == TREFOIL_OVERLAP_WORDS
        # the four reference overlap identities are Peiffer-trivial
        relators = p.relator_map()
        for text in TREFOIL_IDENTITIES:
            s = parse_ysequence(text, relators, p.alphabet)
            assert boundary(s, p.alphabet).is_identity()
            assert not simplify(s), text
        # the overlaps of the final system on Yyyx and yYx resolve to the
        # first two reference identities verbatim
        from logrewrite.rewriting import _normal_forms, process_overlap

        resolved = {}
        for o in find_overlaps(system):
            z, zprime = _normal_forms(o, system)
            assert z == zprime
            resolved.setdefault(
                render_monoid(o.word(system)),
                render_ysequence(process_overlap(o, system)),
            )
        assert resolved["Yyyx"] == TREFOIL_IDENTITIES[0]
        assert resolved["yYx"] == TREFOIL_IDENTITIES[1]
        assert all(not simplify(s) for s in report.identities)


def test_criterion_7_property_suite():
    with gate(7, "property suite"):
        rng = random.Random(20260824)
        systems = []
        for text in (Q8_TEXT, ABELIAN_TEXT, TREFOIL_TEXT):
            p = parse_presentation(text)
            systems.append((p, complete_presentation(p).final_system))

        # logging invariant w = boundary(L(w)) . I(w) on 1000 words per system
        for p, system in systems:
            n = 2 * len(p.alphabet)
            for _ in range(1000):
                w = MonoidWord(
                    p.alphabet,
                    [rng.randrange(n) for _ in range(rng.randrange(10))],
                )
                nf, log = logged_reduce(w, system)
                assert mu_inverse(w) == free_multiply(
                    boundary(log, p.alphabet), mu_inverse(nf)
                )
                # confluence: leftmost and rightmost strategies agree
                right = rescan_reduce(w, system, rightmost=True)[0]
                assert nf == right

        # boundary preservation under simplify / act / invert
        q8p, _ = systems[0]
        relators = list(q8p.relators)
        for _ in range(300):
            terms = [
                YTerm(
                    rng.choice(relators),
                    rng.choice((1, -1)),
                    GroupWord(
                        q8p.alphabet,
                        [rng.randrange(4) for _ in range(rng.randrange(5))],
                    ).letters,
                )
                for _ in range(rng.randrange(5))
            ]
            s = YSequence(terms)
            b = boundary(s, q8p.alphabet)
            assert boundary(simplify(s), q8p.alphabet) == b
            from logrewrite.words import inverse as ginv

            assert boundary(invert(s), q8p.alphabet) == ginv(b)
            v = GroupWord(
                q8p.alphabet, [rng.randrange(4) for _ in range(rng.randrange(4))]
            )
            assert boundary(act(s, v), q8p.alphabet) == free_multiply(
                free_multiply(ginv(v), b), v
            )

        # Q8 has exactly 8 normal forms over all words of length <= 6
        _, q8_system = systems[0]
        nf = normal_form_fn(q8_system)
        seen = set()
        frontier = [()]
        for _ in range(7):
            next_frontier = []
            for letters in frontier:
                seen.add(nf(MonoidWord(q8p.alphabet, letters)))
                if len(letters) < 6:
                    next_frontier.extend(
                        letters + (c,) for c in range(4)
                    )
            frontier = next_frontier
            if not frontier:
                break
        assert len(seen) == 8

        # admissibility of both orderings on random quadruples
        for kind in ("shortlex", "syllable"):
            spec = OrderSpec(kind, q8p.alphabet)
            for _ in range(500):
                mk = lambda k: MonoidWord(
                    q8p.alphabet, [rng.randrange(4) for _ in range(rng.randrange(k))]
                )
                u, v, x, y = mk(6), mk(6), mk(3), mk(3)
                ku, kv = spec.key(u), spec.key(v)
                if ku != kv:
                    xuy = MonoidWord(q8p.alphabet, x.letters + u.letters + y.letters)
                    xvy = MonoidWord(q8p.alphabet, x.letters + v.letters + y.letters)
                    kx, ky = spec.key(xuy), spec.key(xvy)
                    assert (kx < ky, kx > ky) == (ku < kv, ku > kv)


def test_criterion_8_degenerate_cases():
    with gate(8, "degenerate presentations"):
        free = parse_presentation("generators: a, b\nrelators:\n")
        report = complete_presentation(free)
        assert report.final_system.complete
        assert len(report.final_system.rules) == 4
        assert all(
            not simplify(s) for s in report.identities
        )
        assert not any(s for s in report.identities)

        trivial = parse_presentation("generators: x\nrelators:\n  r = x\n")
        result = identities_pipeline(trivial)
        assert len(result.graph) == 1
        assert result.kept == []
