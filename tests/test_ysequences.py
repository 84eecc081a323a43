import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from logrewrite.words import (
    Alphabet,
    GroupWord,
    WordError,
    free_multiply,
    inverse,
    parse_group,
)
from logrewrite.ysequences import (
    NEG,
    POS,
    RelatorRef,
    YSequence,
    YTerm,
    _sandwich_once,
    _strip_conjugator,
    act,
    boundary,
    cancel_adjacent,
    invert,
    parse_ysequence,
    peiffer_closure,
    render_ysequence,
    root_normalize,
    simplify,
)

from tests.conftest import conjugate

AB = Alphabet(["a", "b"])
R1 = RelatorRef.make("r1", parse_group(AB, "a^4"))
R2 = RelatorRef.make("r2", parse_group(AB, "b^4"))
R3 = RelatorRef.make("r3", parse_group(AB, "a b a b^-1"))
R4 = RelatorRef.make("r4", parse_group(AB, "a^2 b^2"))
RELATORS = {r.label: r for r in (R1, R2, R3, R4)}

XY = Alphabet(["x", "y"])
TREFOIL = RelatorRef.make("r", parse_group(XY, "x^3 y^-2"))

SRC = Path(__file__).resolve().parent.parent / "src"


def group_words(max_size=6):
    return st.lists(st.integers(min_value=0, max_value=3), max_size=max_size).map(
        lambda ls: GroupWord(AB, ls)
    )


def yterms():
    return st.builds(
        YTerm,
        st.sampled_from([R1, R2, R3, R4]),
        st.sampled_from([POS, NEG]),
        group_words(),
    )


def ysequences(max_size=6):
    return st.lists(yterms(), max_size=max_size).map(YSequence)


def boundary_oracle(s):
    """Independent reference: fold u^-1 w^e u over the terms with the free
    group operations only."""
    out = GroupWord(AB)
    for t in s:
        w = t.relator.word if t.sign == POS else inverse(t.relator.word)
        out = free_multiply(out, conjugate(w, t.conjugator))
    return out


class TestRelatorRef:
    def test_root_decomposition(self):
        assert R1.root == parse_group(AB, "a") and R1.root_power == 4
        assert R3.root == R3.word and R3.root_power == 1
        ab2 = RelatorRef.make("s", parse_group(AB, "a b a b"))
        assert ab2.root == parse_group(AB, "a b") and ab2.root_power == 2

    def test_empty_relator_rejected(self):
        with pytest.raises(WordError):
            RelatorRef.make("bad", GroupWord(AB))


class TestYTerm:
    """A term is a value: equal and equally hashed when its relator, sign
    and conjugator are."""

    def test_value_contract(self):
        u = parse_group(AB, "a b^-1")
        t = YTerm(R1, POS, u)
        same = YTerm(R1, POS, parse_group(AB, "a b^-1"))
        assert t == same and t is not same and hash(t) == hash(same)
        assert t != YTerm(R1, NEG, u)
        assert t != YTerm(R2, POS, u)
        assert t != YTerm(R1, POS, GroupWord(AB))
        assert t != (R1, POS, u) and t.__eq__((R1, POS, u)) is NotImplemented
        # the hash a frozen dataclass of the three fields gives, so that
        # sets and dicts of terms iterate in the same order
        assert hash(t) == hash((R1, POS, u))
        assert repr(t) == (
            "YTerm(relator=RelatorRef(r1=a a a a), sign=1, "
            "conjugator=GroupWord('a b^-1'))"
        )
        assert not hasattr(t, "__dict__")
        assert t.inverted() == YTerm(R1, NEG, u)
        assert (t.relator, t.sign, t.conjugator) == (R1, POS, u)


class TestBoundary:
    def test_single_term(self):
        t = YTerm(R4, POS, parse_group(AB, "a^-2"))
        assert boundary(YSequence([t]), AB) == parse_group(AB, "a^2 a^2 b^2 a^-2")

    def test_empty_needs_alphabet(self):
        assert boundary((), AB).is_identity()

    @given(ysequences())
    def test_matches_oracle(self, s):
        assert boundary(s, AB) == boundary_oracle(s)


class TestOperations:
    @given(ysequences())
    def test_invert_boundary(self, s):
        assert boundary(invert(s), AB) == inverse(boundary(s, AB))

    @given(ysequences())
    def test_invert_involution(self, s):
        assert invert(invert(s)) == s

    @given(ysequences(), group_words())
    def test_act_boundary(self, s, v):
        assert boundary(act(s, v), AB) == conjugate(boundary(s, AB), v)

    def test_concat(self):
        s = YSequence([YTerm(R1, POS, GroupWord(AB))])
        assert len(s + s) == 2


class TestCancelAdjacent:
    def test_exact_inverse_pair(self):
        u = parse_group(AB, "a b")
        s = YSequence([YTerm(R1, POS, u), YTerm(R1, NEG, u)])
        assert cancel_adjacent(s) == ()

    def test_different_conjugator_survives(self):
        s = YSequence(
            [YTerm(R1, POS, parse_group(AB, "a")), YTerm(R1, NEG, GroupWord(AB))]
        )
        assert cancel_adjacent(s) == s

    def test_nested_pairs(self):
        u = parse_group(AB, "a")
        s = YSequence(
            [
                YTerm(R2, POS, u),
                YTerm(R1, POS, u),
                YTerm(R1, NEG, u),
                YTerm(R2, NEG, u),
            ]
        )
        assert cancel_adjacent(s) == ()


class TestNormalisation:
    @given(ysequences())
    def test_peiffer_closure_preserves_boundary(self, s):
        assert boundary(peiffer_closure(s), AB) == boundary(s, AB)

    @given(ysequences())
    def test_root_normalize_preserves_boundary(self, s):
        once = root_normalize(s)
        assert boundary(once, AB) == boundary(s, AB)
        assert root_normalize(once) == once

    @given(ysequences(max_size=4))
    def test_simplify_preserves_boundary(self, s):
        assert boundary(simplify(s), AB) == boundary(s, AB)

    def test_root_normalize_strips_relator_powers(self):
        # conjugating a term by the relator's own root is Peiffer-neutral
        # up to a root identity
        t = YTerm(R1, POS, parse_group(AB, "a^-1"))
        assert root_normalize(YSequence([t])) == YSequence(
            [YTerm(R1, POS, GroupWord(AB))]
        )

    def test_simplify_cancels_separated_pair(self):
        # X Y X^-1 with boundary-trivial flank collapses
        u = parse_group(AB, "b")
        s = YSequence(
            [
                YTerm(R1, POS, u),
                YTerm(R2, POS, u),
                YTerm(R1, NEG, u),
            ]
        )
        out = simplify(s)
        assert boundary(out, AB) == boundary(s, AB)
        assert len(out) <= len(s)


def strip_reference(t, use_root):
    """Reference stripping loop: every head is tried, none is skipped by
    its first letter."""
    heads = [t.relator.word, inverse(t.relator.word)]
    if use_root and t.relator.root_power > 1:
        heads += [t.relator.root, inverse(t.relator.root)]
    u = t.conjugator
    changed = True
    while changed and len(u):
        changed = False
        for head in heads:
            candidate = free_multiply(inverse(head), u)
            if len(candidate) < len(u):
                u = candidate
                changed = True
                break
    return t if u == t.conjugator else YTerm(t.relator, t.sign, u)


@st.composite
def strippable_terms(draw):
    """A term over the Q8 or trefoil relators whose conjugator starts with
    a few relator and root powers, so that stripping has work to do."""
    rho = draw(st.sampled_from([R1, R2, R3, R4, TREFOIL]))
    alphabet = rho.word.alphabet
    heads = [rho.word, inverse(rho.word), rho.root, inverse(rho.root)]
    u = GroupWord(alphabet)
    for head in draw(st.lists(st.sampled_from(heads), max_size=4)):
        u = free_multiply(u, head)
    tail = draw(st.lists(st.integers(min_value=0, max_value=3), max_size=6))
    u = free_multiply(u, GroupWord(alphabet, tail))
    return YTerm(rho, draw(st.sampled_from([POS, NEG])), u)


class TestStripConjugator:
    @given(strippable_terms(), st.booleans())
    def test_matches_reference(self, t, use_root):
        assert _strip_conjugator(t, use_root) == strip_reference(t, use_root)


def sandwich_reference(terms, use_root):
    """Reference sandwich search: test every pair, lowest i then lowest
    j, and collapse the first inverse pair found."""
    for i in range(len(terms)):
        ti = terms[i]
        for j in range(i + 1, len(terms)):
            tj = terms[j]
            if (
                ti.relator == tj.relator
                and ti.sign == -tj.sign
                and ti.conjugator == tj.conjugator
            ):
                shift = inverse(boundary_oracle((ti,)))
                middle = [
                    _strip_conjugator(
                        YTerm(t.relator, t.sign, free_multiply(t.conjugator, shift)),
                        use_root,
                    )
                    for t in terms[i + 1 : j]
                ]
                return terms[:i] + tuple(middle) + terms[j + 1 :]
    return None


# an equal relator built apart from R1: the search must match on value
R1_AGAIN = RelatorRef.make("r1", parse_group(AB, "a^4"))


@st.composite
def sandwich_sequences(draw):
    """Sequences drawn from a pool of one to three terms and their
    inverses, so repeated and mutually inverse terms are common."""
    pool = draw(
        st.lists(
            st.builds(
                YTerm,
                st.sampled_from([R1, R1_AGAIN, R3, R4]),
                st.sampled_from([POS, NEG]),
                group_words(max_size=3),
            ),
            min_size=1,
            max_size=3,
        )
    )
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.booleans()), max_size=12
        )
    )
    return tuple(t.inverted() if flip else t for t, flip in picks)


class TestSandwich:
    @given(sandwich_sequences(), st.booleans())
    def test_same_first_pair_as_the_pair_scan(self, terms, use_root):
        assert _sandwich_once(terms, use_root) == sandwich_reference(
            terms, use_root
        )

    @given(sandwich_sequences())
    def test_closure_same_as_with_the_pair_scan(self, terms):
        want = tuple(_strip_conjugator(t, True) for t in terms)
        while True:
            want = cancel_adjacent(want)
            reduced = sandwich_reference(want, True)
            if reduced is None:
                break
            want = reduced
        assert peiffer_closure(terms) == want

    def test_equal_relators_hash_alike(self):
        assert R1_AGAIN is not R1 and R1_AGAIN == R1
        assert hash(R1_AGAIN) == hash(R1)


def test_no_yterm_outlives_its_results():
    # the module keeps no cache, so dropped results take their terms along
    script = """
import gc
from logrewrite import complete_presentation, identities_pipeline, parse_presentation
from logrewrite.ysequences import YTerm
from tests.conftest import Q8_TEXT, TREFOIL_TEXT
result = identities_pipeline(parse_presentation(Q8_TEXT))
report = complete_presentation(parse_presentation(TREFOIL_TEXT))
assert result.kept and report.final_system.complete
del result, report
gc.collect()
print(sum(1 for o in gc.get_objects() if isinstance(o, YTerm)))
"""
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        cwd=SRC.parent,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(SRC.parent)])},
        timeout=120,
    )
    assert out.stdout.strip() == "0"


class TestPrimaryIdentity:
    def _nf(self):
        from logrewrite import complete_presentation, parse_presentation
        from tests.conftest import Q8_TEXT
        from logrewrite.rewriting import normal_form_fn

        p = parse_presentation(Q8_TEXT)
        return normal_form_fn(complete_presentation(p).final_system)

    def test_primary_and_not(self):
        from logrewrite.ysequences import is_primary_identity

        nf = self._nf()
        primary = parse_ysequence(
            "(r2^-) (r1^-)^{a^-1} (r2^+)^{a^-4} (r1^+)^{a^-1}", RELATORS, AB
        )
        assert is_primary_identity(primary, nf, AB)
        not_primary = parse_ysequence(
            "(r2^-) (r4^-) (r2^+)^{a^-2} (r4^+)", RELATORS, AB
        )
        assert not is_primary_identity(not_primary, nf, AB)

    def test_nontrivial_boundary_rejected(self):
        from logrewrite.ysequences import is_primary_identity

        nf = self._nf()
        with pytest.raises(WordError, match="boundary-trivial"):
            is_primary_identity(
                YSequence([YTerm(R1, POS, GroupWord(AB))]), nf, AB
            )

    def test_odd_length_never_primary(self):
        from logrewrite import complete_presentation, parse_presentation
        from logrewrite.rewriting import normal_form_fn
        from logrewrite.ysequences import is_primary_identity

        p = parse_presentation("generators: a\nrelators:\n  r1 = a^2\n  r2 = a^4\n")
        nf = normal_form_fn(complete_presentation(p).final_system)
        relators = {r.label: r for r in p.relators}
        s = parse_ysequence("(r2^-) (r1^+) (r1^+)", relators, p.alphabet)
        assert boundary(s, p.alphabet).is_identity()
        assert not is_primary_identity(s, nf, p.alphabet)

    def test_long_sequence_primary(self):
        from logrewrite.ysequences import is_primary_identity

        t = YTerm(R1, POS, GroupWord(AB))
        s = YSequence([t, t.inverted()] * 11)
        assert len(s) == 22
        assert is_primary_identity(s, self._nf(), AB)


class TestRendering:
    def test_render_forms(self):
        assert render_ysequence(()) == "<idY>"
        s = YSequence([YTerm(R1, NEG, parse_group(AB, "a^-1 b"))])
        assert render_ysequence(s) == "(r1^-)^{a^-1 b}"

    @given(ysequences())
    def test_roundtrip(self, s):
        assert parse_ysequence(render_ysequence(s), RELATORS, AB) == s

    def test_parse_errors(self):
        with pytest.raises(WordError):
            parse_ysequence("(r9^+)", RELATORS, AB)
        with pytest.raises(WordError):
            parse_ysequence("(r1)", RELATORS, AB)
        for text in ("(r1^+", "(r1^+)^{a"):
            with pytest.raises(WordError, match=re.escape(f"unclosed term {text!r}")):
                parse_ysequence(text, RELATORS, AB)
