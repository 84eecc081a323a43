import hashlib
import itertools
import random
from unittest import mock

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from logrewrite import identities_pipeline, rewriting
from logrewrite.presentation import ParseError, parse_presentation
from logrewrite.rewriting import (
    MAX_PASSES,
    MAX_RULES,
    BudgetError,
    Limits,
    LoggedRewriteSystem,
    LoggedRule,
    Resolved,
    complete_presentation,
    find_overlaps,
    initial_logged_system,
    logged_reduce,
    normal_form_fn,
    process_overlap,
)
from logrewrite.words import (
    MonoidWord,
    WordError,
    free_multiply,
    mu_inverse,
    parse_monoid,
    render_monoid,
)
from logrewrite.ysequences import YSequence, boundary, render_ysequence

from tests.conftest import ABELIAN_TEXT, Q8_TEXT, TREFOIL_TEXT, rescan_reduce


def words_over(alphabet, max_size=10):
    n = 2 * len(alphabet)
    return st.lists(
        st.integers(min_value=0, max_value=n - 1), max_size=max_size
    ).map(lambda ls: MonoidWord(alphabet, ls))


def check_logging_invariant(word, system):
    """w = (boundary of the log) . (normal form) in the free group."""
    nf, log = logged_reduce(word, system)
    assert mu_inverse(word) == free_multiply(
        boundary(log, word.alphabet), mu_inverse(nf)
    )
    return nf, log


class TestInitialSystem:
    def test_q8_counts_and_invariant(self, q8):
        sys = initial_logged_system(q8)
        assert len(sys.rules) == 8  # 4 relators + 4 cancellation rules
        assert all(r.holds() for r in sys.rules)
        assert [r.id for r in sys.rules_by_id()] == list(range(1, 9))

    def test_not_complete(self, q8):
        sys = initial_logged_system(q8)
        assert not sys.complete
        with pytest.raises(WordError):
            normal_form_fn(sys)


class TestLoggedReduce:
    def test_relator_reduces_to_identity(self, q8, q8_system):
        w = parse_monoid(q8.alphabet, "bbbb")
        nf, log = check_logging_invariant(w, q8_system)
        assert nf.letters == ()
        assert log

    def test_irreducible_word_logs_nothing(self, q8, q8_system):
        w = parse_monoid(q8.alphabet, "ab")
        nf, log = logged_reduce(w, q8_system)
        assert nf == w and not log

    def test_abba(self, q8, q8_system):
        w = parse_monoid(q8.alphabet, "abba")
        nf, log = check_logging_invariant(w, q8_system)
        assert nf.letters == ()

    @given(st.data())
    def test_logging_invariant_random(self, q8, q8_system, data):
        w = data.draw(words_over(q8.alphabet))
        check_logging_invariant(w, q8_system)

    @given(st.data())
    def test_leftmost_rightmost_confluent(self, q8, q8_system, data):
        w = data.draw(words_over(q8.alphabet))
        left, _ = logged_reduce(w, q8_system)
        right = rescan_reduce(w, q8_system, rightmost=True)[0]
        assert left == right

    def test_budget(self, q8, q8_system):
        from logrewrite.rewriting import BudgetError

        w = parse_monoid(q8.alphabet, "bbbb")
        with mock.patch.object(rewriting, "REDUCE_MAX_STEPS", 1):
            with pytest.raises(BudgetError):
                logged_reduce(w, q8_system)

    def test_word_length_budget(self, trefoil, trefoil_system):
        w = parse_monoid(trefoil.alphabet, "X")
        assert render_monoid(logged_reduce(w, trefoil_system)[0]) == "xxYY"
        with mock.patch.object(rewriting, "REDUCE_MAX_WORD_LEN", 3):
            with pytest.raises(BudgetError) as exc:
                logged_reduce(w, trefoil_system)
        assert str(exc.value) == (
            "word length budget exceeded while reducing MonoidWord('X')"
        )


D20_TEXT = """\
generators: a, b
order: shortlex
relators:
  r1 = a^20
  r2 = b^2
  r3 = a b a b
"""


NESTED_TEXT = """\
generators: a, b
order: shortlex
relators:
  r1 = a^3 b
  r2 = a^2
"""


def _reduce_systems():
    """The complete Q8, D20, trefoil and Z^2 systems, the initial Q8
    system, which is not complete, and an initial system in which the
    lhs ``aa`` of rule 2 is a prefix of the lhs ``aaab`` of rule 1, so
    that two rules match at one position and the lowest id decides."""
    out = {}
    for name, text in (
        ("q8", Q8_TEXT),
        ("d20", D20_TEXT),
        ("trefoil", TREFOIL_TEXT),
        ("z2", ABELIAN_TEXT),
    ):
        out[name] = complete_presentation(parse_presentation(text)).final_system
    out["q8-initial"] = initial_logged_system(parse_presentation(Q8_TEXT))
    out["nested"] = initial_logged_system(parse_presentation(NESTED_TEXT))
    return out


REDUCE_SYSTEMS = _reduce_systems()


def sized_words_over(alphabet, max_size=200):
    """Words whose length is drawn uniformly from 0..max_size, so long
    words, which reach past the resume window, are as likely as short."""
    n = 2 * len(alphabet)
    return st.integers(min_value=0, max_value=max_size).flatmap(
        lambda size: st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=size,
            max_size=size,
        ).map(lambda ls: MonoidWord(alphabet, ls))
    )


def assert_same_as_rescan(data, w, sys, exclude=0):
    """``logged_reduce`` makes the rewrites of ``rescan_reduce``: the same
    normal form, the same log term for term, and under a drawn step
    budget the same ``BudgetError``."""
    nf, log = logged_reduce(w, sys, exclude=exclude)
    ref_nf, ref_log, steps = rescan_reduce(w, sys, exclude=exclude)
    assert nf == ref_nf
    assert log == ref_log
    # a step budget trips on the same rewrite, with the same word
    budget = data.draw(st.integers(min_value=0, max_value=steps))
    with mock.patch.object(rewriting, "REDUCE_MAX_STEPS", budget):
        if budget < steps:
            with pytest.raises(BudgetError) as got:
                logged_reduce(w, sys, exclude=exclude)
            with pytest.raises(BudgetError) as want:
                rescan_reduce(w, sys, budget, exclude=exclude)
            assert str(got.value) == str(want.value)
        else:
            assert logged_reduce(w, sys, exclude=exclude) == (nf, log)


@st.composite
def random_initial_systems(draw):
    """The initial system of a random presentation: 1-3 generators and
    1-4 relators of 1-12 letters (a relator that freely reduces to the
    empty word is rejected)."""
    names = "abc"[: draw(st.integers(min_value=1, max_value=3))]
    letter = st.sampled_from([n + sign for n in names for sign in ("", "^-1")])
    relators = draw(
        st.lists(
            st.lists(letter, min_size=1, max_size=12), min_size=1, max_size=4
        )
    )
    text = f"generators: {', '.join(names)}\nrelators:\n" + "".join(
        f"  r{i} = {' '.join(r)}\n" for i, r in enumerate(relators, start=1)
    )
    try:
        p = parse_presentation(text)
    except ParseError:
        reject()
    return initial_logged_system(p)


class TestResumingReduce:
    """``logged_reduce`` resumes after each rewrite; it must rewrite
    exactly as the rescan-from-the-start reference does."""

    def test_lowest_id_decides_at_a_position(self):
        sys = REDUCE_SYSTEMS["nested"]
        first, second = sys.rules[:2]
        word = first.lhs
        assert word.letters[: len(second.lhs)] == second.lhs.letters
        # rule 2 (aa) ends first, but rule 1 (aaab) starts there too
        assert logged_reduce(word, sys) == (first.rhs, first.log)

    # "-left" names the scan direction, as in the ids of earlier runs
    @pytest.mark.parametrize(
        "name", sorted(REDUCE_SYSTEMS), ids=lambda name: f"{name}-left"
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_same_rewrites_as_rescan(self, name, data):
        sys = REDUCE_SYSTEMS[name]
        w = data.draw(sized_words_over(sys.presentation.alphabet))
        assert_same_as_rescan(data, w, sys)

    # both stopping rules: the first candidate when no lhs is a subword
    # of another (reach 0), else the end of the lookahead window
    @pytest.mark.parametrize("subword_free", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_initial_systems(self, subword_free, data):
        sys = data.draw(random_initial_systems())
        assume((sys.automaton()[2] == 0) == subword_free)
        exclude = data.draw(st.sampled_from([0] + [r.id for r in sys.rules]))
        w = data.draw(sized_words_over(sys.presentation.alphabet))
        assert_same_as_rescan(data, w, sys, exclude)

    # the log-free scan makes the same rewrites
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_log_free_matches_logged(self, data):
        sys = data.draw(
            st.one_of(
                st.sampled_from(list(REDUCE_SYSTEMS.values())),
                random_initial_systems(),
            )
        )
        exclude = data.draw(st.sampled_from([0] + [r.id for r in sys.rules]))
        w = data.draw(sized_words_over(sys.presentation.alphabet))
        nf, log = logged_reduce(w, sys, exclude=exclude)
        assert rewriting._reduce(w, sys, exclude=exclude) == nf


SHORTER_FIRST_TEXT = """\
generators: a, b
relators:
  r1 = a b
  r2 = a b^2 a
"""

INNER_TEXT = """\
generators: a, b
relators:
  r1 = a b^2 a
  r2 = b^2
"""

EQUAL_TEXT = """\
generators: a, b
relators:
  r1 = a b a
  r2 = a b a
"""

SUFFIX_TEXT = """\
generators: a, b
relators:
  r1 = a b a
  r2 = b a
"""

# initial systems in which one lhs is a subword of another
NESTED_SYSTEMS = {
    "prefix": REDUCE_SYSTEMS["nested"],  # aa is a prefix of aaab
    "prefix-shorter-first": initial_logged_system(
        parse_presentation(SHORTER_FIRST_TEXT)  # ab, abba
    ),
    "inner": initial_logged_system(parse_presentation(INNER_TEXT)),  # bb in abba
    "equal": initial_logged_system(parse_presentation(EQUAL_TEXT)),  # aba twice
    "suffix": initial_logged_system(parse_presentation(SUFFIX_TEXT)),  # ba ends aba
}


class TestAutomaton:
    """Every system gets an automaton; its scan stops at the first
    candidate (``reach`` 0) exactly when no lhs is a subword of another."""

    @pytest.mark.parametrize("name", ["q8", "d20", "trefoil", "z2", "q8-initial"])
    def test_subword_free_systems_get_one(self, name):
        assert REDUCE_SYSTEMS[name].automaton()[2] == 0

    @pytest.mark.parametrize(
        "name", ["prefix", "prefix-shorter-first", "inner", "equal"]
    )
    def test_a_subword_denies_it(self, name):
        sys = NESTED_SYSTEMS[name]
        reach = sys.automaton()[2]
        assert reach == max(len(r.lhs) for r in sys.rules) - 1 > 0

    @pytest.mark.parametrize("name", sorted(NESTED_SYSTEMS))
    def test_nested_tables_exhaustively(self, name):
        """Every word of up to five letters, with every rule excluded in
        turn and with none, reduces as the rescan does."""
        sys = NESTED_SYSTEMS[name]
        alphabet = sys.presentation.alphabet
        letters = range(2 * len(alphabet))
        for exclude in [0] + [r.id for r in sys.rules]:
            for size in range(6):
                for word in itertools.product(letters, repeat=size):
                    w = MonoidWord(alphabet, word)
                    ref_nf, ref_log, _ = rescan_reduce(w, sys, exclude=exclude)
                    assert logged_reduce(w, sys, exclude=exclude) == (
                        ref_nf,
                        ref_log,
                    )


class TestExclude:
    """Reducing with ``exclude=r.id`` is reducing over the system
    rebuilt without ``r``; the rebuilt system is the reference."""

    def test_exclude_skips_only_that_id(self):
        sys = REDUCE_SYSTEMS["nested"]
        first, second = sys.rules[:2]
        word = first.lhs  # aaab: both lhs start at 0
        assert logged_reduce(word, sys, exclude=second.id) == (
            first.rhs,
            first.log,
        )
        nf, log = logged_reduce(word, sys, exclude=first.id)
        assert render_monoid(nf) == "ab" and log == second.log

    def test_every_lhs_against_the_others(self):
        for sys in REDUCE_SYSTEMS.values():
            for rule in sys.rules:
                others = LoggedRewriteSystem(
                    sys.presentation, [r for r in sys.rules if r.id != rule.id]
                )
                nf, log = logged_reduce(rule.lhs, sys, exclude=rule.id)
                ref_nf, ref_log = logged_reduce(rule.lhs, others)
                assert nf == ref_nf
                assert log == ref_log

    @pytest.mark.parametrize("name", sorted(REDUCE_SYSTEMS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_same_as_rebuilt_without_the_rule(self, name, data):
        sys = REDUCE_SYSTEMS[name]
        rule = data.draw(st.sampled_from(sys.rules))
        if data.draw(st.booleans()):
            w = rule.lhs  # what interreduction feeds
        else:
            w = data.draw(sized_words_over(sys.presentation.alphabet))
        others = LoggedRewriteSystem(
            sys.presentation, [r for r in sys.rules if r.id != rule.id]
        )
        nf, log = logged_reduce(w, sys, exclude=rule.id)
        ref_nf, ref_log = logged_reduce(w, others)
        assert nf == ref_nf
        assert log == ref_log


class TestNormalFormFn:
    def test_idempotent_and_counts(self, q8, q8_system):
        nf = normal_form_fn(q8_system)
        seen = set()
        rng = random.Random(7)
        for _ in range(200):
            w = MonoidWord(
                q8.alphabet, [rng.randrange(4) for _ in range(rng.randrange(9))]
            )
            n = nf(w)
            assert nf(n) == n
            seen.add(n)
        assert len(seen) == 8  # the group order


def _overlap_systems():
    """The initial and the complete system of Q8, the trefoil and Z^2."""
    out = []
    for text in (Q8_TEXT, TREFOIL_TEXT, ABELIAN_TEXT):
        p = parse_presentation(text)
        out += [initial_logged_system(p), complete_presentation(p).final_system]
    return out


OVERLAP_SYSTEMS = _overlap_systems()


def _key(o):
    return (o.rule_a, o.rule_b, o.kind, o.u.letters)


class TestRuleTable:
    def test_lowest_id_from_unsorted_rules(self, q8):
        al = q8.alphabet

        def rule(lhs, rhs, rule_id):
            return LoggedRule(
                parse_monoid(al, lhs), YSequence(), parse_monoid(al, rhs), rule_id
            )

        sys = LoggedRewriteSystem(
            q8, [rule("ab", "", 7), rule("abb", "a", 4), rule("b", "", 2)]
        )
        assert [r.id for r in sys.rules] == [2, 4, 7]

        def nf(text):
            return render_monoid(logged_reduce(parse_monoid(al, text), sys)[0])

        assert nf("abba") == "aa"  # abb (4) before ab (7) at 0, b (2) later
        assert nf("ab") == "<id>"  # ab (7) starts left of b (2)
        assert nf("a") == "a"

    @pytest.mark.parametrize("text", [Q8_TEXT, TREFOIL_TEXT, ABELIAN_TEXT])
    def test_rules_stay_in_id_order(self, text):
        sys = complete_presentation(parse_presentation(text)).final_system
        ids = [r.id for r in sys.rules]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        assert sys.rules_by_id() == sys.rules

    def test_missing_rule_id_raises(self, q8_system):
        from logrewrite.rewriting import OverlapDescriptor, _rule

        missing = max(r.id for r in q8_system.rules) + 1
        with pytest.raises(WordError):
            _rule(q8_system, missing)
        empty = MonoidWord(q8_system.presentation.alphabet)
        o = OverlapDescriptor(1, missing, "type1", empty, empty, empty)
        with pytest.raises(WordError):
            o.word(q8_system)


class TestOverlaps:
    @pytest.mark.parametrize("index", range(len(OVERLAP_SYSTEMS)))
    def test_overlap_keys_unique(self, index):
        keys = [_key(o) for o in find_overlaps(OVERLAP_SYSTEMS[index])]
        assert keys and len(set(keys)) == len(keys)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_frontier_lists_the_overlaps_touching_it(self, data):
        sys = data.draw(st.sampled_from(OVERLAP_SYSTEMS))
        ids = [r.id for r in sys.rules]
        frontier = data.draw(st.sets(st.sampled_from(ids)))
        assert find_overlaps(sys, frontier) == [
            o
            for o in find_overlaps(sys)
            if o.rule_a in frontier or o.rule_b in frontier
        ]

    def test_trefoil_distinct_pair_overlap_words(self, trefoil_system):
        words = {
            render_monoid(o.word(trefoil_system))
            for o in find_overlaps(trefoil_system)
            if o.rule_a != o.rule_b
        }
        assert words == {"yYy", "YyY", "yYx", "Yyyx", "Yxxx", "yyxxx"}

    def test_trefoil_displayed_resolved_identity(self, trefoil_system):
        for o in find_overlaps(trefoil_system):
            if render_monoid(o.word(trefoil_system)) == "Yyyx":
                res = process_overlap(o, trefoil_system)
                assert isinstance(res, Resolved)
                assert (
                    render_ysequence(res.identity)
                    == "(r^-)^{y} (r^+)^{x^-1 y} (r^-)^{x^-1 y} (r^+)^{y}"
                )
                return
        pytest.fail("overlap word Yyyx not found")

    def test_complete_system_overlaps_all_resolve(self, q8_system):
        for o in find_overlaps(q8_system):
            res = process_overlap(o, q8_system)
            assert isinstance(res, Resolved)
            assert boundary(
                res.identity, q8_system.presentation.alphabet
            ).is_identity()


class TestCompletion:
    def test_q8_sixteen_rules(self, q8_report):
        sys = q8_report.final_system
        assert sys.complete
        assert len(sys.rules) == 16
        assert all(r.holds() for r in sys.rules)

    def test_q8_interreduced(self, q8_system):
        # no rule's lhs is reducible by the other rules
        for rule in q8_system.rules:
            others = [r for r in q8_system.rules if r.id != rule.id]
            assert not any(
                r.lhs.letters == rule.lhs.letters[i : i + len(r.lhs)]
                for r in others
                for i in range(len(rule.lhs) - len(r.lhs) + 1)
            )

    def test_abelian_rules(self, abelian_system):
        pairs = {
            (render_monoid(r.lhs), render_monoid(r.rhs))
            for r in abelian_system.rules
        }
        assert pairs == {
            ("xX", "<id>"),
            ("Xx", "<id>"),
            ("yY", "<id>"),
            ("Yy", "<id>"),
            ("yx", "xy"),
            ("yX", "Xy"),
            ("YX", "XY"),
            ("Yx", "xY"),
        }
        assert all(r.holds() for r in abelian_system.rules)

    def test_trefoil_rules_exact(self, trefoil_system):
        rendered = {
            (
                render_monoid(r.lhs),
                render_ysequence(r.log),
                render_monoid(r.rhs),
            )
            for r in trefoil_system.rules
        }
        assert rendered == {
            ("yY", "<idY>", "<id>"),
            ("Yy", "<idY>", "<id>"),
            ("xxx", "(r^+)", "yy"),
            ("yyx", "(r^-) (r^+)^{x^-1}", "xyy"),
            ("Yx", "(r^-)^{x^-1 y} (r^+)^{y}", "yxYY"),
            ("X", "(r^-)^{x}", "xxYY"),
        }

    def test_harvested_identities_boundary_trivial(self, q8_report, q8):
        assert q8_report.identities
        for s in q8_report.identities:
            assert boundary(s, q8.alphabet).is_identity()

    @pytest.mark.parametrize("text", [Q8_TEXT, TREFOIL_TEXT])
    def test_identities_built_once(self, text):
        report = complete_presentation(parse_presentation(text))
        first = report.identities
        assert first
        assert report.identities is first
        with pytest.raises(AttributeError):
            report.identities = []

    def test_pass_budget_leaves_incomplete(self, q8):
        limits = Limits(max_passes=0)
        report = complete_presentation(q8, limits)
        assert not report.final_system.complete
        assert report.stopped == MAX_PASSES
        assert report.passes <= limits.max_passes

    def test_pass_budget_counts_only_passes_run(self, q8, q8_report):
        assert q8_report.stopped is None and q8_report.passes == 3
        report = complete_presentation(q8, Limits(max_passes=2))
        assert report.stopped == MAX_PASSES and report.passes == 2
        report = complete_presentation(q8, Limits(max_passes=3))
        assert report.final_system.complete and report.passes == 3

    def test_rule_budget_leaves_incomplete(self, trefoil):
        report = complete_presentation(trefoil, Limits(max_rules=6))
        assert not report.final_system.complete
        assert report.stopped == MAX_RULES
        assert report.passes <= Limits.max_passes

    def test_raw_logs_variant_still_completes(self, q8):
        report = complete_presentation(q8, raw_logs=True)
        sys = report.final_system
        assert sys.complete and len(sys.rules) == 16
        assert all(r.holds() for r in sys.rules)

    def test_deterministic(self, q8, q8_system):
        again = complete_presentation(q8).final_system
        assert [
            (render_monoid(r.lhs), render_ysequence(r.log), render_monoid(r.rhs))
            for r in again.rules_by_id()
        ] == [
            (render_monoid(r.lhs), render_ysequence(r.log), render_monoid(r.rhs))
            for r in q8_system.rules_by_id()
        ]


class TestAcrossSystems:
    @pytest.mark.parametrize("text", [ABELIAN_TEXT, TREFOIL_TEXT])
    def test_logging_invariant_sampled(self, text):
        p = parse_presentation(text)
        system = complete_presentation(p).final_system
        rng = random.Random(11)
        for _ in range(100):
            w = MonoidWord(
                p.alphabet, [rng.randrange(4) for _ in range(rng.randrange(8))]
            )
            check_logging_invariant(w, system)


# -- pinned completions ------------------------------------------------------
#
# Each digest is the SHA-256 of a completion's rendered rules and logs and
# of every harvested identity, as logged completion produced them before
# completion decided critical pairs without logs.  The rule, identity,
# formed, removed and pass counts are pinned alongside.

S5_TEXT = """\
generators: a, b
relators:
  r1 = a^2
  r2 = b^5
  r3 = a b a b a b a b
  r4 = a b^-1 a b a b^-1 a b a b^-1 a b
"""


def _pin_text(generators, relators, order="shortlex"):
    return f"generators: {generators}\norder: {order}\nrelators:\n" + "".join(
        f"  {r}\n" for r in relators
    )


PINNED = {
    "q8": (
        Q8_TEXT,
        (16, 62, 32, 24, 3),
        "41b52ed4f3d900eeaebcba8915f22b524a2351c3f6f5a89ac7cdf196aedc11f0",
    ),
    "s4": (
        _pin_text("a, b", ["r1 = a^2", "r2 = b^3", "r3 = a b a b a b a b"]),
        (12, 90, 35, 30, 7),
        "f5f849864603b714e4354e586c89180e38a7ae2a6acb7345045a80dd77c8a105",
    ),
    "s4_coxeter": (
        _pin_text(
            "a, b, c",
            [
                "r1 = a^2",
                "r2 = b^2",
                "r3 = c^2",
                "r4 = a b a b a b",
                "r5 = b c b c b c",
                "r6 = a c a c",
            ],
        ),
        (10, 79, 62, 64, 5),
        "f973c15dee58a1ef2083cad5266cfd89b8bcd40998da5c554cf6558db0249d0e",
    ),
    "z6xz6": (
        _pin_text("a, b", ["r1 = a^6", "r2 = b^6", "r3 = a b a^-1 b^-1"]),
        (12, 55, 34, 29, 5),
        "89a177894bd4cba0f61caffa1fd2416f7eb8267825c43c65390349746e7ce48f",
    ),
    "a5": (
        _pin_text("a, b", ["r1 = a^2", "r2 = b^3", "r3 = a b a b a b a b a b"]),
        (18, 228, 62, 51, 9),
        "b72684a697d21a3e116d337f5eac1a2037b70cf98224fa1803f9c489b760cdee",
    ),
    "z64": (
        _pin_text("a", ["r1 = a^64"]),
        (4, 1553, 64, 63, 33),
        "6e9003d0fbc36e1483b5a547a798982d17e4c090ebb5f982956631457880bdeb",
    ),
    "d40": (
        _pin_text("a, b", ["r1 = a^40", "r2 = b^2", "r3 = a b a b"]),
        (8, 1640, 138, 137, 21),
        "4f48d43b8a9156c2258b0b2c9f80b49c47a9c62be0867163e2de7e5d7592acb5",
    ),
    "trefoil": (
        _pin_text("x, y", ["r = x^3 y^-2"], "syllable"),
        (6, 21, 22, 21, 7),
        "5bd684a448ebaebbf09cdf22313bcadd9533a6cdf561bced7a87aaf08db0de60",
    ),
    "torus34": (
        _pin_text("x, y", ["r = x^3 y^-4"], "syllable"),
        (6, 26, 41, 40, 9),
        "426dcaec35bf71de6d81e709114fa42d093416922bccf1fd46bec679b2e1c9f2",
    ),
    "z2": (
        _pin_text("x, y", ["r = x y x^-1 y^-1"]),
        (8, 12, 12, 9, 5),
        "a81cf9ad4b6214ab2e294f9785726063f5dda6dbbfbbf5a8926f50cd5f886a6d",
    ),
    "z3": (
        _pin_text(
            "x, y, z",
            [
                "r1 = x y x^-1 y^-1",
                "r2 = x z x^-1 z^-1",
                "r3 = y z y^-1 z^-1",
            ],
        ),
        (18, 48, 44, 35, 5),
        "53b6cd1d71edbf8fcb1f7fc6480db3f9e55a02276a31fe43eec46e58a7345ed7",
    ),
}


def completion_digest(report):
    h = hashlib.sha256()
    for r in report.final_system.rules_by_id():
        h.update(
            f"{render_monoid(r.lhs)} -> {render_monoid(r.rhs)} : "
            f"{render_ysequence(r.log)}\n".encode()
        )
    h.update(b"--\n")
    for s in report.identities:
        h.update(render_ysequence(s).encode() + b"\n")
    return h.hexdigest()


def completion_counts(report):
    return (
        len(report.final_system.rules),
        len(report.identities),
        report.rules_formed,
        report.rules_removed,
        report.passes,
    )


@pytest.fixture(scope="module")
def s5_pipeline():
    return identities_pipeline(parse_presentation(S5_TEXT))


class TestPinnedCompletions:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_corpus(self, name):
        text, counts, digest = PINNED[name]
        report = complete_presentation(parse_presentation(text))
        assert report.final_system.complete
        assert completion_counts(report) == counts
        assert completion_digest(report) == digest

    def test_s5_completion(self, s5_pipeline):
        report = s5_pipeline.report
        assert completion_counts(report) == (36, 2245, 563, 535, 7)
        assert completion_digest(report) == (
            "14ac4f5b58c09114b243020ac385b8a20a7f149e027afdead90eca90ab2ea3b0"
        )

    def test_s5_pipeline(self, s5_pipeline):
        assert len(s5_pipeline.graph) == 120
        assert len(s5_pipeline.kept) == 284
