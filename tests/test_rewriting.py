import hashlib
import itertools
import random
import sys
from collections import Counter, deque
from functools import cache
from unittest import mock

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from logrewrite import identities_pipeline, rewriting
from logrewrite.presentation import ParseError, parse_presentation
from logrewrite.rewriting import (
    MAX_PASSES,
    MAX_RULES,
    BudgetError,
    CompletionStopped,
    Limits,
    LoggedRewriteSystem,
    LoggedRule,
    _normal_forms,
    complete_presentation,
    find_overlaps,
    initial_logged_system,
    logged_reduce,
    normal_form_fn,
    process_overlap,
    require_complete,
)
from logrewrite.words import (
    Alphabet,
    GroupWord,
    MonoidWord,
    WordError,
    free_multiply,
    inverse,
    mu_inverse,
    parse_group,
    parse_monoid,
    render_monoid,
)
from logrewrite.ysequences import (
    NEG,
    POS,
    YSequence,
    YTerm,
    act,
    boundary,
    peiffer_closure,
    render_ysequence,
)

from tests.conftest import (
    ABELIAN_TEXT,
    Q8_TEXT,
    TREFOIL_TEXT,
    rescan_reduce,
    restart_interreduce,
)


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

    def test_long_word_in_budget_message(self, trefoil, trefoil_system):
        w = parse_monoid(trefoil.alphabet, "X" * 45)
        with mock.patch.object(rewriting, "REDUCE_MAX_WORD_LEN", 46):
            with pytest.raises(BudgetError) as exc:
                logged_reduce(w, trefoil_system)
        assert str(exc.value) == (
            "word length budget exceeded while reducing "
            f"MonoidWord('{'X' * 40}')… (45 letters)"
        )

    def test_word_over_another_alphabet_raises(self, q8_system):
        # over {x, y}, whose codes are those of {a, b}: reducing it
        # silently gave the normal form y with the log (r1^+)
        w = parse_monoid(Alphabet(["x", "y"]), "x x x x y")
        with pytest.raises(WordError, match="not over the system's alphabet"):
            logged_reduce(w, q8_system)

    def test_word_over_a_larger_alphabet_raises(self):
        # the letters of b have no row in the automaton of Z3 = <a | a^3>
        z3 = require_complete(
            complete_presentation(parse_presentation(_pin_text("a", ["r = a^3"])))
        )
        w = parse_monoid(Alphabet(["a", "b"]), "a a a b")
        with pytest.raises(WordError, match="not over the system's alphabet"):
            logged_reduce(w, z3)
        with pytest.raises(WordError, match="not over the system's alphabet"):
            rewriting._reduce(w, z3)

    def test_word_from_another_parse_reduces(self, q8, q8_system):
        alphabet = parse_presentation(Q8_TEXT).alphabet
        assert alphabet is not q8.alphabet and alphabet == q8.alphabet
        w = parse_monoid(alphabet, "abba")
        assert logged_reduce(w, q8_system) == logged_reduce(
            parse_monoid(q8.alphabet, "abba"), q8_system
        )

    def test_log_term_cancels_the_inverse_prefix_at_its_seam(self):
        """A hand-built ``bbb -> 1`` logged by ``(r1^+)^u (r1^-)^u (r1^+)``
        with ``u = b a``: after the prefix ``p``, each term's conjugator
        is ``u p^-1``, and the last two letters of ``u`` cancel the first
        two of ``p^-1``.  The log is the rule's log acted on by ``p^-1``,
        term for term."""
        p = parse_presentation("generators: a, b\nrelators:\n  r1 = b^3\n")
        al, rho = p.alphabet, p.relators[0]
        u, one = parse_group(al, "b a"), GroupWord(al)
        log = (YTerm(rho, POS, u), YTerm(rho, NEG, u), YTerm(rho, POS, one))
        rules = initial_logged_system(p).rules
        rule = LoggedRule(rules[0].lhs, log, rules[0].rhs, rules[0].id)
        system = LoggedRewriteSystem(p, [rule, *rules[1:]])
        assert rule.holds()
        cases = (("ba", ""), ("aba", "a^-1"), ("bba", "b^-1"), ("aaba", "a^-2"))
        for prefix, left in cases:
            v = inverse(parse_group(al, prefix))
            nf, got = logged_reduce(parse_monoid(al, prefix + "bbb"), system)
            assert nf == parse_monoid(al, prefix)
            assert got == act(rule.log, v)
            assert [t.conjugator for t in got[:2]] == [parse_group(al, left)] * 2
            assert len(u) + len(v) - len(got[0].conjugator) >= 4


def _want_plan(rule):
    """A rule's plan, worked out from its fields and its built log."""
    lhs, rhs = rule.lhs.letters, rule.rhs.letters
    pair = len(lhs) == 2 and lhs[1] == lhs[0] ^ 1 and not rhs and not rule.log
    return rule.id, len(lhs), rhs, pair, bool(rule.log)


class TestRulePlans:
    """A rule carries its plan, what a rewrite by it needs, from the
    moment it is made; no system keeps a plan or a log of its own."""

    @staticmethod
    def complete(p):
        """The systems completion of ``p`` hands to interreduction, and
        the rules interreduction gives a new rhs."""
        handed, replacements = [], []
        interreduce, replaced = rewriting._interreduce, LoggedRewriteSystem.replaced

        def record(system):
            handed.append(system)
            return interreduce(system)

        def record_new(system, old, new):
            replacements.append(new)
            return replaced(system, old, new)

        with mock.patch.object(rewriting, "_interreduce", record), mock.patch.object(
            LoggedRewriteSystem, "replaced", record_new
        ):
            complete_presentation(p)
        return handed, replacements

    def test_plans_of_initial_formed_and_replaced_rules(self, q8):
        """The initial rules, the rules each pass forms and the rules
        interreduction gives a new rhs; a formed rule's plan is made
        without building its log."""
        handed, replacements = self.complete(q8)
        initial = initial_logged_system(q8).rules
        made = [r for system in handed for r in system.rules if r.id > len(initial)]
        made += replacements
        assert len(made) > len(replacements) > 0
        assert all(r._recipe is not None for r in made)  # no log built yet
        plans = [r.plan for r in made]
        for rule in [*initial, *made]:
            assert rule.plan == _want_plan(rule)
        assert all(r.plan is plan for r, plan in zip(made, plans))
        assert [r.plan[3] for r in initial] == [False] * 4 + [True] * 4
        cancel = initial[-1]  # Bb -> 1, given a log whose boundary is 1
        logged = LoggedRule(cancel.lhs, _identity_log(q8), cancel.rhs, cancel.id)
        assert logged.plan == _want_plan(logged) == (cancel.id, 2, (), False, True)

    def test_shared_rule_shares_its_plan(self, q8):
        """Two pass systems that hold one rule object rewrite by its one
        plan: every plan a system looks up by state is a rule's own."""
        first, second = self.complete(q8)[0][:2]
        shared = [r for r in first.rules if second._by_id.get(r.id) is r]
        assert shared
        for system in (first, second):
            for rule in system.rules:
                rewriting._reduce(rule.lhs, system)
            plans = {id(r.plan) for r in system.rules}
            assert system._first and {id(p) for p in system._first.values()} <= plans
        for rule in shared:
            assert first._by_id[rule.id].plan is second._by_id[rule.id].plan

    def test_replaced_system_rewrites_by_the_new_rule(self):
        """After reductions on ``system`` by ``bbb -> 1``,
        ``system.replaced(old, new)`` rewrites by ``new``,
        ``bbb -> aA`` with another log: with no rule skipped (the plan
        of the state that ends ``bbb``) and with ``aA -> 1`` skipped (the
        plan looked up by id)."""
        p = parse_presentation("generators: a, b\nrelators:\n  r1 = b^3\n")
        al, rho, one = p.alphabet, p.relators[0], GroupWord(p.alphabet)
        system = initial_logged_system(p)
        old = system.rules[0]
        log = (YTerm(rho, POS, one), YTerm(rho, NEG, one), YTerm(rho, POS, one))
        new = LoggedRule(old.lhs, log, parse_monoid(al, "aA"), old.id)
        assert render_monoid(old.lhs) == "bbb" and new.holds()
        cancel = next(r.id for r in system.rules if render_monoid(r.lhs) == "aA")
        w, v = parse_monoid(al, "abbb"), parse_group(al, "a^-1")
        cases = (((), "a", {old.id, cancel}), ({cancel}, "aaA", {old.id}))
        for skip, nf, applied in cases:
            got, got_applied = [], set()
            reduced = rewriting._reduce(w, system, skip, got, got_applied)
            assert (reduced, tuple(got)) == (parse_monoid(al, "a"), act(old.log, v))
            assert got_applied == {old.id}
            got, got_applied = [], set()
            replaced = system.replaced(old, new)
            reduced = rewriting._reduce(w, replaced, skip, got, got_applied)
            assert (render_monoid(reduced), tuple(got)) == (nf, act(new.log, v))
            assert got_applied == applied


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

A5_TEXT = """\
generators: a, b
order: shortlex
relators:
  r1 = a^2
  r2 = b^3
  r3 = a b a b a b a b a b
"""

# the four complete systems of the benchmark's reduce workload
WORKLOAD_SYSTEMS = {
    "a5": complete_presentation(parse_presentation(A5_TEXT)).final_system,
    **{name: REDUCE_SYSTEMS[name] for name in ("d20", "trefoil", "z2")},
}


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


def reduce_skipping(w, sys, skip=()):
    """The logged reduction of ``w`` over ``sys`` without the rules whose
    ids are in ``skip``: ``logged_reduce`` when ``skip`` is empty, else
    ``rewriting._reduce`` with a log, as interreduction runs it."""
    if not skip:
        return logged_reduce(w, sys)
    log = []
    nf = rewriting._reduce(w, sys, skip, log)
    return nf, tuple(log)


def assert_same_as_rescan(data, w, sys, exclude=0):
    """The logged reduction without rule ``exclude`` (0: none) makes the
    rewrites of ``rescan_reduce``: the same normal form, the same log
    term for term, the same rules applied, and under a drawn step budget
    the same ``BudgetError``."""
    skip = (exclude,) if exclude else ()
    nf, log = reduce_skipping(w, sys, skip)
    applied, ref_applied = set(), set()
    ref_nf, ref_log, steps = rescan_reduce(
        w, sys, exclude=exclude, applied=ref_applied
    )
    assert nf == ref_nf
    assert log == ref_log
    assert rewriting._reduce(w, sys, skip, applied=applied) == nf
    assert applied == ref_applied
    # a step budget trips on the same rewrite, with the same word
    budget = data.draw(st.integers(min_value=0, max_value=steps))
    with mock.patch.object(rewriting, "REDUCE_MAX_STEPS", budget):
        if budget < steps:
            with pytest.raises(BudgetError) as got:
                reduce_skipping(w, sys, skip)
            with pytest.raises(BudgetError) as want:
                rescan_reduce(w, sys, budget, exclude=exclude)
            assert str(got.value) == str(want.value)
        else:
            assert reduce_skipping(w, sys, skip) == (nf, log)


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

    # logs of up to 35 terms (A5), rules that lengthen the word
    # (the trefoil's X -> xxYY) and rules with an empty log, which leave
    # the inverse prefix where it is unless it lies past the rewrite
    @pytest.mark.parametrize("name", sorted(WORKLOAD_SYSTEMS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_workload_systems(self, name, data):
        sys = WORKLOAD_SYSTEMS[name]
        w = data.draw(sized_words_over(sys.presentation.alphabet, max_size=64))
        assert_same_as_rescan(data, w, sys)

    # both stopping rules: the first candidate when no lhs is a subword
    # of another (not nested), else the end of the live prefix
    @pytest.mark.parametrize("subword_free", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_initial_systems(self, subword_free, data):
        sys = data.draw(random_initial_systems())
        assume(sys.automaton()[2] != subword_free)
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
        nf, _ = reduce_skipping(w, sys, (exclude,))
        assert rewriting._reduce(w, sys, (exclude,)) == nf


def _rule_key(rule):
    return rule.id, rule.lhs, rule.rhs, rule.log


class TestInterreduce:
    """``_interreduce`` reduces on one automaton and caches each rule's
    test outcome; it must decide as ``restart_interreduce``, which builds
    a system for every change and re-tests every rule after it."""

    @staticmethod
    def assert_same_as_restart(p):
        """On every system completion hands to interreduction (at most
        five passes and 80 rules), the same rules and removed count."""
        handed = []
        interreduce = rewriting._interreduce

        def record(sys):
            handed.append(sys)
            return interreduce(sys)

        limits = Limits(max_rules=80, max_passes=5)
        with mock.patch.object(rewriting, "_interreduce", record):
            try:
                complete_presentation(p, limits)
            except BudgetError:
                reject()
        for sys in handed:
            got, removed = interreduce(sys)
            want, want_removed = restart_interreduce(sys)
            assert removed == want_removed
            assert list(map(_rule_key, got.rules)) == list(
                map(_rule_key, want.rules)
            )

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_same_as_restart(self, data):
        p = data.draw(random_initial_systems()).presentation
        self.assert_same_as_restart(p)

    # one-relator groups in which a cached unresolved outcome must be
    # re-tested: after a removal, and after a new rhs, of a rule it applied
    @pytest.mark.parametrize(
        "generators, relator",
        [
            ("a, b", "a^-1 b b a^-1 a a^-1 a^-1 a^-1"),
            ("a, b, c", "c^-1 c a^-1 b c b b a"),
        ],
        ids=["removal", "new-rhs"],
    )
    def test_cached_outcomes_re_tested(self, generators, relator):
        text = f"generators: {generators}\nrelators:\n  r1 = {relator}\n"
        self.assert_same_as_restart(parse_presentation(text))

    def test_new_rhs_reuses_the_automaton(self, q8_system):
        for old in q8_system.rules:
            new = LoggedRule(old.lhs, old.log, old.rhs, old.id)
            got = q8_system.replaced(old, new)
            rules = [new if r is old else r for r in q8_system.rules]
            want = LoggedRewriteSystem(q8_system.presentation, rules)
            assert got.rules == want.rules
            assert got.automaton() is q8_system.automaton()
            assert got.automaton() == want.automaton()

    def test_unchanged_system_is_kept(self, q8_system):
        assert rewriting._interreduce(q8_system) == (q8_system, 0)


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
    candidate (not ``nested``) exactly when no lhs is a subword of
    another."""

    @pytest.mark.parametrize("name", ["q8", "d20", "trefoil", "z2", "q8-initial"])
    def test_subword_free_systems_get_one(self, name):
        assert REDUCE_SYSTEMS[name].automaton()[2] is False

    @pytest.mark.parametrize(
        "name", ["prefix", "prefix-shorter-first", "inner", "equal"]
    )
    def test_a_subword_denies_it(self, name):
        assert NESTED_SYSTEMS[name].automaton()[2] is True

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
                    assert reduce_skipping(w, sys, (exclude,)) == (ref_nf, ref_log)


class TestExclude:
    """Reducing with ``r.id`` skipped is reducing over the system rebuilt
    without ``r``; the rebuilt system is the reference."""

    def test_exclude_skips_only_that_id(self):
        sys = REDUCE_SYSTEMS["nested"]
        first, second = sys.rules[:2]
        word = first.lhs  # aaab: both lhs start at 0
        assert reduce_skipping(word, sys, (second.id,)) == (first.rhs, first.log)
        nf, log = reduce_skipping(word, sys, (first.id,))
        assert render_monoid(nf) == "ab" and log == second.log

    def test_every_lhs_against_the_others(self):
        for sys in REDUCE_SYSTEMS.values():
            for rule in sys.rules:
                others = LoggedRewriteSystem(
                    sys.presentation, [r for r in sys.rules if r.id != rule.id]
                )
                nf, log = reduce_skipping(rule.lhs, sys, (rule.id,))
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
        nf, log = reduce_skipping(w, sys, (rule.id,))
        ref_nf, ref_log = logged_reduce(w, others)
        assert nf == ref_nf
        assert log == ref_log

    # after a removal, interreduction skips the removed rule and the rule
    # under test at once
    @pytest.mark.parametrize("name", sorted(REDUCE_SYSTEMS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_two_skipped_as_rebuilt_without_both(self, name, data):
        sys = REDUCE_SYSTEMS[name]
        first, second = data.draw(
            st.lists(st.sampled_from(sys.rules), min_size=2, max_size=2, unique=True)
        )
        if data.draw(st.booleans()):
            w = first.lhs
        else:
            w = data.draw(sized_words_over(sys.presentation.alphabet))
        others = LoggedRewriteSystem(
            sys.presentation,
            [r for r in sys.rules if r.id not in (first.id, second.id)],
        )
        assert reduce_skipping(w, sys, {first.id, second.id}) == logged_reduce(
            w, others
        )


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
    return (o.rule_a, o.rule_b, o.pos)


def two_branch_overlaps(sys):
    """The overlaps of ``sys`` listed type by type, as ``(rule_a, rule_b,
    u, v, v')`` letter tuples: type 1, l a subword of l' (v' empty), and
    type 2, a proper suffix of l' a proper prefix of l (v empty)."""
    out = []
    for ra in sys.rules:
        for rb in sys.rules:
            la, lb = ra.lhs.letters, rb.lhs.letters
            if ra.id != rb.id and len(lb) <= len(la):
                for pos in range(len(la) - len(lb) + 1):
                    if la[pos : pos + len(lb)] == lb:
                        out.append((ra.id, rb.id, la[:pos], la[pos + len(lb) :], ()))
            for k in range(1, min(len(la), len(lb))):
                if la[len(la) - k :] == lb[:k]:
                    out.append((ra.id, rb.id, la[: len(la) - k], (), lb[k:]))
    return out


@st.composite
def rule_tables(draw):
    """A system of 1-6 rules with empty logs over the generators x and y;
    each lhs (1-6 letters) is new, a copy of an earlier one, a subword of
    one, a suffix of one with letters after it, or a power of a short word,
    so that equal, nested and self-overlapping lhs are common."""
    p = parse_presentation(ABELIAN_TEXT)
    letters = st.lists(st.integers(0, 3), min_size=1, max_size=6).map(tuple)
    ids = draw(st.lists(st.integers(1, 30), min_size=1, max_size=6, unique=True))
    lhss = []
    for _ in ids:
        how = draw(st.sampled_from(["new", "copy", "sub", "shift", "power"]))
        if how == "new" or not lhss:
            lhs = draw(letters)
        else:
            old = draw(st.sampled_from(lhss))
            i = draw(st.integers(0, len(old) - 1))
            if how == "copy":
                lhs = old
            elif how == "sub":
                lhs = old[i : draw(st.integers(i + 1, len(old)))]
            elif how == "shift":
                lhs = (old[i:] + draw(letters))[:6]
            else:
                lhs = (old[: i + 1] * 6)[: draw(st.integers(i + 1, 6))]
        lhss.append(lhs)
    rules = [
        LoggedRule(
            MonoidWord(p.alphabet, lhs),
            YSequence(),
            MonoidWord(p.alphabet, draw(st.lists(st.integers(0, 3), max_size=3))),
            rule_id,
        )
        for rule_id, lhs in zip(ids, lhss)
    ]
    return LoggedRewriteSystem(p, rules)


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
        o = OverlapDescriptor(1, missing, 0)
        with pytest.raises(WordError):
            o.word(q8_system)


class TestOverlaps:
    @pytest.mark.parametrize("index", range(len(OVERLAP_SYSTEMS)))
    def test_overlap_keys_unique(self, index):
        keys = [_key(o) for o in find_overlaps(OVERLAP_SYSTEMS[index])]
        assert keys and len(set(keys)) == len(keys)

    @settings(max_examples=300, deadline=None)
    @given(rule_tables())
    def test_same_overlaps_as_two_branch_listing(self, sys):
        """One offset loop lists the overlaps the type-1 and type-2
        branches list, with the same words and descendants."""
        by_id = {r.id: r for r in sys.rules}
        want = [
            (
                a,
                b,
                len(u),
                u + by_id[b].lhs.letters + v,
                u + by_id[b].rhs.letters + v,
                by_id[a].rhs.letters + vprime,
            )
            for a, b, u, v, vprime in two_branch_overlaps(sys)
        ]
        got = [
            (o.rule_a, o.rule_b, o.pos, o.word(sys).letters)
            + tuple(w.letters for w in rewriting._descendants(o, sys))
            for o in find_overlaps(sys)
        ]
        assert sorted(got) == sorted(want)

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
                z, zprime = _normal_forms(o, trefoil_system)
                assert z == zprime
                assert (
                    render_ysequence(process_overlap(o, trefoil_system))
                    == "(r^-)^{y} (r^+)^{x^-1 y} (r^-)^{x^-1 y} (r^+)^{y}"
                )
                return
        pytest.fail("overlap word Yyyx not found")

    def test_complete_system_overlaps_all_resolve(self, q8_system):
        for o in find_overlaps(q8_system):
            z, zprime = _normal_forms(o, q8_system)
            assert z == zprime
            assert boundary(
                process_overlap(o, q8_system), q8_system.presentation.alphabet
            ).is_identity()

    def test_connecting_log_of_every_initial_q8_pair(self, q8):
        """On Q8's initial system the connecting log gives z' = boundary(log)
        z for every overlap, and is boundary-trivial exactly on the pairs
        that join: 10 of the 23 overlaps."""
        sys = initial_logged_system(q8)
        overlaps = find_overlaps(sys)
        joined = 0
        for o in overlaps:
            z, zprime = _normal_forms(o, sys)
            delta = boundary(process_overlap(o, sys), q8.alphabet)
            assert mu_inverse(zprime) == free_multiply(delta, mu_inverse(z))
            assert delta.is_identity() == (z == zprime)
            joined += z == zprime
        assert (joined, len(overlaps)) == (10, 23)


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

    def test_stopped_completion_diagnostic(self, q8_report):
        assert require_complete(q8_report) is q8_report.final_system
        # the trefoil does not complete under shortlex; the pipeline
        # raises the same error as require_complete
        p = parse_presentation(TREFOIL_TEXT, order_override="shortlex")
        limits = Limits(max_passes=4)
        with pytest.raises(BudgetError) as exc:
            require_complete(complete_presentation(p, limits))
        assert str(exc.value) == (
            "completion stopped (max_passes) after 4 passes; last rules added:\n"
            "  Xyxyy -> xxyx\n"
            "  Xyxx -> xxyX\n"
            "  YYx -> XX\n"
            "  Yxyy -> yx\n"
            "  Yxx -> yX\n"
            "consider another ordering or higher limits"
        )
        # the CLI prints the summary and a last line that names its flags
        assert isinstance(exc.value, CompletionStopped)
        assert exc.value.summary == str(exc.value).rsplit("\n", 1)[0]
        with pytest.raises(BudgetError) as again:
            identities_pipeline(p, limits)
        assert str(again.value) == str(exc.value)

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

S5_DIGEST = "14ac4f5b58c09114b243020ac385b8a20a7f149e027afdead90eca90ab2ea3b0"


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
        # the harvest holds one object per distinct term
        terms = [t for s in report.identities for t in s]
        assert len({id(t) for t in terms}) == len(set(terms))
        if name == "d40":
            assert (len(terms), len(set(terms))) == (222_288, 1_065)

    @pytest.mark.parametrize("name", ["q8", "trefoil", "d40"])
    def test_shared_terms_equal_unshared(self, name):
        """The harvest equals, term for term and in order, the non-empty
        connecting logs of the overlaps completion kept, built anew."""
        report = complete_presentation(parse_presentation(PINNED[name][0]))
        unshared = [
            s
            for system, overlaps in report._harvest
            for s in (process_overlap(o, system) for o in overlaps)
            if s
        ]
        assert report.identities == unshared

    def test_s5_completion(self, s5_pipeline):
        report = s5_pipeline.report
        assert completion_counts(report) == (36, 2245, 563, 535, 7)
        assert completion_digest(report) == S5_DIGEST

    def test_s5_pipeline(self, s5_pipeline):
        assert len(s5_pipeline.graph) == 120
        assert len(s5_pipeline.kept) == 284
        assert Counter(r.status for r in s5_pipeline.records) == {
            "trivial": 53,
            "kept": 284,
            "duplicate": 110,
            "conjugate-dup": 28,
            "primary": 5,
        }


class TestCompletionWork:
    """Completion of S5 builds 13 index automata in its 7 passes, not one
    per removal or new rhs (552 at one system per change): a new rhs
    shares its system's automaton.  It builds no log: a formed rule's
    log is built when it is read."""

    def test_s5(self):
        p = parse_presentation(S5_TEXT)
        reduce = rewriting._reduce
        logged = []

        def log_free_reduce(w, system, skip=(), log=None, applied=None):
            logged.append(log is not None)
            return reduce(w, system, skip, log, applied)

        with mock.patch.object(
            rewriting, "_index_automaton", wraps=rewriting._index_automaton
        ) as automata, mock.patch.object(
            rewriting, "peiffer_closure", wraps=peiffer_closure
        ) as closures, mock.patch.object(
            rewriting, "process_overlap", wraps=process_overlap
        ) as overlaps, mock.patch.object(rewriting, "_reduce", log_free_reduce):
            report = complete_presentation(p)
        assert report.final_system.complete
        assert automata.call_count == 13
        assert closures.call_count == 0
        assert overlaps.call_count == 0
        assert logged and not any(logged)
        for rule in report.final_system.rules:
            assert peiffer_closure(rule.log) == rule.log
        assert completion_digest(report) == S5_DIGEST

    def test_log_reads_do_not_nest(self):
        """Reading a log builds the logs it reads first, one after
        another, not one inside another.  On Z128, builds nested inside
        the builds of the logs they read go 63 deep, about 7 frames
        each; the reads fit in 150."""
        report = complete_presentation(
            parse_presentation("generators: a\nrelators:\n  r = a^128\n")
        )
        assert report.final_system.complete and report.passes == 65
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 150)
        try:
            assert all(rule.holds() for rule in report.final_system.rules)
            assert report.identities
        finally:
            sys.setrecursionlimit(limit)


# -- the seam collapse and the live-prefix lookahead -------------------------


def run_word(alphabet, *runs):
    """The word of the runs ``(letter, count)``, letters as rendered."""
    return parse_monoid(alphabet, "".join(letter * count for letter, count in runs))


def run_words_over(alphabet, max_runs=6, max_count=40):
    """Words made of up to ``max_runs`` runs of one signed letter each,
    which the free-cancellation rules collapse at their seams."""
    n = 2 * len(alphabet)
    run = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=1, max_value=max_count),
    )
    return st.lists(run, max_size=max_runs).map(
        lambda runs: MonoidWord(alphabet, [c for c, k in runs for _ in range(k)])
    )


def assert_every_budget(w, system, exclude=0):
    """The reduction without rule ``exclude`` (0: none) makes the rewrites
    of ``rescan_reduce``: the same normal form, log and applied rules,
    and under every step budget short of the full count the same
    ``BudgetError``.  Returns the number of rewrites."""
    skip = {exclude} if exclude else set()
    applied, ref_applied = set(), set()
    ref_nf, ref_log, steps = rescan_reduce(
        w, system, exclude=exclude, applied=ref_applied
    )
    assert reduce_skipping(w, system, skip) == (ref_nf, ref_log)
    assert rewriting._reduce(w, system, skip, applied=applied) == ref_nf
    assert applied == ref_applied
    for budget in range(steps):
        with mock.patch.object(rewriting, "REDUCE_MAX_STEPS", budget):
            with pytest.raises(BudgetError) as got:
                reduce_skipping(w, system, skip)
            with pytest.raises(BudgetError) as log_free:
                rewriting._reduce(w, system, skip)
        with pytest.raises(BudgetError) as want:
            rescan_reduce(w, system, budget, exclude=exclude)
        assert str(got.value) == str(log_free.value) == str(want.value)
    return steps


COLLAPSE_SYSTEMS = {
    "d20": REDUCE_SYSTEMS["d20"],
    "z2": REDUCE_SYSTEMS["z2"],
    "z64": complete_presentation(parse_presentation(PINNED["z64"][0])).final_system,
}

# runs of a and A, runs broken by b, a logged rewrite inside a run, runs
# that cancel past the word's start or end, and runs of two letters
# (Z^2), whose pairs are cancelled by two rules
COLLAPSE_WORDS = {
    "d20": [
        (("a", 9), ("A", 9)),
        (("A", 9), ("a", 9)),
        (("a", 12), ("A", 3), ("b", 1), ("a", 5), ("A", 9)),
        (("a", 6), ("b", 1), ("A", 6)),
        (("a", 6), ("b", 2), ("A", 6)),
        (("a", 4), ("b", 1), ("B", 1), ("A", 7)),
        (("A", 2), ("B", 2), ("a", 3), ("b", 2)),
    ],
    "z2": [
        (("x", 3), ("y", 4), ("Y", 4), ("X", 3)),
        (("x", 2), ("Y", 3), ("y", 5), ("X", 2)),
    ],
    "z64": [
        (("a", 40), ("A", 40)),
        (("A", 70), ("a", 70)),
        (("a", 7), ("A", 40), ("a", 36)),
        (("a", 33), ("A", 2)),
        (("a", 40), ("A", 7)),
    ],
}


def _identity_log(p):
    """``(r1^+)(r1^-)``: a log whose boundary is 1."""
    rho, al = p.relators[0], p.alphabet
    return (YTerm(rho, POS, GroupWord(al)), YTerm(rho, NEG, GroupWord(al)))


class TestSeamCollapse:
    """A free-cancellation rewrite in a system where no lhs is a subword
    of another removes the whole run at its seam in one step; the
    rewrites, budgets and applied rules must stay those of the rescan."""

    @pytest.mark.parametrize(
        "name, runs",
        [(name, runs) for name, words in COLLAPSE_WORDS.items() for runs in words],
    )
    def test_runs_under_every_budget(self, name, runs):
        system = COLLAPSE_SYSTEMS[name]
        assert system.automaton()[2] is False
        w = run_word(system.presentation.alphabet, *runs)
        assert assert_every_budget(w, system)

    # interreduction skips the rule under test, which may be the run's
    # own cancellation rule
    @pytest.mark.parametrize(
        "name, runs",
        [(name, runs) for name, words in COLLAPSE_WORDS.items() for runs in words],
    )
    def test_runs_with_a_cancellation_rule_skipped(self, name, runs):
        system = COLLAPSE_SYSTEMS[name]
        w = run_word(system.presentation.alphabet, *runs)
        for rule in system.rules:
            if len(rule.lhs) == 2 and not rule.logged:
                assert_every_budget(w, system, rule.id)

    @pytest.mark.parametrize("name", sorted(COLLAPSE_SYSTEMS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_runs(self, name, data):
        system = COLLAPSE_SYSTEMS[name]
        w = data.draw(run_words_over(system.presentation.alphabet))
        exclude = data.draw(st.sampled_from([0] + [r.id for r in system.rules]))
        assert_same_as_rescan(data, w, system, exclude)

    def test_a_logged_cancellation_rule_is_not_collapsed(self):
        """A hand-built ``aA -> 1`` whose log is an identity: each of its
        rewrites appends the log's two terms, also at the seam of a run
        that a log-free cancellation rule started, and a log-free pair at
        its own seam is left to the next step."""
        p = parse_presentation("generators: a, b\nrelators:\n  r1 = b^3\n")
        al = p.alphabet
        rules = [
            LoggedRule(r.lhs, _identity_log(p), r.rhs, r.id)
            if render_monoid(r.lhs) == "aA"
            else r
            for r in initial_logged_system(p).rules
        ]
        system = LoggedRewriteSystem(p, rules)
        assert all(r.holds() for r in system.rules)
        assert system.automaton()[2] is False
        for k in (1, 5, 12):
            for runs in (
                (("a", k), ("A", k)),
                (("a", k), ("B", 2), ("b", 2), ("A", k)),
                (("b", 2), ("a", k), ("A", k), ("B", 2)),
            ):
                w = run_word(al, *runs)
                assert_every_budget(w, system)
                nf, log = logged_reduce(w, system)
                assert nf.letters == () and len(log) == 2 * k

    def test_no_collapse_in_a_nested_system(self):
        """With ``baA -> b`` beside ``aA -> 1``, the seam of ``b a (aA) A``
        is the end of ``baA``, which starts earlier than the seam's
        ``aA``: the scan, not the collapse, must pick the rewrite."""
        p = parse_presentation("generators: a, b\nrelators:\n  r1 = b^2\n")
        al = p.alphabet
        lhs, rhs = parse_monoid(al, "baA"), parse_monoid(al, "b")
        extra = LoggedRule(lhs, _identity_log(p), rhs, 6)
        system = LoggedRewriteSystem(p, [*initial_logged_system(p).rules, extra])
        assert extra.holds() and system.automaton()[2] is True
        for k in (1, 2, 7):
            w = run_word(al, ("b", 1), ("a", k), ("A", k))
            assert assert_every_budget(w, system) == k
            assert logged_reduce(w, system) == (parse_monoid(al, "b"), extra.log)

    def test_cursor_pulled_back_past_the_run(self):
        """On D20, ``AABBaaabb``: ``B -> b`` twice and ``bb -> 1`` leave
        the inverse-prefix cursor at 2, then ``AAaaa`` collapses to ``a``
        at 0, and the logged ``bb -> 1`` at 1 must read the prefix ``a``,
        not the letters the run removed."""
        system = COLLAPSE_SYSTEMS["d20"]
        w = parse_monoid(system.presentation.alphabet, "AABBaaabb")
        assert assert_every_budget(w, system) == 6
        check_logging_invariant(w, system)


@cache
def interreduced_systems(name):
    """Every system completion hands to ``_interreduce`` on the pinned
    presentation ``name`` in which one lhs is a subword of another."""
    handed = []
    interreduce = rewriting._interreduce

    def record(system):
        handed.append(system)
        return interreduce(system)

    with mock.patch.object(rewriting, "_interreduce", record):
        complete_presentation(parse_presentation(PINNED[name][0]))
    return [s for s in handed if s.automaton()[2]]


def trie_depths(system):
    """Each state's distance from the start on the automaton's edges,
    found breadth first: the shortest word that leads to a state is the
    trie word it stands for."""
    delta, width = system.automaton()[0], 2 * len(system.presentation.alphabet)
    dist = {0: 0}
    queue = deque([0])
    while queue:
        s = queue.popleft()
        for t in delta[s : s + width]:
            if t not in dist:
                dist[t] = dist[s] + 1
                queue.append(t)
    return dist


class TestLiveLookahead:
    """In a nested system the scan reads past its candidate only while
    the live prefix, ``depth[s]`` letters long, starts at or before the
    candidate's start.  Checked on the systems real completions hand to
    interreduction, whose lhs run to 40 letters."""

    NAMES = ["d40", "s4_coxeter", "torus34"]

    @pytest.mark.parametrize("name", NAMES)
    def test_completions_hand_over_nested_systems(self, name):
        systems = interreduced_systems(name)
        assert systems
        longest = max(len(r.lhs) for s in systems for r in s.rules)
        assert longest >= {"d40": 40, "s4_coxeter": 7, "torus34": 7}[name]

    @pytest.mark.parametrize("name", NAMES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_same_rewrites_as_rescan(self, name, data):
        systems = interreduced_systems(name)
        system = data.draw(st.sampled_from(systems))
        exclude = data.draw(st.sampled_from([0] + [r.id for r in system.rules]))
        alphabet = system.presentation.alphabet
        w = data.draw(
            st.one_of(sized_words_over(alphabet, 80), run_words_over(alphabet, 4, 20))
        )
        assert_same_as_rescan(data, w, system, exclude)

    def test_depth_is_the_trie_depth(self):
        systems = [
            *REDUCE_SYSTEMS.values(),
            *NESTED_SYSTEMS.values(),
            *(s for name in self.NAMES for s in interreduced_systems(name)),
        ]
        for system in systems:
            depth = system.automaton()[3]
            dist = trie_depths(system)
            prefixes = {
                r.lhs.letters[:i] for r in system.rules for i in range(len(r.lhs) + 1)
            }
            assert len(dist) == len(prefixes)
            assert {s: depth[s] for s in dist} == dist
