"""Logged rewrite systems, logged reduction and logged Knuth-Bendix
completion with identity harvesting.

Every rule (l, c, r) carries a Y-sequence certificate c with
``mu_inverse(l) = boundary(c) * mu_inverse(r)`` in the free group; logged
reduction threads these certificates so that any reduction w ->* I(w)
comes with an expression L(w) of w as a product of conjugated relators
times I(w).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush
from operator import attrgetter
from typing import Callable, Container, Iterable, Optional

from .presentation import Presentation
from .words import (
    GroupWord,
    MonoidWord,
    WordError,
    _group_word,
    _monoid_word,
    free_multiply,
    inverse,
    mu,
    mu_inverse,
    render_monoid,
)
from .ysequences import (
    POS,
    YSequence,
    YTerm,
    act,
    boundary,
    invert,
    peiffer_closure,
)


class BudgetError(RuntimeError):
    """A reduction or completion limit was exceeded."""


class CompletionStopped(BudgetError):
    """Completion stopped before its system was complete
    (``require_complete``).  The message is ``summary`` and a closing
    hint line."""

    def __init__(self, summary: str):
        super().__init__(f"{summary}\nconsider another ordering or higher limits")
        self.summary = summary


# the budgets of a single logged reduction
REDUCE_MAX_STEPS = 100_000
REDUCE_MAX_WORD_LEN = 10_000


@dataclass(frozen=True)
class Limits:
    """The bounds of a completion: rules in the system and passes run."""

    max_rules: int = 10_000
    max_passes: int = 100


class LoggedRule:
    """A rule ``lhs -> rhs`` with its id and its log, a Y-sequence with
    ``mu_inverse(lhs) = boundary(log) * mu_inverse(rhs)`` in F(X).

    A rule is never changed once built, but for its log and log terms,
    built on first use.  A rule built with ``LoggedRule(...)``, such as
    an initial rule, has the log it was given.  A rule that completion
    forms (``_formed_rule``) holds a recipe for its log instead, and
    builds the log on the first read of ``log``: the recipe's sequence
    closed with ``peiffer_closure``.  The recipe is then dropped.  Most
    formed rules are removed before anything reads their log, so their
    logs are never built.  ``logged`` says whether the log is non-empty
    without building it: a formed rule's log never is, since its
    boundary is lhs rhs^-1 != 1.

    ``plan`` is what a rewrite by the rule needs (``_reduce``): ``(id,
    lhs length, rhs letters, pair, logged)``, where ``pair`` says the
    rule is ``x x^-1 -> 1`` with an empty log.
    """

    __slots__ = ("lhs", "rhs", "id", "logged", "plan", "_log", "_recipe", "_terms")

    def __init__(self, lhs: MonoidWord, log: YSequence, rhs: MonoidWord, id: int):
        _init_rule(self, lhs, rhs, id, log, None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def log(self) -> YSequence:
        if self._recipe is not None:
            _build_logs(self)
        return self._log

    def log_terms(self) -> tuple:
        """``(terms, triples)``: the log and, for each of its terms, the
        relator, the sign and the conjugator's letters; built on the
        first call."""
        if self._terms is None:
            terms = self.log
            triples = tuple([(t.relator, t.sign, t.conjugator.letters) for t in terms])
            object.__setattr__(self, "_terms", (terms, triples))
        return self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, LoggedRule):
            return NotImplemented
        return (self.id, self.lhs, self.rhs, self.log) == (
            other.id, other.lhs, other.rhs, other.log
        )

    def __hash__(self) -> int:
        return hash((self.id, self.lhs, self.rhs))

    def __repr__(self) -> str:
        return (
            f"LoggedRule(lhs={self.lhs!r}, log={self.log!r}, "
            f"rhs={self.rhs!r}, id={self.id!r})"
        )

    def holds(self) -> bool:
        """The defining identity l = (delta c) r in F(X)."""
        delta = boundary(self.log, self.lhs.alphabet)
        return mu_inverse(self.lhs) == free_multiply(delta, mu_inverse(self.rhs))


def _init_rule(
    rule: LoggedRule,
    lhs: MonoidWord,
    rhs: MonoidWord,
    rule_id: int,
    log: Optional[YSequence],
    recipe: Optional[tuple],
) -> None:
    """Set the fields of ``rule``: its log, or the recipe of its log."""
    logged = recipe is not None or bool(log)
    l, r = lhs.letters, rhs.letters
    pair = not (logged or r) and len(l) == 2 and l[1] == l[0] ^ 1
    for name, value in (
        ("lhs", lhs), ("rhs", rhs), ("id", rule_id), ("logged", logged),
        ("plan", (rule_id, len(l), r, pair, logged)),
        ("_log", log), ("_recipe", recipe), ("_terms", None),
    ):
        object.__setattr__(rule, name, value)


def _formed_rule(
    lhs: MonoidWord,
    rhs: MonoidWord,
    rule_id: int,
    reads: tuple[LoggedRule, ...],
    build: Callable[[], YSequence],
) -> LoggedRule:
    """A rule completion forms, with the recipe of its log: the log is
    ``build()`` closed with ``peiffer_closure``, and ``build`` reads the
    logs of the rules ``reads`` and of no other rule."""
    rule = object.__new__(LoggedRule)
    _init_rule(rule, lhs, rhs, rule_id, None, (reads, build))
    return rule


def _build_logs(rule: LoggedRule) -> None:
    """Build the log of ``rule`` from its recipe, after the logs of the
    rules the recipe reads, of the rules their recipes read, and so on.
    The builds run in post-order off an explicit stack, so each build
    finds the logs it reads built, and builds never nest: the depth of
    the call does not grow with the rule's ancestry."""
    stack = [rule]
    while stack:
        r = stack[-1]
        if r._recipe is None:  # built, or pushed twice
            stack.pop()
            continue
        reads, build = r._recipe
        unbuilt = [d for d in reads if d._recipe is not None]
        if unbuilt:
            stack += unbuilt
            continue
        object.__setattr__(r, "_log", peiffer_closure(build()))
        object.__setattr__(r, "_recipe", None)
        stack.pop()


class LoggedRewriteSystem:
    """Logged rules in id order, never changed once built: completion
    builds a new system for each pass's new rules, and interreduction one
    for its removals and one for each new rhs (``replaced``).  The
    constructor sorts the rules and indexes them by id; the index
    automaton that ``_reduce`` scans on is built on the first reduction
    (``automaton``).  ``complete`` is set by completion once every
    overlap of the rules resolves.  ``_first`` maps each automaton state
    a reduction has stopped at to the plan of the first rule the state
    lists (``_first_plan``)."""

    def __init__(self, presentation: Presentation, rules: Iterable[LoggedRule]):
        self.presentation = presentation
        self.rules = sorted(rules, key=attrgetter("id"))
        self.complete = False
        self._by_id = {rule.id: rule for rule in self.rules}
        self._dfa: Optional[tuple[list[int], list, bool, list[int]]] = None
        self._first: dict[int, tuple] = {}

    def rules_by_id(self) -> list[LoggedRule]:
        return list(self.rules)

    def replaced(self, old: LoggedRule, new: LoggedRule) -> LoggedRewriteSystem:
        """This system with the rule ``old`` replaced by ``new``, which has
        its lhs and id.  The automaton depends only on the lhs of each id,
        so the new system shares this one's."""
        sys = LoggedRewriteSystem(
            self.presentation, [new if r is old else r for r in self.rules]
        )
        sys._dfa = self.automaton()
        return sys

    def automaton(self) -> tuple[list[int], list, bool, list[int]]:
        """The Aho-Corasick automaton of the lhs set, ``(delta, out,
        nested, depth)``, built on the first call.  It depends only on
        each rule's id and lhs, so every system over one lhs set with the
        same ids can share it (``replaced``).

        A state is the offset of its row in ``delta``, 0 the start, so
        reading letter ``c`` in state ``s`` goes to ``delta[s + c]``;
        every row is full.  ``out[s]`` is the tuple of the ``(id, lhs
        length)`` pairs of the rules whose lhs is a suffix of the word that
        leads to ``s``, longest first, then lowest id first; the empty
        tuple when there are none.  ``nested`` says whether an lhs is a
        subword of another (two equal lhs count).  The subword test: a
        state that ends an lhs and has a child or ends two, or a state
        whose fail link leads to a state that ends an lhs.  ``depth[s]``
        is the trie depth of ``s``, the length of the longest suffix of
        the word read that is a prefix of an lhs; like ``out``, it is
        indexed by the state's offset.
        """
        if self._dfa is None:
            self._dfa = _index_automaton(
                self.rules, 2 * len(self.presentation.alphabet)
            )
        return self._dfa

    def _first_plan(self, state: int) -> tuple:
        """The plan of the first rule ``automaton()`` lists at ``state``,
        which must list one."""
        plan = self._first[state] = self._by_id[self.automaton()[1][state][0][0]].plan
        return plan


def _index_automaton(
    rules: list[LoggedRule], width: int
) -> tuple[list[int], list, bool, list[int]]:
    delta = [-1] * width  # -1: no edge in the trie (yet)
    out: list = [()] * width
    depth = [0] * width
    for rule in rules:  # in id order, so each state's own rules are too
        s = 0
        for c in rule.lhs.letters:
            t = delta[s + c]
            if t < 0:
                t = delta[s + c] = len(delta)
                delta.extend([-1] * width)
                out.extend([()] * width)
                depth.extend([depth[s] + 1] * width)
            s = t
        out[s] += ((rule.id, len(rule.lhs.letters)),)
    nested = False
    order = [t for t in delta[:width] if t > 0]
    fail = dict.fromkeys(order, 0)
    for c in range(width):
        delta[c] = max(delta[c], 0)
    for s in order:  # breadth first, so fail[s] has its full row and out
        f = fail[s]
        own = out[s]
        # an lhs that is a prefix of another, equals one, or ends inside one
        if own and (len(own) > 1 or max(delta[s : s + width]) >= 0) or out[f]:
            nested = True
        out[s] = own + out[f]
        for c in range(width):
            t = delta[s + c]
            if t < 0:
                delta[s + c] = delta[f + c]
            else:
                fail[t] = delta[f + c]
                order.append(t)
    return delta, out, nested, depth


def initial_logged_system(p: Presentation) -> LoggedRewriteSystem:
    """The initial logged system: one rule per relator, logged by the
    relator itself, then one cancellation rule per signed letter (2|X|
    of them), with ids from 1 in that order."""
    al = p.alphabet
    pairs = [(mu(rho.word), (YTerm(rho, POS, GroupWord(al)),)) for rho in p.relators]
    pairs += [(MonoidWord(al, (c, c ^ 1)), ()) for c in al.letters()]
    empty = MonoidWord(al)
    rules = [LoggedRule(l, log, empty, i) for i, (l, log) in enumerate(pairs, 1)]
    return LoggedRewriteSystem(p, rules)


def logged_reduce(
    w: MonoidWord, sys: LoggedRewriteSystem
) -> tuple[MonoidWord, YSequence]:
    """Reduce ``w`` to an irreducible word, recording the log.

    Deterministic: leftmost match, lowest rule id on ties.  A reduction
    that makes more than ``REDUCE_MAX_STEPS`` rewrites, or whose word
    grows longer than ``REDUCE_MAX_WORD_LEN`` letters, raises
    ``BudgetError``; the length is tested after each rewrite that
    lengthens the word, so a long word that only shrinks reduces.

    This builds the log: every applied rule's log, acted on by the
    inverse of the prefix before the match.  Callers that throw the log
    away use the log-free ``_reduce``, which makes the same rewrites in
    the same scan.
    """
    log: list = []
    nf = _reduce(w, sys, (), log)
    return nf, tuple(log)


def _reduce(
    w: MonoidWord,
    sys: LoggedRewriteSystem,
    skip: Container[int] = (),
    log: Optional[list] = None,
    applied: Optional[set] = None,
) -> MonoidWord:
    """The scan of ``logged_reduce``: the normal form of ``w`` under the
    rules whose ids are not in ``skip``.  The log's terms are appended to
    ``log`` when it is a list; when it is None, the inverse prefix is not
    kept and no log is acted on.  The id of every rule applied is added
    to ``applied`` when it is a set.  A word over another alphabet than
    the system's raises ``WordError``.

    The word is a list, rewritten in place (``word[pos:cut] = rhs``) and
    made a tuple once, at the end.  The scan reads it left to right on
    the system's automaton (``LoggedRewriteSystem.automaton``), keeping
    ``states[j]``, the state after ``word[:j]``.  After ``word[j]`` is
    read into state ``s``, the ``(id, length)`` pairs of ``out[s]`` are
    the rules whose lhs ends at ``j``, the earliest-starting first and
    the lowest id first at one start; the first whose id is not in
    ``skip`` is the candidate ending at ``j``.  The first candidate is
    the rewrite when no lhs is a subword of another (not ``nested``): a
    match that starts earlier and ends later would contain it, and one at
    the same start is a prefix of it or has it as a prefix.  Otherwise
    the scan keeps the least ``(start, id)`` of the candidates and reads
    on while the live prefix, the ``depth[s]`` letters before the next
    one, starts at or before that start; that is its only stopping rule.
    A match not yet ended has its letters read so far as a suffix of the
    word read that is a prefix of an lhs, so it starts within the live
    prefix; once the live prefix starts later, no match that starts
    earlier, or at the same start with a lower id, can end later.  A
    state's depth is at most the longest lhs, so the scan reads at most
    one letter past the end of the longest lhs that could start at the
    candidate's start; it usually stops one letter after the candidate.

    What a rewrite needs of its rule is the rule's ``plan``: a reduction
    that skips no rule takes the plan of the first rule its state lists
    (``LoggedRewriteSystem._first_plan``), and one that skips rules, or
    reads on in a nested system, takes the plan of the rule it chose by
    id.  A logged rewrite reads the rule's log terms as (relator, sign,
    conjugator letters) (``LoggedRule.log_terms``).

    A rewrite at ``pos`` leaves ``word[:pos]`` alone, and no match lies
    inside it, since none starts before ``pos``; so the stack is cut
    back to ``pos + 1`` entries and reading resumes at ``pos``: the
    letters before ``pos`` are not read again.  Skipping rules is exact,
    since ``out[s]`` lists every lhs that ends at ``j``: the candidates
    left are those of the system without them, and the live prefix of
    the whole lhs set bounds those of any part of it.  So the scan makes
    the rewrites a full rescan would.

    A free-cancellation rule (lhs ``x x^-1``, empty rhs, empty log) in a
    system that is not ``nested`` collapses the run at its seam: while the
    letters on either side of the gap are ``y y^-1`` again and the
    cancellation rule of that pair is in the system, log-free and not
    skipped, the pair is removed in the same step.  That is the rewrite
    the scan would make next: nothing before the gap matched, and with no
    lhs a subword of another, the only lhs that ends at the letter after
    the gap is ``y y^-1`` itself.  Each pair counts one step against
    ``REDUCE_MAX_STEPS`` and adds its id to ``applied``.

    The inverse prefix is kept at a cursor ``k``: ``inv`` is the free
    reduction of ``word[:k]`` with every letter inverted, so ``inv[::-1]``
    is ``(word[:k])^-1``, and ``undo[i]`` says what consuming ``word[i]``
    did (-1: pushed, else the letter it cancelled).  A rewrite at ``pos``
    leaves ``word[:pos]`` alone, so a cursor at ``k <= pos`` stays valid
    and moving it to the next hit costs the distance moved.  A rewrite
    by a rule with an empty log, a collapsed run included, only pulls a
    cursor past ``pos`` back to ``pos``, and builds nothing.  A rewrite
    by a rule with a non-empty log moves the cursor to ``pos`` and
    builds the inverse prefix ``v`` once, as one tuple; each term
    ``(rho^e)^a`` of the rule's log is appended as ``(rho^e)^{a v}``,
    its conjugator built with the trusted ``_group_word``.  Both words
    are reduced, so ``a v`` can cancel only at the seam: it is ``a + v``
    unless the last letter of ``a`` cancels the first of ``v``, and only
    then is the seam cancelled outwards, as ``free_multiply`` does.
    """
    alphabet = w.alphabet
    if alphabet is not sys.presentation.alphabet:  # one test when it is
        if alphabet != sys.presentation.alphabet:
            raise WordError(
                f"word {_brief(w)} not over the system's alphabet "
                f"{sys.presentation.alphabet!r}"
            )
    max_steps, max_len = REDUCE_MAX_STEPS, REDUCE_MAX_WORD_LEN
    word = list(w.letters)
    delta, out, nested, depth = sys.automaton()
    by_id, first = sys._by_id, sys._first
    states = [0]
    inv: list[int] = []
    undo: list[int] = []
    k = steps = pos = 0
    while True:
        del states[pos + 1 :]
        s = states[pos]
        j, n = pos, len(word)
        while True:  # read up to the first candidate
            if j == n:
                return _monoid_word(alphabet, tuple(word))
            s = delta[s + word[j]]
            states.append(s)
            j += 1
            if out[s]:
                if not skip:
                    plan = first.get(s) or sys._first_plan(s)
                    break
                for hit, _ in out[s]:
                    if hit not in skip:
                        break
                else:
                    continue
                plan = by_id[hit].plan
                break
        rid, length, rhs, pair, logged = plan
        pos = j - length
        if nested:  # read on while the live prefix starts by the candidate's
            while j < n and j - depth[s] <= pos:
                s = delta[s + word[j]]
                states.append(s)
                j += 1
                for hit, hit_length in out[s]:
                    if hit not in skip:
                        if (j - hit_length, hit) < (pos, rid):
                            rid, pos = hit, j - hit_length
                        break
            if rid != plan[0]:
                rid, length, rhs, pair, logged = by_id[rid].plan
        steps += 1
        if steps > max_steps:
            now = _monoid_word(alphabet, tuple(word))
            raise BudgetError(f"reduction budget exceeded on {_brief(now)}")
        if applied is not None:
            applied.add(rid)
        cut = pos + length
        if pair and not nested:  # free cancellation: collapse the run at its seam
            while pos and cut < n and word[cut] == word[pos - 1] ^ 1:
                # the state of the pair read alone lists its rule, if any
                t = delta[delta[word[pos - 1]] + word[cut]]
                if not out[t]:
                    break
                pair_id, _, _, is_pair, _ = first.get(t) or sys._first_plan(t)
                if not is_pair or pair_id in skip:
                    break
                steps += 1
                if steps > max_steps:
                    now = _monoid_word(alphabet, tuple(word[:pos] + word[cut:]))
                    raise BudgetError(f"reduction budget exceeded on {_brief(now)}")
                if applied is not None:
                    applied.add(pair_id)
                pos -= 1
                cut += 1
        if log is not None:
            while k > pos:
                c = undo.pop()
                if c < 0:
                    inv.pop()
                else:
                    inv.append(c)
                k -= 1
            if logged:
                rule = by_id[rid]
                terms, triples = rule._terms or rule.log_terms()
                while k < pos:
                    c = word[k]
                    if inv and inv[-1] == c:
                        undo.append(inv.pop())
                    else:
                        inv.append(c ^ 1)
                        undo.append(-1)
                    k += 1
                if inv:
                    v = tuple(inv[::-1])
                    seam, nv = v[0] ^ 1, len(v)
                    for relator, sign, a in triples:
                        if a and a[-1] == seam:
                            # cancel outwards from the seam, as free_multiply does
                            i, m = len(a) - 1, 1
                            while i and m < nv and a[i - 1] ^ 1 == v[m]:
                                i -= 1
                                m += 1
                            a = a[:i] + v[m:]
                        else:
                            a = a + v
                        log.append(YTerm(relator, sign, _group_word(alphabet, a)))
                else:
                    log.extend(terms)
        word[pos:cut] = rhs
        if len(rhs) > length and len(word) > max_len:
            raise BudgetError(
                f"word length budget exceeded while reducing {_brief(w)}"
            )


def _brief(w: MonoidWord) -> str:
    """``repr(w)`` for an error message; a word of more than 40 letters
    shows its first 40, then its length."""
    if len(w) <= 40:
        return repr(w)
    return f"{_monoid_word(w.alphabet, w.letters[:40])!r}… ({len(w)} letters)"


def normal_form_fn(sys: LoggedRewriteSystem) -> Callable[[MonoidWord], MonoidWord]:
    """The normal form function of a complete system (no log is built)."""
    if not sys.complete:
        raise WordError("normal forms require a complete system")

    return lambda w: _reduce(w, sys)


# -- overlaps and critical pairs ---------------------------------------------


@dataclass(frozen=True)
class OverlapDescriptor:
    """An occurrence u*l*v = l'*v' of two left-hand sides in one word:
    ``rule_a`` owns l' (the primed rule), ``rule_b`` owns l, and l starts
    at offset ``pos`` of l'.  The offset fixes the rest: u = l'[:pos],
    v = l'[pos+|l|:] and v' = l[|l'|-pos:].  At most one of v and v' is
    non-empty: v' is empty when l is a subword of l', and v when a proper
    suffix of l' is a proper prefix of l.
    """

    rule_a: int
    rule_b: int
    pos: int

    def word(self, sys: LoggedRewriteSystem) -> MonoidWord:
        """The overlap word u l v = l' v'."""
        la, lb = _rule(sys, self.rule_a).lhs, _rule(sys, self.rule_b).lhs
        u, v = la.letters[: self.pos], la.letters[self.pos + len(lb) :]
        return _monoid_word(la.alphabet, u + lb.letters + v)


def _rule(sys: LoggedRewriteSystem, rule_id: int) -> LoggedRule:
    try:
        return sys._by_id[rule_id]
    except KeyError:
        raise WordError(f"no rule with id {rule_id}") from None


def find_overlaps(
    sys: LoggedRewriteSystem, frontier: Optional[set[int]] = None
) -> list[OverlapDescriptor]:
    """Every overlap u*l*v = l'*v', once: each pair of rules (l' first)
    at each offset ``pos`` of l in l' where they agree on the letters
    they share, ``l'[pos:pos+|l|] == l[:|l'|-pos]``.  So u = l'[:pos],
    v = l'[pos+|l|:] and v' = l[|l'|-pos:].  Offset 0 is skipped for a
    rule laid on itself, and when |l| > |l'|: that l with l' as a prefix
    is the overlap of the pair taken the other way round.  With
    ``frontier``, a set of rule ids, only the overlaps of ``rule_a`` or
    ``rule_b`` in ``frontier`` are listed.
    """
    rules = sys.rules
    fresh = rules if frontier is None else [r for r in rules if r.id in frontier]
    out: list[OverlapDescriptor] = []
    for ra in rules:  # primed rule, owns l'
        la = ra.lhs.letters
        for rb in rules if frontier is None or ra.id in frontier else fresh:
            lb = rb.lhs.letters
            for pos in range(ra.id == rb.id or len(lb) > len(la), len(la)):
                if la[pos : pos + len(lb)] == lb[: len(la) - pos]:
                    out.append(OverlapDescriptor(ra.id, rb.id, pos))
    return out


def _descendants(
    o: OverlapDescriptor, sys: LoggedRewriteSystem
) -> tuple[MonoidWord, MonoidWord]:
    """The two descendants of the overlap word: ``u r v`` by ``rule_b``
    and ``r' v'`` by ``rule_a``."""
    ra, rb = _rule(sys, o.rule_a), _rule(sys, o.rule_b)
    la, lb, al = ra.lhs.letters, rb.lhs.letters, sys.presentation.alphabet
    w = _monoid_word(al, la[: o.pos] + rb.rhs.letters + la[o.pos + len(lb) :])
    return w, _monoid_word(al, ra.rhs.letters + lb[len(la) - o.pos :])


def _normal_forms(
    o: OverlapDescriptor, sys: LoggedRewriteSystem, applied: Optional[set] = None
) -> tuple[MonoidWord, MonoidWord]:
    """The normal forms ``(z, z')`` of the two descendants of the overlap;
    it resolves when they are equal.  No log is built; the id of every
    rule applied is added to ``applied`` when it is a set."""
    w, wprime = _descendants(o, sys)
    return _reduce(w, sys, applied=applied), _reduce(wprime, sys, applied=applied)


def process_overlap(o: OverlapDescriptor, sys: LoggedRewriteSystem) -> YSequence:
    """The connecting log of the overlap: a Y-sequence with ``z' =
    boundary(log) * z`` in F(X), where z and z' are the normal forms of
    the descendants ``u r v`` and ``r' v'``.  It is the pair's harvested
    identity when z = z' (``_normal_forms`` decides which), else the
    log of the pair's rule z' -> z before ``peiffer_closure``."""
    w, wprime = _descendants(o, sys)
    d = logged_reduce(w, sys)[1]
    dp = logged_reduce(wprime, sys)[1]
    ra, rb = _rule(sys, o.rule_a), _rule(sys, o.rule_b)
    u = _monoid_word(sys.presentation.alphabet, ra.lhs.letters[: o.pos])
    return invert(dp) + invert(ra.log) + act(rb.log, inverse(mu_inverse(u))) + d


def _pair_log(o: OverlapDescriptor, sys: LoggedRewriteSystem, inverted: bool) -> YSequence:
    """The log of a critical pair's rule before ``peiffer_closure``: the
    connecting log of the overlap ``o`` in ``sys`` (``process_overlap``),
    inverted when the rule is oriented z -> z'."""
    log = process_overlap(o, sys)
    return invert(log) if inverted else log


# -- completion --------------------------------------------------------------

# CompletionReport.stopped: a limit, or a pair the certification left open
MAX_PASSES, MAX_RULES, UNRESOLVED = "max_passes", "max_rules", "unresolved"


@dataclass
class CompletionReport:
    """What a completion made and did.

    ``final_system`` is the last system built; ``stopped`` is None when
    it is complete, else why completion stopped.  ``identities`` holds
    the non-empty identity of every critical pair that resolved, in the
    order completion met them.  Completion keeps each pass's system and
    the overlaps that resolved there, the recipe a critical pair's rule
    keeps for its log (``_pair_log``); the list is built from them on its
    first read, each identity the overlap's connecting log
    (``process_overlap``), and later reads return it.

    The list holds one object per distinct term: equal terms of all its
    identities are the same ``YTerm``, so callers must treat terms as
    read-only.  The first read is the cost: about 0.4 s on D40, 2.4 s
    and a 71 MB process peak on PSL(2,7), and 141 s and a 1.5 GB peak on
    A6 (2-vCPU VM, Python 3.11).
    """

    final_system: LoggedRewriteSystem
    rules_formed: int = 0
    rules_removed: int = 0
    passes: int = 0
    stopped: Optional[str] = None  # None when complete
    # per pass: its system and the overlaps that resolved
    _harvest: list[tuple[LoggedRewriteSystem, list[OverlapDescriptor]]] = field(
        default_factory=list, init=False, repr=False
    )
    _identities: Optional[list[YSequence]] = field(
        default=None, init=False, repr=False
    )

    @property
    def identities(self) -> list[YSequence]:
        if self._identities is None:
            out: list[YSequence] = []
            terms: dict[YTerm, YTerm] = {}  # each distinct term, held once
            for sys, overlaps in self._harvest:
                for o in overlaps:
                    identity = process_overlap(o, sys)
                    if identity:
                        out.append(tuple([terms.setdefault(t, t) for t in identity]))
            self._identities, self._harvest = out, []
        return self._identities


def complete_presentation(
    p: Presentation, limits: Limits = Limits()
) -> CompletionReport:
    """Complete the initial logged system of ``p``, harvesting an identity
    from every resolved critical pair.

    Each pass resolves the overlaps of its frontier in the order of a
    total sort key, adds the surviving critical-pair rules oriented by
    the presentation's ordering, then interreduces (redundant rules
    removed, right-hand sides normalised with log composition).  Pass 1
    lists every overlap; a later pass only those touching a rule the
    pass before added.  These are exactly the overlaps not resolved yet:
    ids are never reused and a rule keeps its lhs for life, so an overlap
    of two older rules was resolved in an earlier pass.  A pass builds a
    system with its new rules, and none when it forms none;
    interreduction reduces on that system's automaton and builds one
    more for its removals (``_interreduce``).
    On success the final system is verified against every overlap and
    marked complete; otherwise ``stopped`` says why not.

    Completion builds no log.  Each descendant of a pair is reduced
    once, without a log, and the two normal forms decide whether the
    pair resolves and how its rule is oriented.  A formed rule keeps a
    recipe for its log, built when the log is first read
    (``LoggedRule``): most formed rules are removed unread.
    """
    sys = initial_logged_system(p)
    report = CompletionReport(final_system=sys)
    next_id = len(sys.rules) + 1
    frontier: Optional[set[int]] = None  # None lists every overlap

    def pending_key(o: OverlapDescriptor) -> tuple:
        # overlaps of two logged (relator-derived) rules first, then the
        # ones involving free-cancellation rules; shorter words first.
        # ``logged`` builds no log
        ra, rb = sys._by_id[o.rule_a], sys._by_id[o.rule_b]
        return (
            0 if ra.logged and rb.logged else 1,
            max(len(ra.lhs), o.pos + len(rb.lhs)),
            o.rule_b,
            o.rule_a,
            o.pos,
        )

    while True:
        if report.passes >= limits.max_passes:
            report.stopped = MAX_PASSES
            break
        report.passes += 1
        pending = sorted(find_overlaps(sys, frontier), key=pending_key)
        new_rules: list[LoggedRule] = []
        joined: list[OverlapDescriptor] = []
        for o in pending:
            applied: set[int] = set()
            z, zprime = _normal_forms(o, sys, applied)
            if z == zprime:
                joined.append(o)
                continue
            # the key is injective, so z != z' orients the pair
            gt = p.order.key(z) > p.order.key(zprime)
            lhs, rhs = (z, zprime) if gt else (zprime, z)
            reads = (
                sys._by_id[o.rule_a],
                sys._by_id[o.rule_b],
                *(sys._by_id[i] for i in applied),
            )
            build = partial(_pair_log, o, sys, gt)
            new_rules.append(_formed_rule(lhs, rhs, next_id, reads, build))
            next_id += 1
        report._harvest.append((sys, joined))
        if new_rules:
            sys = LoggedRewriteSystem(p, sys.rules + new_rules)
        report.rules_formed += len(new_rules)
        if len(sys.rules) > limits.max_rules:
            report.stopped = MAX_RULES
            break
        sys, removed = _interreduce(sys)
        report.rules_removed += removed
        if new_rules or removed:
            frontier = {r.id for r in new_rules}
            continue
        # certification pass: every overlap of the final system must resolve
        pairs = (_normal_forms(o, sys) for o in find_overlaps(sys))
        if all(z == zprime for z, zprime in pairs):
            sys.complete = True
        else:  # pragma: no cover - the loop converged
            report.stopped = UNRESOLVED
        break
    report.final_system = sys
    return report


def require_complete(report: CompletionReport) -> LoggedRewriteSystem:
    """The final system of ``report`` if it is complete; else raises
    ``CompletionStopped`` with why and when completion stopped and its
    last five rules."""
    sys = report.final_system
    if sys.complete:
        return sys
    tail = "".join(
        f"\n  {render_monoid(r.lhs)} -> {render_monoid(r.rhs)}" for r in sys.rules[-5:]
    )
    raise CompletionStopped(
        f"completion stopped ({report.stopped}) after {report.passes} passes; "
        f"last rules added:{tail}"
    )


def _rhs_log(old: LoggedRule, sys: LoggedRewriteSystem, skip: frozenset) -> YSequence:
    """The log, before ``peiffer_closure``, of a rule interreduction gives
    a new rhs: the log of ``old`` followed by the log of the reduction of
    its rhs in ``sys`` without the rules ``skip``."""
    d2: list = []
    _reduce(old.rhs, sys, skip, d2)
    return old.log + tuple(d2)


def _interreduce(sys: LoggedRewriteSystem) -> tuple[LoggedRewriteSystem, int]:
    """Remove joinable redundant rules and normalise right-hand sides;
    returns the last system built and the number of rules removed.

    Rules are tested newest first, so that of two equivalent rules the
    earlier derivation is the one kept, and after every removal or new
    rhs the test starts again from the newest rule.  A rule is tested
    against the others on ``sys``'s automaton, skipping its own id and
    the ids of the rules removed so far, which gives the reductions of
    the system without them (``_reduce``).  A new rhs makes a new system
    on the same automaton (``LoggedRewriteSystem.replaced``); one system
    without the removed rules is built at the end, and none when no rule
    was removed.  No log is built: a rule given a new rhs keeps the
    recipe of its log (``_rhs_log``).

    A test's outcome is cached, so a restart re-tests only the rules
    whose outcome may have changed.  That is exact because the
    reduction is leftmost, lowest id first, and a removal or a new rhs
    adds no lhs: a rule whose lhs and rhs are irreducible by the others
    stays so for the whole call, and an unresolved rule (its lhs and rhs
    reduce to different words) stays unresolved until a rule that one of
    its two reductions applied is removed or given a new rhs.
    """
    removed = 0
    skip: set[int] = set()  # the removed rules, and the rule under test
    todo = [-r.id for r in reversed(sys.rules)]  # a heap, newest first
    unresolved: dict[int, set[int]] = {}  # rule id -> the rules applied
    waiting: dict[int, list[int]] = {}  # applied rule id -> those rules
    while todo:
        rule = sys._by_id[-heappop(todo)]
        skip.add(rule.id)
        applied: set[int] = set()
        z1 = _reduce(rule.lhs, sys, skip, applied=applied)
        if z1 != rule.lhs:
            if z1 != _reduce(rule.rhs, sys, skip, applied=applied):
                # unresolved pair; leave for the completion loop
                skip.discard(rule.id)
                unresolved[rule.id] = applied
                for a in applied:
                    waiting.setdefault(a, []).append(rule.id)
                continue
            removed += 1  # and the rule stays skipped
        else:  # the lhs is irreducible, so ``applied`` is still empty
            z2 = _reduce(rule.rhs, sys, skip, applied=applied)
            if z2 == rule.rhs:
                skip.discard(rule.id)
                continue
            reads = (rule, *(sys._by_id[i] for i in applied))
            build = partial(_rhs_log, rule, sys, frozenset(skip))
            skip.discard(rule.id)
            sys = sys.replaced(rule, _formed_rule(rule.lhs, z2, rule.id, reads, build))
        for d in waiting.pop(rule.id, ()):
            if rule.id in unresolved.get(d, ()):
                del unresolved[d]
                heappush(todo, -d)
    if skip:
        rules = [r for r in sys.rules if r.id not in skip]
        sys = LoggedRewriteSystem(sys.presentation, rules)
    return sys, removed
