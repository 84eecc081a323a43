"""Logged rewrite systems, logged reduction and logged Knuth-Bendix
completion with identity harvesting.

Every rule (l, c, r) carries a Y-sequence certificate c with
``mu_inverse(l) = boundary(c) * mu_inverse(r)`` in the free group; logged
reduction threads these certificates so that any reduction w ->* I(w)
comes with an expression L(w) of w as a product of conjugated relators
times I(w).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Callable, Iterable, Optional, Union

from .orderings import GT, LT
from .presentation import Presentation
from .words import (
    GroupWord,
    MonoidWord,
    WordError,
    _group_word,
    _monoid_word,
    flip,
    free_multiply,
    inverse,
    mu,
    mu_inverse,
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


# the budgets of a single logged reduction
REDUCE_MAX_STEPS = 100_000
REDUCE_MAX_WORD_LEN = 10_000


@dataclass(frozen=True)
class Limits:
    """The bounds of a completion: rules in the system and passes run."""

    max_rules: int = 10_000
    max_passes: int = 100


@dataclass(frozen=True)
class LoggedRule:
    lhs: MonoidWord
    log: YSequence
    rhs: MonoidWord
    id: int

    def holds(self) -> bool:
        """The defining identity l = (delta c) r in F(X)."""
        lhs = mu_inverse(self.lhs)
        rhs = free_multiply(
            boundary(self.log, self.lhs.alphabet), mu_inverse(self.rhs)
        )
        return lhs == rhs


class LoggedRewriteSystem:
    """Logged rules in id order, never changed once built: completion and
    interreduction build a new system for each change.  The constructor
    sorts the rules and indexes them: first-letter buckets, the id
    lookup and ``_maxlhs``, the length of the longest lhs, which bounds
    how far the bucket scan of ``_reduce`` rescans after a rewrite.  The
    index automaton is built on the first reduction that asks for it
    (``automaton``).  ``complete`` is set by completion once every
    overlap of the rules resolves."""

    def __init__(self, presentation: Presentation, rules: Iterable[LoggedRule]):
        self.presentation = presentation
        self.rules = sorted(rules, key=attrgetter("id"))
        self.complete = False
        # rules are in id order, so every first-letter bucket is too
        self._by_id: dict[int, LoggedRule] = {}
        self._by_first: dict[int, list[LoggedRule]] = {}
        self._maxlhs = 0
        for rule in self.rules:
            self._by_id[rule.id] = rule
            self._by_first.setdefault(rule.lhs.letters[0], []).append(rule)
            self._maxlhs = max(self._maxlhs, len(rule.lhs.letters))
        # None: not built yet; False: some lhs is a subword of another
        self._dfa: Union[None, bool, tuple[list[int], list]] = None

    def rules_by_id(self) -> list[LoggedRule]:
        return list(self.rules)

    def match_at(
        self, word: tuple, pos: int, *, exclude: int = 0
    ) -> Optional[LoggedRule]:
        """Lowest-id rule whose lhs occurs at ``pos``, skipping the rule
        with id ``exclude`` (ids start at 1, so 0 skips none)."""
        for rule in self._by_first.get(word[pos], ()):
            lhs = rule.lhs.letters
            if word[pos : pos + len(lhs)] == lhs and rule.id != exclude:
                return rule
        return None

    def automaton(self) -> Optional[tuple[list[int], list]]:
        """The Aho-Corasick automaton of the lhs set, ``(delta, out)``, or
        None when one lhs is a subword of another (two equal lhs count).

        A state is the offset of its row in ``delta``, 0 the start, so
        reading letter ``c`` in state ``s`` goes to ``delta[s + c]``;
        ``out[s]`` is the rule whose lhs ends there, else None.  Every
        row is full, the rows of states that end an lhs included.  Built
        on the first call, which also makes the subword test: an lhs
        whose insertion passes or stops at a state that ends an earlier
        lhs, or stops at a state with a child, has a prefix among the
        others or is one; a fail link to a state that ends an lhs finds
        an lhs ending inside another.
        """
        if self._dfa is None:
            self._dfa = _index_automaton(
                self.rules, 2 * len(self.presentation.alphabet)
            ) or False
        return self._dfa or None


def _index_automaton(
    rules: list[LoggedRule], width: int
) -> Optional[tuple[list[int], list]]:
    delta = [-1] * width  # -1: no edge in the trie (yet)
    out: list = [None] * width
    for rule in rules:
        s = 0
        for c in rule.lhs.letters:
            if out[s] is not None:
                return None
            t = delta[s + c]
            if t < 0:
                t = delta[s + c] = len(delta)
                delta.extend([-1] * width)
                out.extend([None] * width)
            s = t
        if out[s] is not None or max(delta[s : s + width]) >= 0:
            return None
        out[s] = rule
    order = [t for t in delta[:width] if t > 0]
    fail = dict.fromkeys(order, 0)
    for c in range(width):
        delta[c] = max(delta[c], 0)
    for s in order:  # breadth first, so fail[s] has its full row
        f = fail[s]
        if out[f] is not None:
            return None
        for c in range(width):
            t = delta[s + c]
            if t < 0:
                delta[s + c] = delta[f + c]
            else:
                fail[t] = delta[f + c]
                order.append(t)
    return delta, out


def initial_logged_system(p: Presentation) -> LoggedRewriteSystem:
    """The initial logged system: one rule per relator, logged by the
    relator itself, then one cancellation rule per signed letter (2|X|
    of them), with ids from 1 in that order."""
    al = p.alphabet
    pairs = [(mu(rho.word), (YTerm(rho, POS, GroupWord(al)),)) for rho in p.relators]
    pairs += [(MonoidWord(al, (c, flip(c))), ()) for c in al.letters()]
    empty = MonoidWord(al)
    rules = [LoggedRule(l, log, empty, i) for i, (l, log) in enumerate(pairs, 1)]
    return LoggedRewriteSystem(p, rules)


def logged_reduce(
    w: MonoidWord, sys: LoggedRewriteSystem, *, exclude: int = 0
) -> tuple[MonoidWord, YSequence]:
    """Reduce ``w`` to an irreducible word, recording the log.

    Deterministic: leftmost match, lowest rule id on ties.  The rule with
    id ``exclude`` is skipped, so the result is that of the system
    without it (interreduction tests a rule against the others this
    way); the default 0 skips none.  A reduction that makes more than
    ``REDUCE_MAX_STEPS`` rewrites, or whose word grows longer than
    ``REDUCE_MAX_WORD_LEN`` letters, raises ``BudgetError``.

    This builds the log, acting on every applied rule's log by the
    inverse prefix.  Callers that throw the log away use the log-free
    ``_reduce``, which makes the same rewrites in the same scan.
    """
    log: list = []
    nf = _reduce(w, sys, exclude=exclude, log=log)
    return nf, tuple(log)


def _reduce(
    w: MonoidWord,
    sys: LoggedRewriteSystem,
    exclude: int = 0,
    log: Optional[list] = None,
) -> MonoidWord:
    """The scan of ``logged_reduce``: the normal form of ``w``.  The log's
    terms are appended to ``log`` when it is a list; when it is None, the
    inverse prefix is not kept and no log is acted on.

    Only the search for the next match depends on the system.  When no
    lhs is a subword of another, at most one lhs ends at each position:
    two that end at one position are suffixes of one another.  So the
    first match to end is also the leftmost-starting one (a match that
    starts earlier and ends later would contain it), and it is the only
    match at its start (one that starts there too is a prefix of it or
    has it as a prefix).  The scan then reads the word left to right on
    the system's automaton, keeping ``states[j]``, the state after
    ``word[:j]``.  A rewrite at ``pos`` leaves ``word[:pos]`` alone, and
    no match ended inside it, so the stack is cut back to ``pos + 1``
    entries and reading resumes at ``pos``: the letters before ``pos``
    are not read again.  Skipping the output of the excluded rule and
    reading on is exact under the same condition: the matches of the
    other rules are those of the system without it, and the fail links,
    built over the whole lhs set, still find the next one to end.

    Otherwise the bucket scan tests each position with ``match_at``, and
    after a rewrite at ``pos`` resumes near ``pos``: no match started
    before ``pos``, and a match starting before ``pos - _maxlhs + 1``
    would lie inside the unchanged ``word[:pos]`` (``_maxlhs`` may count
    the excluded rule; a longer window only rescans more).  Both scans
    make the same rewrites as a full rescan would.

    The inverse prefix is kept at a cursor ``k``: ``inv`` is the free
    reduction of ``word[:k]`` with every letter flipped, so ``inv[::-1]``
    is ``(word[:k])^-1``, and ``undo[i]`` says what consuming ``word[i]``
    did (-1: pushed, else the letter it cancelled).  A rewrite at ``pos``
    leaves ``word[:pos]`` alone, so the state at ``k = pos`` stays valid
    and moving the cursor to the next hit costs the distance moved.
    """
    alphabet = w.alphabet
    word = w.letters
    maxlhs = sys._maxlhs
    match_at = sys.match_at
    dfa = sys.automaton()
    if dfa is not None:
        delta, out = dfa
        states = [0]
    inv: list[int] = []
    undo: list[int] = []
    k = 0
    steps = 0
    pos = 0
    while True:
        n = len(word)
        if dfa is None:
            rule = None
            while pos < n:
                rule = match_at(word, pos, exclude=exclude)
                if rule is not None:
                    break
                pos += 1
        else:
            del states[pos + 1 :]
            s = states[pos]
            for j in range(pos, n):
                s = delta[s + word[j]]
                states.append(s)
                rule = out[s]
                if rule is not None and rule.id != exclude:
                    pos = j + 1 - len(rule.lhs.letters)
                    break
            else:
                rule = None
        if rule is None:
            return _monoid_word(alphabet, word)
        steps += 1
        if steps > REDUCE_MAX_STEPS:
            raise BudgetError(
                f"reduction budget exceeded on {_monoid_word(alphabet, word)!r}"
            )
        if log is not None:
            while k < pos:
                c = word[k]
                if inv and inv[-1] == c:
                    undo.append(inv.pop())
                else:
                    inv.append(c ^ 1)
                    undo.append(-1)
                k += 1
            while k > pos:
                c = undo.pop()
                if c < 0:
                    inv.pop()
                else:
                    inv.append(c)
                k -= 1
            log.extend(act(rule.log, _group_word(alphabet, tuple(inv[::-1]))))
        rhs = rule.rhs.letters
        word = word[:pos] + rhs + word[pos + len(rule.lhs.letters) :]
        if len(word) > REDUCE_MAX_WORD_LEN:
            raise BudgetError(
                f"word length budget exceeded while reducing {w!r}"
            )
        if dfa is None:
            pos = max(pos - maxlhs + 1, 0)


def normal_form_fn(sys: LoggedRewriteSystem) -> Callable[[MonoidWord], MonoidWord]:
    """The normal form function of a complete system (no log is built)."""
    if not sys.complete:
        raise WordError("normal forms require a complete system")

    return lambda w: _reduce(w, sys)


# -- overlaps and critical pairs ---------------------------------------------


@dataclass(frozen=True)
class OverlapDescriptor:
    """An occurrence u*l*v = l'*v' of two left-hand sides in one word.

    ``rule_a`` owns l' (the primed rule), ``rule_b`` owns l.  Type 1 means
    l is a subword of l' (v' empty); type 2 means a proper suffix of l'
    equals a proper prefix of l (v empty).
    """

    rule_a: int
    rule_b: int
    kind: str  # "type1" or "type2"
    u: MonoidWord
    v: MonoidWord
    vprime: MonoidWord

    def word(self, sys: LoggedRewriteSystem) -> MonoidWord:
        lhs = _rule(sys, self.rule_b).lhs
        return self.u.concat(lhs).concat(self.v)


def _rule(sys: LoggedRewriteSystem, rule_id: int) -> LoggedRule:
    try:
        return sys._by_id[rule_id]
    except KeyError:
        raise WordError(f"no rule with id {rule_id}") from None


def find_overlaps(
    sys: LoggedRewriteSystem, frontier: Optional[set[int]] = None
) -> list[OverlapDescriptor]:
    """All type-1 and type-2 overlaps, each reported once (type-1 ones of
    a pair differ by position, type-2 ones by overlap length).

    Self-overlaps of a rule with itself are included (proper ones only:
    the trivial identical occurrence is skipped).  With ``frontier``, a
    set of rule ids, only the overlaps of ``rule_a`` or ``rule_b`` in
    ``frontier`` are listed.
    """
    alphabet = sys.presentation.alphabet
    empty = MonoidWord(alphabet)
    rules = sys.rules
    fresh = rules if frontier is None else [r for r in rules if r.id in frontier]
    out: list[OverlapDescriptor] = []
    for ra in rules:  # primed rule, owns l'
        for rb in rules if frontier is None or ra.id in frontier else fresh:
            la, lb = ra.lhs.letters, rb.lhs.letters
            # type 1: lb occurs inside la, other than a rule laid on itself
            if ra.id != rb.id and len(lb) <= len(la):
                for pos in range(len(la) - len(lb) + 1):
                    if la[pos : pos + len(lb)] == lb:
                        out.append(
                            OverlapDescriptor(
                                ra.id,
                                rb.id,
                                "type1",
                                MonoidWord(alphabet, la[:pos]),
                                MonoidWord(alphabet, la[pos + len(lb) :]),
                                empty,
                            )
                        )
            # type 2: proper suffix of la equals proper prefix of lb
            for k in range(1, min(len(la), len(lb))):
                if la[len(la) - k :] == lb[:k]:
                    out.append(
                        OverlapDescriptor(
                            ra.id,
                            rb.id,
                            "type2",
                            MonoidWord(alphabet, la[: len(la) - k]),
                            empty,
                            MonoidWord(alphabet, lb[k:]),
                        )
                    )
    return out


@dataclass(frozen=True)
class Resolved:
    identity: YSequence


@dataclass(frozen=True)
class NewPair:
    zprime: MonoidWord
    log: YSequence
    z: MonoidWord


def _descendants(
    o: OverlapDescriptor, sys: LoggedRewriteSystem
) -> tuple[MonoidWord, MonoidWord]:
    """The two descendants of the overlap word: ``u r v`` by ``rule_b``
    and ``r' v'`` by ``rule_a``."""
    ra, rb = _rule(sys, o.rule_a), _rule(sys, o.rule_b)
    return o.u.concat(rb.rhs).concat(o.v), ra.rhs.concat(o.vprime)


def _joins(o: OverlapDescriptor, sys: LoggedRewriteSystem) -> bool:
    """Whether the overlap resolves: both descendants have one normal
    form.  No log is built."""
    w, wprime = _descendants(o, sys)
    return _reduce(w, sys) == _reduce(wprime, sys)


def process_overlap(
    o: OverlapDescriptor, sys: LoggedRewriteSystem
) -> Union[Resolved, NewPair]:
    """Reduce both descendants of the overlap word and compare.

    Returns the connecting Y-sequence either as a harvested identity (the
    pair resolves) or as the certificate of the new critical-pair rule,
    satisfying ``z' = boundary(log) * z`` in F(X).
    """
    w, wprime = _descendants(o, sys)
    z, d = logged_reduce(w, sys)
    zp, dp = logged_reduce(wprime, sys)
    ra, rb = _rule(sys, o.rule_a), _rule(sys, o.rule_b)
    log = invert(dp) + invert(ra.log) + act(rb.log, inverse(mu_inverse(o.u))) + d
    if z == zp:
        return Resolved(identity=log)
    return NewPair(zprime=zp, log=log, z=z)


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
    the overlaps that resolved there; the list is built from them with
    ``process_overlap`` on its first read, and later reads return it.
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
            for sys, overlaps in self._harvest:
                for o in overlaps:
                    identity = process_overlap(o, sys).identity
                    if identity:
                        out.append(identity)
            self._identities, self._harvest = out, []
        return self._identities


def complete_presentation(
    p: Presentation, limits: Limits = Limits(), *, raw_logs: bool = False
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
    of two older rules was resolved in an earlier pass.  Every change
    builds a new system.  On success the final system is verified
    against every overlap and marked complete; otherwise ``stopped``
    says why not.

    A log is built only for a pair that makes a new rule, whose log is
    the rule's certificate; whether a pair resolves is decided by its
    two normal forms alone.
    """
    sys = initial_logged_system(p)
    report = CompletionReport(final_system=sys)
    next_id = len(sys.rules) + 1
    frontier: Optional[set[int]] = None  # None lists every overlap

    def pending_key(o: OverlapDescriptor) -> tuple:
        # overlaps of two logged (relator-derived) rules first, then the
        # ones involving free-cancellation rules; shorter words first.  A
        # type-2 word is longer than l', so the key is total without kind
        ra, rb = sys._by_id[o.rule_a], sys._by_id[o.rule_b]
        return (
            0 if ra.log and rb.log else 1,
            len(o.u) + len(rb.lhs) + len(o.v),
            o.rule_b,
            o.rule_a,
            len(o.u),
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
            if _joins(o, sys):
                joined.append(o)
                continue
            result = process_overlap(o, sys)
            cmp = p.order.compare(result.z, result.zprime)
            if cmp == LT:
                lhs, log, rhs = result.zprime, result.log, result.z
            elif cmp == GT:
                lhs, log, rhs = result.z, invert(result.log), result.zprime
            else:  # pragma: no cover - z != z' guaranteed by process_overlap
                raise AssertionError("unordered critical pair")
            if not raw_logs:
                log = peiffer_closure(log)
            new_rules.append(LoggedRule(lhs, log, rhs, id=next_id))
            next_id += 1
        report._harvest.append((sys, joined))
        sys = LoggedRewriteSystem(p, sys.rules + new_rules)
        report.rules_formed += len(new_rules)
        if len(sys.rules) > limits.max_rules:
            report.stopped = MAX_RULES
            break
        sys, removed = _interreduce(sys, raw_logs=raw_logs)
        report.rules_removed += removed
        if new_rules or removed:
            frontier = {r.id for r in new_rules}
            continue
        # certification pass: every overlap of the final system must resolve
        if all(_joins(o, sys) for o in find_overlaps(sys)):
            sys.complete = True
        else:  # pragma: no cover - the loop converged
            report.stopped = UNRESOLVED
        break
    report.final_system = sys
    return report


def _interreduce(
    sys: LoggedRewriteSystem, *, raw_logs: bool
) -> tuple[LoggedRewriteSystem, int]:
    """Remove joinable redundant rules and normalise right-hand sides;
    returns the last system built and the number of rules removed.

    Each rule is tested against the others by reducing with
    ``exclude=rule.id``; a removal or a new rhs builds a new system, and
    the scan starts again from its newest rule.
    """
    removed = 0
    while True:
        rules = sys.rules
        # scan newest rules first so that of two equivalent rules the
        # earlier derivation is the one kept
        for i in range(len(rules) - 1, -1, -1):
            rule = rules[i]
            z1 = _reduce(rule.lhs, sys, exclude=rule.id)
            if z1 != rule.lhs:
                if z1 != _reduce(rule.rhs, sys, exclude=rule.id):
                    continue  # unresolved pair; leave for the completion loop
                kept = []
                removed += 1
            else:
                z2, d2 = logged_reduce(rule.rhs, sys, exclude=rule.id)
                if z2 == rule.rhs:
                    continue
                log = rule.log + d2
                if not raw_logs:
                    log = peiffer_closure(log)
                kept = [replace(rule, log=log, rhs=z2)]
            sys = LoggedRewriteSystem(sys.presentation, rules[:i] + kept + rules[i + 1 :])
            break
        else:
            return sys, removed
