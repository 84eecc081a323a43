import importlib.util
from pathlib import Path

import pytest

from logrewrite import (
    complete_presentation,
    identities_pipeline,
    parse_presentation,
)
from logrewrite import rewriting
from logrewrite.rewriting import (
    REDUCE_MAX_STEPS,
    BudgetError,
    LoggedRewriteSystem,
    LoggedRule,
)
from logrewrite.words import GroupWord, MonoidWord, free_multiply, inverse
from logrewrite.ysequences import YSequence, act, peiffer_closure

ROOT = Path(__file__).resolve().parent.parent


def load_checker():
    """``perfbench/check.py``, the independent certificate checker,
    loaded from its path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_check", ROOT / "perfbench" / "check.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


Q8_TEXT = """\
generators: a, b
order: shortlex
relators:
  r1 = a^4
  r2 = b^4
  r3 = a b a b^-1
  r4 = a^2 b^2
"""

ABELIAN_TEXT = """\
generators: x, y
order: shortlex
relators:
  r = x y x^-1 y^-1
"""

TREFOIL_TEXT = """\
generators: x, y
order: syllable
relators:
  r = x^3 y^-2
"""


@pytest.fixture(scope="session")
def q8():
    return parse_presentation(Q8_TEXT)


@pytest.fixture(scope="session")
def q8_report(q8):
    return complete_presentation(q8)


@pytest.fixture(scope="session")
def q8_system(q8_report):
    return q8_report.final_system


@pytest.fixture(scope="session")
def q8_pipeline(q8):
    return identities_pipeline(q8)


@pytest.fixture(scope="session")
def abelian():
    return parse_presentation(ABELIAN_TEXT)


@pytest.fixture(scope="session")
def abelian_system(abelian):
    return complete_presentation(abelian).final_system


@pytest.fixture(scope="session")
def trefoil():
    return parse_presentation(TREFOIL_TEXT)


@pytest.fixture(scope="session")
def trefoil_report(trefoil):
    return complete_presentation(trefoil)


@pytest.fixture(scope="session")
def trefoil_system(trefoil_report):
    return trefoil_report.final_system


def rescan_reduce(
    w, sys, max_steps=REDUCE_MAX_STEPS, rightmost=False, *, exclude=0, applied=None
):
    """Reference logged reduction: rescan the whole word after every
    rewrite and rebuild the inverse prefix from scratch.  Returns the
    normal form, the log and the number of rewrites.  ``rightmost`` scans
    from the right end instead, for the confluence checks: on a complete
    system both directions reach the same normal form.  The rule with id
    ``exclude`` is skipped, as ``rewriting._reduce`` skips the ids it is
    given, and the id of every rule applied is added to ``applied`` when
    it is a set.  It reads only ``sys.rules`` and matches on its own: at
    each position, the lowest-id rule whose lhs occurs there."""
    by_first = {}  # first letter -> (lhs, rule) in id order
    for rule in sorted(sys.rules, key=lambda r: r.id):
        if rule.id != exclude:
            lhs = rule.lhs.letters
            by_first.setdefault(lhs[0], []).append((lhs, rule))
    word = w.letters
    log_terms = []
    steps = 0
    while True:
        hit = None
        positions = range(len(word))
        if rightmost:
            positions = range(len(word) - 1, -1, -1)
        for pos in positions:
            for lhs, rule in by_first.get(word[pos], ()):
                if word[pos : pos + len(lhs)] == lhs:
                    hit = (pos, rule)
                    break
            if hit is not None:
                break
        if hit is None:
            return MonoidWord(w.alphabet, word), YSequence(log_terms), steps
        steps += 1
        if steps > max_steps:
            raise BudgetError(
                f"reduction budget exceeded on {brief(MonoidWord(w.alphabet, word))}"
            )
        pos, rule = hit
        if applied is not None:
            applied.add(rule.id)
        prefix = GroupWord(w.alphabet, word[:pos])
        log_terms.extend(act(rule.log, inverse(prefix)))
        word = word[:pos] + rule.rhs.letters + word[pos + len(rule.lhs.letters) :]


def conjugate(w, by):
    """Reference free-group helper: ``by^-1 w by``."""
    return free_multiply(free_multiply(inverse(by), w), by)


def power(w, n):
    """Reference free-group helper: ``w^n`` for any integer ``n``."""
    if n < 0:
        w, n = inverse(w), -n
    out = GroupWord(w.alphabet)
    for _ in range(n):
        out = free_multiply(out, w)
    return out


def brief(word):
    """A word as ``BudgetError`` messages show it: its repr, and past 40
    letters the repr of the first 40, ``…`` and the letter count."""
    if len(word.letters) <= 40:
        return repr(word)
    head = MonoidWord(word.alphabet, word.letters[:40])
    return f"{head!r}… ({len(word.letters)} letters)"


def restart_interreduce(sys):
    """Reference interreduction: test the rules newest first against the
    others, and after every removal or new rhs build a new system and
    start again from its newest rule.  Returns the last system and the
    number of rules removed, as ``rewriting._interreduce`` does."""
    removed = 0
    while True:
        rules = sys.rules
        for i in range(len(rules) - 1, -1, -1):
            rule = rules[i]
            z1 = rewriting._reduce(rule.lhs, sys, (rule.id,))
            if z1 != rule.lhs:
                if z1 != rewriting._reduce(rule.rhs, sys, (rule.id,)):
                    continue  # unresolved
                kept = []
                removed += 1
            else:
                d2 = []
                z2 = rewriting._reduce(rule.rhs, sys, (rule.id,), d2)
                if z2 == rule.rhs:
                    continue
                log = peiffer_closure(rule.log + tuple(d2))
                kept = [LoggedRule(rule.lhs, log, z2, rule.id)]
            rules = rules[:i] + kept + rules[i + 1 :]
            sys = LoggedRewriteSystem(sys.presentation, rules)
            break
        else:
            return sys, removed
