import pytest

from logrewrite import (
    complete_presentation,
    identities_pipeline,
    parse_presentation,
)
from logrewrite.rewriting import REDUCE_MAX_STEPS, BudgetError
from logrewrite.words import GroupWord, MonoidWord, inverse
from logrewrite.ysequences import YSequence, act

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


def rescan_reduce(w, sys, max_steps=REDUCE_MAX_STEPS, rightmost=False, *, exclude=0):
    """Reference logged reduction: rescan the whole word after every
    rewrite and rebuild the inverse prefix from scratch.  Returns the
    normal form, the log and the number of rewrites.  ``rightmost`` scans
    from the right end instead, for the confluence checks: on a complete
    system both directions reach the same normal form.  The rule with id
    ``exclude`` is skipped, as in ``logged_reduce``."""
    word = w.letters
    log_terms = []
    steps = 0
    while True:
        hit = None
        positions = range(len(word))
        if rightmost:
            positions = range(len(word) - 1, -1, -1)
        for pos in positions:
            rule = sys.match_at(word, pos, exclude=exclude)
            if rule is not None:
                hit = (pos, rule)
                break
        if hit is None:
            return MonoidWord(w.alphabet, word), YSequence(log_terms), steps
        steps += 1
        if steps > max_steps:
            raise BudgetError(
                f"reduction budget exceeded on {MonoidWord(w.alphabet, word)!r}"
            )
        pos, rule = hit
        prefix = GroupWord(w.alphabet, word[:pos])
        log_terms.extend(act(rule.log, inverse(prefix)))
        word = word[:pos] + rule.rhs.letters + word[pos + len(rule.lhs) :]
