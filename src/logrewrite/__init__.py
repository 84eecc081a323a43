"""Logged string rewriting for group presentations.

Completion of a group presentation into a logged rewrite system, where
every rule carries a Y-sequence witnessing how it follows from the
relators; Cayley graphs over the complete system; and generating sets
for the module of identities among the relations.

The top level holds the entry points the CLI, the demos and the README
use, and the exception types; everything else is imported from its
module (``logrewrite.words``, ``logrewrite.rewriting``, ...).
"""

from .words import WordError, parse_group, parse_monoid, render_monoid
from .ysequences import render_ysequence, simplify
from .presentation import ParseError, parse_presentation
from .rewriting import (
    BudgetError,
    CompletionStopped,
    complete_presentation,
    find_overlaps,
    logged_reduce,
)
from .identities import (
    InfiniteGroupError,
    identities_pipeline,
    identity_for,
    k1_for,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CompletionStopped",
    "InfiniteGroupError",
    "ParseError",
    "WordError",
    "complete_presentation",
    "find_overlaps",
    "identities_pipeline",
    "identity_for",
    "k1_for",
    "logged_reduce",
    "parse_group",
    "parse_monoid",
    "parse_presentation",
    "render_monoid",
    "render_ysequence",
    "simplify",
    "__version__",
]
