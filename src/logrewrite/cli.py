"""Command-line front end.

::

    logrewrite complete FILE            print the complete logged system
    logrewrite reduce FILE WORD         logged normal form of a word
    logrewrite identities FILE          generators of the identity module
    logrewrite kone FILE                the k1 value on every Cayley edge

Output: ``--format text`` (the default) prints a table on stdout, header
first, and for ``complete`` and ``identities`` a ``#`` summary line on
stderr; ``--format json`` prints one JSON value on stdout and nothing on
stderr.  Each command returns its JSON value and its table as
zero-argument callables, so only the form asked for is rendered, and its
summary line or None; ``main`` alone prints them.  An error prints
``error: ...`` on stderr and exits 1; a usage error exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys as _sys

from . import __version__
from .identities import (
    VERTEX_CAP,
    InfiniteGroupError,
    build_cayley_graph,
    identities_pipeline,
    k1_word,
)
from .presentation import parse_presentation
from .rewriting import (
    BudgetError,
    CompletionStopped,
    Limits,
    complete_presentation,
    logged_reduce,
    require_complete,
)
from .words import WordError, mu, parse_group, render_monoid
from .ysequences import render_conjugator, render_ysequence, simplify


def _positive_int(text: str) -> int:
    """An argparse type: a limit, a positive integer in ASCII digits."""
    value = int(text) if re.fullmatch(r"[+-]?[0-9]+", text) else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logrewrite",
        description="Logged rewriting for group presentations.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="presentation file")
        p.add_argument(
            "--order",
            choices=("shortlex", "syllable"),
            help="override the ordering declared in the file",
        )
        p.add_argument(
            "--letter-order",
            help="override the letter order, least first, e.g. 'a+,a-,b+,b-'",
        )
        p.add_argument(
            "--format", choices=("text", "json"), default="text", dest="fmt"
        )
        p.add_argument("--max-rules", type=_positive_int, default=Limits.max_rules)
        p.add_argument(
            "--max-passes", type=_positive_int, default=Limits.max_passes
        )

    p_complete = sub.add_parser(
        "complete", help="complete the presentation into a logged system"
    )
    common(p_complete)

    p_reduce = sub.add_parser("reduce", help="logged normal form of a word")
    common(p_reduce)
    p_reduce.add_argument("word", help="group word, e.g. 'a b b a' or 'a^-2 b'")

    p_id = sub.add_parser(
        "identities", help="generators of the module of identities"
    )
    common(p_id)
    p_id.add_argument("--keep-all", action="store_true",
                      help="show discarded records with their statuses")
    p_id.add_argument("--vertex-cap", type=_positive_int, default=VERTEX_CAP)

    p_kone = sub.add_parser("kone", help="k1 on every edge of the Cayley graph")
    common(p_kone)
    p_kone.add_argument("--vertex-cap", type=_positive_int, default=VERTEX_CAP)
    return parser


def _limits(args: argparse.Namespace) -> Limits:
    return Limits(max_rules=args.max_rules, max_passes=args.max_passes)


def _load(args: argparse.Namespace):
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    return parse_presentation(
        text,
        order_override=args.order,
        letter_order_override=args.letter_order,
    )


def _table(rows: list[tuple[str, ...]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def _terms_json(seq) -> list[dict]:
    return [
        {
            "relator": t.relator.label,
            "sign": "+" if t.sign > 0 else "-",
            "conjugator": render_conjugator(t),
        }
        for t in seq
    ]


def _cmd_complete(args: argparse.Namespace):
    report = complete_presentation(_load(args), _limits(args))
    rules = require_complete(report).rules_by_id()
    return (
        lambda: {
            "rules": [
                {
                    "lhs": render_monoid(r.lhs),
                    "rhs": render_monoid(r.rhs),
                    "log": render_ysequence(r.log),
                    "log_terms": _terms_json(r.log),
                }
                for r in rules
            ],
            "rules_formed": report.rules_formed,
            "rules_removed": report.rules_removed,
            "passes": report.passes,
        },
        lambda: [("lhs", "rhs", "log")] + [
            (render_monoid(r.lhs), render_monoid(r.rhs), render_ysequence(r.log))
            for r in rules
        ],
        f"# {len(rules)} rules; {report.rules_formed} formed, "
        f"{report.rules_removed} removed, {report.passes} passes",
    )


def _cmd_reduce(args: argparse.Namespace):
    p = _load(args)
    system = require_complete(complete_presentation(p, _limits(args)))
    word = mu(parse_group(p.alphabet, args.word))
    nf, log = logged_reduce(word, system)
    log = simplify(log)
    return (
        lambda: {
            "input": render_monoid(word),
            "normal_form": render_monoid(nf),
            "log": render_ysequence(log),
            "log_terms": _terms_json(log),
        },
        lambda: [(f"I = {render_monoid(nf)}",), (f"L = {render_ysequence(log)}",)],
        None,
    )


def _cmd_kone(args: argparse.Namespace):
    system = require_complete(complete_presentation(_load(args), _limits(args)))
    graph = build_cayley_graph(system, args.vertex_cap)
    names = system.presentation.alphabet.names

    def rows() -> list[tuple[str, str, str, str]]:
        return [("edge", "target", "word", "k1")] + [
            (
                f"[{render_monoid(g)}, {names[gen]}]",
                render_monoid(e.target),
                render_monoid(k1_word(g, gen, e.target)),
                render_ysequence(e.k1),
            )
            for (g, gen), e in sorted(
                graph.edges.items(),
                key=lambda kv: (len(kv[0][0]), kv[0][0].letters, kv[0][1]),
            )
        ]

    def payload() -> list[dict]:
        header, *body = rows()
        return [dict(zip(header, row)) for row in body]

    return payload, rows, None


def _cmd_identities(args: argparse.Namespace):
    result = identities_pipeline(_load(args), _limits(args), args.vertex_cap)
    records = result.records if args.keep_all else result.kept
    return (
        lambda: [
            {
                "cycle": {"g": render_monoid(r.vertex), "rho": r.relator.label},
                "terms": _terms_json(r.sequence),
                "sequence": render_ysequence(r.sequence),
                "status": r.status,
            }
            for r in records
        ],
        lambda: [("cycle", "status", "identity")] + [
            (
                f"[{render_monoid(r.vertex)}, {r.relator.label}]",
                r.status,
                render_ysequence(r.sequence),
            )
            for r in records
        ],
        f"# {len(result.records)} records, {len(result.kept)} kept, "
        f"{result.too_long_for_primary} too long for the primary test",
    )


# each returns (payload, rows, summary), as the module docstring says
_COMMANDS = {
    "complete": _cmd_complete,
    "reduce": _cmd_reduce,
    "identities": _cmd_identities,
    "kone": _cmd_kone,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, rows, summary = _COMMANDS[args.command](args)
        if args.fmt == "json":
            print(json.dumps(payload(), indent=2))
        else:
            print(_table(rows()))
            if summary is not None:
                print(summary, file=_sys.stderr)
        _sys.stdout.flush()  # a closed pipe shows here, not at exit
        return 0
    except BrokenPipeError:
        # the reader went away: say nothing, and point stdout at devnull
        # so that the flush at exit does not fail again (the recipe of
        # the Python ``signal`` docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, _sys.stdout.fileno())
        os.close(devnull)
    except UnicodeDecodeError as exc:
        print(f"error: {args.file}: {exc}", file=_sys.stderr)
    except CompletionStopped as exc:
        print(
            f"error: {exc.summary}\n"
            "consider another ordering (--order/--letter-order) or higher limits",
            file=_sys.stderr,
        )
    except (OSError, WordError, BudgetError, InfiniteGroupError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
    return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
