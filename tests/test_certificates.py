"""The golden CLI outputs, re-checked by the independent checker.

``perfbench/check.py`` reads the rendered text the CLI prints and does its
own free-group arithmetic on tuples of integers, sharing no code path with
``logrewrite``.  Here it checks every certificate in the JSON golden files
under ``tests/golden/``: the rule logs of ``complete``, the ``k1`` value of
every Cayley edge of ``kone``, every identity record of ``identities
--keep-all`` and the answer of each ``reduce``.  The relators are read from
``demos/*.pres`` by the checker's own parser.
"""

import json

import pytest

from tests.conftest import ROOT, load_checker

GOLDEN = ROOT / "tests" / "golden"
GROUPS = ("q8", "trefoil", "abelian")

check = load_checker()


def relators(group: str) -> dict:
    """The relators of ``demos/<group>.pres``, label to reduced tuple."""
    text = (ROOT / "demos" / f"{group}.pres").read_text(encoding="utf-8")
    body = text.split("relators:", 1)[1]
    out = {}
    for line in body.splitlines():
        label, eq, word = line.split("#", 1)[0].partition("=")
        if eq:
            out[label.strip()] = check.parse_relator(word)
    return out


def golden(name: str):
    return json.loads((GOLDEN / f"{name}-json.txt").read_text(encoding="utf-8"))


def lhs_set(group: str) -> set:
    return {
        check.parse_monoid_render(rule["lhs"])
        for rule in golden(f"complete-{group}")["rules"]
    }


def test_relators_read():
    assert relators("q8") == {
        "r1": (97,) * 4,
        "r2": (98,) * 4,
        "r3": (97, 98, 97, -98),
        "r4": (97, 97, 98, 98),
    }
    assert relators("trefoil") == {"r": (120,) * 3 + (-121,) * 2}


@pytest.mark.parametrize("group", GROUPS)
def test_complete_rules(group):
    rels = relators(group)
    rules = golden(f"complete-{group}")["rules"]
    assert rules
    for rule in rules:
        check.check_rule(rule["lhs"], rule["rhs"], rule["log"], rels)


def test_kone_edges():
    rels = relators("q8")
    edges = golden("kone-q8")
    assert len(edges) == 16  # 8 vertices, 2 generators
    for edge in edges:
        source, gen = edge["edge"].strip("[]").split(", ")
        check.check_edge(source, gen, edge["target"], edge["k1"], rels)


def test_identity_records():
    rels = relators("q8")
    records = golden("identities-keep-all-q8")
    assert len(records) == 32
    for record in records:
        check.check_identity(record["sequence"], rels)


@pytest.mark.parametrize("group", GROUPS)
def test_reduce_answer(group):
    answer = golden(f"reduce-{group}")
    word = check.parse_monoid_render(answer["input"])
    check.check_answer(
        word, answer["normal_form"], answer["log"], relators(group), lhs_set(group)
    )


def test_q8_has_eight_normal_forms():
    assert check.count_irreducible(lhs_set("q8"), ("a", "b"), 100) == 8


def test_the_checker_refuses_a_broken_certificate():
    rels = relators("q8")
    rule = golden("complete-q8")["rules"][-1]
    assert rule["log"] != "<idY>"
    with pytest.raises(check.CheckError):
        check.check_rule(rule["lhs"], rule["rhs"], "<idY>", rels)
    answer = golden("reduce-q8")
    with pytest.raises(check.CheckError):
        check.check_answer(
            check.parse_monoid_render(answer["input"]),
            "bb",  # not the normal form, and reducible
            answer["log"],
            rels,
            lhs_set("q8"),
        )
    with pytest.raises(check.CheckError):
        check.check_identity("(r1^+)", rels)
