"""The kept identities generate the module of identities, modulo p.

For a finite group G = <X | R>, a term (rho^e)^u of an identity maps to
e [u] rho in (Z/p)[G]^R.  Modulo Peiffer equivalence the identities are
pi_2 = ker d_2 (Brown & Huebschmann, "Identities among relations", 1982),
and the chain complex of the Cayley complex is exact, so over Z/p their
image is ker d_2, of dimension |G|(1 - |X| + |R|) - 1.  On every finite
group of ``tests/test_group_order.py`` the G-span of the records of
`identities --keep-all`, and of the kept ones alone, must reach it.  The
records lie in ker d_2, so the kept ones then span the discarded ones.

The G-span is spun (Parker, "The computer calculation of modular
characters", 1984): it is the least subspace that holds the records and
is closed under right multiplication by each generator x, as x^-1 is a
positive power of x in a finite group.  The spin runs to closure and
stops early only at the dimension + 1, so a record outside ker d_2
shows, as the corrupted records below do.  Group elements are found
only by walking `kone`'s rendered edge table, and words are parsed by
the independent checker ``perfbench/check.py``.
"""

import heapq
import itertools
import json

import pytest

from logrewrite import cli
from tests.conftest import load_checker
from tests.test_group_order import CORPUS, GROUPS, presentation_text

check = load_checker()

P = 2**61 - 1

# group -> |G|(1 - |X| + |R|) - 1
RANKS = {"q8": 23, "s4": 47, "s4_coxeter": 95, "z6xz6": 71, "a5": 119, "s5": 359}


def right_multiplications(edges, generators):
    """The vertices, the identity first, and for ``+ord(x)`` and ``-ord(x)``
    the permutation of vertex indices that right multiplication makes."""
    index = {(): 0}  # normal form -> vertex index
    steps = []
    for row in edges:
        source, gen = row["edge"][1:-1].rsplit(", ", 1)
        ends = [check.parse_monoid_render(w) for w in (source, row["target"])]
        steps.append((ord(gen), *(index.setdefault(w, len(index)) for w in ends)))
    moves = {s * ord(x): [None] * len(index) for x in generators for s in (1, -1)}
    for x, source, target in steps:
        moves[x][source] = target
        moves[-x][target] = source
    return list(index), moves


def walk(letters, start, moves):
    for x in letters:
        start = moves[x][start]
    return start


def spin(records, labels, moves, limit):
    """The dimension mod P of the records' G-span, or ``limit``.  A vector
    that enlarges the basis queues its images unreduced, which span what
    its row's would and stay sparse; the shortest queued vector goes first."""
    n, queue, order = len(labels), [], itertools.count()
    for record in records:
        v = {}
        for t in record["terms"]:
            u = walk(check.parse_group_render(t["conjugator"]), 0, moves)
            col = u * n + labels.index(t["relator"])
            v[col] = v.get(col, 0) + (1 if t["sign"] == "+" else -1)
        heapq.heappush(queue, (len(v), next(order), v))
    basis = {}  # greatest column -> row, scaled to 1 there
    while queue and len(basis) < limit:
        original = heapq.heappop(queue)[2]
        v = {c: a % P for c, a in original.items() if a % P}
        while v:
            c = max(v)
            row = basis.get(c)
            if row is None:
                scale = pow(v[c], -1, P)
                basis[c] = {k: a * scale % P for k, a in v.items()}
                for x in (x for x in moves if x > 0):
                    w = {moves[x][k // n] * n + k % n: a for k, a in original.items()}
                    heapq.heappush(queue, (len(w), next(order), w))
                break
            factor = v[c]
            for k, a in row.items():
                b = (v.get(k, 0) - factor * a) % P
                if b:
                    v[k] = b
                else:
                    v.pop(k, None)
    return len(basis)


def cli_module(name, capsys, tmp_path):
    """Group ``name``'s relator labels, moves, records and Euler rank."""
    generators, relators = {**GROUPS, **CORPUS}[name]
    labels = [f"r{i}" for i in range(1, len(relators) + 1)]
    path = tmp_path / f"{name}.pres"
    path.write_text(presentation_text(generators, relators), encoding="utf-8")
    out = []
    for argv in (["kone"], ["identities", "--keep-all"]):
        assert cli.main([*argv, str(path), "--format", "json"]) == 0
        out.append(json.loads(capsys.readouterr().out))
    vertices, moves = right_multiplications(out[0], generators)
    # each vertex's normal form spells it
    assert [walk(g, 0, moves) for g in vertices] == list(range(len(vertices)))
    euler = len(vertices) * (1 - len(generators) + len(relators)) - 1
    return labels, moves, out[1], euler


@pytest.mark.parametrize("name", sorted({**GROUPS, **CORPUS}))
def test_records_generate_the_module(name, capsys, tmp_path):
    labels, moves, records, euler = cli_module(name, capsys, tmp_path)
    assert euler == RANKS.get(name, euler)
    for subset in (records, [r for r in records if r["status"] == "kept"]):
        assert spin(subset, labels, moves, euler + 1) == euler


@pytest.mark.parametrize(
    "name, corruption", [("q8", "sign"), ("a5", "sign"), ("a5", "conjugators")]
)
def test_a_corrupted_record_leaves_ker_d2(name, corruption, capsys, tmp_path):
    """A kept record with a term's sign flipped, or inverted conjugators."""
    labels, moves, records, euler = cli_module(name, capsys, tmp_path)
    if corruption == "sign":
        records = [r for r in records if r["status"] == "kept"]
        term = records[0]["terms"][0]
        term["sign"] = "+" if term["sign"] == "-" else "-"
    else:
        for t in (t for r in records for t in r["terms"] if t["conjugator"] != "<id>"):
            u = reversed(t["conjugator"].split())
            t["conjugator"] = " ".join(x[0] if "^" in x else x + "^-1" for x in u)
    assert spin(records, labels, moves, euler + 1) == euler + 1
