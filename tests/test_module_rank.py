"""The kept identities generate the module of identities, modulo p.

For a finite group G = <X | R>, a term (rho^e)^u of an identity maps to
e [u] rho in (Z/p)[G]^R, [u] the element of G that u spells.  Modulo
Peiffer equivalence the identities are pi_2 = ker d_2 (Brown &
Huebschmann, "Identities among relations", 1982), and the cellular chain
complex of the Cayley complex is exact, so over Z/p the image of pi_2 is
ker d_2, of dimension |G|(1 - |X| + |R|) - 1.  A set of identities that
generates pi_2 as a G-module has G-translates that span it; this checks
that the records of `identities --keep-all`, and the kept records alone,
do.  Since every record is an identity, their span lies in ker d_2, so
reaching the dimension also puts every discarded record in the span of
the kept ones.

The test reads the CLI's JSON output, finds group elements only by
walking the rendered edge table of `kone`, and parses words with the
independent checker ``perfbench/check.py``: it shares no code with the
library's own group arithmetic.
"""

import json

import pytest

from logrewrite import cli
from tests.conftest import load_checker
from tests.test_group_order import GROUPS

check = load_checker()

P = 2**61 - 1

# group -> |G|(1 - |X| + |R|) - 1
RANKS = {"q8": 23, "s4": 47, "s4_coxeter": 95, "z6xz6": 71, "a5": 119}


def run_cli(capsys, *argv):
    assert cli.main([*argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def right_multiplications(edges, generators):
    """The vertices, the identity first, and for each signed letter
    ``+ord(x)`` / ``-ord(x)`` the permutation of vertex indices that
    right multiplication by it makes, read off the edge table."""
    vertices = [check.parse_monoid_render("<id>")]
    index = {vertices[0]: 0}
    steps = []
    for row in edges:
        source, gen = row["edge"][1:-1].rsplit(", ", 1)
        ends = [check.parse_monoid_render(w) for w in (source, row["target"])]
        for w in ends:
            if w not in index:
                index[w] = len(vertices)
                vertices.append(w)
        steps.append((ord(gen), index[ends[0]], index[ends[1]]))
    moves = {s * ord(x): [None] * len(vertices) for x in generators for s in (1, -1)}
    for x, source, target in steps:
        moves[x][source] = target
        moves[-x][target] = source
    return vertices, moves


def walk(letters, start, moves):
    for x in letters:
        start = moves[x][start]
    return start


def rank(vectors):
    """The rank mod P of sparse vectors (column -> coefficient), by
    elimination on each vector's least column."""
    basis = {}
    for v in vectors:
        v = {c: a % P for c, a in v.items() if a % P}
        while v:
            c = min(v)
            row = basis.get(c)
            if row is None:
                scale = pow(v[c], -1, P)
                basis[c] = {k: a * scale % P for k, a in v.items()}
                break
            factor = v[c]
            for k, a in row.items():
                b = (v.get(k, 0) - factor * a) % P
                if b:
                    v[k] = b
                else:
                    v.pop(k, None)
    return len(basis)


def translates(records, labels, vertices, moves):
    """The vectors of every record's G-translates: the term (rho^e)^u of
    the record moved by g goes to e [u g] rho."""
    terms = [
        [
            (
                1 if t["sign"] == "+" else -1,
                walk(check.parse_group_render(t["conjugator"]), 0, moves),
                labels.index(t["relator"]),
            )
            for t in record["terms"]
        ]
        for record in records
    ]
    out = []
    for g in vertices:
        for record in terms:
            v = {}
            for e, u, rho in record:
                col = walk(g, u, moves) * len(labels) + rho
                v[col] = v.get(col, 0) + e
            out.append(v)
    return out


@pytest.mark.parametrize("name", sorted(RANKS))
def test_records_generate_the_module(name, capsys, tmp_path):
    generators, relators = GROUPS[name]
    labels = [f"r{i}" for i in range(1, len(relators) + 1)]
    path = tmp_path / f"{name}.pres"
    path.write_text(
        f"generators: {', '.join(generators)}\norder: shortlex\nrelators:\n"
        + "".join(f"  {r} = {w}\n" for r, w in zip(labels, relators)),
        encoding="utf-8",
    )
    edges = run_cli(capsys, "kone", str(path))
    vertices, moves = right_multiplications(edges, generators)
    # each vertex's normal form spells it
    assert [walk(g, 0, moves) for g in vertices] == list(range(len(vertices)))
    records = run_cli(capsys, "identities", str(path), "--keep-all")
    euler = len(vertices) * (1 - len(generators) + len(relators)) - 1
    assert euler == RANKS[name]
    kept = [r for r in records if r["status"] == "kept"]
    assert rank(translates(records, labels, vertices, moves)) == euler
    assert rank(translates(kept, labels, vertices, moves)) == euler
