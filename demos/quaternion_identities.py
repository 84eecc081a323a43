"""End-to-end tour on the order-8 quaternion group.

Completes the presentation < a, b ; a^4, b^4, abab^-1, a^2 b^2 > into a
logged rewrite system, builds its Cayley graph, and derives a generating
set for the module of identities among the relations.

Run with:  python3 demos/quaternion_identities.py
"""

from pathlib import Path

from logrewrite import (
    identities_pipeline,
    parse_presentation,
    render_monoid,
    render_ysequence,
)

presentation = parse_presentation(
    (Path(__file__).parent / "q8.pres").read_text()
)

result = identities_pipeline(presentation)
report = result.report
system = report.final_system

print("== complete logged rewrite system ==")
print(f"{report.rules_formed} rules formed, {report.rules_removed} removed, "
      f"{len(system.rules)} kept\n")
for rule in system.rules_by_id():
    print(f"  {render_monoid(rule.lhs):4s} -> {render_monoid(rule.rhs):5s}"
          f"  by  {render_ysequence(rule.log)}")

print("\n== Cayley graph ==")
print(f"{len(result.graph)} vertices: "
      + ", ".join(render_monoid(v) for v in result.graph.vertices))
print("\nedges with non-trivial k1:")
alphabet = presentation.alphabet
for (g, gen), edge in sorted(
    result.graph.edges.items(),
    key=lambda kv: (len(kv[0][0]), kv[0][0].letters, kv[0][1]),
):
    if edge.k1:
        print(f"  k1[{render_monoid(g)}, {alphabet.names[gen]}]"
              f" = {render_ysequence(edge.k1)}")

print("\n== identities among the relations ==")
print(f"{len(result.records)} relator cycles give {len(result.kept)} "
      "generators after discarding duplicates:\n")
for rec in result.records:
    tag = f"[{render_monoid(rec.vertex)}, {rec.relator.label}]"
    print(f"  {tag:10s} {rec.status:13s} {render_ysequence(rec.sequence)}")
