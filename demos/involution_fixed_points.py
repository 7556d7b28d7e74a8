"""Fixed points of an antiunitary involution carve out the bipartite closure.

Take the a14 family on the complete graph over l+m qubits, and the involution
built from Y letters on the first l sites and X letters on the remaining m.
The strings of the closure that survive the involution form a subalgebra, and
that subalgebra is exactly the closure of the same family on the complete
bipartite graph K_{l,m}.  A closed-form dimension count agrees whenever some
block has at least 3 sites.
"""

from dlagraph import complete_graph, cross_check, lie_closure, place_on_graph

print(f"{'(l,m)':>6} {'whole':>6} {'fixed':>6} {'block':>6} {'formula':>8}  verdict")
for l, m in [(1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (2, 4)]:
    whole = lie_closure(place_on_graph("a14", complete_graph(l + m)))
    check = cross_check("a14", l, m, whole)
    formula = check.formula_dim
    verdict = "fixed == block"
    if check.in_hypothesis:
        verdict += ", formula " + ("exact" if check.passed else "LOOSE")
    else:
        verdict += f", formula {formula} informational"
    assert check.tight
    print(f"({l},{m})".rjust(6),
          f"{whole.dimension:>6} {check.fixed.dimension:>6} {check.block.dimension:>6} "
          f"{formula:>8}  {verdict}")

print("\nreading the table: restricting the interaction graph from complete to")
print("complete bipartite costs exactly the non-fixed directions, nothing more.")
