#!/usr/bin/env python3
"""Walk one tree through the full classification pipeline, printing each
verdict as it lands: pendant congruences, the extremal eigenvalue set,
and what happens at eigenvalue 1."""

from treespectra import admissible_q, certify, extremal_lambda_set, from_edge_list

# a spider with legs 1, 1, 4: three pendants, one major vertex
tree = from_edge_list([(1, 2), (1, 3), (1, 4), (4, 5), (5, 6), (6, 7)])

print(f"tree on {tree.n} vertices, edges {list(tree.edges)}")
print(f"pendants {list(tree.pendants)}, majors {list(tree.majors)}")

print("\npendant pair distances:")
for i, u in enumerate(tree.pendants):
    row = tree.bfs(u)[0]
    for w in tree.pendants[i + 1:]:
        d = row[w]
        print(f"  d({u},{w}) = {d}, d+1 = {d + 1}")

cert = admissible_q(tree)
print(f"\ngcd of d+1 over pairs: {cert.g}")
print(f"admissible odd moduli: {list(cert.admissible_moduli)} -> q values {list(cert.q_list)}")

params = extremal_lambda_set(tree)
p = len(tree.pendants)
print(f"\neigenvalues reaching multiplicity p-1 = {p - 1}:")
for prm in params:
    print(f"  lambda = 2(1 - cos({prm.ratio} pi)) = {prm.value:.12f}")

# certify runs every route once: the exact and numeric multiplicity of each
# extremal eigenvalue, and the combinatorial class against the exact and
# numeric m(T,1)
checked = certify(tree)
spectrum = checked.spectrum
for row in checked.lambda_rows:
    print(f"\nratio {row.param.ratio}:")
    print(f"  exact multiplicity   {row.exact}")
    near = [x for x in spectrum.eigenvalues if abs(x - row.param.value) < 1e-8]
    print(f"  numeric eigenvalues  {[f'{x:.12f}' for x in near]}")

print(
    f"\nat eigenvalue 1: multiplicity {checked.m1_exact} "
    f"(class {checked.report.m1_class})"
)
print("full spectrum:", ", ".join(f"{x:.6f}" for x in spectrum.eigenvalues))
