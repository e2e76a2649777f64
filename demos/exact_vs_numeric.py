#!/usr/bin/env python3
"""The same multiplicity question answered three independent ways.

For the star on 6 vertices the eigenvalue 1 has multiplicity 4:
  1. rational elimination on L - I (no rounding anywhere): along the tree,
     as ``certify`` does, printed next to the dense fraction-free rank,
  2. dividing the minimal polynomial out of the characteristic polynomial,
  3. clustering the floating-point eigenvalues from LAPACK.
The acceptance suite does this for every tree up to order 12; here the
intermediate objects are printed so the routes are visible.
"""

from fractions import Fraction

from treespectra import (
    LambdaParam,
    char_poly,
    cluster_multiplicity,
    eigen_symmetric,
    from_edge_list,
    laplacian,
    minimal_poly_lambda,
    rational_nullity,
    root_multiplicity,
    tree_inertia,
)

tree = from_edge_list([(1, k) for k in range(2, 7)])
lap = laplacian(tree)
print("L(K_{1,5}) rows:")
for row in lap:
    print("  ", list(row))

# route 1: exact kernel dimension of L - 1*I
below, nullity = tree_inertia(tree, Fraction(1))
print(f"\nelimination of L - I along the tree: {nullity} zeros, {below} negative")
dense = rational_nullity(lap, Fraction(1))
print(f"dense fraction-free nullity of L - I: {dense}")

# route 2: polynomial arithmetic over the integers
param = LambdaParam(q=1, b=0)  # 2(1 - cos(pi/3)) = 1
phi = char_poly(lap)
mu = minimal_poly_lambda(param)
print(f"char poly coefficients (low first): {list(phi.coeffs)}")
print(f"minimal poly of the eigenvalue:     {list(mu.coeffs)}")
mult = root_multiplicity(phi, mu)
print(f"factor multiplicity: {mult}")

# route 3: floating point, LAPACK through numpy.linalg
spectrum = eigen_symmetric(lap)
print(f"\nLAPACK eigenvalues: {[round(x, 10) for x in spectrum.eigenvalues]}")
print(f"clusters (rep, size): {list(spectrum.clusters)}")
print(f"cluster size at 1.0: {cluster_multiplicity(spectrum, 1.0)}")

assert nullity == dense == mult == cluster_multiplicity(spectrum, 1.0) == 4
print("\nall three routes agree")
