#!/usr/bin/env python3
"""Build the p-1 eigenvectors for an extremal eigenvalue and show the
glue steps: which pendant-to-pendant path got the cosine profile
at each step, and where the vectors are forced to vanish.

The example is a spider with three legs of length 2, which attains
multiplicity 2 at both roots of the modulus-5 cosine family.
"""

import numpy as np

from treespectra import (
    eigenbasis_extremal,
    from_edge_list,
    laplacian,
    numeric_rank,
    residual_norm,
)

tree = from_edge_list([(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)])
p = len(tree.pendants)
lap = laplacian(tree)
print(f"spider(2,2,2): {p} pendants, major at {tree.majors[0]}")
print("pendant distances are all 4, so 5 | d+1 and q = 2 is admissible\n")

for b in (0, 1):
    param, vectors, _, glue_steps = eigenbasis_extremal(tree, q=2, b=b)
    print(f"b = {b}: lambda = 2(1 - cos({param.ratio} pi)) = {param.value:.12f}")
    for step in glue_steps:
        u, w = step.pendant_pair
        print(f"  peel: path {u}..{w} through major {step.anchor}, "
              f"recurse into {list(step.component)}")
    for i, vector in enumerate(vectors, 1):
        res = residual_norm(lap, param.value, vector)
        entries = " ".join(f"{x:+.4f}" for x in vector)
        print(f"  v{i} = [{entries}]  residual {res:.2e}")
    rank = numeric_rank(vectors)
    print(f"  rank {rank} of {len(vectors)} vectors, "
          f"center entry magnitudes {[abs(float(x[0])) for x in vectors]}\n")

# the vectors vanish at the major; gluing any subtree there by zero
# extension would keep them eigenvectors, which is why the multiplicity
# argument survives attachment
stacked = np.array(eigenbasis_extremal(tree, q=2, b=0)[1])
print("all entries at the major vertex:", stacked[:, 0])
