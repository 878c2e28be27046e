"""Hermitian 3x3 Jordan algebras over the octonions.

Run:  python demos/02_jordan_algebras.py
"""

from e6lab.algcore import derivations, inertia
from e6lab.gradings import type_vector, verify
from e6lab.jordan import h3, j0_basis, jordan_gradings, m3r, nu_diagonal

j = h3("O", (1, 1, 1))
print(f"The Albert algebra H3(O, I): dim {j.dim}, t_J(E1) = {j.t_j(j.e_vec(0))}")
print(f"dim Der = {len(derivations(j.alg))}   (the compact f4)")

js = h3("O", (1, -1, 1))
print(f"\nH3(O, diag(1,-1,1)): dim {js.dim}, dim Der = {len(derivations(js.alg))}")

m = m3r()
basis = j0_basis(m)
gram = [[3 * m.t_j(m.mult(x, y)) for y in basis] for x in basis]
print(f"\nMat3(R)+: dim {m.dim}, dim Der = {len(derivations(m.alg))}, "
      f"traceform signature on the traceless part = {inertia(gram).signature}")

print("\nGradings of H3(O, diag(1,-1,1)):")
for name, g in jordan_gradings(js).items():
    print(f"  {name:5s} type {type_vector(g)} valid={verify(g).valid}")
zg = jordan_gradings(js)["z"]
print("  the Z grading has component dimensions",
      [zg.dimension_of((k,)) for k in range(-2, 3)])

fix = nu_diagonal().count(1)
print(f"\nThe quaternionic involution nu of the Albert algebra: dim fix = {fix}"
      f" (15 = H3(H, I)); the other eigenspace has dimension {27 - fix}")
