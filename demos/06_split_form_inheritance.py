"""The split form, its Z2^7 grading, and which real forms inherit it.

Run:  python demos/06_split_form_inheritance.py
"""

from collections import Counter

from e6lab import chevalley
from e6lab.algcore import fixed_subspace
from e6lab.gradings import type_vector, verify

cb = chevalley.e6_chevalley()
print(f"split e6 on the chain basis: dim {cb.lie.dim}, "
      f"{2 * len(cb.roots.positive)} roots, "
      f"signature {chevalley.split_signature(cb)}")

om = chevalley.omega(cb)
_, d = fixed_subspace(om)
print(f"omega (e_j -> -f_j): dim fix = {d}")

g = chevalley.gamma13(cb)
print(f"\nZ2^7 grading: type {type_vector(g)}, valid = {verify(g).valid}")

inh = chevalley.inheriting_signatures(cb)
print("\nenumerating the 128 conjugations sigma0 q over the order-2 torus:")
print(f"  dim fix(t) over t != id: {inh['fix_t_values']}")
print(f"  dim fix(omega t): always 36")
print(f"  signature multiset: {dict(Counter(inh['multiset']))}")
print(f"  inheriting set: {inh['signatures']}; -26 present: {inh['contains_minus_26']}")
