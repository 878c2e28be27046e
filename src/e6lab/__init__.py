"""Exact-arithmetic models and fine gradings of the real Lie algebra e6(-26).

Everything is computed over Q: structure constants, derivation algebras,
Killing forms and their Sylvester inertia, gradings by finitely generated
abelian groups, and the verification battery reproducing the numeric facts
about the four fine gradings of the -26 real form of e6.  The one complex
input, the symplectic frame of the sp8 model, is held as pairs of rational
matrices.
"""

__version__ = "0.1.0"
