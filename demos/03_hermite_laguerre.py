"""Multivariable Hermite and Laguerre polynomials via intertwiners.

The gauge-transformed ladder operators substitute for the coordinates:
applying a Jack polynomial in the creation operators to the constant 1
produces the corresponding Hermite (type A) or Laguerre (type B, squared
variables) polynomial.  The same polynomials fall out of straight Gram
orthogonalization against the exact moment pairings, so the two routes
cross-validate each other.
"""

from fractions import Fraction

from heckepoly import operators as ops
from heckepoly.combinatorics import partitions_up_to
from heckepoly.families import hermite, jack, laguerre, sigma_a, sigma_b
from heckepoly.pairings import gauss_pairing, laguerre_pairing, norm_formula
from heckepoly.parameters import hermite_spec, jack_spec, laguerre_spec
from heckepoly.polynomials import Polynomial

# One variable first: the ladder operator squared on the vacuum.
h1 = hermite_spec(1, 0)
up = ops.creation(1, h1)
print("A . 1      =", up(Polynomial.one(1)).pretty())
print("A^2 . 1    =", up(up(Polynomial.one(1))).pretty())
print("H_(2)      =", hermite((2,), h1).poly.pretty(), " (monic, weight e^{-x^2})")

# The Laguerre ladder: B^2/4 . 1 recovers u - (gamma + 1/2) in u = z^2.
l1 = laguerre_spec(1, 0, Fraction(1, 2))
print("L_(1)      =", laguerre((1,), l1).poly.pretty("u"))

# Two variables, coupling beta = 1: intertwined vs Gram construction.
h2 = hermite_spec(2, 1)
l2 = laguerre_spec(2, 1, Fraction(1, 3))
for lam in partitions_up_to(3, 2):
    jack_poly = jack(lam, jack_spec(2, 1)).poly
    assert sigma_a(jack_poly, h2) == hermite(lam, h2, "gram").poly
    assert sigma_b(jack_poly, l2) == laguerre(lam, l2, "gram").poly
print("\nsigma_A(J_lam) == Hermite gram and sigma_B(J_lam) == Laguerre gram",
      "for every |lam| <= 3")

# Lower terms mix degrees of the same parity:
h20 = hermite((2, 0), h2)
print("H_(2,0) =", h20.poly.pretty(), " -> degrees",
      sorted({sum(e) for e in h20.poly.terms}))

# Norms against the closed forms (pi and Gamma(gamma+1/2) are tracked
# symbolically, so the equality is decidable):
one = Polynomial.one(2)
print("\n<1,1> Hermite  =", gauss_pairing(one, one, h2).render())
print("<1,1> Laguerre =", laguerre_pairing(one, one, l2).render())
for lam in [(1, 0), (1, 1), (2, 0)]:
    hp = hermite(lam, h2).poly
    lv = laguerre(lam, l2).poly
    assert gauss_pairing(hp, hp, h2) == norm_formula(lam, h2, "hook_form")
    assert laguerre_pairing(lv, lv, l2) == norm_formula(lam, l2, "hook_form")
    print(f"  |H_{lam}|^2 = {norm_formula(lam, h2).render():<24}"
          f" |L_{lam}|^2 = {norm_formula(lam, l2).render()}")

print("\nintertwiner images equal Gram constructions; norms match closed forms")
