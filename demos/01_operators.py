"""Dunkl and Cherednik operators, step by step.

A Dunkl operator is a derivative plus exchange-weighted divided
differences; a Cherednik operator is its "global" variant x_j D_j plus
transposition corrections.  Everything here is exact rational arithmetic:
an identity either holds on the nose or it does not.
"""

from fractions import Fraction

from heckepoly import operators as ops
from heckepoly.parameters import jack_spec, laguerre_spec
from heckepoly.polynomials import Polynomial

# Work with two variables and coupling beta = 1.
spec = jack_spec(2, 1)
x1 = Polynomial.variable(2, 1)
x2 = Polynomial.variable(2, 2)

# The divided difference (1 - s_12)/(x_1 - x_2) telescopes exactly:
dd = ops.divided_diff_minus(2, 1, 2)
print("divided difference of x_1^3:", dd(x1**3).pretty())
# -> x_1^2 + x_1 x_2 + x_2^2, the classic geometric sum

# The Dunkl operator D_1 = d_1 + beta * (1 - s_12)/(x_1 - x_2); its type
# (A here) comes from the spec, which has no gamma:
d1 = ops.dunkl(1, spec)
print("D_1 x_1 =", d1(x1).pretty(), "(derivative 1 plus exchange weight 1)")

# Cherednik operators commute; check [Dhat_1, Dhat_2] = 0 on every
# monomial of degree <= 5.
c1 = ops.cherednik(1, spec)
c2 = ops.cherednik(2, spec)
commutes = ops.first_difference(ops.commutator(c1, c2), ops.scalar(2, 0), 5) is None
print("[Dhat_1, Dhat_2] = 0 up to degree 5:", commutes)

# One of the defining relations of the algebra they generate:
s1 = ops.exchange(2, 1, 2)
relation = ops.first_difference(c2 * s1 - s1 * c1, ops.scalar(2, 1), 5) is None
print("Dhat_2 s_1 - s_1 Dhat_1 = beta:", relation)

# The B-type operators act on z with reflections z_j -> -z_j.  The
# reflection-divided term kills even powers and doubles odd ones:
lag = laguerre_spec(1, 0, Fraction(1, 2))
sd = ops.sign_divided(1, 1)
z = Polynomial.variable(1, 1)
print("(1 - t)/z applied to z^3:", sd(z**3).pretty())
print("(1 - t)/z applied to z^2:", sd(z**2).pretty())

# The B-type Cherednik operator preserves the even subring: applying it
# to z_1^2 z_2^2 yields only even exponents.  The same constructor gives
# it, typed B by the Laguerre spec's gamma:
lag2 = laguerre_spec(2, 1, Fraction(1, 3))
cb = ops.cherednik(1, lag2)
image = cb(Polynomial.monomial((2, 2)))
print("Dhat^B_1 (z_1^2 z_2^2) has only even exponents:",
      all(e % 2 == 0 for exps in image.terms for e in exps))

assert commutes and relation
print("\nall operator identities verified exactly")
