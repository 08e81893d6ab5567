"""Shift operators between coupling levels, duality, and norm recursion.

The shift pair (G, Ghat) moves between couplings beta and beta+1 through a
Vandermonde quotient of Cherednik-difference products: G = X^-1 Y(-) and
Ghat = Y(+) X, with the global sign (-1)^(N(N-1)/2).  The convention is
fixed; the calibration check confirms it at the empty label and reports
it as metadata.  Duality across the two inner products and the norm
recursion both hold exactly.
"""

import random
from fractions import Fraction

from heckepoly.combinatorics import random_symmetric_polynomial, staircase
from heckepoly.families import construct, jack
from heckepoly.pairings import norm_formula, shift_constants
from heckepoly.parameters import hermite_spec, jack_spec, laguerre_spec
from heckepoly.shift import calibrate, duality_check, norm_recursion_check, shift_apply

# Calibration: the fixed convention, checked at the empty label.
for family, gamma in [("jack", None), ("hermite", None), ("laguerre", Fraction(1, 2))]:
    report = calibrate(family, 3, 1, gamma)
    print(f"{family:8s} N=3: assignment={report.assignment}, "
          f"global sign={report.global_sign}")

# Shift relations: G lowers the label by the staircase and raises beta.
spec = jack_spec(2, 1)
delta = staircase(2)
for lam in [(0, 0), (1, 0), (1, 1)]:
    source_label = tuple(p + d for p, d in zip(lam, delta))
    constant, shifted = shift_apply("G", jack(source_label, spec))
    c_val, ct_val = shift_constants(lam, 2, 1)
    print(f"G J_{source_label}^(1) = {constant} * J_{lam}^(2)   |c| = {c_val}")
    back_constant, back = shift_apply("G_hat", shifted)
    print(f"  Ghat returns to {back.label} at beta=1 with constant {back_constant}"
          f"   |c~| = {ct_val}")

# Duality: <G f, g> at level beta+1 equals <f, Ghat g> at level beta.
rng = random.Random(2024)
for family_spec in (
    jack_spec(2, 1),
    hermite_spec(2, 1),
    laguerre_spec(2, 0, Fraction(1, 2)),
):
    checks = all(
        duality_check(
            random_symmetric_polynomial(2, 3, rng),
            random_symmetric_polynomial(2, 3, rng),
            family_spec,
        )
        for _ in range(5)
    )
    print(f"duality for {family_spec.family}: {checks}")
    assert checks

# Norm recursion: the shift constants connect norms at adjacent couplings,
# and iterating it is exactly how the closed norm formulas arise.
for lam in [(0, 0), (1, 0), (1, 1)]:
    assert norm_recursion_check(lam, jack_spec(2, 1))
    assert norm_recursion_check(lam, hermite_spec(2, 1))
print("\nnorm recursion |F^(beta+1)|^2 = (c~/c) |F^(beta)|^2 holds exactly")

# And the closed forms it produces:
for beta in (1, 2):
    value = norm_formula((2, 1), jack_spec(2, beta), "product_form")
    hook = norm_formula((2, 1), jack_spec(2, beta), "hook_form")
    assert value == hook
    print(f"|J_(2,1)|^2 at beta={beta}: {value.render()}")
