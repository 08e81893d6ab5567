"""Non-symmetric and symmetric Jack polynomials.

The commuting Cherednik operators are simultaneously diagonalized by a
triangular basis labeled by (partition, permutation) pairs.  The symmetric
Jack polynomials are constructed by two independent routes: a triangular
solve against the elementary symmetric combinations of the operators, and
a Rodrigues chain of raising operators.  Both routes agree exactly.
"""

from heckepoly import operators as ops
from heckepoly.combinatorics import partitions_up_to
from heckepoly.families import NonSymLabel, composition_spectrum, jack, nonsym_jack
from heckepoly.pairings import ct_pairing, norm_formula
from heckepoly.parameters import jack_spec

spec = jack_spec(2, 1)

# Non-symmetric family: the label ((1,0), identity) is the bare monomial
# x_1 with spectrum (1 + beta, 0); the swapped label needs a correction.
e_id = nonsym_jack(NonSymLabel((1, 0), (1, 2)), spec)
print("E_{(1,0),id} =", e_id.poly.pretty(), " spectrum", e_id.eigenvalues)
e_sw = nonsym_jack(NonSymLabel((1, 0), (2, 1)), spec)
print("E_{(1,0),s1} =", e_sw.poly.pretty(), " spectrum", e_sw.eigenvalues)

# The spectrum comes from a closed-form rank count on the exponent vector:
print("spectrum of x_2 + ... from the composition (0,1):",
      composition_spectrum((0, 1), beta=1))

# Symmetric family: two independent constructions of J_(2,0).
tri = jack((2, 0), spec, method="triangular")
rod = jack((2, 0), spec, method="rodrigues")
print("\nJ_(2,0) triangular =", tri.poly.pretty())
print("J_(2,0) rodrigues  =", rod.poly.pretty())
assert tri.poly == rod.poly

# Pairwise orthogonality under the constant-term pairing, plus the norm in
# both closed forms:
labels = list(partitions_up_to(3, 2))
polys = {lam: jack(lam, spec).poly for lam in labels}
off_diagonal = [
    ct_pairing(polys[a], polys[b], spec)
    for a in labels
    for b in labels
    if a != b
]
print("\nall off-diagonal pairings vanish:", set(off_diagonal) == {0})

for lam in labels:
    value = ct_pairing(polys[lam], polys[lam], spec)
    product = norm_formula(lam, spec, "product_form").q
    hook = norm_formula(lam, spec, "hook_form").q
    print(f"  <J_{lam}, J_{lam}> = {value}  (product {product}, hook {hook})")
    assert value == product == hook

print("\nconstructions, orthogonality, and norms all agree exactly")
