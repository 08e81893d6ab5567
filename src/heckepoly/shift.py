"""Shift operators between coupling levels beta and beta+1.

With X the Vandermonde factor and C_j the image of the Cherednik
operators at level beta in the family's ``families.Realization``, the two
products

    Y(+) = prod_{i<j} (+beta - C_i + C_j)
    Y(-) = prod_{i<j} (-beta - C_i + C_j)

map symmetric polynomials to antisymmetric ones (Y(-)) and antisymmetric
ones to symmetric ones (Y(+)), so the shift operators are

    G    = X^{-1} Y(-)   : level beta     -> level beta+1
    Ghat = Y(+) X        : level beta+1   -> level beta

and the shift relations carry the global sign (-1)^(N(N-1)/2):

    G    F^{(beta)}_{lam+delta} = sign * c_lam       * F^{(beta+1)}_lam
    Ghat F^{(beta+1)}_lam       = sign * c_tilde_lam * F^{(beta)}_{lam+delta}

(constants from shift_constants; delta the staircase; see also Baker and
Forrester, Comm. Math. Phys. 188 (1997) 175-216).  This convention is
fixed, not searched for: ``shift_apply`` checks the relation it applies,
and ``calibrate`` applies both operators with it at the empty label.  The
duality statement and the norm recursion do not depend on the sign; for
Jack, whose pairing is graded, duality is checked degree by degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import operators as ops
from .caches import memo
from .combinatorics import (
    monomial_symmetric,
    pad_partition,
    partitions_up_to,
    staircase,
)
from .errors import CalibrationError, NotDivisibleError, NotProportionalError
from .families import FamilyPolynomial, construct, realization
from .pairings import _pairing_by_degree, shift_constants
from .parameters import FamilySpec, JACK
from .polynomials import Polynomial, divide_exact, vandermonde


@dataclass(frozen=True)
class CalibrationReport:
    """The fixed shift convention, checked at the empty label."""

    family: str
    global_sign: int
    witness_n: int
    # Y(-) feeds G: "swapped" relative to the naive reading of the notation
    assignment = "swapped"

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "assignment": self.assignment,
            "global_sign": self.global_sign,
            "witness_N": self.witness_n,
        }


def global_sign(n: int) -> int:
    """(-1)^(N(N-1)/2), the sign of both shift relations."""
    return (-1) ** (n * (n - 1) // 2)


@memo
def _y_product(spec: FamilySpec, sign: int) -> ops.Operator:
    """prod_{i<j} (sign*beta - C_i + C_j) in the family realization, built
    once per (spec, sign).

    Acts on x-polynomials (Jack/Hermite) or z-polynomials (Laguerre, where
    C_j = h_j/2 realizes the level-beta Cherednik operator)."""
    n, beta = spec.n, spec.beta
    real = realization(spec)
    chers = [real.cherednik(j) for j in range(1, n + 1)]
    total = ops.identity(n)
    for i, j in itertools.combinations(range(n), 2):
        factor = ops.scalar(n, sign * beta) - chers[i] + chers[j]
        total = factor * total
    return total


def _apply_y(f: Polynomial, spec: FamilySpec, sign: int) -> Polynomial:
    return realization(spec).apply(_y_product(spec, sign), f)


def apply_g(f: Polynomial, spec: FamilySpec) -> Polynomial:
    """G f = X^{-1} Y(-) f, from level beta (spec) to level beta+1."""
    image = _apply_y(f, spec, -1)
    if not image:
        return image
    return divide_exact(image, vandermonde(spec.n))


def apply_ghat(f: Polynomial, spec: FamilySpec) -> Polynomial:
    """Ghat f = Y(+) (X f), from level beta+1 to level beta (spec)."""
    return _apply_y(vandermonde(spec.n) * f, spec, 1)


@memo
def calibrate(family: str, n: int, beta: int, gamma=None) -> CalibrationReport:
    """Check both shift relations, with the global sign, at the empty
    label: ``shift_apply`` of G to F^{(beta)}_delta and of Ghat to
    F^{(beta+1)}_0."""
    spec = FamilySpec(family, n, beta, gamma)
    sign = global_sign(n)
    try:
        shift_apply("G", construct(staircase(n), spec))
        shift_apply("G_hat", construct((0,) * n, spec.with_beta(beta + 1)))
    except (NotProportionalError, NotDivisibleError) as exc:
        raise CalibrationError(
            f"shift relations with sign {sign} fail for {family} at N={n}, beta={beta}"
        ) from exc
    return CalibrationReport(family, sign, n)


def shift_apply(direction: str, family_poly: FamilyPolynomial):
    """Apply a shift operator and check its relation.

    direction "G": input is the level-beta polynomial at label lam+delta;
    returns (signed constant, level-(beta+1) polynomial at lam).
    direction "G_hat": input is the level-(beta+1) polynomial at lam;
    returns (signed constant, level-beta polynomial at lam+delta).
    """
    spec = family_poly.spec
    n = spec.n
    delta = staircase(n)
    lam = pad_partition(family_poly.label, n)
    if direction == "G":
        lowered = tuple(p - d for p, d in zip(lam, delta))
        if any(p < 0 for p in lowered) or any(
            a < b for a, b in zip(lowered, lowered[1:])
        ):
            raise ValueError(f"label {lam} is not of the form lam+delta")
        image = apply_g(family_poly.poly, spec)
        target = construct(lowered, spec.with_beta(spec.beta + 1))
        magnitude = shift_constants(lowered, n, spec.beta)[0]
    elif direction == "G_hat":
        if spec.beta < 1:
            raise ValueError("G_hat lowers the level; needs beta >= 1")
        base_spec = spec.with_beta(spec.beta - 1)
        image = apply_ghat(family_poly.poly, base_spec)
        raised = tuple(p + d for p, d in zip(lam, delta))
        target = construct(raised, base_spec)
        magnitude = shift_constants(lam, n, base_spec.beta)[1]
    else:
        raise ValueError(f"unknown shift direction {direction!r}")
    constant = global_sign(n) * magnitude
    if image != constant * target.poly:
        raise NotProportionalError(
            f"not proportional: shift {direction} at {lam}, {spec}"
        )
    return constant, target


def duality_check(f: Polynomial, g: Polynomial, spec: FamilySpec) -> bool:
    """<G f, g> at level beta+1 equals <f, Ghat g> at level beta, exactly.

    f and g must be symmetric (u-variable symmetric for Laguerre).  Where
    the pairing is graded (Jack), G lowers the degree by |delta| and Ghat
    raises it, so the check holds degree by degree: <(G f)_e, g_e> equals
    <f_{e+|delta|}, (Ghat g)_{e+|delta|}> for every e.  Compared one
    degree at a time, parts that cancel in the sums cannot hide a defect."""
    upper = spec.with_beta(spec.beta + 1)
    if realization(spec).graded:
        shift = 2 * sum(staircase(spec.n))  # in the pair degree |a| + |b| = 2e
        lhs = _pairing_by_degree(apply_g(f, spec), g, upper)
        rhs = _pairing_by_degree(f, apply_ghat(g, spec), spec)
        return {d + shift: value for d, value in lhs.items()} == rhs
    lhs = realization(upper).pair(apply_g(f, spec), g)
    rhs = realization(spec).pair(f, apply_ghat(g, spec))
    return lhs == rhs


def antisymmetrizer_lemma_check(
    spec: FamilySpec, degree: int, form: str = "rho"
) -> bool:
    """Annihilation identities behind the duality proofs.

    form "rho":       P_- (Y(+) - Y(-)) f = 0 for all symmetric f,
                      in the family realization of the Cherednik operators;
    form "primitive": the coordinate model, with the deformed signed
                      symmetrizer and multiplication operators
                      prod_{i<j} (+-beta - x_i + x_j).
    """
    n, beta = spec.n, spec.beta
    if form == "rho":
        minus = ops.symmetrizer(n, "minus")
        for lam in partitions_up_to(degree, n):
            f = monomial_symmetric(n, lam)
            diff = _apply_y(f, spec, 1) - _apply_y(f, spec, -1)
            if minus(diff):
                return False
        return True
    if form != "primitive":
        raise ValueError(f"unknown antisymmetrizer check form {form!r}")
    if spec.family != JACK:
        raise ValueError("the primitive form lives in the coordinate model")
    deformed_minus = ops.symmetrizer(n, "minus_deformed", beta)
    y_plus = _coordinate_y(n, beta)
    y_minus = _coordinate_y(n, -beta)
    for lam in partitions_up_to(degree, n):
        f = monomial_symmetric(n, lam)
        if deformed_minus((y_plus - y_minus) * f):
            return False
    return True


def _coordinate_y(n: int, signed_beta: int) -> Polynomial:
    total = Polynomial.one(n)
    for i, j in itertools.combinations(range(1, n + 1), 2):
        total = total * (
            Polynomial.constant(n, signed_beta)
            - Polynomial.variable(n, i)
            + Polynomial.variable(n, j)
        )
    return total


def norm_recursion_check(lam, spec: FamilySpec) -> bool:
    """<F^{(beta+1)}_lam, same> == (c_tilde/c) <F^{(beta)}_{lam+delta}, same>;
    the signs of the shift relations cancel in the ratio."""
    n = spec.n
    lam = pad_partition(lam, n)
    delta = staircase(n)
    raised = tuple(p + d for p, d in zip(lam, delta))
    c_val, ct_val = shift_constants(lam, n, spec.beta)
    upper = spec.with_beta(spec.beta + 1)
    f_up = construct(lam, upper)
    f_low = construct(raised, spec)
    lhs = realization(upper).pair(f_up.poly, f_up.poly)
    rhs = realization(spec).pair(f_low.poly, f_low.poly)
    return lhs.q * c_val == rhs.q * ct_val
