"""Kirillov-Noumi raising operators and the Rodrigues-type constructions.

The degree-raising operator with m factors is the ordered sum

    R_m = sum_{k_1 < ... < k_m}  V_{k_1} ... V_{k_m}
          (C_{k_1} + beta(2-k_1)) (C_{k_2} + beta(3-k_2)) ... (C_{k_m} + beta(m-k_m+1))

where (V_j, C_j) are the images of (multiplication by x_j, Cherednik
operator) in the family's ``families.Realization``.  The operator is
written once against them.  Its action adds one box to each of the
first m rows of the label:

    R_m F_lam = const * F_{lam + (1^m)},
    const = prod_{j=1..m} (lam_j + beta(m-j+1)).

The identity requires lam to have at most m nonzero parts; outside that
domain the image acquires dominance-lower companions (exact witness:
R_1 on the label (2,1) at N=2, beta=1 gives 3*F_(3,1) + F_(2,2)).

Iterating the chain from the empty partition and dividing by the hook-type
product prod_{cells (i,j)} (lam_i - j + beta(lam'_j - i + 1)) recovers the
monic family polynomial (Rodrigues route); every chain step satisfies the
length hypothesis because columns grow left to right.  Needs beta >= 1 so
no hook factor vanishes.  ``raising_apply`` and the chain read R_m through
the stored m_nu coefficients of R_m m_mu (``Realization.orbit_image``):
the one compares their sum with the constant times the target's, each
step of the other is that sum as a polynomial.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import operators as ops
from .caches import memo
from .combinatorics import (
    add_to_first_parts,
    conjugate,
    pad_partition,
    partition_cells,
)
from .errors import NotProportionalError, RodriguesSingularError
from .families import FamilyPolynomial, construct, equals_multiple, realization, _symmetric
from .parameters import FamilySpec
from .polynomials import Polynomial


@memo
def raising_operator(m: int, spec: FamilySpec) -> ops.Operator:
    """The m-factor raising operator in its family realization, built once
    per (m, spec), on the family's own variables (u = z^2 for Laguerre)."""
    if not 1 <= m <= spec.n:
        raise ValueError(f"raising index {m} out of range 1..{spec.n}")
    n, beta = spec.n, spec.beta
    real = realization(spec)
    total = ops.scalar(n, 0)
    for subset in itertools.combinations(range(1, n + 1), m):
        term = ops.identity(n)
        for i, k in enumerate(subset, start=1):
            term = term * (real.cherednik(k) + ops.scalar(n, beta * (i + 1 - k)))
        for k in reversed(subset):
            term = real.coordinate(k) * term
        total = total + term
    return total


def raising_constant(lam, m: int, spec: FamilySpec) -> Fraction:
    """prod_{j=1..m} (lam_j + beta(m-j+1)), for all three realizations.

    The ladder rescaling cancels exactly: the Hermite variable factor A_j/2
    is the image of multiplication by x_j under the rational intertwiner
    convention, so no residual power of 2 survives.
    """
    lam, beta = pad_partition(lam, spec.n), spec.beta
    return Fraction(math.prod(lam[j - 1] + beta * (m - j + 1) for j in range(1, m + 1)))


def raising_apply(m: int, family_poly: FamilyPolynomial):
    """Apply the raising operator; returns (constant, raised FamilyPolynomial)
    after verifying exact proportionality.

    Requires 1 <= m <= N and every nonzero part of the label to sit in the
    first m rows."""
    spec = family_poly.spec
    op = raising_operator(m, spec)  # checks m first
    lam = pad_partition(family_poly.label, spec.n)
    if any(p > 0 for p in lam[m:]):
        raise ValueError(
            f"raising with m={m} needs a label with at most {m} nonzero parts, got {lam}"
        )
    image = realization(spec).orbit_image(op, family_poly.poly)
    constant = raising_constant(lam, m, spec)
    target = construct(add_to_first_parts(lam, m), spec)
    if not equals_multiple(image, constant, target.poly):
        raise NotProportionalError(
            f"not proportional: raising {lam} by (1^{m}) at {spec}"
        )
    return constant, target


def hook_product(lam, beta: int) -> Fraction:
    """prod over diagram cells (i, j) of (lam_i - j + beta (lam'_j - i + 1))."""
    lam_conj = conjugate(lam)
    return Fraction(math.prod(
        lam[i - 1] - j + beta * (lam_conj[j - 1] - i + 1) for i, j in partition_cells(lam)
    ))


def rodrigues(lam, spec: FamilySpec) -> FamilyPolynomial:
    """Rodrigues-type construction: raising chain applied to 1, scaled by
    the inverse hook product (the chain constant telescopes to exactly the
    hook product in every realization).  The same cached construction as
    ``construct(lam, spec, "rodrigues")``."""
    return _symmetric(lam, spec, "rodrigues")


def _rodrigues_chain(lam, spec: FamilySpec) -> Polynomial:
    """The Rodrigues polynomial of the padded label lam, unchecked."""
    n, beta = spec.n, spec.beta
    hooks = hook_product(lam, beta)
    if hooks == 0:
        raise RodriguesSingularError(
            f"Rodrigues prefactor singular for {lam} at beta={beta}"
        )
    real = realization(spec)
    current = Polynomial.one(n)
    for m in range(1, n + 1):
        op = raising_operator(m, spec)
        for _ in range(lam[m - 1] - (lam[m] if m < n else 0)):
            current = real.apply_symmetric(op, current)
    return current * (Fraction(1) / hooks)
