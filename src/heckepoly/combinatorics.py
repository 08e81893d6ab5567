"""Partitions, permutations, and the two orders that organize triangularity.

Partitions are plain tuples of weakly decreasing non-negative integers,
always padded with trailing zeros to the ambient length N.  Permutations
are tuples in one-line notation with 1-based images: w = (w(1), ..., w(N)).

The combined order on (partition, permutation) labels is dominance on the
partition with Bruhat on the permutation as tie-break; triangular solves
use any linear extension of it.

The S_N-orbit of an exponent vector (its distinct permutations) is cached
per vector.  A symmetric polynomial is read in the monomial basis m_lam in
one pass over its terms, counting each orbit's members against the
cached orbit size.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterator, Sequence

from .caches import memo, register
from .errors import AmbientSizeMismatch
from .polynomials import Polynomial, monomials_up_to_degree

Partition = tuple[int, ...]
Permutation = tuple[int, ...]


# ---------------------------------------------------------------------------
# partitions


def is_partition(parts: Sequence[int]) -> bool:
    return all(a >= b for a, b in zip(parts, parts[1:])) and all(
        p >= 0 for p in parts
    )


_PADDED: dict[tuple[tuple, int], Partition] = {}  # (tuple(parts), N) -> padded label
register("combinatorics.pad_partition", _PADDED.__len__, _PADDED.clear)


def pad_partition(parts: Sequence[int], nvars: int) -> Partition:
    """parts padded with zeros to length nvars, validated once per (parts,
    nvars); an invalid label, a part that is not an int included (a float or
    bool hashes as its int), is never stored, so it raises on every call."""
    parts = tuple(parts)
    padded = _PADDED.get((parts, nvars))
    if padded is not parts and not {int}.issuperset(map(type, parts)):  # its own output: ints
        raise ValueError(f"{parts} has a part that is not an int")
    if padded is None:
        if not is_partition(parts):
            raise ValueError(f"{parts} is not weakly decreasing and non-negative")
        if any(parts[nvars:]):
            raise AmbientSizeMismatch(
                f"ambient size mismatch: partition {parts} has more than {nvars} parts"
            )
        padded = _PADDED[parts, nvars] = parts[:nvars] + (0,) * (nvars - len(parts))
    return padded


def conjugate(parts: Sequence[int]) -> Partition:
    """Transpose of the Young diagram (trailing zeros dropped)."""
    return tuple(sum(1 for p in parts if p > col) for col in range(max(parts, default=0)))


def dominance_leq(mu: Sequence[int], lam: Sequence[int]) -> bool:
    """Dominance order: equal weight and every prefix sum of mu <= that of lam.

    Pairs of different weight are incomparable (returns False).
    """
    return dominance_lt(mu, lam) or tuple(mu) == tuple(lam)


def dominance_lt(mu: Sequence[int], lam: Sequence[int]) -> bool:
    return extended_dominance_lt(mu, lam) and sum(mu) == sum(lam)


def extended_dominance_lt(mu: Sequence[int], lam: Sequence[int]) -> bool:
    """Dominance across weights: prefix sums of mu <= those of lam, mu != lam.

    This is the order in which multivariable Hermite/Laguerre lower terms
    live; it allows |mu| < |lam|.
    """
    if len(mu) != len(lam):
        raise AmbientSizeMismatch("ambient size mismatch in dominance comparison")
    if tuple(mu) == tuple(lam):
        return False
    total_mu = total_lam = 0
    for a, b in zip(mu, lam):
        total_mu += a
        total_lam += b
        if total_mu > total_lam:
            return False
    return True


def partitions_of(weight: int, max_parts: int) -> Iterator[Partition]:
    """All partitions of the given weight with at most max_parts parts
    (padded to max_parts), in descending lexicographic order."""

    def gen(remaining: int, cap: int, slots: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield (0,) * slots
            return
        if slots == 0:
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first, slots - 1):
                yield (first,) + rest

    yield from gen(weight, weight, max_parts)


def partitions_up_to(max_weight: int, max_parts: int) -> Iterator[Partition]:
    for w in range(max_weight + 1):
        yield from partitions_of(w, max_parts)


def staircase(nvars: int) -> Partition:
    """The staircase (N-1, N-2, ..., 0)."""
    return tuple(range(nvars - 1, -1, -1))


def add_to_first_parts(lam: Sequence[int], m: int) -> Partition:
    """Add one box to each of the first m rows of the partition lam (a
    partition again; the input is not checked)."""
    return tuple(p + 1 if i < m else p for i, p in enumerate(lam))


def stabilizer_order(lam: Sequence[int]) -> int:
    """Order of the subgroup of S_N fixing the parts of lam."""
    total = 1
    for _, group in itertools.groupby(lam):
        total *= math.factorial(sum(1 for _ in group))
    return total


def partition_cells(lam: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Young-diagram cells (i, j), both 1-based, row by row."""
    for i, p in enumerate(lam, start=1):
        for j in range(1, p + 1):
            yield (i, j)


# ---------------------------------------------------------------------------
# permutations


def is_permutation(w: Sequence[int]) -> bool:
    return sorted(w) == list(range(1, len(w) + 1))


def length(w: Permutation) -> int:
    """Coxeter length = inversion count."""
    return sum(
        1
        for i in range(len(w))
        for j in range(i + 1, len(w))
        if w[i] > w[j]
    )


def sign(w: Permutation) -> int:
    return -1 if length(w) % 2 else 1


def longest_element(nvars: int) -> Permutation:
    return tuple(range(nvars, 0, -1))


def reduced_word(w: Permutation) -> tuple[int, ...]:
    """A reduced word (i_1, ..., i_l) with w = s_{i_1} ... s_{i_l}.

    Right-multiplying by s_i swaps one-line positions i, i+1; peeling
    descents reduces w to the identity in length(w) steps.
    """
    word: list[int] = []
    current = list(w)
    while True:
        for i in range(len(current) - 1):
            if current[i] > current[i + 1]:
                current[i], current[i + 1] = current[i + 1], current[i]
                word.append(i + 1)
                break
        else:
            break
    return tuple(reversed(word))


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Bruhat order via the sorted-prefix criterion:

    u <= w  iff  for every k, sort(u(1..k)) <= sort(w(1..k)) entrywise.
    """
    if len(u) != len(w):
        raise AmbientSizeMismatch("ambient size mismatch in Bruhat comparison")
    for k in range(1, len(u)):
        pu = sorted(u[:k])
        pw = sorted(w[:k])
        if any(a > b for a, b in zip(pu, pw)):
            return False
    return True


def bruhat_lt(u: Permutation, w: Permutation) -> bool:
    return u != w and bruhat_leq(u, w)


def permute_exponents(w: Permutation, exps: Sequence[int]) -> tuple[int, ...]:
    """Action of w on a monomial: x_i -> x_{w(i)}, so exponent of x_{w(i)}
    becomes the old exponent of x_i."""
    out = [0] * len(exps)
    for i, img in enumerate(w):
        out[img - 1] = exps[i]
    return tuple(out)


# ---------------------------------------------------------------------------
# (partition, permutation) labels for non-symmetric families


def precedes(
    pair_a: tuple[Sequence[int], Permutation],
    pair_b: tuple[Sequence[int], Permutation],
) -> bool:
    """Strict combined order: dominance on partitions, Bruhat tie-break."""
    mu, wa = pair_a
    lam, wb = pair_b
    if dominance_lt(mu, lam):
        return True
    if tuple(mu) == tuple(lam):
        return bruhat_lt(wa, wb)
    return False


def label_to_composition(lam: Sequence[int], w: Permutation) -> tuple[int, ...]:
    """Exponent vector of the labelled monomial: exponent of x_{w(i)} is lam_i."""
    if len(lam) != len(w):
        raise AmbientSizeMismatch("ambient size mismatch in label")
    return permute_exponents(w, lam)


def composition_to_label(comp: Sequence[int]) -> tuple[Partition, Permutation]:
    """Sorted partition plus the minimal-length coset representative w with
    label_to_composition(lam, w) == comp.

    Minimality: positions inside each block of equal parts are assigned in
    increasing order.
    """
    n = len(comp)
    lam = tuple(sorted(comp, reverse=True))
    # positions of each value, ascending; consumed in order per block
    positions: dict[int, list[int]] = {}
    for pos in range(n, 0, -1):
        positions.setdefault(comp[pos - 1], []).append(pos)
    w = [0] * n
    for i, part in enumerate(lam):
        w[i] = positions[part].pop()
    return lam, tuple(w)


def is_min_coset_rep(lam: Sequence[int], w: Permutation) -> bool:
    return composition_to_label(label_to_composition(lam, w))[1] == tuple(w)


# ---------------------------------------------------------------------------
# symmetric-polynomial helpers


@memo
def orbit(lam: Partition) -> tuple[tuple[int, ...], ...]:
    """The distinct permutations of the exponent vector lam (the S_N-orbit
    of x^lam) in decreasing lexicographic order, so a partition lam first.
    Each is the previous permutation of the one before: swap the last
    descent's head with the largest smaller entry after it and reverse
    the tail, one step per member, not N! steps."""
    a = sorted(lam, reverse=True)
    members = [tuple(a)]
    while True:
        i = len(a) - 2
        while i >= 0 and a[i] <= a[i + 1]:
            i -= 1
        if i < 0:
            return tuple(members)
        j = len(a) - 1
        while a[j] >= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])
        members.append(tuple(a))


def orbit_size(lam: Sequence[int]) -> int:
    """|O(lam)| = N!/#stab(lam)."""
    return len(orbit(tuple(lam)))


def monomial_symmetric(nvars: int, lam: Sequence[int]) -> Polynomial:
    """Monomial symmetric polynomial m_lam: sum of all distinct permutations
    of the exponent vector lam."""
    return from_orbit_form(nvars, {pad_partition(lam, nvars): 1})


def from_orbit_form(nvars: int, coeffs: dict) -> Polynomial:
    """sum_lam c_lam m_lam for padded partitions lam and nonzero stored
    coefficients c_lam; the polynomial keeps ``coeffs`` as its orbit form."""
    terms: dict = {}
    for lam, c in coeffs.items():
        terms.update(dict.fromkeys(orbit(lam), c))
    return Polynomial._trusted(nvars, terms, coeffs)


def _orbit_coefficients(terms: dict) -> dict[Partition, object]:
    """The m_lam coefficients, as stored, of the symmetric polynomial with
    these terms, read in one pass that also counts each orbit's members.
    Raises ValueError on Laurent or non-symmetric terms."""
    out: dict[Partition, object] = {}
    present: dict[Partition, int] = {}
    for exps, coeff in terms.items():
        lam = tuple(sorted(exps, reverse=True))
        seen = out.get(lam)
        if seen is None:
            if lam[-1] < 0:
                raise ValueError("monomial-basis expansion needs a non-Laurent input")
            out[lam] = coeff
            present[lam] = 1
        elif seen != coeff:
            raise ValueError("not symmetric: unequal coefficients on an orbit")
        else:
            present[lam] += 1
    for lam, count in present.items():
        if count != orbit_size(lam):
            raise ValueError("not symmetric: incomplete orbit")
    return out


def random_polynomial(
    nvars: int, max_degree: int, rng: random.Random, terms: int = 6
) -> Polynomial:
    """Seeded random polynomial with small integer coefficients."""
    monos = list(monomials_up_to_degree(nvars, max_degree))
    out: dict[tuple[int, ...], Fraction] = {}
    for _ in range(terms):
        exps = monos[rng.randrange(len(monos))]
        coeff = rng.randint(-3, 3)
        if coeff:
            out[exps] = out.get(exps, Fraction(0)) + coeff
    return Polynomial(nvars, {e: c for e, c in out.items() if c})


def random_symmetric_polynomial(
    nvars: int, max_weight: int, rng: random.Random
) -> Polynomial:
    """Seeded random symmetric polynomial: small integer combination of
    monomial symmetric functions."""
    coeffs = {lam: c for lam in partitions_up_to(max_weight, nvars) if (c := rng.randint(-2, 2))}
    return from_orbit_form(nvars, coeffs) if coeffs else Polynomial.one(nvars)
