"""Partitions, permutations, and the two triangularity orders, checked
against brute-force oracles."""

from fractions import Fraction

import pytest

from heckepoly.combinatorics import (
    all_permutations,
    bruhat_leq,
    composition_to_label,
    conjugate,
    dominance_leq,
    dominance_lt,
    extended_dominance_lt,
    is_min_coset_rep,
    label_to_composition,
    length,
    longest_element,
    monomial_symmetric,
    orbit,
    orbit_size,
    pad_partition,
    partitions_of,
    partitions_up_to,
    precedes,
    reduced_word,
    sign,
    stabilizer_order,
    to_monomial_basis,
)
from heckepoly.errors import AmbientSizeMismatch
from heckepoly.polynomials import Polynomial


# -- dominance ---------------------------------------------------------------


def dominance_oracle(mu, lam):
    """Brute-force prefix-sum comparison (independent re-statement)."""
    if sum(mu) != sum(lam):
        return False
    return all(sum(mu[:k]) <= sum(lam[:k]) for k in range(1, len(mu) + 1))


def test_dominance_examples():
    assert dominance_leq((1, 1), (2, 0))
    assert dominance_leq((2, 0), (2, 0))
    assert not dominance_leq((2, 0), (1, 1))
    assert not dominance_leq((1, 0), (2, 0))  # incomparable weights
    with pytest.raises(AmbientSizeMismatch, match="ambient size mismatch"):
        dominance_leq((1, 1), (2, 0, 0))


def test_dominance_matches_oracle_and_antisymmetry():
    parts = list(partitions_of(4, 3))
    for mu in parts:
        for lam in parts:
            assert dominance_leq(mu, lam) == dominance_oracle(mu, lam)
            if mu != lam and dominance_leq(mu, lam):
                assert not dominance_leq(lam, mu)


def test_dominance_partial_order_exhaustive():
    for n in (2, 3, 4):
        for weight in range(7):
            parts = list(partitions_of(weight, n))
            for a in parts:
                assert dominance_leq(a, a)
                for b in parts:
                    for c in parts:
                        if dominance_leq(a, b) and dominance_leq(b, c):
                            assert dominance_leq(a, c)


def test_dominance_functions_match_prefix_sum_oracles_across_weights():
    def below(mu, lam):  # every prefix sum of mu is at most that of lam
        return all(sum(mu[:k]) <= sum(lam[:k]) for k in range(1, len(mu) + 1))

    for n in (1, 2, 3, 4):
        parts = [lam for weight in range(6) for lam in partitions_of(weight, n)]
        for mu in parts:
            for lam in parts:
                same_weight = sum(mu) == sum(lam)
                assert extended_dominance_lt(mu, lam) == (below(mu, lam) and mu != lam)
                assert dominance_lt(mu, lam) == (
                    below(mu, lam) and same_weight and mu != lam
                )
                assert dominance_leq(mu, lam) == (below(mu, lam) and same_weight)


@pytest.mark.parametrize("function", [dominance_leq, dominance_lt, extended_dominance_lt])
def test_dominance_unequal_lengths_raise(function):
    for mu, lam in [((1, 1), (2, 0, 0)), ((1, 0), (2, 1, 0)), ((3,), (1, 1)), ((2, 0, 0), (1, 0))]:
        with pytest.raises(AmbientSizeMismatch, match="ambient size mismatch"):
            function(mu, lam)


def test_conjugate_involution():
    for weight in range(9):
        for lam in partitions_of(weight, weight if weight else 1):
            trimmed = tuple(p for p in lam if p)
            assert conjugate(conjugate(trimmed)) == trimmed


def test_extended_dominance():
    assert extended_dominance_lt((0, 0), (2, 0))
    assert extended_dominance_lt((1, 1), (2, 0))
    assert not extended_dominance_lt((2, 0), (2, 0))
    assert not extended_dominance_lt((3, 0), (2, 2))


# -- Bruhat ------------------------------------------------------------------


def swap_positions(w, i, j):
    """w s_ij: w with its one-line positions i and j exchanged."""
    v = list(w)
    v[i - 1], v[j - 1] = v[j - 1], v[i - 1]
    return tuple(v)


def bruhat_oracle(n):
    """Transitive closure of length-increasing transposition moves."""
    perms = list(all_permutations(n))
    reach = {w: {w} for w in perms}
    changed = True
    edges = {w: set() for w in perms}
    for w in perms:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                v = swap_positions(w, i, j)
                if length(v) > length(w):
                    edges[w].add(v)
    while changed:
        changed = False
        for w in perms:
            new = set()
            for v in reach[w]:
                new |= edges[v]
            if not new <= reach[w]:
                reach[w] |= new
                changed = True
    return {(u, w) for u in perms for w in reach[u]}


def test_bruhat_extremes():
    for n in (2, 3, 4):
        e = tuple(range(1, n + 1))
        w0 = longest_element(n)
        for w in all_permutations(n):
            assert bruhat_leq(e, w)
            assert bruhat_leq(w, w0)


def test_bruhat_matches_covering_oracle():
    for n in (3, 4):
        closure = bruhat_oracle(n)
        for u in all_permutations(n):
            for w in all_permutations(n):
                assert bruhat_leq(u, w) == ((u, w) in closure), (u, w)


def test_permutation_basics():
    w = (2, 3, 1)
    assert length(w) == 2 and sign(w) == 1
    word = reduced_word(w)
    assert len(word) == length(w)
    rebuilt = (1, 2, 3)
    for i in word:
        rebuilt = swap_positions(rebuilt, i, i + 1)
    assert rebuilt == w


def test_reduced_words_all_s4():
    for w in all_permutations(4):
        word = reduced_word(w)
        assert len(word) == length(w)
        rebuilt = (1, 2, 3, 4)
        for i in word:
            rebuilt = swap_positions(rebuilt, i, i + 1)
        assert rebuilt == w


# -- combined order on labels -------------------------------------------------


def test_precedes_examples():
    s1 = (2, 1)
    e = (1, 2)
    assert precedes(((1, 1), e), ((2, 0), e))
    assert precedes(((2, 0), e), ((2, 0), s1))
    assert not precedes(((2, 0), e), ((2, 0), e))


def test_precedes_strict_partial_order_degree3():
    from heckepoly.polynomials import monomials_of_degree

    labels = [composition_to_label(c) for c in monomials_of_degree(3, 3)]
    for a in labels:
        assert not precedes(a, a)
        for b in labels:
            for c in labels:
                if precedes(a, b) and precedes(b, c):
                    assert precedes(a, c)
            if precedes(a, b):
                assert not precedes(b, a)


def test_label_composition_round_trip():
    from heckepoly.polynomials import monomials_up_to_degree

    for comp in monomials_up_to_degree(3, 4):
        lam, w = composition_to_label(comp)
        assert label_to_composition(lam, w) == comp
        assert is_min_coset_rep(lam, w)
        assert tuple(sorted(comp, reverse=True)) == lam


def test_min_coset_rep_for_constants():
    lam, w = composition_to_label((0, 0, 0))
    assert w == (1, 2, 3)
    assert not is_min_coset_rep((1, 1), (2, 1))  # swap within an equal block


# -- symmetric helpers ---------------------------------------------------------


def test_monomial_symmetric_and_expansion():
    m = monomial_symmetric(3, (2, 1))
    assert len(m.terms) == 6
    expansion = to_monomial_basis(m + 3 * monomial_symmetric(3, (1, 1, 1)))
    assert expansion == {(2, 1, 0): 1, (1, 1, 1): 3}
    with pytest.raises(ValueError, match="not symmetric"):
        to_monomial_basis(Polynomial.variable(2, 1))


def test_to_monomial_basis_rejections():
    m = monomial_symmetric(3, (2, 1))
    with pytest.raises(ValueError, match="not symmetric: incomplete orbit"):
        to_monomial_basis(m - Polynomial.monomial((0, 1, 2)))
    with pytest.raises(ValueError, match="not symmetric: unequal coefficients"):
        to_monomial_basis(m + Polynomial.monomial((0, 1, 2)))
    with pytest.raises(ValueError, match="not symmetric: incomplete orbit"):
        to_monomial_basis(monomial_symmetric(3, (1, 1)) + Polynomial.monomial((3, 0, 0)))
    with pytest.raises(ValueError, match="non-Laurent"):
        to_monomial_basis(Polynomial.monomial((-1, -1)))
    with pytest.raises(ValueError, match="non-Laurent"):
        to_monomial_basis(Polynomial(2, {(1, -1): 1, (-1, 1): 1}))
    # values come back as Fraction, also for integer coefficients
    expansion = to_monomial_basis(Fraction(1, 2) * m + 3 * Polynomial.one(3))
    assert expansion == {(2, 1, 0): Fraction(1, 2), (0, 0, 0): 3}
    assert all(type(v) is Fraction for v in expansion.values())
    assert to_monomial_basis(Polynomial.zero(2)) == {}


def test_orbit_against_permutations():
    from itertools import permutations

    for n in range(1, 6):
        for lam in partitions_up_to(5, n):
            distinct = set(permutations(lam))
            assert orbit_size(lam) == len(distinct) == len(orbit(lam))
            assert set(orbit(lam)) == distinct and orbit(lam)[0] == lam
            assert set(monomial_symmetric(n, lam).terms) == distinct


def test_partition_helpers():
    assert pad_partition((2, 1), 4) == (2, 1, 0, 0)
    assert stabilizer_order((2, 2, 0)) == 2
    assert stabilizer_order((2, 2, 0, 0)) == 4
    assert list(partitions_up_to(2, 2)) == [(0, 0), (1, 0), (2, 0), (1, 1)]
    with pytest.raises(AmbientSizeMismatch):
        pad_partition((2, 1, 1), 2)
