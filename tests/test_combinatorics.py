"""Partitions, permutations, and the two triangularity orders, checked
against brute-force oracles."""

import itertools
from fractions import Fraction

import pytest

from heckepoly.combinatorics import (
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
)
from heckepoly import cache_info, clear_caches
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
    perms = list(itertools.permutations(range(1, n + 1)))
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
        for w in itertools.permutations(range(1, n + 1)):
            assert bruhat_leq(e, w)
            assert bruhat_leq(w, w0)


def test_bruhat_matches_covering_oracle():
    for n in (3, 4):
        closure = bruhat_oracle(n)
        for u in itertools.permutations(range(1, n + 1)):
            for w in itertools.permutations(range(1, n + 1)):
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
    for w in itertools.permutations(range(1, 5)):
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
    expansion = (m + 3 * monomial_symmetric(3, (1, 1, 1)))._orbit_form()
    assert expansion == {(2, 1, 0): 1, (1, 1, 1): 3}
    with pytest.raises(ValueError, match="not symmetric"):
        Polynomial.variable(2, 1)._orbit_form()


def test_orbit_form_rejections():
    m = monomial_symmetric(3, (2, 1))
    with pytest.raises(ValueError, match="not symmetric: incomplete orbit"):
        (m - Polynomial.monomial((0, 1, 2)))._orbit_form()
    with pytest.raises(ValueError, match="not symmetric: unequal coefficients"):
        (m + Polynomial.monomial((0, 1, 2)))._orbit_form()
    with pytest.raises(ValueError, match="not symmetric: incomplete orbit"):
        (monomial_symmetric(3, (1, 1)) + Polynomial.monomial((3, 0, 0)))._orbit_form()
    # a Laurent input has no orbit form to read: it cannot be built
    with pytest.raises(ValueError, match=r"^negative exponent in \(-1, -1\)$"):
        Polynomial.monomial((-1, -1))
    with pytest.raises(ValueError, match=r"^negative exponent in \(1, -1\)$"):
        Polynomial(2, {(1, -1): 1, (-1, 1): 1})
    # values come back canonical: an integer coefficient as an int
    expansion = (Fraction(1, 2) * m + 3 * Polynomial.one(3))._orbit_form()
    assert expansion == {(2, 1, 0): Fraction(1, 2), (0, 0, 0): 3}
    assert {lam: type(v) for lam, v in expansion.items()} == {(2, 1, 0): Fraction, (0, 0, 0): int}
    assert Polynomial.zero(2)._orbit_form() == {}


def _orbit_reading(read, p):
    """read(p) as values, or the message of the ValueError it raises."""
    try:
        return {lam: Fraction(c) for lam, c in read(p).items()}
    except ValueError as exc:
        return str(exc)


def test_orbit_form_cache_reads_like_orbit_coefficients():
    """_orbit_form reads the polynomial's kept orbit form: on
    symmetric and non-symmetric inputs it gives the values and the
    ValueError messages of _orbit_coefficients, on every call; a Laurent
    input is refused where it is built."""
    import random

    from heckepoly.combinatorics import _orbit_coefficients, random_symmetric_polynomial

    def direct(p):
        return _orbit_coefficients(p.terms)

    rng = random.Random(11)
    inputs = []
    for n in (2, 3, 4):
        sym = Fraction(rng.randint(1, 5), rng.randint(1, 4)) * random_symmetric_polynomial(n, 3, rng)
        bump = Polynomial.monomial((1,) + (0,) * (n - 1))
        inputs += [sym, sym + bump, sym - bump * 2, Polynomial.zero(n)]
        for exps in ((-2,) * n, (-1,) + (1,) * (n - 1)):
            with pytest.raises(ValueError, match="^negative exponent in"):
                Polynomial.monomial(exps)
    kinds = set()
    for p in inputs:
        expected = _orbit_reading(direct, p)
        kinds.add(type(expected) is str and expected.split(":")[0])
        for _ in range(2):
            assert _orbit_reading(Polynomial._orbit_form, p) == expected
    assert kinds == {False, "not symmetric"}


def test_orbit_form_cache_is_per_polynomial():
    """p, 2 p and p + q each read their own orbit form, whichever is read
    first, and the slot cannot be set from outside."""
    p = monomial_symmetric(3, (2, 1)) + Fraction(1, 2) * monomial_symmetric(3, (1,))
    q = monomial_symmetric(3, (1, 1, 1)) - monomial_symmetric(3, (2, 1))
    for first in ("p", "derived"):
        p = p + 0  # a fresh polynomial with nothing read
        if first == "p":
            assert p._orbit_form() == {(2, 1, 0): 1, (1, 0, 0): Fraction(1, 2)}
        twice, total = 2 * p, p + q
        assert twice._orbit_form() == {(2, 1, 0): 2, (1, 0, 0): 1}
        assert total._orbit_form() == {(1, 1, 1): 1, (1, 0, 0): Fraction(1, 2)}
        assert p._orbit_form() == {(2, 1, 0): 1, (1, 0, 0): Fraction(1, 2)}
        forms = [r._orbit_form() for r in (p, twice, total, q)]
        assert len({id(form) for form in forms}) == 4
    with pytest.raises(AttributeError, match="Polynomial is immutable"):
        p._orbits = {(2, 1, 0): 5}
    assert p._orbit_form() == {(2, 1, 0): 1, (1, 0, 0): Fraction(1, 2)}


def test_orbit_against_permutations():
    from itertools import permutations

    for n in range(1, 6):
        for lam in partitions_up_to(5, n):
            distinct = set(permutations(lam))
            assert orbit_size(lam) == len(distinct) == len(orbit(lam))
            assert set(orbit(lam)) == distinct and orbit(lam)[0] == lam
            assert set(monomial_symmetric(n, lam).terms) == distinct


def test_orbit_is_in_first_appearance_order_among_the_permutations():
    """orbit walks the distinct permutations in the order itertools meets
    them, decreasing lexicographic for a partition, without building all
    N! of them: the 870-member orbit of (2, 1) at N = 30 is immediate."""
    for n in range(1, 7):
        for lam in partitions_up_to(6, n):
            assert orbit(lam) == tuple(dict.fromkeys(itertools.permutations(lam)))
    wide = (2, 1) + (0,) * 28
    assert orbit_size(wide) == 30 * 29 == len(set(orbit(wide)))
    assert orbit(wide)[0] == wide and orbit(wide)[-1] == wide[::-1]


def test_partition_helpers():
    assert pad_partition((2, 1), 4) == (2, 1, 0, 0)
    assert stabilizer_order((2, 2, 0)) == 2
    assert stabilizer_order((2, 2, 0, 0)) == 4
    assert list(partitions_up_to(2, 2)) == [(0, 0), (1, 0), (2, 0), (1, 1)]
    with pytest.raises(AmbientSizeMismatch):
        pad_partition((2, 1, 1), 2)


@pytest.mark.parametrize("parts", [(1.0,), (True,), (2.5,), (2, 1.0)], ids=repr)
def test_pad_partition_refuses_a_part_that_is_not_an_int(parts):
    """A float or bool part compares and hashes as an int, so it is refused
    before anything is stored: an int label padded after it stays ints."""
    clear_caches()
    with pytest.raises(ValueError, match="not an int"):
        pad_partition(parts, 2)
    assert cache_info()["combinatorics.pad_partition"] == 0
    padded = pad_partition(tuple(int(p) for p in parts), 2)
    assert all(type(p) is int for p in padded)
    with pytest.raises(ValueError, match="not an int"):  # also with the int label stored
        pad_partition(parts, 2)
    clear_caches()


def test_pad_partition_validates_once_and_raises_every_time():
    """A valid label is validated once per (tuple(parts), N) and stored in
    a registered cache; an invalid one is never stored, so it raises on
    every call, also after a valid call of the same parts."""
    clear_caches()
    assert pad_partition([2, 1], 3) == (2, 1, 0)  # a list works
    assert pad_partition((2, 1), 3) is pad_partition([2, 1], 3)
    assert pad_partition((2, 1, 0, 0), 2) == (2, 1)
    assert cache_info()["combinatorics.pad_partition"] == 2
    for _ in range(3):
        with pytest.raises(ValueError, match="not weakly decreasing and non-negative"):
            pad_partition([1, 2], 3)
        with pytest.raises(ValueError, match="not weakly decreasing and non-negative"):
            pad_partition((2, -1), 3)
        with pytest.raises(AmbientSizeMismatch, match="has more than 1 parts"):
            pad_partition([2, 1], 1)
    assert cache_info()["combinatorics.pad_partition"] == 2
    clear_caches()
    assert cache_info()["combinatorics.pad_partition"] == 0
    with pytest.raises(AmbientSizeMismatch):
        pad_partition((2, 1, 1), 2)
    assert pad_partition((2, 1, 1), 3) == (2, 1, 1)
