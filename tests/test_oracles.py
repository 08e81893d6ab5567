"""Independent oracles: every optimized or theorem-backed path is checked
against a brute-force or classical computation that shares no code with it."""

import itertools
import random
from fractions import Fraction

from heckepoly.combinatorics import (
    partitions_up_to,
    random_polynomial,
    sign,
    stabilizer_order,
    staircase,
)
from heckepoly.families import hermite, jack, laguerre
from heckepoly.pairings import (
    _vandermonde_power,
    ct_pairing,
    gauss_pairing,
    laguerre_pairing,
)
from heckepoly.parameters import hermite_spec, jack_spec, laguerre_spec
from heckepoly.polynomials import Polynomial, divide_exact, vandermonde


def _laurent_product(p, q):
    """The product of two Laurent polynomials held as {exponent: coefficient}."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def ct_pairing_bruteforce(f, g, spec):
    """Direct Laurent expansion of f(x) g(1/x) W(x) x^(-beta(N-1)), constant
    term, over plain exponent dicts: a Polynomial holds no negative exponent."""
    n, beta = spec.n, spec.beta
    unit = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    product = {(-beta * (n - 1),) * n: (-1) ** (beta * n * (n - 1) // 2)}
    for i, j in itertools.combinations(range(n), 2):
        for _ in range(2 * beta):
            product = _laurent_product(product, {unit[i]: 1, unit[j]: -1})
    product = _laurent_product(product, f.terms)
    product = _laurent_product(product, {tuple(-e for e in b): c for b, c in g.terms.items()})
    return Fraction(product.get((0,) * n, 0))


def gauss_moment(k):
    if k % 2:
        return Fraction(0)
    import math

    half = k // 2
    return Fraction(math.factorial(k), 4**half * math.factorial(half))


def gauss_pairing_bruteforce(f, g, spec):
    """Expand the full product, then integrate monomial by monomial."""
    total = Fraction(0)
    product = f * g * vandermonde(spec.n) ** (2 * spec.beta)
    for exps, coeff in product.terms.items():
        term = coeff
        for e in exps:
            term *= gauss_moment(e)
        total += term
    return total


def test_ct_pairing_against_bruteforce():
    rng = random.Random(101)
    for n, beta in [(2, 1), (2, 2), (3, 1)]:
        spec = jack_spec(n, beta)
        for _ in range(6):
            f = random_polynomial(n, 3, rng)
            g = random_polynomial(n, 3, rng)
            assert ct_pairing(f, g, spec) == ct_pairing_bruteforce(f, g, spec)


# (N, beta) grid of the moment-pairing oracles: the larger weights
# V^2 at N = 4 and V^6 at N = 3 reach high per-variable moments.
MOMENT_SPECS = [(2, 1), (2, 2), (3, 1), (4, 1), (3, 3)]


def rational_pairs(n, rng, count):
    """Inhomogeneous pairs with rational coefficients whose denominators
    differ between terms, followed by pairs with the zero polynomial."""
    for _ in range(count):
        f = random_polynomial(n, 3, rng) * Fraction(1, rng.randint(1, 6)) + (
            random_polynomial(n, 2, rng, terms=2) * Fraction(1, rng.randint(2, 9))
        )
        g = random_polynomial(n, 3, rng) * Fraction(rng.randint(1, 4), rng.randint(1, 7))
        yield f, g
    yield Polynomial.zero(n), random_polynomial(n, 3, rng)
    yield random_polynomial(n, 3, rng), Polynomial.zero(n)


def test_gauss_pairing_against_bruteforce():
    rng = random.Random(103)
    for n, beta in MOMENT_SPECS:
        spec = hermite_spec(n, beta)
        for f, g in rational_pairs(n, rng, 4):
            assert gauss_pairing(f, g, spec).q == gauss_pairing_bruteforce(f, g, spec)


def test_laguerre_pairing_against_bruteforce():
    rng = random.Random(107)
    # bases gamma + 1/2 = 1/2, 5/6, 19/10: denominators 2, 6 and 10
    for gamma in (Fraction(0), Fraction(1, 3), Fraction(7, 5)):
        base = gamma + Fraction(1, 2)

        def poch(k):
            out = Fraction(1)
            for i in range(k):
                out *= base + i
            return out

        for n, beta in MOMENT_SPECS:
            spec = laguerre_spec(n, beta, gamma)
            for f, g in rational_pairs(n, rng, 2):
                product = f * g * vandermonde(n) ** (2 * beta)
                expected = Fraction(0)
                for exps, coeff in product.terms.items():
                    term = coeff
                    for e in exps:
                        term *= poch(e)
                    expected += term
                assert laguerre_pairing(f, g, spec).q == expected


def schur_bialternant(lam, n):
    """s_lam = det(x_i^(lam_j + n - j)) / Vandermonde, via the signed
    permutation expansion of the alternant."""
    mu = tuple(p + d for p, d in zip(lam, staircase(n)))
    alternant = Polynomial.zero(n)
    for w in itertools.permutations(range(1, n + 1)):
        exps = [0] * n
        for i in range(n):
            exps[i] = mu[w[i] - 1]
        alternant = alternant + sign(w) * Polynomial.monomial(tuple(exps))
    return divide_exact(alternant, vandermonde(n))


def test_jack_at_unit_coupling_is_schur():
    for n in (2, 3):
        spec = jack_spec(n, 1)
        for lam in partitions_up_to(4, n):
            assert jack(lam, spec).poly == schur_bialternant(lam, n), lam


def classical_hermite(n_deg):
    """Monic orthogonal polynomials for e^{-x^2}: h_{k+1} = x h_k - (k/2) h_{k-1}."""
    x = Polynomial.variable(1, 1)
    h_prev, h_cur = Polynomial.one(1), x
    if n_deg == 0:
        return h_prev
    for k in range(1, n_deg):
        h_prev, h_cur = h_cur, x * h_cur - Fraction(k, 2) * h_prev
    return h_cur


def classical_laguerre(n_deg, gamma):
    """Monic orthogonal polynomials for u^(gamma-1/2) e^{-u} on (0, inf):
    l_{k+1} = (u - (2k + alpha + 1)) l_k - k (k + alpha) l_{k-1}."""
    alpha = gamma - Fraction(1, 2)
    u = Polynomial.variable(1, 1)
    l_prev, l_cur = Polynomial.one(1), u - (alpha + 1)
    if n_deg == 0:
        return l_prev
    for k in range(1, n_deg):
        l_prev, l_cur = l_cur, (u - (2 * k + alpha + 1)) * l_cur - k * (k + alpha) * l_prev
    return l_cur


def inflate(poly_1d, n, slot):
    """Read a one-variable polynomial in variable number `slot` of n."""
    out = {}
    for (e,), c in poly_1d.terms.items():
        exps = [0] * n
        exps[slot - 1] = e
        out[tuple(exps)] = c
    return Polynomial(n, out)


def test_hermite_beta_zero_is_symmetrized_classical_product():
    n = 2
    spec = hermite_spec(n, 0)
    for lam in partitions_up_to(4, n):
        total = Polynomial.zero(n)
        for w in itertools.permutations(range(1, n + 1)):
            term = Polynomial.one(n)
            for i, part in enumerate(lam):
                term = term * inflate(classical_hermite(part), n, w[i])
            total = total + term
        expected = total * Fraction(1, stabilizer_order(lam))
        assert hermite(lam, spec).poly == expected, lam


def test_laguerre_beta_zero_is_symmetrized_classical_product():
    n = 2
    gamma = Fraction(1, 3)
    spec = laguerre_spec(n, 0, gamma)
    for lam in partitions_up_to(4, n):
        total = Polynomial.zero(n)
        for w in itertools.permutations(range(1, n + 1)):
            term = Polynomial.one(n)
            for i, part in enumerate(lam):
                term = term * inflate(classical_laguerre(part, gamma), n, w[i])
            total = total + term
        expected = total * Fraction(1, stabilizer_order(lam))
        assert laguerre(lam, spec).poly == expected, lam


def test_weight_cache_consistency():
    # the cached squared-Vandermonde powers equal fresh expansions
    for n, beta in [(2, 2), (3, 1)]:
        assert _vandermonde_power(n, beta) == vandermonde(n) ** (2 * beta)


def principal_specialization(lam, n, beta):
    """P_lam(1^N) = prod over cells (i, j) of lam of
    (beta (N - i + 1) + j - 1) / (lam_i - j + beta (lam'_j - i + 1)):
    Macdonald, Symmetric Functions and Hall Polynomials, 2nd ed.,
    VI (10.20), with alpha = 1/beta."""
    parts = [p for p in lam if p]
    value = Fraction(1)
    for i, row in enumerate(parts, start=1):
        for j in range(1, row + 1):
            column = sum(1 for p in parts if p >= j)  # lam'_j
            value *= Fraction(beta * (n - i + 1) + j - 1, row - j + beta * (column - i + 1))
    return value


def test_jack_principal_specialization():
    cases = 0
    for n in (1, 2, 3, 4):
        for beta in (1, 2, 3):
            spec = jack_spec(n, beta)
            for lam in partitions_up_to(4 if n == 4 else 5, n):
                poly = jack(lam, spec).poly
                at_ones = sum((poly.coefficient(e) for e in poly.terms), Fraction(0))
                assert at_ones == principal_specialization(lam, n, beta), (n, beta, lam)
                cases += 1
    assert cases == 138  # 18 at N=1, 120 at N = 2..4
