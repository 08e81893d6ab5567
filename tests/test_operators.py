"""Operator primitives and the named Dunkl/Cherednik/ladder operators."""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from heckepoly import cache_info, clear_caches
from heckepoly import operators as ops
from heckepoly.combinatorics import reduced_word, sign
from heckepoly.errors import AmbientSizeMismatch, TypeBContextError
from heckepoly.parameters import hermite_spec, jack_spec, laguerre_spec
from heckepoly.polynomials import (
    Polynomial,
    divide_exact,
    monomials_up_to_degree,
)


def _equal(op_a, op_b, degree):
    """Exact agreement on every monomial of total degree <= degree."""
    return ops.first_difference(op_a, op_b, degree) is None


def test_exchange_and_sign_flip():
    f = Polynomial.monomial((2, 1))
    assert ops.exchange(2, 1, 2)(f) == Polynomial.monomial((1, 2))
    g = Polynomial.monomial((3, 0)) + Polynomial.monomial((2, 0))
    assert ops.sign_flip(2, 1)(g) == -Polynomial.monomial((3, 0)) + Polynomial.monomial((2, 0))


def test_divided_diff_minus_telescoping():
    dd = ops.divided_diff_minus(2, 1, 2)
    assert dd(Polynomial.monomial((3, 0))) == Polynomial(
        2, {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    )
    assert dd(Polynomial.monomial((1, 1))) == Polynomial.zero(2)
    # oracle: exact division of the antisymmetrized numerator
    x1 = Polynomial.variable(2, 1)
    x2 = Polynomial.variable(2, 2)
    rng = random.Random(11)
    for _ in range(25):
        e = (rng.randrange(5), rng.randrange(5))
        f = Polynomial.monomial(e)
        numerator = f - _swap(f, 1, 2)
        assert dd(f) == (
            divide_exact(numerator, x1 - x2) if numerator else Polynomial.zero(2)
        )


def test_divided_diff_plus_oracle():
    dd = ops.divided_diff_plus(2, 1, 2)
    z1 = Polynomial.variable(2, 1)
    z2 = Polynomial.variable(2, 2)
    flip = lambda f: ops.sign_flip(2, 1)(ops.sign_flip(2, 2)(_swap(f, 1, 2)))
    rng = random.Random(13)
    for _ in range(30):
        e = (rng.randrange(5), rng.randrange(5))
        f = Polynomial.monomial(e)
        numerator = f - flip(f)
        assert dd(f) == (
            divide_exact(numerator, z1 + z2) if numerator else Polynomial.zero(2)
        )


def test_sign_divided():
    sd = ops.sign_divided(1, 1)
    z = Polynomial.variable(1, 1)
    assert sd(z**3) == 2 * z**2
    assert sd(z**4) == Polynomial.zero(1)
    assert sd(Polynomial.one(1)) == Polynomial.zero(1)


def test_dunkl_a_examples():
    spec = jack_spec(2, 1)
    d1 = ops.dunkl(1, spec)
    x1 = Polynomial.variable(2, 1)
    assert d1(x1) == Polynomial.constant(2, 2)
    assert d1(Polynomial.one(2)) == Polynomial.zero(2)
    spec2 = jack_spec(2, 2)
    comm = ops.commutator(ops.dunkl(1, spec2), ops.dunkl(2, spec2))
    assert _equal(comm, ops.scalar(2, 0), 5)


def test_cherednik_a_examples():
    for n, beta in [(2, 1), (3, 2)]:
        spec = jack_spec(n, beta)
        one = Polynomial.one(n)
        for j in range(1, n + 1):
            assert ops.cherednik(j, spec)(one) == Polynomial.constant(n, beta * (j - 1))
    spec = jack_spec(2, 1)
    m1 = Polynomial.variable(2, 1) + Polynomial.variable(2, 2)
    assert ops.cherednik(1, spec)(m1) == Polynomial.variable(2, 1)
    expected = Polynomial.variable(2, 2) + m1
    assert ops.cherednik(2, spec)(m1) == expected
    spec3 = jack_spec(3, 2)
    d = [ops.cherednik(j, spec3) for j in (1, 2, 3)]
    for a, b in [(0, 1), (0, 2), (1, 2)]:
        assert _equal(ops.commutator(d[a], d[b]), ops.scalar(3, 0), 4)


def test_cherednik_relation_with_transposition():
    spec = jack_spec(3, 2)
    s1 = ops.exchange(3, 1, 2)
    lhs = ops.cherednik(2, spec) * s1 - s1 * ops.cherednik(1, spec)
    assert _equal(lhs, ops.scalar(3, 2), 4)


def test_dunkl_b_examples():
    spec = laguerre_spec(1, 0, Fraction(1, 3))
    z = Polynomial.variable(1, 1)
    assert ops.dunkl(1, spec)(Polynomial.one(1)) == Polynomial.zero(1)
    assert ops.dunkl(1, spec)(z * z) == 2 * z
    spec2 = laguerre_spec(2, 1, Fraction(1, 2))
    comm = ops.commutator(ops.dunkl(1, spec2), ops.dunkl(2, spec2))
    assert _equal(comm, ops.scalar(2, 0), 4)
    # reflection relation t_j D_j = -D_j t_j
    t1 = ops.sign_flip(2, 1)
    d1 = ops.dunkl(1, spec2)
    assert _equal(t1 * d1, (-1) * (d1 * t1), 4)


def test_cherednik_b_constant_and_evenness():
    spec = laguerre_spec(2, 1, Fraction(1, 3))
    one = Polynomial.one(2)
    for j in (1, 2):
        assert ops.cherednik(j, spec)(one) == Polynomial.constant(2, 2 * 1 * (j - 1))
    image = ops.cherednik(1, spec)(Polynomial.monomial((2, 2)))
    assert all(e % 2 == 0 for exps in image.terms for e in exps)


def test_cherednik_b_restriction():
    from heckepoly.families import decode_even, encode_even

    for n, beta in [(2, 1), (2, 2), (3, 1)]:
        lag = laguerre_spec(n, beta, Fraction(1, 3))
        jac = jack_spec(n, beta)
        for j in range(1, n + 1):
            cb = ops.cherednik(j, lag)
            ca = ops.cherednik(j, jac)
            for exps in monomials_up_to_degree(n, 3):
                f_u = Polynomial.monomial(exps)
                doubled = Polynomial.monomial(tuple(2 * e for e in exps))
                assert ops.stretch(n, 2)(f_u) == doubled and encode_even(f_u) == doubled
                lhs = decode_even(cb(encode_even(f_u)))
                assert lhs == 2 * ca(f_u)


@pytest.mark.parametrize("n, degree", [(1, 6), (2, 5), (3, 4)])
def test_laguerre_operators_are_the_type_b_ones_through_the_codec(n, degree):
    """On u = z^2 the Laguerre C_j = Dhat_j - K_j D_j and V_j = (u_j -
    K_j)(1 - D_j), built on the type-A operators, equal the paper's (1/2) h_j
    and (B_j/2)^2 of type B read through the codec, on every u-monomial up
    to degree, beta <= 3 and four gammas."""
    from heckepoly.families import decode_even, encode_even, realization

    for beta in range(4):
        for gamma in (0, Fraction(1, 3), Fraction(1, 2), Fraction(7, 5)):
            spec = laguerre_spec(n, beta, gamma)
            real = realization(spec)
            for j in range(1, n + 1):
                half_b = Fraction(1, 2) * ops.creation(j, spec)
                pairs = [(real.cherednik(j), Fraction(1, 2) * ops.htilde(j, spec)),
                         (real.coordinate(j), half_b * half_b)]
                for exps in monomials_up_to_degree(n, degree):
                    f = Polynomial.monomial(exps)
                    for u_form, z_form in pairs:
                        assert u_form(f) == decode_even(z_form(encode_even(f))), (spec, j, exps)


def test_creation_annihilation_a():
    spec = hermite_spec(1, 0)
    a_up = ops.creation(1, spec)
    x = Polynomial.variable(1, 1)
    assert a_up(Polynomial.one(1)) == 2 * x
    assert a_up(a_up(Polynomial.one(1))) == 4 * x * x - 2
    spec2 = hermite_spec(2, 1)
    assert ops.dunkl(1, spec2)(Polynomial.one(2)) == Polynomial.zero(2)
    comm = ops.commutator(ops.creation(1, spec2), ops.creation(2, spec2))
    assert _equal(comm, ops.scalar(2, 0), 4)
    # the annihilation operator is exactly the plain Dunkl operator
    assert _equal(
        ops.operator_from_string("annihilationA:j=1", spec2), ops.dunkl(1, jack_spec(2, 1)), 6
    )


def test_creation_b_and_htilde_b():
    spec = laguerre_spec(1, 0, Fraction(1, 4))
    b_up = ops.creation(1, spec)
    image = b_up(b_up(Polynomial.one(1))) * Fraction(1, 4)
    z = Polynomial.variable(1, 1)
    assert image == z * z - (Fraction(1, 4) + Fraction(1, 2))
    assert ops.dunkl(1, spec)(Polynomial.one(1)) == Polynomial.zero(1)
    spec2 = laguerre_spec(2, 1, Fraction(1, 4))
    for i in (1, 2):
        for j in (1, 2):
            t_i = ops.sign_flip(2, i)
            h_j = ops.htilde(j, spec2)
            assert _equal(t_i * h_j, h_j * t_i, 4)


def test_htilde_a():
    for n, beta in [(2, 1), (3, 2)]:
        spec = hermite_spec(n, beta)
        one = Polynomial.one(n)
        for j in range(1, n + 1):
            assert ops.htilde(j, spec)(one) == Polynomial.constant(n, beta * (j - 1))
    spec = hermite_spec(2, 1)
    comm = ops.commutator(ops.htilde(1, spec), ops.htilde(2, spec))
    assert _equal(comm, ops.scalar(2, 0), 5)


def test_symmetrizers():
    x1 = Polynomial.variable(2, 1)
    x2 = Polynomial.variable(2, 2)
    minus = ops.antisymmetrizer(2)
    assert minus(x1 + x2) == Polynomial.zero(2)
    # no bound on N: P_- (shat_1 + 1) x^e = 0 at N = 7
    killed = ops.antisymmetrizer(7, 1) * (ops.deformed_transposition(7, 1, 1) + ops.identity(7))
    for exps in [(0,) * 7, (1, 0, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 1)]:
        assert killed(Polynomial.monomial(exps)) == Polynomial.zero(7)
    with pytest.raises(ValueError, match="integer beta"):
        ops.antisymmetrizer(3, Fraction(1, 2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_antisymmetrizer_equals_the_signed_permutation_sum(n):
    """At beta = 0 the coset product is (1/N!) sum_w sign(w) w, here summed
    term by term over ``permutation_op``."""
    total = ops.scalar(n, 0)
    for w in itertools.permutations(range(1, n + 1)):
        total = total + sign(w) * ops.permutation_op(w)
    oracle = Fraction(1, factorial(n)) * total
    assert _equal(ops.antisymmetrizer(n), oracle, 4)


def test_deformed_transpositions():
    shat = ops.deformed_transposition(3, 1, 2)
    assert _equal(shat * shat, ops.identity(3), 5)
    # reduced-word independence for the longest element of S_3
    s1h = ops.deformed_transposition(3, 1, 2)
    s2h = ops.deformed_transposition(3, 2, 2)
    assert _equal(s1h * s2h * s1h, s2h * s1h * s2h, 4)


def test_operator_equal_examples():
    s = ops.exchange(2, 1, 2)
    assert _equal(s * s, ops.identity(2), 4)
    assert not _equal(s, ops.identity(2), 2)


def test_type_b_guards():
    # the type comes from the spec: a name's letter that disagrees is refused
    jack, lag = jack_spec(2, 1), laguerre_spec(2, 1, Fraction(1, 2))
    with pytest.raises(TypeBContextError):
        ops.operator_from_string("dunklB:j=1", jack)
    with pytest.raises(TypeBContextError):
        ops.operator_from_string("cherednikA:j=1", lag)
    with pytest.raises(TypeBContextError, match="type-B primitive in type-A context"):
        ops.operator_from_string("signflip:j=1", jack)
    with pytest.raises(ValueError):
        ops.cherednik(3, jack)


def test_operators_bind_no_family_constant():
    # the operators read their type from spec.gamma, never from the family
    assert not {"JACK", "HERMITE", "LAGUERRE"} & set(vars(ops))


def test_sutherland_expanded_matches_restriction():
    """sum_j (Dhat_j - beta(N-1)/2)^2 is the expanded form on every m_lam
    of weight <= 4."""
    for n, beta in [(2, 1), (2, 2), (3, 1)]:
        spec = jack_spec(n, beta)
        restricted = ops.scalar(n, 0)
        for j in range(1, n + 1):
            shifted = ops.cherednik(j, spec) - ops.scalar(n, Fraction(beta * (n - 1), 2))
            restricted = restricted + shifted * shifted
        symmetric = ops.orbit_sum(n)
        assert _equal(restricted * symmetric, ops.sutherland_expanded(n, beta) * symmetric, 4)


def _sutherland_by_division(f: Polynomial, beta: int) -> Polynomial:
    """Oracle: the expanded form of the paper on a symmetric f, by
    ``Polynomial`` products and exact division, each x_j d_j on the terms:

        sum_j (x_j d_j)^2 f
        + beta sum_{j<k} (x_j + x_k) [(x_j d_j - x_k d_k) f / (x_j - x_k)]
        + beta^2 N (N^2 - 1)/12 f."""
    n = f.nvars

    def euler(g, j):
        return Polynomial(n, {e: c * e[j - 1] for e, c in g.terms.items()})

    total = Fraction(beta * beta * n * (n * n - 1), 12) * f
    for j in range(1, n + 1):
        total = total + euler(euler(f, j), j)
        for k in range(j + 1, n + 1):
            xj, xk = Polynomial.variable(n, j), Polynomial.variable(n, k)
            diff = euler(f, j) - euler(f, k)
            total = total + beta * (xj + xk) * divide_exact(diff, xj - xk)
    return total


def test_sutherland_expanded_is_the_quotient_form_on_m_lam():
    from heckepoly.combinatorics import monomial_symmetric, partitions_up_to

    for n in (1, 2, 3, 4):
        for beta in (0, 1, 2, 3):
            expanded = ops.sutherland_expanded(n, beta)
            for lam in partitions_up_to(5, n):
                f = monomial_symmetric(n, lam)
                assert expanded(f) == _sutherland_by_division(f, beta), (n, beta, lam)


def test_operator_from_string():
    spec = jack_spec(2, 1)
    named = ops.operator_from_string("cherednikA:j=2", spec)
    direct = ops.cherednik(2, spec)
    assert _equal(named, direct, 3)
    swap = ops.operator_from_string("exchange:i=1,j=2", spec)
    assert _equal(swap * swap, ops.identity(2), 3)
    lag = laguerre_spec(2, 1, Fraction(1, 2))
    assert _equal(
        ops.operator_from_string("creationB:j=1", lag), ops.creation(1, lag), 2
    )
    assert _equal(
        ops.operator_from_string("signflip:j=2", lag), ops.sign_flip(2, 2), 3
    )
    with pytest.raises(ValueError, match="unknown operator name"):
        ops.operator_from_string("mystery:j=1", spec)
    with pytest.raises(ValueError, match="needs parameters"):
        ops.operator_from_string("dunklA", spec)
    with pytest.raises(TypeBContextError, match="type-B primitive in type-A context"):
        ops.operator_from_string("signflip:j=1", spec)


@pytest.mark.parametrize(
    "text, missing",
    [("exchange:i=1", "j"), ("exchange:j=2", "i"), ("exchange", "i, j"), ("signflip", "j"),
     ("dunklB:i=1", "j")],
)
def test_operator_from_string_names_missing_parameters(text, missing):
    lag = laguerre_spec(2, 1, Fraction(1, 2))
    with pytest.raises(ValueError, match=f"needs parameters {missing}$"):
        ops.operator_from_string(text, lag)


@pytest.mark.parametrize(
    "text, message",
    [("dunkl:j=1,x=3", "takes no parameter x$"), ("exchange:i=1,j=2,k=9", "takes no parameter k$"),
     ("dunkl:j=1,j=2", "repeated operator parameter 'j'"),
     ("exchange:i=1, i=2,j=3", "repeated operator parameter 'i'")],
)
def test_operator_from_string_rejects_unknown_and_repeated_parameters(text, message):
    with pytest.raises(ValueError, match=message):
        ops.operator_from_string(text, jack_spec(3, 1))


def test_creation_b_squared_preserves_even():
    spec = laguerre_spec(2, 1, Fraction(1, 3))
    b1 = ops.creation(1, spec)
    for exps in [(0, 0), (2, 0), (2, 2), (4, 2)]:
        image = b1(b1(Polynomial.monomial(exps)))
        assert all(e % 2 == 0 for e_vec in image.terms for e in e_vec)


def test_commutativity_degree_six():
    """All five commuting families commute exactly up to degree 6.

    Full pair coverage at N <= 3; at N = 4 the adjacent/extreme pairs
    stand in for the (identical) remaining ones to keep the runtime sane.
    """
    import itertools

    def families(n, beta):
        yield [ops.dunkl(j, jack_spec(n, beta)) for j in range(1, n + 1)]
        yield [ops.cherednik(j, jack_spec(n, beta)) for j in range(1, n + 1)]
        yield [ops.htilde(j, hermite_spec(n, beta)) for j in range(1, n + 1)]
        lag = laguerre_spec(n, beta, Fraction(1, 3))
        yield [ops.dunkl(j, lag) for j in range(1, n + 1)]
        yield [ops.htilde(j, lag) for j in range(1, n + 1)]

    for n, beta in [(2, 0), (2, 1), (2, 2), (3, 1), (3, 2)]:
        for family in families(n, beta):
            for i, j in itertools.combinations(range(n), 2):
                comm = ops.commutator(family[i], family[j])
                assert _equal(comm, ops.scalar(n, 0), 6), (n, beta, i, j)
    for beta in (1, 2):
        for family in families(4, beta):
            for i, j in [(0, 1), (0, 3), (2, 3)]:
                comm = ops.commutator(family[i], family[j])
                assert _equal(comm, ops.scalar(4, 0), 6), (beta, i, j)


def test_linearity_of_apply():
    spec = jack_spec(2, 2)
    op = ops.cherednik(1, spec)
    f = Polynomial.monomial((2, 1))
    g = Polynomial.monomial((0, 3))
    assert op(f + g) == op(f) + op(g)
    assert op(f * Fraction(2, 3)) == op(f) * Fraction(2, 3)


# ---------------------------------------------------------------------------
# independent oracle: every divided difference by exact polynomial division


def _partial(f, j):
    out = {}
    for exps, c in f.terms.items():
        if exps[j - 1]:
            e = list(exps)
            e[j - 1] -= 1
            out[tuple(e)] = c * exps[j - 1]
    return Polynomial(f.nvars, out)


def _swap(f, j, k):
    """f with the variables x_j and x_k exchanged."""
    a, b = j - 1, k - 1
    swapped = {}
    for e, c in f.terms.items():
        e = list(e)
        e[a], e[b] = e[b], e[a]
        swapped[tuple(e)] = c
    return Polynomial(f.nvars, swapped)


def _flip(f, j):
    return Polynomial(
        f.nvars, {e: (-c if e[j - 1] % 2 else c) for e, c in f.terms.items()}
    )


def _var(n, j):
    return Polynomial.variable(n, j)


def _ref_minus(f, j, k):
    return divide_exact(f - _swap(f, j, k), _var(f.nvars, j) - _var(f.nvars, k))


def _ref_plus(f, j, k):
    mirrored = _flip(_flip(_swap(f, j, k), j), k)
    return divide_exact(f - mirrored, _var(f.nvars, j) + _var(f.nvars, k))


def _ref_sign(f, j):
    return divide_exact(f - _flip(f, j), _var(f.nvars, j))


def _ref_exchange_sum(f, j, beta, type_b):
    total = Polynomial.zero(f.nvars)
    for k in range(1, j):
        swapped = _swap(f, j, k)
        total = total + swapped
        if type_b:
            total = total + _flip(_flip(swapped, j), k)
    return beta * total


def _ref_difference_sum(f, j, beta, type_b):
    total = Polynomial.zero(f.nvars)
    for k in range(1, f.nvars + 1):
        if k != j:
            total = total + _ref_minus(f, j, k)
            if type_b:
                total = total + _ref_plus(f, j, k)
    return beta * total


def _ref_dunkl(f, j, beta, gamma=None):
    out = _partial(f, j) + _ref_difference_sum(f, j, beta, gamma is not None)
    return out if gamma is None else out + gamma * _ref_sign(f, j)


def _ref_creation(f, j, beta, gamma=None):
    out = -_partial(f, j) + 2 * _var(f.nvars, j) * f
    out = out - _ref_difference_sum(f, j, beta, gamma is not None)
    return out if gamma is None else out - gamma * _ref_sign(f, j)


def _ref_cherednik_a(f, j, beta):
    return _var(f.nvars, j) * _ref_dunkl(f, j, beta) + _ref_exchange_sum(f, j, beta, False)


def _ref_cherednik_b(f, j, beta, gamma):
    return _var(f.nvars, j) * _ref_dunkl(f, j, beta, gamma) + _ref_exchange_sum(
        f, j, beta, True
    )


def _ref_htilde(f, j, beta, gamma=None):
    lowered = _ref_dunkl(f, j, beta, gamma)
    ladder = _ref_creation(lowered, j, beta, gamma) * Fraction(1, 2)
    return ladder + _ref_exchange_sum(f, j, beta, gamma is not None)


def _random_poly(rng, n, degree):
    exps = list(monomials_up_to_degree(n, degree))
    terms = {
        tuple(rng.choice(exps)): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        for _ in range(rng.randint(1, 6))
    }
    return Polynomial(n, terms)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("beta", [0, 1, 2])
def test_named_operators_against_division_oracle(n, beta):
    gamma = Fraction(1, 3)
    jac, her, lag = jack_spec(n, beta), hermite_spec(n, beta), laguerre_spec(n, beta, gamma)
    pairs = []
    for j in range(1, n + 1):
        pairs += [
            (ops.dunkl(j, jac), lambda f, j=j: _ref_dunkl(f, j, beta)),
            (ops.cherednik(j, jac), lambda f, j=j: _ref_cherednik_a(f, j, beta)),
            (ops.creation(j, her), lambda f, j=j: _ref_creation(f, j, beta)),
            (ops.htilde(j, her), lambda f, j=j: _ref_htilde(f, j, beta)),
            (ops.dunkl(j, lag), lambda f, j=j: _ref_dunkl(f, j, beta, gamma)),
            (ops.cherednik(j, lag), lambda f, j=j: _ref_cherednik_b(f, j, beta, gamma)),
            (ops.creation(j, lag), lambda f, j=j: _ref_creation(f, j, beta, gamma)),
            (ops.htilde(j, lag), lambda f, j=j: _ref_htilde(f, j, beta, gamma)),
        ]
    rng = random.Random(100 * n + beta)
    polys = [_random_poly(rng, n, 4) for _ in range(3)]
    for op, reference in pairs:
        for f in polys:
            expected = reference(f)
            assert op(f) == expected
            assert op(f) == expected  # warm: every image now comes from the memo


_N, _BETA, _GAMMA = 3, 1, Fraction(2, 5)


def _combination_expressions():
    """Sums, integer and fractional scalars and compositions of memoized
    operators: the parts of one expression, and the whole last."""
    n, beta, gamma = _N, _BETA, _GAMMA
    jac, her, lag = jack_spec(n, beta), hermite_spec(n, beta), laguerre_spec(n, beta, gamma)
    a, b = ops.cherednik(1, jac), ops.dunkl(2, jac)
    h, d = ops.htilde(3, her), ops.dunkl(2, lag)
    parts = [3 * a - Fraction(1, 2) * h, 2 * b + ops.scalar(n, Fraction(1, 3)), a * a,
             Fraction(3, 4) * (d * h), (-2) * (b * d * a)]
    return parts + [parts[0] * parts[1] - parts[2] + parts[3] - parts[4]]


def test_combinations_against_division_oracle():
    """The expression of ``_combination_expressions`` against the same
    expression over the oracle."""
    n, beta, gamma = _N, _BETA, _GAMMA
    expr = _combination_expressions()[-1]

    def reference(f):
        g = 2 * _ref_dunkl(f, 2, beta) + f * Fraction(1, 3)
        out = 3 * _ref_cherednik_a(g, 1, beta) - _ref_htilde(g, 3, beta) * Fraction(1, 2)
        out = out - _ref_cherednik_a(_ref_cherednik_a(f, 1, beta), 1, beta)
        out = out + _ref_dunkl(_ref_htilde(f, 3, beta), 2, beta, gamma) * Fraction(3, 4)
        inner = _ref_dunkl(_ref_cherednik_a(f, 1, beta), 2, beta, gamma)
        return out + 2 * _ref_dunkl(inner, 2, beta)

    rng = random.Random(17)
    for _ in range(4):
        f = _random_poly(rng, n, 3)
        assert expr(f) == reference(f)
        assert expr(f) == reference(f)


def _assert_normal_form(op):
    """content is an int or a Fraction, every coefficient of every factor
    an int, and the content of every named operator an int or a Fraction."""
    assert type(op.content) in (int, Fraction)
    for factor in op.factors:
        for k, push in factor:
            assert type(k) is int
            node = getattr(push, "__self__", None)
            if type(node) is ops._Memo:
                assert type(node.content) in (int, Fraction)


def test_operators_keep_the_normal_form():
    n, spec = _N, jack_spec(_N, _BETA)
    swap, d1 = ops.exchange(n, 1, 2), ops.dunkl(1, spec)
    fractional = Fraction(1, 2) * swap + Fraction(1, 3) * ops.identity(n)
    assert fractional.content == Fraction(1, 6)
    assert [sorted(k for k, _ in factor) for factor in fractional.factors] == [[2, 3]]
    composed = fractional * d1 * Fraction(4, 3) * fractional
    assert composed.content == Fraction(1, 6) * Fraction(4, 3) * Fraction(1, 6)
    assert composed.factors == fractional.factors + d1.factors + fractional.factors
    summed = composed + swap  # the composition is one term of one factor
    assert len(summed.factors) == 1 and (1, composed.push) in summed.factors[0]
    assert ops.identity(n).factors == ()
    assert (composed * ops.identity(n)).factors == composed.factors
    zero = ops.scalar(n, 0)
    assert zero.factors == ((),) and type(zero.content) is int
    assert (composed * zero).factors == (zero + zero).factors == ((),)
    for op in _combination_expressions() + [fractional, composed, summed, zero]:
        _assert_normal_form(op)


def _word_by_word_antisymmetrizer(n, beta):
    """(1/N!) sum_w sign(w) shat_{i_1} ... shat_{i_l}, (i_1..i_l) =
    reduced_word(w), each word its own composition."""
    total = ops.scalar(n, 0)
    for w in itertools.permutations(range(1, n + 1)):
        word = ops.identity(n)
        for i in reduced_word(w):
            word = word * ops.deformed_transposition(n, i, beta)
        total = total + sign(w) * word
    return Fraction(1, factorial(n)) * total


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("beta", [0, 1, 2, 3])
def test_coset_product_antisymmetrizer_equals_the_word_sum(n, beta):
    degree = 3 if n == 5 else 4
    assert _equal(ops.antisymmetrizer(n, beta), _word_by_word_antisymmetrizer(n, beta), degree)


def test_antisymmetrizer_costs_n_choose_2_transpositions_per_input(monkeypatch):
    """P_- at N = 5 applies 10 deformed transpositions to a whole input,
    not N! - 1 per monomial."""
    pushes = []
    original = ops.deformed_transposition

    def counting(nvars, j, beta):
        shat = original(nvars, j, beta)

        def push(src, out, c):
            pushes.append(j)
            shat.push(src, out, c)

        return ops.Operator(nvars, shat.content, (((1, push),),))

    monkeypatch.setattr(ops, "deformed_transposition", counting)
    rng = random.Random(3)
    support = rng.sample(list(monomials_up_to_degree(5, 3)), 30)
    f = Polynomial(5, {e: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for e in support})
    minus = ops.antisymmetrizer(5, 1)
    monkeypatch.undo()
    assert minus(f) == ops.antisymmetrizer(5, 1)(f)
    assert len(pushes) == 5 * 4 // 2


def _first_difference_loop(op_a, op_b, degree):
    for exps in monomials_up_to_degree(op_a.nvars, degree):
        mono = Polynomial.monomial(exps)
        if op_a(mono) != op_b(mono):
            return exps, op_a(mono), op_b(mono)
    return None


def test_first_difference_finds_the_first_monomial_and_its_witnesses():
    n, spec = 2, jack_spec(2, 1)
    d1, x1 = ops.dunkl(1, spec), ops.multiply_by(Polynomial.variable(n, 1))
    half = Fraction(1, 2)
    # the identity with content 1/2: [D_1, x_1] = 1 + beta s_12 at beta = 1
    one = half * (d1 * x1) - half * (x1 * d1) - half * ops.exchange(n, 1, 2)
    one = one + half * ops.identity(n)
    assert one.content == half
    pairs = [
        (one, ops.identity(n)),  # equal, only one side has a fraction content
        (one, 2 * ops.identity(n)),  # the same monomials, values apart
        (one, ops.exchange(n, 1, 2)),
        (ops.identity(n), half * ops.exchange(n, 1, 2) + half * ops.identity(n)),
        (ops.cherednik(1, spec) * x1, x1 * ops.cherednik(1, spec)),
    ]
    for op_a, op_b in pairs:
        expected = _first_difference_loop(op_a, op_b, 3)
        assert ops.first_difference(op_a, op_b, 3) == expected
    assert ops.first_difference(*pairs[0], 3) is None
    assert ops.first_difference(*pairs[1], 3)[0] == (0, 0)
    with pytest.raises(AmbientSizeMismatch):
        ops.first_difference(ops.identity(2), ops.identity(3), 1)


_NAMED = [ops.dunkl, ops.cherednik, ops.creation, ops.htilde]


def test_caches_cold_warm_and_cleared():
    specs = [jack_spec(3, 2), hermite_spec(3, 1), laguerre_spec(3, 1, Fraction(1, 2))]
    rng = random.Random(5)
    polys = [_random_poly(rng, 3, 3) for _ in range(3)]

    def named_results():
        results = []
        for spec in specs:
            for constructor in _NAMED:
                op = constructor(2, spec)
                results.append([op(f) for f in polys])
        return results

    clear_caches()
    assert not any(cache_info().values())
    cold = named_results()
    info = cache_info()
    assert info["operators.named"] > 0 and info["operators.images"] > 0
    warm = named_results()
    assert cache_info() == info
    held = ops.htilde(2, specs[1])
    before = held(polys[0])
    clear_caches()
    assert not any(cache_info().values())
    assert held(polys[0]) == before  # a held operator recomputes its images
    cleared = named_results()
    assert cold == warm == cleared
    assert cache_info() == info


@pytest.mark.parametrize("spec", [hermite_spec(3, 1), laguerre_spec(3, 1, Fraction(1, 3))])
def test_named_operators_share_the_dunkl_images(spec):
    """h_j is built on the named A_j and D_j, and A_j and Dhat_j on D_j:
    applying h_j alone stores images under all three keys, and D_j, A_j
    and Dhat_j then find the images of D_j they need already stored."""
    f = _random_poly(random.Random(11), 3, 3)
    clear_caches()
    ops.htilde(2, spec)(f)
    stored = {key[0] for key, memo in ops._NAMED.items() if memo.images}
    assert stored == {ops._dunkl, ops._creation, ops._htilde}
    dunkl_images = ops._NAMED[(ops._dunkl, 3, 2, spec.beta, spec.gamma)].images
    count = len(dunkl_images)
    ops.dunkl(2, spec)(f)
    ops.creation(2, spec)(f)
    assert len(dunkl_images) == count
    ops.cherednik(2, spec)(f)
    assert len(dunkl_images) == count
    assert {key[0] for key in ops._NAMED} == stored | {ops._cherednik}
    clear_caches()


def test_antisymmetrizer_holds_no_cache():
    """P_- is a plain product of unnamed operators: building and applying
    it stores no named operator and no image."""
    clear_caches()
    for n, beta in ((3, 1), (3, 0), (4, 2)):
        minus = ops.antisymmetrizer(n, beta)
        minus(Polynomial.monomial((2, 1) + (0,) * (n - 2)))
    assert cache_info()["operators.named"] == 0
    assert cache_info()["operators.images"] == 0


def test_orbit_sum_maps_partition_monomials_to_monomial_symmetric():
    """orbit_sum(N) sends x^lam to m_lam when lam weakly decreases and
    every other monomial to 0; on a sum it adds those images."""
    from heckepoly.combinatorics import is_partition, monomial_symmetric

    for n in range(1, 5):
        symmetric = ops.orbit_sum(n)
        total, expected = Polynomial.zero(n), Polynomial.zero(n)
        for exps in monomials_up_to_degree(n, 4):
            image = symmetric(Polynomial.monomial(exps))
            if is_partition(exps):
                assert image == monomial_symmetric(n, exps)
            else:
                assert image == Polynomial.zero(n)
            total = total + (sum(exps) + 1) * Polynomial.monomial(exps)
            expected = expected + (sum(exps) + 1) * image
        assert symmetric(total) == expected
    with pytest.raises(AmbientSizeMismatch):
        ops.orbit_sum(3)(Polynomial.monomial((1, 0)))
