"""Operator primitives and the named Dunkl/Cherednik/ladder operators."""

import random
from fractions import Fraction

import pytest

from heckepoly import cache_info, clear_caches
from heckepoly import operators as ops
from heckepoly.errors import AmbientSizeMismatch, TypeBContextError
from heckepoly.parameters import hermite_spec, jack_spec, laguerre_spec
from heckepoly.polynomials import (
    Polynomial,
    divide_exact,
    monomials_up_to_degree,
)


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
    assert ops.operator_equal(comm, ops.scalar(2, 0), 5)


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
        assert ops.operator_equal(ops.commutator(d[a], d[b]), ops.scalar(3, 0), 4)


def test_cherednik_relation_with_transposition():
    spec = jack_spec(3, 2)
    s1 = ops.exchange(3, 1, 2)
    lhs = ops.cherednik(2, spec) * s1 - s1 * ops.cherednik(1, spec)
    assert ops.operator_equal(lhs, ops.scalar(3, 2), 4)


def test_dunkl_b_examples():
    spec = laguerre_spec(1, 0, Fraction(1, 3))
    z = Polynomial.variable(1, 1)
    assert ops.dunkl(1, spec)(Polynomial.one(1)) == Polynomial.zero(1)
    assert ops.dunkl(1, spec)(z * z) == 2 * z
    spec2 = laguerre_spec(2, 1, Fraction(1, 2))
    comm = ops.commutator(ops.dunkl(1, spec2), ops.dunkl(2, spec2))
    assert ops.operator_equal(comm, ops.scalar(2, 0), 4)
    # reflection relation t_j D_j = -D_j t_j
    t1 = ops.sign_flip(2, 1)
    d1 = ops.dunkl(1, spec2)
    assert ops.operator_equal(t1 * d1, (-1) * (d1 * t1), 4)


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


def test_creation_annihilation_a():
    spec = hermite_spec(1, 0)
    a_up = ops.creation(1, spec)
    x = Polynomial.variable(1, 1)
    assert a_up(Polynomial.one(1)) == 2 * x
    assert a_up(a_up(Polynomial.one(1))) == 4 * x * x - 2
    spec2 = hermite_spec(2, 1)
    assert ops.dunkl(1, spec2)(Polynomial.one(2)) == Polynomial.zero(2)
    comm = ops.commutator(ops.creation(1, spec2), ops.creation(2, spec2))
    assert ops.operator_equal(comm, ops.scalar(2, 0), 4)
    # the annihilation operator is exactly the plain Dunkl operator
    assert ops.operator_equal(
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
            assert ops.operator_equal(t_i * h_j, h_j * t_i, 4)


def test_htilde_a():
    for n, beta in [(2, 1), (3, 2)]:
        spec = hermite_spec(n, beta)
        one = Polynomial.one(n)
        for j in range(1, n + 1):
            assert ops.htilde(j, spec)(one) == Polynomial.constant(n, beta * (j - 1))
    spec = hermite_spec(2, 1)
    comm = ops.commutator(ops.htilde(1, spec), ops.htilde(2, spec))
    assert ops.operator_equal(comm, ops.scalar(2, 0), 5)


def test_symmetrizers():
    x1 = Polynomial.variable(2, 1)
    x2 = Polynomial.variable(2, 2)
    minus = ops.symmetrizer(2, "minus")
    assert minus(x1 + x2) == Polynomial.zero(2)
    with pytest.raises(ValueError):
        ops.symmetrizer(7, "minus")
    with pytest.raises(ValueError, match="unknown symmetrizer kind"):
        ops.symmetrizer(2, "plus")
    with pytest.raises(ValueError):
        ops.symmetrizer(3, "minus_deformed")


def test_deformed_transpositions():
    shat = ops.deformed_transposition(3, 1, 2)
    assert ops.operator_equal(shat * shat, ops.identity(3), 5)
    # reduced-word independence for the longest element of S_3
    s1h = ops.deformed_transposition(3, 1, 2)
    s2h = ops.deformed_transposition(3, 2, 2)
    assert ops.operator_equal(s1h * s2h * s1h, s2h * s1h * s2h, 4)


def test_operator_equal_examples():
    s = ops.exchange(2, 1, 2)
    assert ops.operator_equal(s * s, ops.identity(2), 4)
    assert not ops.operator_equal(s, ops.identity(2), 2)


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
    from heckepoly.combinatorics import monomial_symmetric, partitions_up_to

    for n, beta in [(2, 1), (2, 2), (3, 1)]:
        spec = jack_spec(n, beta)
        chers = [ops.cherednik(j, spec) for j in range(1, n + 1)]
        offset = Fraction(beta * (n - 1), 2)
        for lam in partitions_up_to(4, n):
            f = monomial_symmetric(n, lam)
            restricted = Polynomial.zero(n)
            for op in chers:
                g = op(f) - offset * f
                restricted = restricted + op(g) - offset * g
            assert restricted == ops.sutherland_expanded_apply(f, beta)


def test_operator_from_string():
    spec = jack_spec(2, 1)
    named = ops.operator_from_string("cherednikA:j=2", spec)
    direct = ops.cherednik(2, spec)
    assert ops.operator_equal(named, direct, 3)
    swap = ops.operator_from_string("exchange:i=1,j=2", spec)
    assert ops.operator_equal(swap * swap, ops.identity(2), 3)
    lag = laguerre_spec(2, 1, Fraction(1, 2))
    assert ops.operator_equal(
        ops.operator_from_string("creationB:j=1", lag), ops.creation(1, lag), 2
    )
    assert ops.operator_equal(
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
                assert ops.operator_equal(comm, ops.scalar(n, 0), 6), (n, beta, i, j)
    for beta in (1, 2):
        for family in families(4, beta):
            for i, j in [(0, 1), (0, 3), (2, 3)]:
                comm = ops.commutator(family[i], family[j])
                assert ops.operator_equal(comm, ops.scalar(4, 0), 6), (beta, i, j)


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


def test_combinations_against_division_oracle():
    """Sums, integer and fractional scalars, compositions and powers of
    memoized operators, against the same expression over the oracle."""
    n, beta, gamma = 3, 1, Fraction(2, 5)
    jac, her, lag = jack_spec(n, beta), hermite_spec(n, beta), laguerre_spec(n, beta, gamma)
    a, b = ops.cherednik(1, jac), ops.dunkl(2, jac)
    h, d = ops.htilde(3, her), ops.dunkl(2, lag)
    expr = (3 * a - Fraction(1, 2) * h) * (2 * b + ops.scalar(n, Fraction(1, 3))) - a**2
    expr = expr + Fraction(3, 4) * (d * h) - (-2) * (b * d * a)

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


def _word_loop(seed, weights, steps):
    """sum k * (steps[i_k] ... steps[i_1])(seed), every word applied from
    the seed up, one step at a time."""
    total = Polynomial.zero(seed.nvars)
    for word, k in weights.items():
        image = seed
        for i in word:
            image = steps[i](image)
        total = total + k * image
    return total


@pytest.mark.parametrize("power", [1, 2])
def test_apply_words_matches_the_per_term_loop(power):
    """Exchanges and Cherednik operators do not commute, so equal results
    pin the order of application: x^a is L_1^a_1 first, then L_2, ..."""
    n, spec = 3, jack_spec(3, 1)
    steps = [
        ops.exchange(n, 1, 2) + ops.cherednik(1, spec),
        Fraction(1, 3) * ops.cherednik(2, spec),  # a fractional content
        ops.exchange(n, 2, 3) - ops.cherednik(3, spec),
    ]
    rng = random.Random(17)
    for _ in range(4):
        f, seed = _random_poly(rng, n, 3), _random_poly(rng, n, 2)
        sums = [
            {ops.exponent_word(exps, power): c for exps, c in f.terms.items()},
            {ops.exponent_word(exps, power)[::-1]: 1 for exps in f.terms},
        ]
        assert ops.apply_words(seed, sums, steps) == [_word_loop(seed, w, steps) for w in sums]
    assert ops.exponent_word((2, 0, 1)) == (0, 0, 2)
    a, b = Polynomial.monomial((1, 2, 0)), {(0, 1): 1}
    assert ops.apply_words(a, [b], steps) != ops.apply_words(a, [{(1, 0): 1}], steps)


def _word_by_word_antisymmetrizer(n, beta):
    """(1/N!) sum_w sign(w) shat_{i_1} ... shat_{i_l}, (i_1..i_l) =
    reduced_word(w), each word its own composition."""
    from math import factorial

    from heckepoly.combinatorics import all_permutations, reduced_word, sign

    total = ops.scalar(n, 0)
    for w in all_permutations(n):
        word = ops.identity(n)
        for i in reduced_word(w):
            word = word * ops.deformed_transposition(n, i, beta)
        total = total + sign(w) * word
    return Fraction(1, factorial(n)) * total


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("beta", [0, 1, 2])
def test_prefix_built_antisymmetrizer_equals_the_word_sum(n, beta):
    prefix = ops.symmetrizer(n, "minus_deformed", beta)
    assert ops.operator_equal(prefix, _word_by_word_antisymmetrizer(n, beta), 4)


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
    assert ops._split_content(one)[0] == half
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
        assert ops.operator_equal(op_a, op_b, 3) is (expected is None)
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
