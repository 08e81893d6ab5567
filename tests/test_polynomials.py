"""Exact sparse-polynomial arithmetic, division, and serialization."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heckepoly import operators as ops
from heckepoly.errors import AmbientSizeMismatch, NotDivisibleError
from heckepoly.polynomials import (
    Polynomial,
    divide_exact,
    grlex_key,
    monomials_of_degree,
    monomials_up_to_degree,
    vandermonde,
)


def poly_strategy(nvars, max_degree=4, max_terms=5):
    exps = st.tuples(*[st.integers(0, max_degree) for _ in range(nvars)])
    term = st.tuples(exps, st.integers(-4, 4))
    return st.lists(term, max_size=max_terms).map(
        lambda terms: sum(
            (Polynomial.monomial(e, c) for e, c in terms),
            Polynomial.zero(nvars),
        )
    )


# rationals with small denominators, so that sums and products of scaled
# polynomials often come back to integers
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def rational_poly_strategy(nvars):
    """Polynomials mixing integer and non-integer coefficients."""
    return st.tuples(poly_strategy(nvars), rationals, poly_strategy(nvars)).map(
        lambda t: t[0] * t[1] + t[2]
    )


def assert_canonical(p):
    """Stored values are nonzero ints or Fractions with denominator > 1;
    the accessors return Fraction; the JSON and pretty forms do not
    depend on how the values are stored."""
    for c in p.terms.values():
        if type(c) is int:
            assert c != 0
        else:
            assert type(c) is Fraction and c.denominator > 1, repr(c)
    assert type(p.constant_term()) is Fraction
    for exps in p.terms:
        assert type(p.coefficient(exps)) is Fraction
    if p:
        assert type(p.leading()[1]) is Fraction
    public = Polynomial(p.nvars, {e: Fraction(c) for e, c in p.terms.items()})
    assert p.to_json_dict() == public.to_json_dict()
    assert p.pretty() == public.pretty()


_PRIMITIVES = [
    ops.derivative(2, 1),
    ops.exchange(2, 1, 2),
    ops.sign_flip(2, 2),
    ops.divided_diff_minus(2, 1, 2),
    ops.divided_diff_plus(2, 2, 1),
    ops.sign_divided(2, 1),
]


@settings(max_examples=80, deadline=None)
@given(rational_poly_strategy(2), rational_poly_strategy(2), rationals)
def test_coefficient_invariant(f, g, r):
    for p in (f, g, f + g, f - g, -f, f * g, f * r, r * f, f * 2, f + r):
        assert_canonical(p)
    for op in _PRIMITIVES:
        assert_canonical(op(f))
    assert_canonical((r * ops.derivative(2, 2) + ops.sign_divided(2, 2))(g))


def test_integral_results_are_int():
    x = Polynomial.variable(1, 1)
    half = x * Fraction(1, 2)
    assert type(half.terms[(1,)]) is Fraction
    assert type((half + half).terms[(1,)]) is int
    assert type((half * 2).terms[(1,)]) is int
    assert type(ops.derivative(1, 1)(half * x).terms[(1,)]) is int
    assert type(ops.sign_divided(1, 1)(half).terms[(0,)]) is int
    assert Polynomial(1, {(1,): Fraction(4, 2)}).terms == {(1,): 2}


def test_float_scalars_rejected():
    x = Polynomial.variable(1, 1)
    with pytest.raises(TypeError, match="float"):
        Polynomial(1, {(1,): 0.1})
    with pytest.raises(TypeError, match="float"):
        x * 0.5
    with pytest.raises(TypeError, match="float"):
        x + 0.5
    with pytest.raises(TypeError, match="float"):
        0.5 * ops.derivative(1, 1)
    with pytest.raises(TypeError, match="float"):
        ops.derivative(1, 1) * 0.5
    with pytest.raises(TypeError, match="float"):
        ops.scalar(1, 0.5)


@pytest.mark.parametrize(
    "case", ["laguerre gamma", "grid gamma", "dunkl_pairing scale", "bool beta"]
)
def test_inexact_parameters_rejected(case):
    """A float gamma or scale would be taken at its binary value (0.1 as
    3602879701896397/36028797018963968), and a bool beta would be read as
    0 or 1 and serialised as true."""
    from heckepoly import FamilySpec, dunkl_pairing, hermite_spec
    from heckepoly.verify import GridSpec

    x = Polynomial.variable(2, 1)
    build, error = {
        "laguerre gamma": (lambda: FamilySpec("laguerre", 2, 1, 0.1), TypeError),
        "grid gamma": (lambda: GridSpec(gammas=(0.1,)), TypeError),
        "dunkl_pairing scale": (lambda: dunkl_pairing(x, x, hermite_spec(2, 1), scale=0.1),
                                TypeError),
        "bool beta": (lambda: FamilySpec("jack", 2, True), ValueError),
    }[case]
    with pytest.raises(error):
        build()


def test_basic_arithmetic():
    x1 = Polynomial.variable(2, 1)
    x2 = Polynomial.variable(2, 2)
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2
    assert (x1 - x1) == Polynomial.zero(2)
    assert not Polynomial.zero(2)
    assert (2 * x1).coefficient((1, 0)) == 2
    assert (x1 * Fraction(1, 3)).coefficient((1, 0)) == Fraction(1, 3)
    assert (x1 + 1).constant_term() == 1


def test_power_and_degree():
    x = Polynomial.variable(1, 1)
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
    assert (x**5).degree() == 5
    assert Polynomial.zero(1).degree() == 0


def test_ambient_mismatch():
    with pytest.raises(AmbientSizeMismatch):
        Polynomial.variable(2, 1) + Polynomial.variable(3, 1)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(2), poly_strategy(2), poly_strategy(2))
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(poly_strategy(3, max_degree=4), poly_strategy(3, max_degree=4))
def test_divide_exact_round_trip(f, g):
    if not g:
        return
    assert divide_exact(f * g, g) == f


@settings(max_examples=30, deadline=None)
@given(poly_strategy(4, max_degree=2, max_terms=4), poly_strategy(4, max_degree=2, max_terms=4))
def test_divide_exact_round_trip_four_vars(f, g):
    if not g:
        return
    assert divide_exact(f * g, g) == f


def test_divide_exact_examples():
    x1 = Polynomial.variable(2, 1)
    x2 = Polynomial.variable(2, 2)
    assert divide_exact(x1 * x1 - x2 * x2, x1 - x2) == x1 + x2
    with pytest.raises(NotDivisibleError, match="not divisible"):
        divide_exact(x1 + x2, x1 - x2)
    mono = Polynomial.monomial((1, 1, 1))
    v3 = vandermonde(3)
    assert divide_exact(v3 * mono, v3) == mono


def test_vandermonde():
    assert vandermonde(1) == Polynomial.one(1)
    x1 = Polynomial.variable(2, 1)
    x2 = Polynomial.variable(2, 2)
    assert vandermonde(2) == x1 - x2
    v3 = vandermonde(3)
    assert len(v3.terms) == 6
    assert all(abs(c) == 1 for c in v3.terms.values())
    for i in range(1, 3):
        assert ops.exchange(3, i, i + 1)(v3) == -v3


def test_laurent_detection():
    p = Polynomial(2, {(1, -2): Fraction(3)})
    assert p.is_laurent()
    with pytest.raises(NotDivisibleError):
        divide_exact(p, Polynomial.one(2))


def test_json_round_trip_and_ordering():
    p = Polynomial(2, {(2, 0): Fraction(1), (0, 0): Fraction(-1, 2), (1, 1): Fraction(3)})
    data = p.to_json_dict()
    assert Polynomial.from_json_dict(data) == p
    exps = [tuple(t["exp"]) for t in data["terms"]]
    assert exps == sorted(exps, key=grlex_key)
    assert all(isinstance(t["num"], str) for t in data["terms"])
    json.dumps(data)  # serializable


def test_pretty():
    x = Polynomial.variable(1, 1)
    assert (x * x - Fraction(1, 2)).pretty() == "x^2 - 1/2"
    p = Polynomial(2, {(1, 1): Fraction(1), (0, 0): Fraction(1)})
    assert p.pretty() == "x_1 x_2 + 1"
    assert Polynomial.zero(2).pretty() == "0"


def test_monomial_enumeration():
    assert list(monomials_of_degree(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert len(list(monomials_up_to_degree(3, 3))) == 20


def test_stretch_and_scale():
    from heckepoly.families import encode_even

    u = Polynomial.variable(1, 1)
    assert encode_even(u + 1) == u * u + 1
    f = Polynomial(2, {(1, 3): Fraction(1, 2), (0, 0): -1})
    assert encode_even(f) == Polynomial(2, {(2, 6): Fraction(1, 2), (0, 0): -1})
