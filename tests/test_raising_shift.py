"""Raising operators, Rodrigues chains, shift operators, and duality."""

import random
from fractions import Fraction

import pytest

from heckepoly.combinatorics import (
    monomial_symmetric,
    random_symmetric_polynomial,
    staircase,
)
from heckepoly.errors import RodriguesSingularError
from heckepoly.families import construct, encode_even, hermite, jack, laguerre
from heckepoly.pairings import shift_constants
from heckepoly.parameters import hermite_spec, jack_spec, laguerre_spec
from heckepoly.polynomials import Polynomial
from heckepoly.raising import (
    hook_product,
    raising_apply,
    raising_constant,
    rodrigues,
)
from heckepoly.shift import (
    antisymmetrizer_lemma_check,
    apply_g,
    apply_ghat,
    calibrate,
    duality_check,
    norm_recursion_check,
    shift_apply,
)


def test_raising_jack_base_cases():
    spec = jack_spec(2, 1)
    c, raised = raising_apply(1, jack((0, 0), spec))
    assert c == 1 and raised.label == (1, 0)
    assert raised.poly == monomial_symmetric(2, (1, 0))
    c2, raised2 = raising_apply(1, raised)
    assert c2 == 2 and raised2.label == (2, 0)
    # m = N: fully packed column
    cN, column = raising_apply(2, jack((0, 0), spec))
    assert cN == 2  # beta^2 * 2! at beta=1 -> (0+2)(0+1)
    assert column.poly == monomial_symmetric(2, (1, 1))


def test_raising_constants_all_families():
    for beta in (1, 2):
        for spec in (
            jack_spec(2, beta),
            hermite_spec(2, beta),
            laguerre_spec(2, beta, Fraction(1, 3)),
        ):
            base = construct((1, 0), spec)
            c, raised = raising_apply(1, base)
            assert c == 1 + beta == raising_constant((1, 0), 1, spec)
            assert raised.label == (2, 0)
            c2, _ = raising_apply(2, construct((1, 1), spec))
            assert c2 == (1 + 2 * beta) * (1 + beta)


def test_raising_length_hypothesis():
    spec = jack_spec(2, 1)
    with pytest.raises(ValueError, match="nonzero parts"):
        raising_apply(1, jack((2, 1), spec))


def test_raising_witness_decomposition():
    # outside the length hypothesis the image is a two-term Jack combination
    spec = jack_spec(2, 1)
    from heckepoly.raising import raising_operator

    image = raising_operator(1, spec)(jack((2, 1), spec).poly)
    expected = 3 * jack((3, 1), spec).poly + jack((2, 2), spec).poly
    assert image == expected


def test_hook_product():
    assert hook_product((0, 0), 1) == 1
    assert hook_product((1, 0), 1) == 1
    assert hook_product((2, 1), 1) == (2 - 1 + 1 * (2 - 1 + 1)) * (2 - 2 + 1 * (1 - 1 + 1)) * 1
    assert hook_product((1, 0), 0) == 0


def test_rodrigues_examples():
    spec = jack_spec(2, 1)
    assert rodrigues((1, 0), spec).poly == monomial_symmetric(2, (1, 0))
    assert rodrigues((1, 1), spec).poly == monomial_symmetric(2, (1, 1))
    herm = hermite_spec(2, 1)
    assert rodrigues((2, 0), herm).poly == hermite((2, 0), herm).poly
    with pytest.raises(RodriguesSingularError, match="singular"):
        rodrigues((1, 0), jack_spec(2, 0))
    assert rodrigues((0, 0), jack_spec(2, 0)).poly == Polynomial.one(2)


def test_rodrigues_cross_method_grid():
    for beta in (1, 2):
        for lam in [(2, 1), (2, 2), (3, 1)]:
            sj = jack_spec(2, beta)
            assert rodrigues(lam, sj).poly == jack(lam, sj).poly
            sh = hermite_spec(2, beta)
            assert rodrigues(lam, sh).poly == hermite(lam, sh).poly
            sl = laguerre_spec(2, beta, Fraction(1, 2))
            assert rodrigues(lam, sl).poly == laguerre(lam, sl).poly


def test_calibration_probes():
    # hand-expanded N=2 probes: Y(-) maps m_1 to -X, Y(+) maps X to -(1+2b) m_1
    for beta in (1, 2):
        spec = jack_spec(2, beta)
        m1 = monomial_symmetric(2, (1, 0))
        assert apply_g(m1, spec) == Polynomial.constant(2, -1)
        x_poly = Polynomial.variable(2, 1) - Polynomial.variable(2, 2)
        ghat_img = apply_ghat(Polynomial.one(2), spec)
        assert ghat_img == -(1 + 2 * beta) * m1
    for family, gamma in [("jack", None), ("hermite", None), ("laguerre", Fraction(1, 2))]:
        for n in (2, 3):
            report = calibrate(family, n, 1, gamma)
            assert report.assignment == "swapped"
            assert report.global_sign == (-1) ** (n * (n - 1) // 2)
            assert report.to_json_dict()["witness_N"] == n


def test_shift_apply_round_trip():
    spec = jack_spec(2, 1)
    delta = staircase(2)
    for lam in [(0, 0), (1, 0), (1, 1)]:
        raised_label = tuple(p + d for p, d in zip(lam, delta))
        const, upper = shift_apply("G", jack(raised_label, spec))
        c_val, ct_val = shift_constants(lam, 2, 1)
        assert abs(const) == c_val
        assert upper.spec.beta == 2 and upper.label == lam
        const2, back = shift_apply("G_hat", upper)
        assert abs(const2) == ct_val
        assert back.spec.beta == 1 and back.label == raised_label


def test_shift_apply_errors():
    spec = jack_spec(2, 1)
    with pytest.raises(ValueError, match="lam\\+delta"):
        shift_apply("G", jack((1, 1), spec))  # (1,1) - delta is not a partition
    with pytest.raises(ValueError, match="beta >= 1"):
        shift_apply("G_hat", jack((1, 0), jack_spec(2, 0)))
    with pytest.raises(ValueError, match="unknown shift direction"):
        shift_apply("sideways", jack((1, 0), spec))


def test_duality_examples():
    one = Polynomial.one(2)
    assert duality_check(one, one, jack_spec(2, 1))
    rng = random.Random(41)
    for beta in (0, 1):
        for spec in (
            jack_spec(2, beta),
            hermite_spec(2, beta),
            laguerre_spec(2, beta, Fraction(1, 2)),
        ):
            for _ in range(4):
                f = random_symmetric_polynomial(2, 3, rng)
                g = random_symmetric_polynomial(2, 3, rng)
                assert duality_check(f, g, spec)


def test_antisymmetrizer_checks():
    assert antisymmetrizer_lemma_check(jack_spec(2, 1), 4, "rho")
    assert antisymmetrizer_lemma_check(jack_spec(3, 1), 3, "primitive")
    assert antisymmetrizer_lemma_check(hermite_spec(2, 1), 3, "rho")
    assert antisymmetrizer_lemma_check(laguerre_spec(2, 1, Fraction(1, 3)), 3, "rho")


def test_coordinate_products_difference_evaluated_exactly():
    # at beta = 0 the two coordinate-model products are identical; at
    # beta = 1, N = 2 their difference is the constant 2 (recorded, not assumed)
    from heckepoly.shift import _coordinate_y

    assert _coordinate_y(2, 0) - _coordinate_y(2, -0) == Polynomial.zero(2)
    assert _coordinate_y(2, 1) - _coordinate_y(2, -1) == Polynomial.constant(2, 2)


def test_single_variable_shift_degenerates_gracefully():
    # at N = 1 the Vandermonde and both products are empty: G is the identity
    report = calibrate("jack", 1, 1, None)
    assert report.global_sign == 1
    const, up = shift_apply("G", jack((0,), jack_spec(1, 1)))
    assert const == 1 and up.spec.beta == 2
    assert duality_check(Polynomial.one(1), Polynomial.one(1), jack_spec(1, 2))


def test_norm_recursion_closure():
    for lam in [(0, 0), (1, 0), (2, 0), (1, 1)]:
        assert norm_recursion_check(lam, jack_spec(2, 1))
        assert norm_recursion_check(lam, hermite_spec(2, 0))
        assert norm_recursion_check(lam, hermite_spec(2, 1))
        assert norm_recursion_check(lam, laguerre_spec(2, 1, Fraction(1, 2)))
    assert norm_recursion_check((1, 0, 0), jack_spec(3, 1))


def test_composites_built_once_and_cleared():
    from heckepoly import cache_info, clear_caches
    from heckepoly.raising import raising_operator
    from heckepoly.shift import _y_product

    specs = [jack_spec(3, 1), hermite_spec(3, 2), laguerre_spec(3, 1, Fraction(1, 2))]
    polys = {spec: construct((1, 0, 0), spec).poly for spec in specs}

    def images():
        out = []
        for spec in specs:
            f = polys[spec] if spec.family != "laguerre" else encode_even(polys[spec])
            out.append([raising_operator(m, spec)(f) for m in (1, 2, 3)])
            out.append([_y_product(spec, sign)(f) for sign in (1, -1)])
        return out

    def composites(info):
        return info["raising.raising_operator"] + info["shift._y_product"]

    clear_caches()
    cold = images()
    info = cache_info()
    assert composites(info) == len(specs) * (3 + 2)
    assert raising_operator(2, specs[0]) is raising_operator(2, specs[0])
    assert _y_product(specs[1], -1) is _y_product(specs[1], -1)
    assert images() == cold and cache_info() == info
    held = raising_operator(1, specs[2])
    clear_caches()
    assert composites(cache_info()) == 0
    assert raising_operator(1, specs[2]) is not held
    assert images() == cold and cache_info() == info
