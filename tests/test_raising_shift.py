"""Raising operators, Rodrigues chains, shift operators, and duality."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heckepoly.combinatorics import (
    monomial_symmetric,
    partition_cells,
    random_symmetric_polynomial,
    staircase,
)
from heckepoly.errors import RodriguesSingularError
from heckepoly.families import (
    FamilyPolynomial,
    construct,
    hermite,
    jack,
    laguerre,
)
from heckepoly.pairings import shift_constants
from heckepoly.parameters import hermite_spec, jack_spec, laguerre_spec
from heckepoly.polynomials import Polynomial, divide_exact, vandermonde
from heckepoly.raising import (
    hook_product,
    raising_apply,
    raising_constant,
    rodrigues,
)
from heckepoly.shift import (
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


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=4), st.integers(0, 3), st.data())
def test_integer_constants_equal_the_fraction_products(parts, beta, data):
    """raising_constant, shift_constants and hook_product multiply ints and
    return Fractions equal to the products taken over Fractions."""
    n, lam = len(parts), tuple(sorted(parts, reverse=True))
    m = data.draw(st.integers(1, n))
    raise_ref = Fraction(1)
    for j in range(1, m + 1):
        raise_ref *= lam[j - 1] + beta * (m - j + 1)
    c_ref = c_tilde_ref = Fraction(1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            diff = lam[n - j] - lam[n - i] + j - i
            c_ref *= diff + beta * (j - i - 1)
            c_tilde_ref *= diff + beta * (j - i + 1)
    conj = [sum(1 for p in lam if p >= col) for col in range(1, max(lam) + 1)]
    hook_ref = Fraction(1)
    for i, j in partition_cells(lam):
        hook_ref *= lam[i - 1] - j + beta * (conj[j - 1] - i + 1)
    for spec in (jack_spec(n, beta), laguerre_spec(n, beta, Fraction(1, 3))):
        value = raising_constant(list(lam), m, spec)
        assert type(value) is Fraction and value == raise_ref
    constants = shift_constants(lam, n, beta)
    assert all(type(c) is Fraction for c in constants)
    assert constants == (c_ref, c_tilde_ref)
    hooks = hook_product(lam, beta)
    assert type(hooks) is Fraction and hooks == hook_ref


def test_raising_length_hypothesis():
    spec = jack_spec(2, 1)
    with pytest.raises(ValueError, match="nonzero parts"):
        raising_apply(1, jack((2, 1), spec))


@pytest.mark.parametrize("lam, m", [((2, 1), 1), ((1, 1, 1), 1), ((1, 1, 1), 2), ((2, 2, 1), 2)])
def test_raising_rejects_labels_that_add_to_first_parts_does_not_check(lam, m):
    """``add_to_first_parts`` does not check its output.  raising_apply
    rejects a label with a part beyond row m, and ``pad_partition`` a label
    that is not a partition, before it is called."""
    spec = jack_spec(len(lam), 1)
    with pytest.raises(ValueError, match="nonzero parts"):
        raising_apply(m, jack(lam, spec))
    poly = monomial_symmetric(len(lam), lam)
    with pytest.raises(ValueError, match="not weakly decreasing"):
        raising_apply(len(lam), FamilyPolynomial((0,) + lam[1:], spec, poly, "triangular", ()))


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


_DEFORMED_LEMMA = "deformed P- annihilates (Y'-Yhat') f"


def test_antisymmetrizer_checks():
    """appendix_A's lemma rows, P_- (Y(+) - Y(-)) f = 0 on symmetric f,
    hold on every m_lam up to the degree: in the Cherednik, Hermite and
    Laguerre (gamma = 1/3) realizations and in the coordinate model with
    the deformed P_-."""
    from heckepoly import operators as ops
    from heckepoly.verify import GridSpec, _appendix_rows

    for n, relation, degree in (
        (2, "P- annihilates (Y-Yhat) f, Cherednik model", 4),
        (3, _DEFORMED_LEMMA, 3),
        (2, "P- annihilates (Y-Yhat) f, Hermite model", 3),
        (2, "P- annihilates (Y-Yhat) f, Laguerre model", 3),
    ):
        grid = GridSpec(ns=(n,), betas=(1,), gammas=(Fraction(1, 3),))
        rows = {label: (lhs, rhs) for label, lhs, rhs in _appendix_rows(n, 1, grid)}
        assert ops.first_difference(*rows[relation], degree) is None


def test_coordinate_products_difference_evaluated_exactly(monkeypatch):
    # the coordinate-model multiplier prod (beta - x_i + x_j) - prod (-beta
    # - x_i + x_j) of appendix_A's deformed lemma row: zero at beta = 0, and
    # at beta = 1, N = 2 the constant 2 (recorded, not assumed)
    from heckepoly import operators as ops
    from heckepoly.verify import GridSpec, _appendix_rows

    multipliers, multiply_by = [], ops.multiply_by
    monkeypatch.setattr(ops, "multiply_by", lambda p: multipliers.append(p) or multiply_by(p))
    for beta, expected in ((0, Polynomial.zero(2)), (1, Polynomial.constant(2, 2))):
        multipliers.clear()
        for label, _lhs, _rhs in _appendix_rows(2, beta, GridSpec()):
            if label == _DEFORMED_LEMMA:  # the rows are built lazily: stop at this one
                break
        assert multipliers == [expected]


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
            f = polys[spec]
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


_MEMO_SPECS = [
    make(n, beta)
    for make in (jack_spec, hermite_spec, lambda n, beta: laguerre_spec(n, beta, Fraction(1, 2)))
    for n in (2, 3)
    for beta in (0, 1, 2)
]


@pytest.mark.parametrize(
    "spec", _MEMO_SPECS, ids=lambda s: f"{s.family}-N{s.n}-beta{s.beta}"
)
def test_orbit_image_memo_equals_direct_application(spec):
    """R_1..R_N, Y(-), Y(+) X, and e_1..e_N(Dhat) (Jack) or sigma (Hermite,
    Laguerre) through the orbit-image memo equal the map applied to the
    whole input, on random symmetric inputs with shared orbits and
    fractional coefficients, cold and warm."""
    from heckepoly import clear_caches
    from heckepoly import operators as ops
    from heckepoly.families import realization
    from heckepoly.raising import raising_operator
    from heckepoly.shift import _y_product

    n, real = spec.n, realization(spec)
    rng = random.Random(f"{spec}")
    inputs = [random_symmetric_polynomial(n, 3, rng) for _ in range(3)]
    inputs.append(Fraction(1, 3) * inputs[0] - Fraction(5, 2) * inputs[1])
    x = vandermonde(n)
    chers = [ops.cherednik(j, spec) for j in range(1, n + 1)]
    elementary = [
        sum((math.prod(subset) for subset in itertools.combinations(chers, k)), ops.scalar(n, 0))
        for k in range(1, n + 1)
    ]
    clear_caches()
    for f in inputs:
        for m in range(1, n + 1):
            op = raising_operator(m, spec)
            assert real.apply_symmetric(op, f) == op(f)
        minus, plus = _y_product(spec, -1), _y_product(spec, 1)
        image = minus(f)
        assert apply_g(f, spec) == (image and divide_exact(image, x))
        assert apply_ghat(f, spec) == plus(x * f)
        if spec.family == "jack":
            for k, e_k in enumerate(elementary, 1):
                assert real.apply_symmetric(e_k, f) == e_k(f)
        else:
            assert real.apply_symmetric(real.intertwine, f) == real.intertwine(f)
    clear_caches()


@pytest.mark.parametrize("ghat_first", [False, True])
def test_y_plus_with_and_without_the_vandermonde_in_one_session(ghat_first):
    """Y(+)(f) and Y(+)(X f) are different maps: Ghat reads its own stored
    images and Y(+) alone is applied directly, so neither serves the other."""
    from heckepoly import clear_caches
    from heckepoly.shift import _y_product

    for spec in (jack_spec(2, 1), hermite_spec(3, 1), laguerre_spec(3, 2, Fraction(1, 3))):
        plus = _y_product(spec, 1)
        f = random_symmetric_polynomial(spec.n, 2, random.Random(spec.n))
        expected = {"f": plus(f), "X f": plus(vandermonde(spec.n) * f)}
        clear_caches()
        order = ["X f", "f"] if ghat_first else ["f", "X f"]
        for which in order + order:
            image = apply_ghat(f, spec) if which == "X f" else _y_product(spec, 1)(f)
            assert image == expected[which], which
    clear_caches()


def test_orbit_image_memo_rejects_non_symmetric_input():
    spec = jack_spec(2, 1)
    with pytest.raises(ValueError, match="not symmetric"):
        apply_g(Polynomial.variable(2, 1), spec)
    with pytest.raises(ValueError, match="not symmetric"):
        apply_ghat(Polynomial.monomial((2, 1)) + Polynomial.monomial((1, 2), 3), spec)
    with pytest.raises(ValueError, match="not symmetric"):
        raising_apply(1, FamilyPolynomial((1, 0), spec, Polynomial.variable(2, 1), "x", (1, 1)))


def test_rodrigues_chain_stores_the_raising_images():
    """A cold Rodrigues chain fills the images of R_1 and R_2, keyed by
    the operators themselves, that raising_apply reads: raising along the
    chain adds no stored image."""
    from heckepoly import cache_info, clear_caches, families
    from heckepoly.raising import raising_operator

    lam = (2, 1, 0)
    for spec in (jack_spec(3, 1), hermite_spec(3, 1), laguerre_spec(3, 2, Fraction(1, 3))):
        clear_caches()
        rodrigues(lam, spec)
        stored = {slot[0] for slot in families._ORBIT_IMAGES}
        assert stored == {raising_operator(1, spec), raising_operator(2, spec)}
        count = cache_info()["families.orbit_images"]
        raising_apply(1, construct((0, 0, 0), spec))
        raising_apply(2, construct((1, 0, 0), spec))
        assert cache_info()["families.orbit_images"] == count
    clear_caches()


@pytest.mark.parametrize("which", ["raise", "shift"])
def test_a_map_swapped_in_a_warm_session_is_read_afresh(which, monkeypatch):
    """The stored images are keyed by the map itself: after a warm R_1 or G
    request, the same request with the map doubled, and no clear_caches,
    reads the new map's images and fails."""
    from heckepoly import clear_caches, raising, shift
    from heckepoly.errors import NotProportionalError

    spec = hermite_spec(2, 1)
    module, name = (raising, "raising_operator") if which == "raise" else (shift, "_shift_image")
    original, doubled = getattr(module, name), {}

    def request():
        if which == "raise":
            return raising_apply(1, construct((0, 0), spec))
        return shift_apply("G", construct((1, 0), spec))

    def planted(*args):
        if args not in doubled:
            image_of = original(*args)
            doubled[args] = lambda f: 2 * image_of(f)
        return doubled[args]

    clear_caches()
    request()
    monkeypatch.setattr(module, name, planted)
    try:
        with pytest.raises(NotProportionalError, match="not proportional"):
            request()
    finally:
        monkeypatch.undo()
        clear_caches()


def test_orbit_images_are_registered_and_cleared():
    from heckepoly import cache_info, clear_caches

    clear_caches()
    assert cache_info()["families.orbit_images"] == 0
    shift_apply("G", jack((2, 0), jack_spec(2, 1)))
    assert cache_info()["families.orbit_images"] > 0
    clear_caches()
    assert cache_info()["families.orbit_images"] == 0
