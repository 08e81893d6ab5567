"""Inner products, adjointness, orthogonality, and closed-form norms."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from heckepoly import operators as ops
from heckepoly.combinatorics import (
    monomial_symmetric,
    partitions_up_to,
    random_polynomial,
    random_symmetric_polynomial,
)
from heckepoly.errors import AmbientSizeMismatch, DivergentWeightError
from heckepoly.families import hermite, jack, laguerre, sigma_a
from heckepoly.pairings import (
    ScaledRational,
    ct_pairing,
    dunkl_pairing,
    gauss_pairing,
    laguerre_pairing,
    norm_formula,
    shift_constants,
)
from heckepoly.parameters import hermite_spec, jack_spec, laguerre_spec
from heckepoly.polynomials import Polynomial, vandermonde


def test_scaled_rational_zero_and_render():
    zero = ScaledRational(0, pi_half=5)
    assert zero.pi_half == 0 and zero == ScaledRational(0, gamma_base=2)
    assert ScaledRational(Fraction(3, 2), 1, 2).render() == "3/2 · π^{1/2} · Γ(γ+1/2)^2"
    assert ScaledRational(1, 2, 0).render() == "π"
    assert ScaledRational(2, 0, 0).render() == "2"
    data = ScaledRational(Fraction(-5, 3), 2, 1).to_json_dict()
    assert data == {"q": "-5/3", "pi_half": 2, "gamma_base": 1}


def test_ct_pairing_values():
    spec = jack_spec(2, 1)
    one = Polynomial.one(2)
    assert ct_pairing(one, one, spec) == 2
    assert ct_pairing(one, one, jack_spec(2, 0)) == 1
    assert ct_pairing(Polynomial.one(3), Polynomial.one(3), jack_spec(3, 0)) == 1
    m1 = monomial_symmetric(2, (1, 0))
    assert ct_pairing(m1, m1, spec) == 2
    # <1,1> = (beta N)!/(beta!)^N
    import math

    for n in (2, 3):
        for beta in (1, 2):
            value = ct_pairing(Polynomial.one(n), Polynomial.one(n), jack_spec(n, beta))
            assert value == Fraction(math.factorial(beta * n), math.factorial(beta) ** n)


def test_ct_pairing_bilinear_symmetric_selfadjoint():
    spec = jack_spec(2, 1)
    rng = random.Random(5)
    dhat = ops.cherednik(1, spec)
    for _ in range(5):
        f = random_polynomial(2, 4, rng)
        g = random_polynomial(2, 4, rng)
        h = random_polynomial(2, 4, rng)
        assert ct_pairing(f + h, g, spec) == ct_pairing(f, g, spec) + ct_pairing(h, g, spec)
        assert ct_pairing(dhat(f), g, spec) == ct_pairing(f, dhat(g), spec)
    for _ in range(5):
        f = random_symmetric_polynomial(2, 3, rng)
        g = random_symmetric_polynomial(2, 3, rng)
        assert ct_pairing(f, g, spec) == ct_pairing(g, f, spec)


def test_ct_positivity():
    rng = random.Random(9)
    for n, beta in [(2, 1), (2, 2), (3, 1)]:
        spec = jack_spec(n, beta)
        for _ in range(6):
            f = random_symmetric_polynomial(n, 3, rng)
            assert ct_pairing(f, f, spec) > 0


def test_gauss_laguerre_positivity():
    rng = random.Random(15)
    for n, beta in [(2, 1), (2, 2), (3, 1)]:
        herm = hermite_spec(n, beta)
        for gamma in (Fraction(0), Fraction(1, 2), Fraction(1)):
            lag = laguerre_spec(n, beta, gamma)
            for _ in range(4):
                f = random_symmetric_polynomial(n, 3, rng)
                assert gauss_pairing(f, f, herm).q > 0
                assert laguerre_pairing(f, f, lag).q > 0


def test_gauss_pairing_values():
    spec1 = hermite_spec(1, 0)
    x = Polynomial.variable(1, 1)
    assert gauss_pairing(x, x, spec1) == ScaledRational(Fraction(1, 2), pi_half=1)
    assert gauss_pairing(x, Polynomial.one(1), spec1).q == 0
    spec = hermite_spec(2, 1)
    one = Polynomial.one(2)
    assert gauss_pairing(one, one, spec) == ScaledRational(1, pi_half=2)
    with pytest.raises(ValueError, match=r"^negative exponent in \(-2,\)$"):
        Polynomial.monomial((-2,))


def test_gauss_adjointness():
    rng = random.Random(17)
    for n, beta in [(2, 1), (2, 2)]:
        spec = hermite_spec(n, beta)
        up = ops.creation(1, spec)
        down = ops.dunkl(1, spec)
        h1 = ops.htilde(2, spec)
        for _ in range(5):
            f = random_polynomial(n, 3, rng)
            g = random_polynomial(n, 3, rng)
            assert gauss_pairing(up(f), g, spec) == gauss_pairing(f, down(g), spec)
            assert gauss_pairing(h1(f), g, spec) == gauss_pairing(f, h1(g), spec)


def test_laguerre_pairing_values():
    spec = laguerre_spec(1, 0, Fraction(1, 4))
    one = Polynomial.one(1)
    u = Polynomial.variable(1, 1)
    assert laguerre_pairing(one, one, spec) == ScaledRational(1, gamma_base=1)
    assert laguerre_pairing(u, one, spec) == ScaledRational(Fraction(3, 4), gamma_base=1)
    l1 = laguerre((1,), spec).poly
    assert laguerre_pairing(l1, one, spec).q == 0
    with pytest.raises(ValueError, match=r"^negative exponent in \(-1,\)$"):
        Polynomial.monomial((-1,))
    with pytest.raises(DivergentWeightError, match="divergent weight"):
        laguerre_pairing(one, one, laguerre_spec(1, 0, Fraction(-1, 2)))
    # the closed-form norms refuse the divergent weight too, on both paths
    for beta in (0, 1):
        for gamma in (-1, Fraction(-1, 2)):
            for form in ("product_form", "hook_form"):
                with pytest.raises(DivergentWeightError, match="divergent weight"):
                    norm_formula((1, 0), laguerre_spec(2, beta, gamma), form)


GUARDED_PAIRINGS = {
    # pairing: (its spec, a spec of another family, or None if it takes any)
    ct_pairing: (jack_spec(2, 1), hermite_spec(2, 1)),
    gauss_pairing: (hermite_spec(2, 1), laguerre_spec(2, 1, Fraction(1, 3))),
    laguerre_pairing: (laguerre_spec(2, 1, Fraction(1, 3)), jack_spec(2, 1)),
    dunkl_pairing: (jack_spec(2, 1), None),
}


@pytest.mark.parametrize("pairing", GUARDED_PAIRINGS, ids=lambda fn: fn.__name__)
def test_pairing_input_guards(pairing):
    spec, foreign = GUARDED_PAIRINGS[pairing]
    x = Polynomial.variable(2, 1)
    wide = Polynomial.variable(3, 1)
    if foreign is not None:
        with pytest.raises(ValueError, match=f"{pairing.__name__} needs a"):
            pairing(x, x, foreign)
    for exps in ((-1, 2), (2, -1)):  # a Laurent input cannot be built
        with pytest.raises(ValueError, match="^negative exponent in"):
            Polynomial.monomial(exps)
    for f, g in ((wide, x), (x, wide), (Polynomial.one(1), Polynomial.one(1))):
        with pytest.raises(AmbientSizeMismatch, match="ambient size mismatch"):
            pairing(f, g, spec)
    if pairing is laguerre_pairing:  # a divergent gamma fails before any other check
        for gamma in (Fraction(-1, 2), -3):
            divergent = laguerre_spec(2, 1, gamma)
            for f, g in ((x, x), (wide, x), (wide, wide)):
                with pytest.raises(DivergentWeightError, match="divergent weight"):
                    pairing(f, g, divergent)


@pytest.mark.parametrize("pairing", [ct_pairing, gauss_pairing, laguerre_pairing],
                         ids=lambda fn: fn.__name__)
def test_pairing_errors_keep_type_message_and_order(pairing):
    """A Laurent input, symmetric or not, is refused where it is built,
    with the one ValueError; a wrong N gives AmbientSizeMismatch, symmetric
    inputs or not; a divergent gamma gives DivergentWeightError before it."""
    spec = GUARDED_PAIRINGS[pairing][0]
    x = Polynomial.variable(2, 1)
    sym = x + Polynomial.variable(2, 2)
    wide = Polynomial.variable(3, 1)
    wide_sym = wide + Polynomial.variable(3, 2) + Polynomial.variable(3, 3)
    for exps in ((-1, 2), (-1, -1), (-1, 0, 0)):
        with pytest.raises(ValueError) as info:
            Polynomial.monomial(exps)
        assert type(info.value) is ValueError
        assert str(info.value) == f"negative exponent in {exps}"
    for f, g, sizes in ((wide, x, "3 and 2"), (sym, wide_sym, "2 and 3"),
                        (wide_sym, wide, "3 and 3")):
        with pytest.raises(AmbientSizeMismatch) as info:
            pairing(f, g, spec)
        assert str(info.value) == (
            f"ambient size mismatch: pairing at N=2 got polynomials in {sizes} variables"
        )
    if pairing is laguerre_pairing:
        for f, g in ((sym, sym), (wide_sym, sym), (wide, wide_sym)):
            with pytest.raises(DivergentWeightError) as info:
                pairing(f, g, laguerre_spec(2, 1, Fraction(-1, 2)))
            assert str(info.value) == "divergent weight: gamma must exceed -1/2"


def test_laguerre_htilde_selfadjoint():
    rng = random.Random(23)
    spec = laguerre_spec(2, 1, Fraction(1, 2))
    from heckepoly.families import decode_even, encode_even

    h1 = ops.htilde(1, spec)
    for _ in range(4):
        f = random_polynomial(2, 2, rng)
        g = random_polynomial(2, 2, rng)
        hf = decode_even(h1(encode_even(f)))
        hg = decode_even(h1(encode_even(g)))
        assert laguerre_pairing(hf, g, spec) == laguerre_pairing(f, hg, spec)


def test_dunkl_pairing_values():
    spec = hermite_spec(1, 0)
    one = Polynomial.one(1)
    x = Polynomial.variable(1, 1)
    assert dunkl_pairing(one, one, spec) == 1
    assert dunkl_pairing(x, x, spec) == 1
    spec2 = hermite_spec(2, 1)
    rng = random.Random(31)
    base = gauss_pairing(Polynomial.one(2), Polynomial.one(2), spec2).q
    for _ in range(5):
        f = random_symmetric_polynomial(2, 3, rng)
        g = random_symmetric_polynomial(2, 3, rng)
        induced = gauss_pairing(sigma_a(f, spec2), sigma_a(g, spec2), spec2).q
        halved = Polynomial(2, {e: Fraction(c, 2 ** sum(e)) for e, c in f.terms.items()})
        assert induced == base * dunkl_pairing(halved, g, spec2)  # f(x/2)


def test_orthogonality_all_families():
    from itertools import combinations

    for n, beta in [(2, 1), (2, 2), (3, 1)]:
        jack_sp = jack_spec(n, beta)
        herm_sp = hermite_spec(n, beta)
        lag_sp = laguerre_spec(n, beta, Fraction(1, 2))
        labels = list(partitions_up_to(3, n))
        j_polys = {lam: jack(lam, jack_sp).poly for lam in labels}
        h_polys = {lam: hermite(lam, herm_sp).poly for lam in labels}
        l_polys = {lam: laguerre(lam, lag_sp).poly for lam in labels}
        for a, b in combinations(labels, 2):
            assert ct_pairing(j_polys[a], j_polys[b], jack_sp) == 0
            assert gauss_pairing(h_polys[a], h_polys[b], herm_sp).q == 0
            assert laguerre_pairing(l_polys[a], l_polys[b], lag_sp).q == 0


def test_norm_formula_examples():
    assert norm_formula((1, 0), jack_spec(2, 1), "product_form") == ScaledRational(2)
    assert norm_formula((0, 0), hermite_spec(2, 1)) == ScaledRational(1, pi_half=2)
    import math

    for n in (2, 3):
        for beta in (0, 1, 2):
            hook = norm_formula((0,) * n, jack_spec(n, beta), "hook_form")
            expected = Fraction(math.factorial(n * beta), math.factorial(beta) ** n)
            assert hook == ScaledRational(expected)


def test_norms_match_pairings_spot():
    for lam in [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]:
        for beta in (0, 1, 2):
            jack_sp = jack_spec(2, beta)
            jp = jack(lam, jack_sp).poly
            value = ct_pairing(jp, jp, jack_sp)
            assert value == norm_formula(lam, jack_sp, "product_form").q
            assert value == norm_formula(lam, jack_sp, "hook_form").q
            herm_sp = hermite_spec(2, beta)
            hp = hermite(lam, herm_sp).poly
            hv = gauss_pairing(hp, hp, herm_sp)
            assert hv == norm_formula(lam, herm_sp, "product_form")
            assert hv == norm_formula(lam, herm_sp, "hook_form")
            lag_sp = laguerre_spec(2, beta, Fraction(1, 3))
            lp = laguerre(lam, lag_sp).poly
            lv = laguerre_pairing(lp, lp, lag_sp)
            assert lv == norm_formula(lam, lag_sp, "product_form")
            assert lv == norm_formula(lam, lag_sp, "hook_form")


def test_beta_zero_norms_carry_stabilizer():
    import math

    # <1,1> at beta=0 is 1 (Jack), pi^{N/2} (Hermite), Gamma^N (Laguerre)
    assert norm_formula((0, 0), jack_spec(2, 0)) == ScaledRational(1)
    assert norm_formula((0, 0), hermite_spec(2, 0)) == ScaledRational(1, pi_half=2)
    # distinct parts at beta=0: N! one-variable products
    assert norm_formula((1, 0), jack_spec(2, 0)) == ScaledRational(2)
    assert norm_formula((1, 1), jack_spec(2, 0)) == ScaledRational(1)
    value = norm_formula((2, 1), hermite_spec(2, 0))
    assert value == ScaledRational(Fraction(2 * 2 * 1, 2**3), pi_half=2)


def test_shift_constants():
    assert shift_constants((0,), 1, 2) == (1, 1)
    for beta in (0, 1, 2):
        assert shift_constants((0, 0), 2, beta) == (1, 1 + 2 * beta)
    assert shift_constants((1, 0), 2, 1) == (2, 4)
    c, ct = shift_constants((2, 1, 0), 3, 2)
    assert c > 0 and ct > 0


# -- the orbit path of symmetric inputs ------------------------------------------

GAMMAS = (Fraction(0), Fraction(1, 3), Fraction(7, 5))


@lru_cache(maxsize=None)
def _weight_lookup(n, beta):
    """Coefficient of x^e in prod (x_i - x_j)^(2 beta), by expansion."""
    return (vandermonde(n) ** (2 * beta)).terms


@lru_cache(maxsize=None)
def _moment_oracle(spec):
    """e -> weighted moment of x^e (Hermite: units of pi^(N/2); Laguerre:
    units of Gamma(gamma+1/2)^N), summed over the expanded weight."""
    import math

    if spec.family == "hermite":

        def one(k):
            if k % 2:
                return Fraction(0)
            return Fraction(math.factorial(k), 4 ** (k // 2) * math.factorial(k // 2))
    else:
        base = spec.gamma + Fraction(1, 2)

        def one(k):
            out = Fraction(1)
            for i in range(k):
                out *= base + i
            return out

    weight = _weight_lookup(spec.n, spec.beta)
    cache = {}

    def moment(e):
        key = tuple(sorted(e))
        if key not in cache:
            total = Fraction(0)
            for w, c in weight.items():
                term = Fraction(c)
                for a, b in zip(key, w):
                    term *= one(a + b)
                total += term
            cache[key] = total
        return cache[key]

    return moment


def double_sum(f, g, spec):
    """The pairing as a term-by-term double sum over f and g."""
    n, beta = spec.n, spec.beta
    if spec.family == "jack":
        weight = _weight_lookup(n, beta)
        shift = beta * (n - 1)
        sgn = (-1) ** (beta * n * (n - 1) // 2)
        total = Fraction(0)
        for a, ca in f.terms.items():
            for b, cb in g.terms.items():
                e = tuple(y - x + shift for x, y in zip(a, b))
                total += ca * cb * weight.get(e, 0)
        return sgn * total
    moment = _moment_oracle(spec)
    return sum(
        (ca * cb * moment(tuple(x + y for x, y in zip(a, b)))
         for a, ca in f.terms.items() for b, cb in g.terms.items()),
        Fraction(0),
    )


def pair_q(f, g, spec):
    if spec.family == "jack":
        return ct_pairing(f, g, spec)
    if spec.family == "hermite":
        return gauss_pairing(f, g, spec).q
    return laguerre_pairing(f, g, spec).q


def symmetric_strategy(n, max_weight):
    """Rational combinations of m_mu, |mu| <= max_weight, with per-orbit
    denominators."""
    labels = list(partitions_up_to(max_weight, n))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    return st.dictionaries(st.sampled_from(labels), coeff, max_size=4).map(
        lambda parts: sum(
            (c * monomial_symmetric(n, mu) for mu, c in parts.items()),
            Polynomial.zero(n),
        )
    )


@st.composite
def symmetric_pairing_case(draw):
    n = draw(st.sampled_from((2, 3, 4)))
    beta = draw(st.sampled_from((0, 1, 2)))
    family = draw(st.sampled_from(("jack", "hermite", "laguerre")))
    if family == "jack":
        spec = jack_spec(n, beta)
    elif family == "hermite":
        spec = hermite_spec(n, beta)
    else:
        spec = laguerre_spec(n, beta, draw(st.sampled_from(GAMMAS)))
    max_weight = 4 if n < 4 else 2
    return spec, draw(symmetric_strategy(n, max_weight)), draw(symmetric_strategy(n, max_weight))


@settings(max_examples=60, deadline=None)
@given(symmetric_pairing_case())
def test_orbit_path_equals_double_sum(case):
    from heckepoly import cache_info, clear_caches

    spec, f, g = case
    clear_caches()
    assert pair_q(f, g, spec) == double_sum(f, g, spec)
    if f and g:  # symmetric inputs are paired through the orbit-numerator table
        assert cache_info()["pairings.orbit_numerators"] > 0


def test_nonsymmetric_input_takes_the_general_path():
    from heckepoly import cache_info, clear_caches

    rng = random.Random(41)
    for spec in (jack_spec(3, 1), hermite_spec(3, 2), laguerre_spec(3, 1, Fraction(7, 5))):
        f = Fraction(2, 3) * monomial_symmetric(3, (2, 1, 0)) + monomial_symmetric(3, (1, 0, 0))
        g = f + Fraction(1, 5) * Polynomial.monomial((2, 0, 1))  # unequal on one orbit
        g2 = f + Polynomial.monomial((3, 0, 0))  # an incomplete orbit
        h = random_polynomial(3, 3, rng) * Fraction(1, 3)
        for left, right in ((f, g), (g, f), (f, g2), (f, h)):
            clear_caches()
            assert pair_q(left, right, spec) == double_sum(left, right, spec)
            assert cache_info()["pairings.orbit_numerators"] == 0
        clear_caches()
        assert pair_q(f, f, spec) == double_sum(f, f, spec)
        assert cache_info()["pairings.orbit_numerators"] > 0


def test_vandermonde_power_is_the_product_of_binomials():
    from heckepoly.pairings import _vandermonde_power

    for n in (1, 2, 3, 4):
        for beta in (0, 1, 2, 3):
            power = _vandermonde_power(n, beta)
            assert power == vandermonde(n) ** (2 * beta), (n, beta)
            assert all(type(c) is int for c in power.terms.values())


# -- moments by Dunkl integration by parts -----------------------------------

MOMENT_GAMMAS = (Fraction(-1, 3), Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2))


@lru_cache(maxsize=None)
def _integer_weight(n, beta):
    """(exponent, integer coefficient) terms of prod_{i<j} (x_i - x_j)^(2 beta),
    multiplied out one binomial at a time."""
    from itertools import combinations
    from math import comb

    terms = {(0,) * n: 1}
    for i, j in combinations(range(n), 2):
        product = {}
        for exps, coeff in terms.items():
            for t in range(2 * beta + 1):
                e = list(exps)
                e[i] += 2 * beta - t
                e[j] += t
                key = tuple(e)
                product[key] = product.get(key, 0) + coeff * comb(2 * beta, t) * (-1) ** t
        terms = {e: c for e, c in product.items() if c}
    return tuple(terms.items())


@lru_cache(maxsize=None)
def _one_variable_moments(spec, top):
    """(k-1)!! for even k and 0 for odd k (Gauss), or p (p+q) ... (p+(k-1)q)
    with gamma + 1/2 = p/q (Laguerre), for k = 0..top."""
    from math import prod

    if spec.family == "hermite":
        return [0 if k % 2 else prod(range(1, k, 2)) for k in range(top + 1)]
    base = spec.gamma + Fraction(1, 2)
    return [prod(base.numerator + i * base.denominator for i in range(k))
            for k in range(top + 1)]


def moment_by_weight_sum(spec, exps):
    """The moment numerator of x^exps in the pairing kernel's units (Gauss:
    times 2^((|exps| + D)/2); Laguerre: times q^(|exps| + D)), as the
    weight summed against the one-variable moments."""
    from math import prod
    from operator import add

    one = _one_variable_moments(spec, max(exps) + 2 * spec.beta * (spec.n - 1))
    return sum(coeff * prod(map(one.__getitem__, map(add, exps, w_exps)))
               for w_exps, coeff in _integer_weight(spec.n, spec.beta))


def test_moment_recurrence_equals_the_weight_sum(monkeypatch):
    """Every sorted exponent of degree <= 9 (<= 6 at N = 5), N = 1..5,
    beta = 0..3 (0..1 at N = 5, where the weight has 38,621 and 185,041
    terms at beta = 2 and 3), Gauss and five Laguerre gammas: the kernel's
    moment equals the weight sum, and the package sums its own weight only
    for M(0), once per spec."""
    from heckepoly import clear_caches, pairings

    summed = []
    ct_weight = pairings._ct_weight
    monkeypatch.setattr(pairings, "_ct_weight",
                        lambda n, beta: summed.append((n, beta)) or ct_weight(n, beta))
    clear_caches()
    checked = specs = 0
    try:
        for n in range(1, 6):
            top = 9 if n < 5 else 6
            exps = [tuple(sorted(mu)) for mu in partitions_up_to(top, n)]
            for beta in range(4 if n < 5 else 2):
                for spec in [hermite_spec(n, beta)] + [
                    laguerre_spec(n, beta, gamma) for gamma in MOMENT_GAMMAS
                ]:
                    value, zero = pairings._kernel(spec).value, (0,) * n
                    for c in exps:
                        assert value(zero, c) == moment_by_weight_sum(spec, c), (spec, c)
                    checked += len(exps)
                    specs += 1
    finally:
        monkeypatch.undo()
        clear_caches()
    assert checked == 4284
    assert len(summed) == specs


def test_high_single_exponents_are_weight_sums():
    """Above the recursion's degree bound a moment is one weight sum, so a
    single high power fills no lower moments (and meets no recursion
    limit)."""
    from heckepoly import cache_info, clear_caches
    from heckepoly.pairings import _RECURSION_DEGREE

    clear_caches()
    cases = ((hermite_spec(2, 1), (1200, 0)), (laguerre_spec(2, 1, Fraction(1, 2)), (0, 600)),
             (hermite_spec(3, 2), (0, 0, _RECURSION_DEGREE + 2)))
    for spec, c in cases:
        f = Polynomial.monomial(c)
        assert pair_q(f, Polynomial.one(spec.n), spec) == Fraction(
            moment_by_weight_sum(spec, tuple(sorted(c))),
            moment_by_weight_sum(spec, (0,) * spec.n),
        ) * pair_q(Polynomial.one(spec.n), Polynomial.one(spec.n), spec) / (
            2 ** (sum(c) // 2) if spec.family == "hermite" else 1
        )
    # per case x^c, its sorted exponent and M(0), nothing in between
    held = sum(len({c, tuple(sorted(c)), (0,) * spec.n}) for spec, c in cases)
    assert cache_info()["pairings._moment_num"] == held == 7
    clear_caches()


def test_gauss_orbit_pairs_of_odd_degree_are_zero_without_a_sum(monkeypatch):
    """The Gauss kernel's step 2 makes <m_mu, m_nu> with |mu| + |nu| odd 0
    before any moment is read."""
    from heckepoly import clear_caches, pairings

    kernel = pairings._kernel

    def no_values(spec):
        def value(a, b):
            raise AssertionError("a moment was read")
        return kernel(spec)._replace(value=value)

    spec = hermite_spec(3, 1)
    clear_caches()
    monkeypatch.setattr(pairings, "_kernel", no_values)
    try:
        numerator = pairings._orbit_numerator(spec)
        assert numerator((2, 1, 0), (1, 1, 0)) == numerator((1, 0, 0), (0, 0, 0)) == 0
        with pytest.raises(AssertionError, match="a moment was read"):
            numerator((1, 0, 0), (1, 0, 0))
    finally:
        monkeypatch.undo()
        clear_caches()
    assert pairings._kernel(spec).step == 2
    assert pairings._kernel(laguerre_spec(3, 1, Fraction(1, 2))).step == 1
    assert pairings._kernel(jack_spec(3, 1)).step == 1


def test_cold_symmetric_pairings_apply_no_operator():
    from heckepoly import cache_info, clear_caches

    for spec in (hermite_spec(3, 2), laguerre_spec(3, 1, Fraction(1, 3))):
        f = monomial_symmetric(3, (2, 1, 0)) + Fraction(1, 2) * monomial_symmetric(3, (1, 1, 0))
        clear_caches()
        assert pair_q(f, f, spec) == double_sum(f, f, spec)
        assert cache_info()["pairings._moment_num"] > 0
        assert cache_info()["operators.images"] == 0
    clear_caches()
