"""Family constructions: triangularity, spectra, intertwiners, and
cross-method agreement."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from heckepoly import operators as ops
from heckepoly.combinatorics import (
    extended_dominance_lt,
    from_orbit_form,
    length,
    monomial_symmetric,
    partitions_up_to,
    precedes,
    composition_to_label,
    stabilizer_order,
)
from heckepoly.errors import (
    AmbientSizeMismatch,
    EvennessViolation,
    HeckePolyError,
    SpectrumCollisionError,
)
from heckepoly.families import (
    NonSymLabel,
    composition_spectrum,
    decode_even,
    encode_even,
    hermite,
    jack,
    laguerre,
    nonsym_hermite,
    nonsym_jack,
    nonsym_laguerre,
    realization,
    sigma_a,
    sigma_b,
)
from heckepoly.pairings import _kernel, _orbit_numerator
from heckepoly.parameters import hermite_spec, jack_spec, laguerre_spec
from heckepoly.polynomials import (
    Polynomial,
    _canonical,
    monomials_of_degree,
    monomials_up_to_degree,
)


def test_nonsym_label_validation():
    with pytest.raises(ValueError):
        NonSymLabel((1, 1), (2, 1))  # not a minimal coset representative
    for lam, w in [((1, 0), (2.0, 1.0)), ((1, 0), (True, 2)), ((1.0, 0), (2, 1))]:
        with pytest.raises(ValueError, match="not an int"):
            NonSymLabel(lam, w)
    for lam in [(1, -1), (0, 1)]:  # not partitions, whatever the permutation
        with pytest.raises(ValueError, match="is not weakly decreasing and non-negative"):
            NonSymLabel(lam, (1, 2))
    label = NonSymLabel.from_composition((0, 1))
    assert label.lam == (1, 0) and label.w == (2, 1)


@pytest.mark.parametrize("parts", [(True,), (1.0,), (2.5,)], ids=repr)
def test_jack_refuses_a_part_that_is_not_an_int(parts):
    """A refused label stores nothing: the int label built after it keeps
    int parts in its JSON form."""
    import json

    from heckepoly import clear_caches

    clear_caches()
    with pytest.raises(ValueError, match="not an int"):
        jack(parts, jack_spec(2, 1))
    label = jack((1,), jack_spec(2, 1)).to_json_dict()["label"]
    assert json.dumps(label) == '{"lambda": [1, 0]}'
    clear_caches()


def test_composition_spectrum_reference_values():
    # frozen orientation: the constant monomial has spectrum beta*(j-1)
    assert composition_spectrum((0, 0, 0), 2) == (0, 2, 4)
    assert composition_spectrum((1, 0), 3) == (4, 0)
    assert composition_spectrum((0, 1), 3) == (0, 4)
    assert composition_spectrum((1, 1), 3) == (1, 4)
    for comp in monomials_up_to_degree(4, 5):  # the count of its docstring
        ranks = [sum(c <= comp[j] for c in comp[:j]) + sum(c < comp[j] for c in comp[j + 1:])
                 for j in range(4)]
        assert composition_spectrum(comp, 2) == tuple(c + 2 * r for c, r in zip(comp, ranks))


def test_nonsym_jack_examples():
    spec = jack_spec(2, 1)
    x1 = Polynomial.variable(2, 1)
    x2 = Polynomial.variable(2, 2)
    e_id = nonsym_jack(NonSymLabel((1, 0), (1, 2)), spec)
    assert e_id.poly == x1 and e_id.eigenvalues == (2, 0)
    e_s = nonsym_jack(NonSymLabel((1, 0), (2, 1)), spec)
    assert e_s.poly == x2 + Fraction(1, 2) * x1
    assert e_s.eigenvalues == (0, 2)
    e_zero = nonsym_jack(NonSymLabel((0, 0), (1, 2)), spec)
    assert e_zero.poly == Polynomial.one(2)
    # beta-dependent coefficient beta/(1+beta)
    spec3 = jack_spec(2, 3)
    e = nonsym_jack(NonSymLabel((1, 0), (2, 1)), spec3)
    assert e.poly == x2 + Fraction(3, 4) * x1


@pytest.mark.parametrize("beta", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_nonsym_jack_triangularity_and_eigen(n, beta):
    """The eigen equations, the leading coefficient and the order of the
    companions define E_eta; none of them uses the triangular solve."""
    spec = jack_spec(n, beta)
    chers = [ops.cherednik(j, spec) for j in range(1, n + 1)]
    for comp in monomials_up_to_degree(n, 4 if n < 4 else 3):
        label = NonSymLabel.from_composition(comp)
        e_poly = nonsym_jack(label, spec)
        spectrum = composition_spectrum(comp, beta)
        for j in range(n):
            assert chers[j](e_poly.poly) == spectrum[j] * e_poly.poly
        assert e_poly.poly.coefficient(comp) == 1
        for exps in e_poly.poly.terms:
            if exps != tuple(comp):
                assert precedes(composition_to_label(exps), (label.lam, label.w))


def symmetrized_jack(lam, n: int, beta: int) -> Polynomial:
    """Oracle: J_lam = sum_w w.E_lam / #stab(lam), with E_lam the
    non-symmetric Jack polynomial of the label (lam, identity)."""
    e_lam = nonsym_jack(NonSymLabel(lam, tuple(range(1, n + 1))), jack_spec(n, beta)).poly
    total = sum((ops.permutation_op(w)(e_lam) for w in itertools.permutations(range(1, n + 1))),
                Polynomial.zero(n))
    return total * Fraction(1, stabilizer_order(lam))


def _eigen_solve(basis, columns, eigen, top: int, case: str) -> tuple[list[int], int]:
    """Oracle: the joint eigenvector of commuting operators, triangular on
    basis, whose leading element is basis[top] with coefficient 1.

    columns[i][k] maps basis elements to the integer coefficients of the
    k-th operator applied to basis[i] (i <= top); eigen[i] is the
    eigenvalue tuple of basis[i].  Back-substitution keeps the
    coefficient of basis[i] as nums[i] / den, integers over one common
    denominator; returns (nums, den).  case names the solve in errors."""
    index = {b: i for i, b in enumerate(basis)}
    for i, per_k in enumerate(columns):
        if any(index[b] > i for image in per_k for b in image):
            raise HeckePolyError(f"triangularity violated in the operator action at {case}")
    target = eigen[top]
    nums = [0] * (top + 1)
    nums[top] = 1
    den = 1
    for i in range(top - 1, -1, -1):
        b = basis[i]

        def residual(k: int) -> int:
            return sum(
                nums[i2] * columns[i2][k].get(b, 0)
                for i2 in range(i + 1, top + 1)
                if nums[i2]
            )

        k = next((k for k in range(len(target)) if target[k] != eigen[i][k]), None)
        if k is None:
            if any(residual(k) for k in range(len(target))):
                raise SpectrumCollisionError(f"spectrum collision with {b} at {case}")
            continue
        # coefficient = residual / (den * gap): move everything onto the
        # denominator den * gap / g
        r, gap = residual(k), target[k] - eigen[i][k]
        g = math.gcd(r, gap) if gap > 0 else -math.gcd(r, gap)
        factor = gap // g
        if factor != 1:
            den *= factor
            for i2 in range(i + 1, top + 1):
                nums[i2] *= factor
        nums[i] = r // g
    return nums, den


def _label_sort_key(comp) -> tuple:
    """A linear extension of the order on same-degree labels: dominance-
    smaller partitions are lexicographically smaller, Bruhat-smaller
    representatives shorter, and the image tuple makes the key total."""
    lam, w = composition_to_label(comp)
    return (lam, length(w), w)


def nonsym_jack_by_eigen_solve(comp, n: int, beta: int) -> Polynomial:
    """Oracle: E_comp as the joint Dhat_j eigenvector with leading monomial
    x^comp on the monomials of degree |comp|, by ``_eigen_solve``, checked
    Dhat_j p = ev_j p."""
    basis = sorted(monomials_of_degree(n, sum(comp)), key=_label_sort_key)
    top = basis.index(tuple(comp))
    chers = [ops.cherednik(j, jack_spec(n, beta)) for j in range(1, n + 1)]
    columns = [[c(Polynomial.monomial(b)).terms for c in chers] for b in basis[: top + 1]]
    eigen = [composition_spectrum(b, beta) for b in basis[: top + 1]]
    nums, den = _eigen_solve(basis, columns, eigen, top, f"N={n}, beta={beta}, label {comp}")
    poly = Polynomial(n, {b: Fraction(num, den) for b, num in zip(basis, nums) if num})
    assert all(chers[j](poly) == eigen[top][j] * poly for j in range(n)), (n, beta, comp)
    return poly


# (N, beta, degree): 176 compositions of exactly that degree
EIGEN_SOLVE_GRID = [(2, 1, 4), (3, 0, 3), (3, 1, 4), (3, 2, 5), (4, 1, 4), (4, 3, 3), (5, 1, 4)]


def test_nonsym_jack_equals_the_eigen_solve():
    comps = [(n, beta, comp) for n, beta, degree in EIGEN_SOLVE_GRID
             for comp in monomials_of_degree(n, degree)]
    assert len(comps) == 176
    for n, beta, comp in comps:
        e_poly = nonsym_jack(NonSymLabel.from_composition(comp), jack_spec(n, beta)).poly
        assert e_poly == nonsym_jack_by_eigen_solve(comp, n, beta), (n, beta, comp)


@pytest.mark.parametrize("beta", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_nonsym_hermite_laguerre_are_sigma_of_the_eigen_solve(n, beta):
    specs = [hermite_spec(n, beta)] + [laguerre_spec(n, beta, g)
                                       for g in (Fraction(1, 2), Fraction(1, 3))]
    for comp in monomials_up_to_degree(n, 3):
        oracle = nonsym_jack_by_eigen_solve(comp, n, beta)
        for spec in specs:
            build, sigma = ((nonsym_hermite, sigma_a) if spec.family == "hermite"
                            else (nonsym_laguerre, sigma_b))
            built = build(NonSymLabel.from_composition(comp), spec).poly
            assert built == sigma(oracle, spec), (spec, comp)


def test_jack_examples_and_methods_agree():
    spec = jack_spec(2, 1)
    assert jack((1, 1), spec).poly == monomial_symmetric(2, (1, 1))
    expected = monomial_symmetric(2, (2, 0)) + 1 * monomial_symmetric(2, (1, 1))
    assert jack((2, 0), spec).poly == expected
    for n in (2, 3):
        for beta in (0, 1, 2):
            sp = jack_spec(n, beta)
            assert jack((1,) + (0,) * (n - 1), sp).poly == monomial_symmetric(n, (1,))
            for lam in partitions_up_to(3, n):
                tri = jack(lam, sp, method="triangular")
                assert tri.poly == symmetrized_jack(lam, n, beta), (lam, n, beta)


def test_jack_beta_zero_is_monomial_basis():
    spec = jack_spec(3, 0)
    for lam in partitions_up_to(4, 3):
        assert jack(lam, spec).poly == monomial_symmetric(3, lam)


def test_symmetric_spectrum():
    """The symmetric spectrum of a padded lam is the composition spectrum
    of lam in increasing order, lam[::-1]."""
    assert composition_spectrum((2, 1)[::-1], 1) == (1, 3)
    assert composition_spectrum((0, 0, 0)[::-1], 2) == (0, 2, 4)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_increasing_composition_spectrum_is_the_symmetric_formula(n):
    """composition_spectrum(lam[::-1]) is (lam_{N-j+1} + beta (j-1))_j,
    the symmetric family's eigenvalues, for weight <= 5 and beta <= 3."""
    for beta, lam in itertools.product(range(4), partitions_up_to(5, n)):
        expected = tuple(lam[n - j] + beta * (j - 1) for j in range(1, n + 1))
        assert composition_spectrum(lam[::-1], beta) == expected, (lam, beta)
        assert jack(lam, jack_spec(n, beta)).eigenvalues == expected


@pytest.mark.parametrize("sigma, spec_of", [
    (sigma_a, lambda n: hermite_spec(n, 1)),
    (sigma_b, lambda n: laguerre_spec(n, 1, Fraction(1, 3))),
], ids=["sigma_a", "sigma_b"])
def test_intertwiner_rejects_another_ambient_size(sigma, spec_of):
    """f in 3 variables at N = 2 and x_1 in 2 variables at N = 3 both raise
    AmbientSizeMismatch, not an IndexError or an answer in N variables."""
    for n, nvars in ((2, 3), (3, 2)):
        with pytest.raises(AmbientSizeMismatch, match=f"intertwiner on {n} vars"):
            sigma(Polynomial.variable(nvars, 1), spec_of(n))


def test_sigma_a_examples():
    spec = hermite_spec(2, 1)
    one = Polynomial.one(2)
    assert sigma_a(one, spec) == one
    m1 = Polynomial.variable(2, 1) + Polynomial.variable(2, 2)
    assert sigma_a(m1, spec) == m1
    # intertwining with a Cherednik generator
    jack_sp = jack_spec(2, 1)
    f = Polynomial.monomial((1, 1))
    lhs = sigma_a(ops.cherednik(1, jack_sp)(f), spec)
    rhs = ops.htilde(1, spec)(sigma_a(f, spec))
    assert lhs == rhs


def test_hermite_examples():
    x = Polynomial.variable(1, 1)
    assert hermite((1,), hermite_spec(1, 0)).poly == x
    assert hermite((2,), hermite_spec(1, 0)).poly == x * x - Fraction(1, 2)
    spec = hermite_spec(2, 1)
    assert hermite((1, 1), spec, "gram").poly == hermite((1, 1), spec, "intertwined").poly


def test_sigma_b_examples():
    spec = laguerre_spec(1, 0, Fraction(1, 3))
    assert sigma_b(Polynomial.one(1), spec) == Polynomial.one(1)
    u = Polynomial.variable(1, 1)
    assert sigma_b(u, spec) == u - (Fraction(1, 3) + Fraction(1, 2))
    # intertwining check through the squared-variable representation
    spec2 = laguerre_spec(2, 1, Fraction(1, 3))
    jack_sp = jack_spec(2, 1)
    f = Polynomial.variable(2, 1)
    lhs = sigma_b(ops.cherednik(1, jack_sp)(f), spec2)
    half_h1 = Fraction(1, 2) * ops.htilde(1, spec2)  # type B, on z
    rhs = decode_even(half_h1(encode_even(sigma_b(f, spec2))))
    assert lhs == rhs


def _storeless_sigma(f, spec) -> Polynomial:
    """sigma(f) = f(V_1, ..., V_N) . 1 term by term, in the paper's ladder
    letters L_j/2, each applied to the image of the one before (L_1
    first): sigma_A in the letters A_j/2, sigma_B in its z-form, the word
    of x^(2a) in the type-B letters B_j/2 applied to 1, read back through
    the codec.  It shares no code with the heat operator exp(-Delta/4)
    that ``Realization.intertwine`` applies."""
    s = 1 if spec.gamma is None else 2
    letters = [Fraction(1, 2) * ops.creation(j, spec) for j in range(1, spec.n + 1)]
    total = Polynomial.zero(spec.n)
    for exps, c in f.terms.items():
        image = Polynomial.one(spec.n)
        for letter, e in zip(letters, exps):
            for _ in range(s * e):
                image = letter(image)
        total = total + c * image
    return total if s == 1 else decode_even(total)


@pytest.mark.parametrize("family", ["hermite", "laguerre"])
def test_intertwine_is_the_ladder_word_sigma_on_every_monomial(family):
    """``Realization.intertwine``, exp(-Delta/4) cut at floor(d/2)
    (Hermite) or d (Laguerre), equals the ladder words on every monomial
    of degree d <= 5, at N in {2, 3}, beta <= 2 and, for Laguerre, gamma in
    {0, 1/3, 1/2}.  Its Laplacians (``operators.named``) and series
    (``families._heat``) are counted by cache_info() and emptied by
    clear_caches()."""
    from heckepoly import cache_info, clear_caches, families
    from heckepoly.parameters import FamilySpec

    gammas = (None,) if family == "hermite" else (0, Fraction(1, 3), Fraction(1, 2))
    specs = [FamilySpec(family, n, beta, gamma)
             for n in (2, 3) for beta in (0, 1, 2) for gamma in gammas]
    clear_caches()
    for spec in specs:
        real = realization(spec)
        for exps in monomials_up_to_degree(spec.n, 5):
            x = Polynomial.monomial(exps)
            assert real.intertwine(x) == _storeless_sigma(x, spec), (spec, exps)
    # one series per order: 0..2 for Hermite, 0..5 for Laguerre (u-degree)
    assert cache_info()["families._heat"] == len(specs) * (3 if family == "hermite" else 6)
    laplacian = getattr(families, f"_{family}_laplacian")
    assert sum(key[0] is laplacian for key in ops._NAMED) == len(specs)
    clear_caches()
    assert cache_info()["families._heat"] == 0 and not ops._NAMED


def test_laguerre_examples():
    u = Polynomial.variable(1, 1)
    spec1 = laguerre_spec(1, 0, Fraction(1, 2))
    assert laguerre((1,), spec1).poly == u - 1
    assert laguerre((0,), spec1).poly == Polynomial.one(1)
    spec2 = laguerre_spec(2, 1, Fraction(1, 2))
    assert laguerre((1, 0), spec2, "gram").poly == laguerre((1, 0), spec2, "intertwined").poly


def test_even_codec():
    u = Polynomial.variable(2, 1)
    assert decode_even(encode_even(u)) == u
    with pytest.raises(EvennessViolation, match="evenness violated"):
        decode_even(Polynomial.monomial((1, 0)))


def test_laguerre_realization_stays_in_u(monkeypatch):
    """No path of the Laguerre realization calls the u <-> z codec or a
    type-B operator: with the codec and every type-B primitive made to
    raise, the suites that run it pass on a small grid, and res_B, which
    ties the realization to the type-B operators, fails by the plant."""
    from heckepoly import clear_caches
    from heckepoly import families
    from heckepoly.verify import GridSpec, run_suite

    def forbidden(*args, **kwargs):
        raise RuntimeError("forbidden")

    grid = GridSpec(ns=(2, 3), betas=(0, 1), gammas=(Fraction(1, 3),), max_weight=2,
                    degree=3, pairs=2, rand_polys=2)
    clear_caches()
    for module, attr in [(families, "encode_even"), (families, "decode_even"),
                         (ops, "stretch"), (ops, "sign_flip"), (ops, "sign_divided"),
                         (ops, "divided_diff_plus")]:
        monkeypatch.setattr(module, attr, forbidden)
    try:
        reports = [run_suite(name, grid) for name in (
            "nonsym_eigen", "intertwine_B", "laguerre_is_sigma_jack", "raising_all",
            "rodrigues_all", "shift_all", "duality_all", "norms_all", "appendix_A")]
        res_b = run_suite("res_B", grid)
    finally:
        monkeypatch.undo()
        clear_caches()
    assert all(report.passed for report in reports), [r.suite for r in reports if not r.passed]
    assert res_b.cases_passed == 0
    assert {f["params"]["message"] for f in res_b.failures} == {"forbidden"}


def test_nonsym_hermite_laguerre():
    h_spec = hermite_spec(2, 1)
    label0 = NonSymLabel((0, 0), (1, 2))
    assert nonsym_hermite(label0, h_spec).poly == Polynomial.one(2)
    label = NonSymLabel((1, 0), (1, 2))
    assert nonsym_hermite(label, h_spec).poly == Polynomial.variable(2, 1)
    h_ops = [ops.htilde(j, h_spec) for j in (1, 2)]
    for comp in monomials_up_to_degree(2, 3):
        lab = NonSymLabel.from_composition(comp)
        e_h = nonsym_hermite(lab, h_spec)
        spectrum = composition_spectrum(comp, 1)
        for j in range(2):
            assert h_ops[j](e_h.poly) == spectrum[j] * e_h.poly

    l_spec = laguerre_spec(2, 1, Fraction(1, 2))
    assert nonsym_laguerre(label0, l_spec).poly == Polynomial.one(2)
    # the paper's z-form: (1/2) h_j of type B through the codec
    rho = [lambda p, h=Fraction(1, 2) * ops.htilde(j, l_spec): decode_even(h(encode_even(p)))
           for j in (1, 2)]
    for comp in [(1, 0), (0, 1), (1, 1), (2, 0)]:
        lab = NonSymLabel.from_composition(comp)
        e_l = nonsym_laguerre(lab, l_spec)
        spectrum = composition_spectrum(comp, 1)
        for j in range(2):
            assert rho[j](e_l.poly) == spectrum[j] * e_l.poly


def test_hermite_lower_terms_mix_parity_degrees():
    spec = hermite_spec(2, 1)
    poly = hermite((2, 0), spec).poly
    degrees = {sum(e) for e in poly.terms}
    assert degrees == {0, 2}


def test_family_polynomial_json():
    spec = jack_spec(2, 1)
    fam = jack((2, 0), spec)
    data = fam.to_json_dict()
    assert data["label"] == {"lambda": [2, 0]}
    assert data["construction"] == "triangular"
    assert data["spec"]["family"] == "jack"
    assert Polynomial.from_json_dict(data["poly"]) == fam.poly
    nonsym = nonsym_jack(NonSymLabel((1, 0), (2, 1)), spec)
    data2 = nonsym.to_json_dict()
    assert data2["label"] == {"lambda": [1, 0], "w": [2, 1]}


def test_single_variable_classical_values():
    x = Polynomial.variable(1, 1)
    h5 = hermite((5,), hermite_spec(1, 0)).poly
    assert h5 == x**5 - 5 * x**3 + Fraction(15, 4) * x
    u = Polynomial.variable(1, 1)
    l3 = laguerre((3,), laguerre_spec(1, 0, Fraction(1, 2))).poly
    assert l3 == u**3 - 9 * u**2 + 18 * u - 6
    assert jack((3,), jack_spec(1, 2)).poly == x**3


def test_nonsym_high_weight_stress():
    spec = jack_spec(3, 2)
    chers = [ops.cherednik(j, spec) for j in (1, 2, 3)]
    for comp in [(5, 0, 0), (3, 2, 0), (0, 2, 3), (4, 1, 1), (1, 2, 3), (2, 2, 2)]:
        e_poly = nonsym_jack(NonSymLabel.from_composition(comp), spec)
        spectrum = composition_spectrum(comp, 2)
        assert all(
            chers[j](e_poly.poly) == spectrum[j] * e_poly.poly for j in range(3)
        )


def test_spec_guards():
    with pytest.raises(ValueError):
        jack((1, 0), hermite_spec(2, 1))
    with pytest.raises(ValueError):
        hermite((1, 0), jack_spec(2, 1))
    with pytest.raises(ValueError):
        laguerre((1, 0), jack_spec(2, 1))


def test_equal_specs_hash_equal():
    """The hash is computed once, after gamma is canonicalized, so equal
    specs hash equal however gamma is written, also through with_beta and
    FamilySpec.replace; equality still compares the fields."""
    for gammas in ((0, Fraction(0), Fraction(0, 3)), (Fraction(2, 4), Fraction(1, 2), "1/2")):
        specs = [laguerre_spec(2, 1, g) for g in gammas]
        specs += [laguerre_spec(2, 0, g).with_beta(1) for g in gammas]
        specs += [laguerre_spec(2, 3, g).replace(beta=1) for g in gammas]
        specs += [laguerre_spec(2, 1, 7).replace(gamma=g) for g in gammas]
        assert all(spec == specs[0] and hash(spec) == hash(specs[0]) for spec in specs)
        assert len(set(specs)) == 1 and {specs[0]: 1}[specs[-1]] == 1
    assert laguerre_spec(2, 1, 0) != laguerre_spec(2, 1, Fraction(1, 2))
    assert laguerre_spec(2, 1, 0) != laguerre_spec(2, 2, 0)
    assert jack_spec(2, 1) != hermite_spec(2, 1)
    moved = jack_spec(2, 1).replace(n=3)
    assert moved == jack_spec(3, 1) and hash(moved) == hash(jack_spec(3, 1))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("beta", [0, 1, 2])
def test_gram_equals_intertwined(n, beta):
    # gamma != 1/2 gives a Laguerre denominator q != 2, so the Gram system
    # is scaled to a common denominator that is not a power of two
    specs = [hermite_spec(n, beta)] + [
        laguerre_spec(n, beta, Fraction(g)) for g in ("0", "1/3", "7/5")
    ]
    for spec in specs:
        build = hermite if spec.family == "hermite" else laguerre
        for lam in partitions_up_to(3, n):
            gram = build(lam, spec, "gram").poly
            assert gram == build(lam, spec, "intertwined").poly, (spec, lam)


def gram_by_bareiss(lam, spec) -> Polynomial:
    """The oracle of the gram route: the monic-in-m_lam polynomial
    orthogonal to every m_mu with mu strictly below lam in extended
    dominance, by one Bareiss solve over the down-set of lam alone.  Each
    Gram entry <m_mu, m_nu> is one integer numerator of the pairings'
    orbit table over the kernel's denominator of |mu| + |nu|; the system
    is scaled to the denominator of the top degree 2|lam|."""
    n = spec.n
    companions = [mu for mu in partitions_up_to(sum(lam), n) if extended_dominance_lt(mu, lam)]
    if not companions:
        return monomial_symmetric(n, lam)
    denominator = _kernel(spec).denominator
    numerator = _orbit_numerator(spec)
    top = denominator(2 * sum(lam))
    scale = [top // denominator(d) for d in range(2 * sum(lam) + 1)]

    def entry(mu, nu) -> int:
        return numerator(mu, nu) * scale[sum(mu) + sum(nu)]

    rows = [[entry(mu, nu) for nu in companions] for mu in companions]
    rhs = [-entry(lam, mu) for mu in companions]
    coeffs = {lam: 1}
    for coeff, mu in zip(_solve_bareiss(rows, rhs), companions):
        if coeff:
            coeffs[mu] = _canonical(coeff)
    return from_orbit_form(n, coeffs)


def _solve_bareiss(rows, rhs) -> list[Fraction]:
    """Solve the square integer system rows . x = rhs exactly.

    Fraction-free (Bareiss) elimination with row pivoting keeps every
    entry an integer: step k replaces each lower row by
    (pivot * row - row[k] * pivot row) / previous pivot, an exact division.
    The last pivot d is the determinant up to sign, so d x is an integer
    vector (Cramer); back-substitution finds it in integers and returns
    the Fractions (d x)_i / d."""
    size = len(rows)
    aug = [list(row) + [value] for row, value in zip(rows, rhs)]
    prev = 1
    for k in range(size):
        pivot = next((r for r in range(k, size) if aug[r][k]), None)
        if pivot is None:
            raise HeckePolyError("singular linear system in Gram construction")
        aug[k], aug[pivot] = aug[pivot], aug[k]
        head = aug[k]
        lead = head[k]
        for row in aug[k + 1 :]:
            factor = row[k]
            for c in range(k + 1, size + 1):
                row[c] = (lead * row[c] - factor * head[c]) // prev
        prev = lead
    scaled = [0] * size
    for i in range(size - 1, -1, -1):
        row = aug[i]
        total = prev * row[size]
        for j in range(i + 1, size):
            total -= row[j] * scaled[j]
        scaled[i] = total // row[i]
    return [Fraction(v, prev) for v in scaled]


def _solve_fraction(rows, rhs):
    """Reference Gauss-Jordan elimination over Fraction."""
    size = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(size):
            if r != col:
                aug[r] = [a - aug[r][col] * b for a, b in zip(aug[r], aug[col])]
    return [row[size] for row in aug]


def test_bareiss_solve_against_fraction_reference():
    swap = [[0, 2, 1], [3, 1, 0], [1, 0, 4]]  # zero leading entry: a row swap
    assert _solve_bareiss(swap, [1, 2, 3]) == _solve_fraction(swap, [1, 2, 3])
    later_swap = [[1, 2, 3], [2, 4, 1], [1, 3, 5]]  # zero pivot at step two
    assert _solve_bareiss(later_swap, [4, -1, 7]) == _solve_fraction(later_swap, [4, -1, 7])
    rng = random.Random(3)
    for size in range(1, 7):
        for _ in range(5):
            rows = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            rhs = [rng.randint(-50, 50) for _ in range(size)]
            try:
                expected = _solve_fraction(rows, rhs)
            except StopIteration:  # singular draw
                continue
            solution = _solve_bareiss(rows, rhs)
            assert solution == expected
            assert all(type(v) is Fraction for v in solution)
    singular = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    with pytest.raises(HeckePolyError, match="singular linear system in Gram construction"):
        _solve_bareiss(singular, [1, 2, 3])


# every partition of weight <= 5 (<= 4 at N = 4), Hermite and Laguerre
GRAM_REQUESTS = [
    (spec, lam)
    for n in (1, 2, 3, 4)
    for beta in range(4)
    for spec in [hermite_spec(n, beta)]
    + [laguerre_spec(n, beta, Fraction(g)) for g in ("0", "1/3", "1/2", "2")]
    for lam in partitions_up_to(4 if n == 4 else 5, n)
]


@pytest.fixture(scope="module")
def gram_oracle():
    return {(spec, lam): gram_by_bareiss(lam, spec) for spec, lam in GRAM_REQUESTS}


def _gram_stream(order: str) -> list:
    """GRAM_REQUESTS in a request order; None stands for clear_caches()."""
    if order == "ascending":
        return list(GRAM_REQUESTS)
    if order == "descending":
        return sorted(GRAM_REQUESTS, key=lambda request: -sum(request[1]))
    kind, seed = order.split("-")
    stream = list(GRAM_REQUESTS)
    random.Random(int(seed)).shuffle(stream)  # interleaves the specs
    if kind == "cleared":
        stream.insert(len(stream) // 2, None)
    return stream


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled-1", "shuffled-2",
                                   "cleared-3"])
def test_gram_rows_equal_the_per_label_solve(order, gram_oracle):
    """Each label of the growing elimination equals the per-label solve
    over its own down-set, whatever labels and specs came before it, and
    every elimination holds a down-set of extended dominance in a linear
    extension of it: the labels below each row are earlier rows."""
    from heckepoly import clear_caches
    from heckepoly.families import _GRAM_ROWS, construct

    clear_caches()
    for request in _gram_stream(order):
        if request is None:
            clear_caches()
            continue
        spec, lam = request
        assert construct(lam, spec, "gram").poly == gram_oracle[spec, lam], (spec, lam)
    for spec, (index, _rows) in _GRAM_ROWS.items():
        labels = list(index)
        assert list(index.values()) == list(range(len(labels)))
        for k, mu in enumerate(labels):
            below = {nu for nu in partitions_up_to(sum(mu), spec.n) if extended_dominance_lt(nu, mu)}
            assert below <= set(labels[:k]), (spec, mu)
            assert not any(extended_dominance_lt(nu, mu) for nu in labels[k + 1 :]), (spec, mu)
    clear_caches()


@pytest.mark.parametrize("spec", [hermite_spec(2, 1), laguerre_spec(2, 1, Fraction(1, 2))],
                         ids=["hermite", "laguerre"])
def test_perturbed_incomparable_pair_fails_the_later_label(spec, monkeypatch):
    """(3,0) and (2,2) are incomparable.  With <m_(3,0), m_(2,2)> off by
    one, the row of (2,2) appended after (3,0) is no longer orthogonal to
    F_(3,0) alone, and its triangularity check fails.  Built into an
    elimination without (3,0) it never reads the pair, and neither did the
    per-label solve, whose system for (2,2) held its down-set only."""
    from heckepoly import clear_caches, families
    from heckepoly.families import construct

    def perturbed(spec):
        numerator = _orbit_numerator(spec)
        return lambda mu, nu: numerator(mu, nu) + ({mu, nu} == {(3, 0), (2, 2)})

    clear_caches()
    monkeypatch.setattr(families, "_orbit_numerator", perturbed)
    try:
        expected = construct((2, 2), spec, "intertwined").poly
        assert construct((2, 2), spec, "gram").poly == expected
        clear_caches()
        construct((3, 0), spec, "gram")
        with pytest.raises(HeckePolyError, match=r"companion \(3, 0\) is not below \(2, 2\)"):
            construct((2, 2), spec, "gram")
    finally:
        monkeypatch.undo()
        clear_caches()


def test_gram_rejects_a_pairing_that_is_not_positive(monkeypatch):
    """A pivot <= 0 means the pairing is not positive definite on the rows:
    the label raises, and the elimination keeps only the rows before it."""
    from heckepoly import cache_info, clear_caches, families

    def planted(spec):
        numerator = _orbit_numerator(spec)
        return lambda mu, nu: numerator(mu, nu) * (-1 if mu == nu == (1, 0) else 1)

    clear_caches()
    monkeypatch.setattr(families, "_orbit_numerator", planted)
    try:
        with pytest.raises(HeckePolyError, match=r"not positive definite at \(1, 0\)"):
            families.construct((1, 0), hermite_spec(2, 1))
        assert cache_info()["families.gram_rows"] == 1  # the row of (0, 0)
    finally:
        monkeypatch.undo()
        clear_caches()


def test_gram_rows_are_registered_and_cleared():
    from heckepoly import cache_info, clear_caches
    from heckepoly.families import construct

    clear_caches()
    assert cache_info()["families.gram_rows"] == 0
    construct((2, 1), hermite_spec(2, 1))  # (0,0), (1,0), (1,1), (2,0), (2,1)
    assert cache_info()["families.gram_rows"] == 5
    construct((1, 1), hermite_spec(2, 1))
    construct((1, 0), laguerre_spec(2, 1, Fraction(1, 3)))
    assert cache_info()["families.gram_rows"] == 7
    assert _constructions(cache_info()) == 3
    clear_caches()
    assert cache_info()["families.gram_rows"] == 0


def _constructions(info) -> int:
    """Entries of the two checked-construction caches."""
    return sum(size for name, size in info.items() if name.startswith("families._checked_"))


def test_construction_caches_cold_warm_and_cleared():
    from heckepoly import cache_info, clear_caches, families
    from heckepoly.pairings import ct_pairing, gauss_pairing, laguerre_pairing, norm_formula

    specs = [jack_spec(3, 2), hermite_spec(3, 1), laguerre_spec(2, 2, Fraction(1, 3))]
    pair = {"jack": lambda f, s: ct_pairing(f, f, s),
            "hermite": lambda f, s: gauss_pairing(f, f, s),
            "laguerre": lambda f, s: laguerre_pairing(f, f, s)}

    def results():
        out = []
        for spec in specs:
            for lam in partitions_up_to(3, spec.n):
                poly = families.construct(lam, spec).poly
                out.append((poly, pair[spec.family](poly, spec),
                            norm_formula(lam, spec, "hook_form")))
        return out

    clear_caches()
    assert not any(cache_info().values())
    cold = results()
    info = cache_info()
    labels = sum(len(list(partitions_up_to(3, spec.n))) for spec in specs)
    assert _constructions(info) == labels  # one per label, default route
    assert info["pairings.orbit_numerators"] > 0
    assert info["pairings._moment_num"] > 0 and info["pairings._ct_weight"] > 0
    assert info["pairings._kernel"] == len(specs)
    warm = results()
    assert cache_info() == info
    clear_caches()
    assert not any(cache_info().values())
    cleared = results()
    assert cold == warm == cleared
    assert cache_info() == info


def test_construction_cache_one_entry_per_label_spec_and_route():
    """Each (label, spec, route) is built and checked once: every symmetric
    route gives one entry, named by the route, and the non-symmetric
    recursion one per composition on its way (E_(0,0), E_(1,0), E_(0,1) for
    the label (1,0),(2,1)); a warm rebuild returns the same objects;
    rodrigues() and construct(..., "rodrigues") share theirs; no route reads
    another's; a failed construction stores nothing."""
    from heckepoly import cache_info, clear_caches, families
    from heckepoly.errors import RodriguesSingularError
    from heckepoly.raising import rodrigues

    lam, label = (2, 1), NonSymLabel((1, 0), (2, 1))
    specs = [jack_spec(2, 1), hermite_spec(2, 1), laguerre_spec(2, 1, Fraction(1, 3))]

    def size():
        return _constructions(cache_info())

    def build_all():
        out = {}
        for spec in specs:  # Jack first: the other families' routes read it
            for route in realization(spec).symmetric_routes:
                out[spec, route] = families.construct(lam, spec, route)
            out[spec, "nonsym"] = families.construct(label, spec)
        return out

    clear_caches()
    built, grew = {}, {}
    for spec in specs:
        for route in realization(spec).symmetric_routes:
            before = size()
            built[spec, route] = families.construct(lam, spec, route)
            grew[spec.family, route] = size() - before
        before = size()
        built[spec, "nonsym"] = families.construct(label, spec)
        grew[spec.family, "nonsym"] = size() - before
    assert grew == {
        ("jack", "triangular"): 1, ("jack", "rodrigues"): 1,
        ("jack", "nonsym"): 3,
        ("hermite", "gram"): 1, ("hermite", "intertwined"): 1, ("hermite", "rodrigues"): 1,
        ("hermite", "nonsym"): 3,
        ("laguerre", "gram"): 1, ("laguerre", "intertwined"): 1,
        ("laguerre", "rodrigues"): 1, ("laguerre", "nonsym"): 3,
    }
    for (spec, route), fp in built.items():
        expected = families.NONSYM_ROUTE if route == "nonsym" else route
        assert fp.construction == expected
    count = size()
    warm = build_all()
    assert size() == count
    assert all(warm[key] is built[key] for key in built)
    for spec in specs:
        assert rodrigues(lam, spec) is built[spec, "rodrigues"]
        assert rodrigues(list(lam), spec) is built[spec, "rodrigues"]
    for spec in specs[1:]:
        gram, intertwined = built[spec, "gram"], built[spec, "intertwined"]
        assert gram is not intertwined and gram.poly == intertwined.poly
    assert size() == count

    singular = jack_spec(2, 0)
    for _ in range(2):
        with pytest.raises(RodriguesSingularError):
            families.construct(lam, singular, "rodrigues")
        with pytest.raises(RodriguesSingularError):
            rodrigues(lam, singular)
    assert size() == count

    clear_caches()
    assert size() == 0
    cleared = build_all()
    assert {k: v.to_json_dict() for k, v in cleared.items()} == {
        k: v.to_json_dict() for k, v in built.items()
    }
    assert size() == count


def _jack_fraction_reference(n, beta, weight):
    """Every Jack polynomial of one weight by the triangular solve written
    out in Fraction: e_k(Dhat) images summed over k-subsets, expanded by
    their orbit forms, back-substituted one coefficient at a time."""
    from itertools import combinations

    from heckepoly.combinatorics import partitions_of

    spec = jack_spec(n, beta)
    chers = [ops.cherednik(j, spec) for j in range(1, n + 1)]
    basis = sorted(partitions_of(weight, n))
    columns = []
    for mu in basis:
        m_mu = monomial_symmetric(n, mu)
        per_k = []
        for k in range(1, n + 1):
            image = Polynomial.zero(n)
            for subset in combinations(range(n), k):
                g = m_mu
                for j in subset:
                    g = chers[j](g)
                image = image + g
            per_k.append(image._orbit_form())
        columns.append(per_k)

    def eigen(mu):
        values = [mu[i] + beta * (n - 1 - i) for i in range(n)]
        out = []
        for k in range(1, n + 1):
            total = 0
            for subset in combinations(values, k):
                prod = 1
                for v in subset:
                    prod *= v
                total += prod
            out.append(total)
        return out

    spectra = [eigen(mu) for mu in basis]
    polys = {}
    for top, lam in enumerate(basis):
        coeffs = {top: Fraction(1)}
        for i in range(top - 1, -1, -1):
            gaps = [t - e for t, e in zip(spectra[top], spectra[i])]
            k = next(k for k, gap in enumerate(gaps) if gap)
            residual = sum(
                (c * columns[i2][k].get(basis[i], 0) for i2, c in coeffs.items()),
                Fraction(0),
            )
            coeffs[i] = residual / gaps[k]
        polys[lam] = sum(
            (c * monomial_symmetric(n, basis[i]) for i, c in coeffs.items()),
            Polynomial.zero(n),
        )
    return polys


def test_jack_triangular_against_fraction_reference_and_symmetrized():
    from heckepoly.families import _jack_triangular

    for n in (1, 2, 3, 4):
        for beta in (0, 1, 2, 3):
            for weight in range(5 if n == 4 else 6):
                reference = _jack_fraction_reference(n, beta, weight)
                for lam, expected in reference.items():
                    poly = _jack_triangular(lam, n, beta)
                    assert poly == expected, (n, beta, lam)
                    assert poly == symmetrized_jack(lam, n, beta), (n, beta, lam)


def test_sutherland_closed_form_is_the_operator_on_m_mu():
    """H m_mu = E(mu) m_mu + 2 beta sum_nu h_(nu mu) m_nu, read against the
    orbit coefficients of ``sutherland_expanded(N, beta)`` less its constant."""
    from heckepoly.combinatorics import _orbit_coefficients, partitions_of
    from heckepoly.families import _sutherland_energy, _sutherland_raising

    for n in (1, 2, 3, 4):
        for weight in range(6):
            labels = list(partitions_of(weight, n))
            raised = {nu: _sutherland_raising(nu) for nu in labels}
            for beta in (0, 1, 2, 3):
                constant = Fraction(beta * beta * n * (n * n - 1), 12)
                expanded = ops.sutherland_expanded(n, beta)
                for mu in labels:
                    m_mu = monomial_symmetric(n, mu)
                    image = expanded(m_mu) - constant * m_mu
                    expected = {mu: _sutherland_energy(mu, beta)}
                    for nu in labels:
                        if beta and mu in raised[nu]:
                            expected[nu] = 2 * beta * raised[nu][mu]
                    expected = {nu: c for nu, c in expected.items() if c}
                    assert _orbit_coefficients(image.terms) == expected, (n, beta, mu)


def jack_by_eigen_solve(n: int, beta: int, weight: int) -> dict:
    """Oracle: {lam: J_lam} for the labels of one weight, each the joint
    e_k(Dhat) eigenvector with leading m_lam on the m_mu of that weight,
    by ``_eigen_solve`` on the integer orbit coefficients of the images.
    e_k(Dhat) is the sum of the products of its k-subsets of Cherednik
    operators."""
    from heckepoly.combinatorics import _orbit_coefficients, partitions_of
    from heckepoly.families import _elementary_symmetric

    basis = sorted(partitions_of(weight, n))  # ascending lex refines dominance
    chers = [ops.cherednik(j, jack_spec(n, beta)) for j in range(1, n + 1)]
    elementary = [
        sum((math.prod(subset) for subset in itertools.combinations(chers, k)), ops.scalar(n, 0))
        for k in range(1, n + 1)
    ]
    columns, eigen = [], []
    for mu in basis:
        m = monomial_symmetric(n, mu)
        columns.append([_orbit_coefficients(e_k(m).terms) for e_k in elementary])
        values = [mu[i] + beta * (n - 1 - i) for i in range(n)]
        eigen.append([_elementary_symmetric(values, k) for k in range(1, n + 1)])
    out = {}
    for top, lam in enumerate(basis):
        nums, den = _eigen_solve(basis, columns[: top + 1], eigen, top, f"N={n}, beta={beta}")
        out[lam] = sum((Fraction(num, den) * monomial_symmetric(n, mu)
                        for mu, num in zip(basis, nums) if num), Polynomial.zero(n))
    return out


def test_jack_triangular_equals_the_eigen_solve():
    count = 0
    for n in (1, 2, 3, 4, 5):
        for beta in (0, 1, 2, 3):
            for weight in range(5 if n == 5 else 6):
                for lam, oracle in jack_by_eigen_solve(n, beta, weight).items():
                    assert jack(lam, jack_spec(n, beta)).poly == oracle, (n, beta, lam)
                    count += 1
    assert count == 4 * (6 + 12 + 16 + 18 + 12)  # labels per beta, N = 1..5


def test_jack_triangular_applies_no_operator():
    """A cold J_lam fills no operator image: jack_eigen, which applies
    e_k(Dhat) to it, shares no work with the route it checks."""
    from heckepoly import cache_info, clear_caches
    from heckepoly.families import construct

    clear_caches()
    try:
        for lam in ((2, 1, 0), (3, 1, 1), (2, 2, 1)):
            assert construct(lam, jack_spec(3, 2)).construction == "triangular"
        assert cache_info()["operators.images"] == 0
    finally:
        clear_caches()


def test_one_realization_per_spec():
    from heckepoly import cache_info, clear_caches

    spec = laguerre_spec(2, 1, Fraction(1, 2))
    real = realization(spec)
    assert realization(laguerre_spec(2, 1, "1/2")) is real
    assert cache_info()["families.realization"] > 0
    clear_caches()
    assert cache_info()["families.realization"] == 0
    assert realization(spec) is not real and realization(spec).spec == spec


def test_no_function_is_found_by_name():
    """Realizations, constructors and pairings call the functions they
    name: no module of the package reads ``globals()[...]`` or looks an
    operator or a pairing up on its module with getattr."""
    import re
    from pathlib import Path

    import heckepoly

    lookup = re.compile(r"globals\(\)\[|getattr\(ops|getattr\(pairings")
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(Path(heckepoly.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if lookup.search(line)
    ]
    assert hits == []


def test_the_package_keeps_its_line_budget():
    """``src/heckepoly/*.py`` holds at most 4,450 lines: code that a
    change adds is paid for by code that nothing needs any more."""
    from pathlib import Path

    import heckepoly

    paths = sorted(Path(heckepoly.__file__).parent.glob("*.py"))
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in paths)
    assert lines <= 4450, f"{lines} lines in {len(paths)} modules"


def test_function_local_imports_are_the_declared_ones():
    """Every import of ``src/heckepoly`` is at module level but three: csv,
    which only ``table`` needs, and the two imports that break a cycle.  A
    new cycle, or a lazy import that is not one, fails here until it is
    declared."""
    import ast
    from pathlib import Path

    import heckepoly

    def local_imports(node, scope):
        """(scope, module, level) of each import below a def or class."""
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Import) and scope:
                yield from ((scope, alias.name, 0) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and scope:
                yield scope, child.module, child.level
            yield from local_imports(child, inner)

    found = sorted(
        (path.stem, scope, module, level)
        for path in Path(heckepoly.__file__).parent.glob("*.py")
        for scope, module, level in local_imports(ast.parse(path.read_text(encoding="utf-8")), "")
    )
    assert found == [
        ("cli", "cmd_table", "csv", 0),
        ("families", "_rodrigues", "raising", 1),
        ("polynomials", "Polynomial._orbit_form", "combinatorics", 1),
    ]


def _source_trees() -> dict:
    """The parsed source of each module of ``src/heckepoly``, by name."""
    import ast
    from pathlib import Path

    import heckepoly

    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in Path(heckepoly.__file__).parent.glob("*.py")}


def test_named_operators_are_keyed_by_their_builder():
    """Every ``_named(...)`` call of ``src/heckepoly`` takes the builder
    itself as its first argument, never a string name."""
    import ast

    firsts = [
        (module, node.args[0])
        for module, tree in _source_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_named"
    ]
    assert len(firsts) >= 10
    assert [(module, ast.dump(arg)) for module, arg in firsts
            if not isinstance(arg, (ast.Name, ast.Attribute))] == []


def test_operators_defines_no_family_realization():
    """The Laguerre operators and both Laplacians live in ``families``:
    ``operators`` binds no name that mentions them."""
    import ast

    bound = set()
    for node in ast.walk(_source_trees()["operators"]):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.alias):
            bound.add(node.asname or node.name)
    assert sorted(name for name in bound if "laguerre" in name or "laplacian" in name) == []


def test_each_family_states_its_realization_once():
    """``Realization`` defines no operator of the table; each family
    subclass defines its whole row: coordinate, cherednik, laplacian and
    pair."""
    import ast

    classes = {node.name: node for node in _source_trees()["families"].body
               if isinstance(node, ast.ClassDef)}
    methods = {name: {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
               for name, node in classes.items()}
    row = {"coordinate", "cherednik", "laplacian"}
    assert not row & methods["Realization"]
    subclasses = [name for name, node in classes.items()
                  if any(getattr(base, "id", None) == "Realization" for base in node.bases)]
    assert sorted(subclasses) == ["_Hermite", "_Jack", "_Laguerre"]
    for name in subclasses:
        assert row | {"pair"} <= methods[name], name


@pytest.mark.parametrize(
    "spec",
    [jack_spec(n, beta) for n in (2, 3) for beta in (0, 1, 2)]
    + [hermite_spec(n, beta) for n in (2, 3) for beta in (0, 1, 2)]
    + [laguerre_spec(n, beta, gamma)
       for n in (2, 3) for beta in (0, 1, 2) for gamma in (0, Fraction(1, 3))],
    ids=lambda spec: "-".join(f"{k}={v}" for k, v in spec.to_json_dict().items()),
)
def test_realizations_satisfy_degenerate_daha_relations(spec):
    """Every realization (V_j, C_j, s_jk) satisfies the relations that
    daha_relations checks for (x_j, Dhat_j, s_jk), on its own variables,
    on every monomial of degree <= 3."""
    from itertools import combinations

    real = realization(spec)
    n, beta = spec.n, spec.beta
    V = [real.coordinate(j) for j in range(1, n + 1)]
    C = [real.cherednik(j) for j in range(1, n + 1)]

    def s(i, j):
        return ops.exchange(n, i, j)

    relations = []
    for i, j in combinations(range(n), 2):
        relations.append((f"[C_{i+1},C_{j+1}]", ops.commutator(C[i], C[j]), ops.scalar(n, 0)))
        relations.append((f"[V_{i+1},V_{j+1}]", ops.commutator(V[i], V[j]), ops.scalar(n, 0)))
    for j in range(1, n):
        relations.append((
            f"C_{j+1} s_{j} - s_{j} C_{j}",
            C[j] * s(j, j + 1) - s(j, j + 1) * C[j - 1],
            ops.scalar(n, beta),
        ))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                rhs = V[i - 1]
                for k in range(1, i):
                    rhs = rhs + beta * (V[k - 1] * s(i, k))
                for k in range(i + 1, n + 1):
                    rhs = rhs + beta * (V[i - 1] * s(i, k))
            else:
                rhs = (-beta) * (V[min(i, j) - 1] * s(i, j))
            relations.append((f"[C_{i},V_{j}]", ops.commutator(C[i - 1], V[j - 1]), rhs))

    for name, lhs, rhs in relations:
        for exps in monomials_up_to_degree(n, 3):
            f = Polynomial.monomial(exps)
            assert lhs(f) == rhs(f), (name, exps)
