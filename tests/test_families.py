"""Family constructions: triangularity, spectra, intertwiners, and
cross-method agreement."""

import random
from fractions import Fraction
from functools import partial

import pytest

from heckepoly import operators as ops
from heckepoly.combinatorics import (
    all_permutations,
    monomial_symmetric,
    partitions_up_to,
    precedes,
    composition_to_label,
    stabilizer_order,
)
from heckepoly.errors import EvennessViolation
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
    symmetric_spectrum,
)
from heckepoly.parameters import hermite_spec, jack_spec, laguerre_spec
from heckepoly.polynomials import Polynomial, monomials_up_to_degree


def test_nonsym_label_validation():
    with pytest.raises(ValueError):
        NonSymLabel((1, 1), (2, 1))  # not a minimal coset representative
    label = NonSymLabel.from_composition((0, 1))
    assert label.lam == (1, 0) and label.w == (2, 1)


def test_composition_spectrum_reference_values():
    # frozen orientation: the constant monomial has spectrum beta*(j-1)
    assert composition_spectrum((0, 0, 0), 2) == (0, 2, 4)
    assert composition_spectrum((1, 0), 3) == (4, 0)
    assert composition_spectrum((0, 1), 3) == (0, 4)
    assert composition_spectrum((1, 1), 3) == (1, 4)


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
    total = sum((ops.permutation_op(w)(e_lam) for w in all_permutations(n)),
                Polynomial.zero(n))
    return total * Fraction(1, stabilizer_order(lam))


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
    assert symmetric_spectrum((2, 1), 2, 1) == (1, 3)
    assert symmetric_spectrum((0, 0, 0), 3, 2) == (0, 2, 4)


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
    real = realization(spec2)
    rhs = real.apply(real.cherednik(1), sigma_b(f, spec2))
    assert lhs == rhs


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
    l_real = realization(l_spec)
    rho = [partial(l_real.apply, l_real.cherednik(j)) for j in (1, 2)]
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
    from heckepoly.errors import HeckePolyError
    from heckepoly.families import _solve_bareiss

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
    assert info["pairings._gauss_moment_num"] > 0 and info["pairings._ct_weight"] > 0
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
    route and the non-symmetric Jack route give one entry, named by the
    route (a non-symmetric Hermite or Laguerre one is sigma of it);
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
        ("jack", "nonsym"): 1,
        ("hermite", "gram"): 1, ("hermite", "intertwined"): 1, ("hermite", "rodrigues"): 1,
        ("hermite", "nonsym"): 0,
        ("laguerre", "gram"): 1, ("laguerre", "intertwined"): 1,
        ("laguerre", "rodrigues"): 1, ("laguerre", "nonsym"): 0,
    }
    for (spec, route), fp in built.items():
        expected = realization(spec).nonsym_route if route == "nonsym" else route
        assert fp.construction == expected
    count = size()
    warm = build_all()
    assert size() == count
    # sigma(E_eta) is applied anew on the cached E_eta
    rebuilt = {(spec, "nonsym") for spec in specs[1:]}
    assert all(warm[key] is built[key] for key in built if key not in rebuilt)
    assert all(warm[key].poly == built[key].poly for key in rebuilt)
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
    ``to_monomial_basis``, back-substituted one coefficient at a time."""
    from itertools import combinations

    from heckepoly.combinatorics import partitions_of, to_monomial_basis

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
            per_k.append(to_monomial_basis(image))
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
    daha_relations checks for (x_j, Dhat_j, s_jk), read through its codec
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
            assert real.apply(lhs, f) == real.apply(rhs, f), (name, exps)
