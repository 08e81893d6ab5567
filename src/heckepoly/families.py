"""Jack, multivariable Hermite, and multivariable Laguerre polynomials.

The three families are three representations of one degenerate double
affine Hecke algebra.  A ``Realization`` per family spec holds what tells
their operators apart; the raising and shift operators, the intertwiners
and the constructions are written once against it.  What tells their
pairings apart, the weights and moments, is the kernel of ``pairings``.

Each family is built by several independent routes that must agree exactly:

* non-symmetric Jack: triangular joint-eigenvector solve for the commuting
  Cherednik operators on a fixed-degree monomial block;
* symmetric Jack: triangular solve against the elementary symmetric
  combinations e_k(Dhat_1, ..., Dhat_N), or a Rodrigues chain of raising
  operators;
* Hermite: Gram orthogonalization against the Gaussian pairing, or the
  intertwiner image sigma_A of the Jack polynomial, or Rodrigues;
* Laguerre: same three routes in the squared variables u_j = z_j^2.

Rational gauge convention: the ladder operators carry a factored-out
sqrt(2), so the intertwiner applied to a homogeneous f of degree d is

    sigma_A(f) = 2^(-d) f(A_1, ..., A_N) . 1
    sigma_B(f) = f(B_1^2/4, ..., B_N^2/4) . 1   (re-encoded in u)

which makes every family polynomial exactly rational.  Under this
convention sigma_A(J_lam) *is* the monic Hermite polynomial and
sigma_B(J_lam) the monic Laguerre polynomial.  The ladder words of the
terms of f share their prefixes (``operators.apply_words``), act in
integers and are summed over one common denominator.

The Gram route (the default for Hermite and Laguerre) runs on integers.
m_mu and m_nu have integer coefficients and are homogeneous, so the Gram
entry <m_mu, m_nu> is one integer numerator over the denominator that the
pairings' kernel gives the degree |mu| + |nu|: 2^((d+D)/2) for Gauss,
q^(d+D) for Laguerre, with D = beta N(N-1) and gamma + 1/2 = p/q.  The numerators are read from the
pairings' orbit table, memoized per spec and unordered pair (mu, nu), so
all labels of a spec and the pairings share them (see ``pairings``).  The
system, scaled to one common denominator, is solved by fraction-free
(Bareiss) elimination, with one Fraction per unknown at the end.

Both Jack triangular routes are one integer solve, ``_eigen_solve``: the
joint eigenvector of commuting operators triangular on a basis, found by
back-substitution in integer numerators over one common denominator.  The
non-symmetric E_eta passes the Dhat_j images of the monomials of degree
|eta| with their Cherednik spectra; the symmetric J_lam passes the
e_k(Dhat) images of the m_mu of weight |lam| (the index subsets are words
that share prefixes, so one operator application per nonempty subset,
expanded by orbit in int) with their e_k eigenvalues.

Every symmetric construction and every non-symmetric Jack polynomial is
cached once it is checked, per (padded partition or NonSymLabel, spec,
route), by the two memos ``_checked_*`` (see ``caches``): a route body
and its triangularity check run once per key (``raising.rodrigues``
shares the entry of ``construct(lam, spec, "rodrigues")``), a route never
reads another route's entry, so a cross-check compares two
constructions, and a construction that raises is not stored.  A
non-symmetric Hermite or Laguerre polynomial is the intertwiner image of
the cached E_eta, applied and checked on each call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import operators as ops
from . import pairings
from .caches import memo
from .combinatorics import (
    composition_to_label,
    extended_dominance_lt,
    is_min_coset_rep,
    is_permutation,
    label_sort_key,
    label_to_composition,
    _orbit_coefficients,
    monomial_symmetric,
    orbit,
    pad_partition,
    partitions_of,
    partitions_up_to,
    precedes,
    to_monomial_basis,
)
from .errors import (
    EvennessViolation,
    HeckePolyError,
    SpectrumCollisionError,
)
from .pairings import ScaledRational, _kernel, _orbit_numerator
from .parameters import FamilySpec, HERMITE, JACK, LAGUERRE
from .polynomials import Polynomial, _canonical, monomials_of_degree

Partition = tuple[int, ...]


@dataclass(frozen=True)
class NonSymLabel:
    """(partition, permutation) label with the minimal-length coset
    representative convention, so labels biject with monomials."""

    lam: Partition
    w: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(self.lam))
        object.__setattr__(self, "w", tuple(self.w))
        if len(self.lam) != len(self.w):
            raise ValueError("label partition and permutation lengths differ")
        if not is_permutation(self.w):
            raise ValueError(f"{self.w} is not a permutation of 1..{len(self.w)}")
        if not is_min_coset_rep(self.lam, self.w):
            raise ValueError(
                f"{self.w} is not the minimal-length representative for {self.lam}"
            )

    @classmethod
    def from_composition(cls, comp) -> "NonSymLabel":
        lam, w = composition_to_label(tuple(comp))
        return cls(lam, w)

    def composition(self) -> tuple[int, ...]:
        return label_to_composition(self.lam, self.w)


@dataclass(frozen=True)
class FamilyPolynomial:
    """A constructed family member with its verified spectral data.

    ``eigenvalues`` is the joint spectrum in the Cherednik normalization:
    the Dhat_j eigenvalues for non-symmetric labels, and the tuple
    (lam_{N-j+1} + beta (j-1))_{j=1..N} for symmetric ones.  The Laguerre
    operators h_j realize twice these values.
    """

    label: object
    spec: FamilySpec
    poly: Polynomial
    construction: str
    eigenvalues: tuple[int, ...]

    def to_json_dict(self) -> dict:
        if isinstance(self.label, NonSymLabel):
            label = {"lambda": list(self.label.lam), "w": list(self.label.w)}
        else:
            label = {"lambda": list(self.label)}
        return {
            "label": label,
            "spec": self.spec.to_json_dict(),
            "construction": self.construction,
            "eigenvalues": [int(e) for e in self.eigenvalues],
            "poly": self.poly.to_json_dict(),
        }


# ---------------------------------------------------------------------------
# realizations


class Realization:
    """One family as a representation of the degenerate double affine
    Hecke algebra: the images x_j -> V_j and Dhat_j -> C_j of its
    generators (s_jk acts as itself), and what comes with them.

        family    V_j        C_j       codec      pairing
        jack      x_j        Dhat_j    identity   ct_pairing
        hermite   A_j/2      h_j       identity   gauss_pairing
        laguerre  B_j^2/4    h_j/2     u = z^2    laguerre_pairing

    V_j = ladder_scale * L_j^stretch, L_j the creation operator ``ladder``.
    The operators take their type from the spec (``operators.creation`` is
    A_j on a Hermite spec and B_j on a Laguerre one, ``operators.htilde``
    likewise), and act on z-polynomials for Laguerre; ``apply`` reads them
    through the codec u_j = z_j^stretch.  An instance holds only its spec,
    and the family's data (class attributes of the subclasses below) are
    names: V_j and C_j are asked of ``operators`` on every call, so
    ``clear_caches`` drops them, and the pairing, intertwiner and
    constructors are looked up by name when called.
    """

    __slots__ = ("spec",)

    letter: str  # variable letter of the printed polynomials
    ladder: str | None  # operators.<ladder>(j, spec) is L_j
    stretch: int
    ladder_scale: Fraction
    cherednik_op: str  # C_j = cherednik_scale * operators.<cherednik_op>(j, spec)
    cherednik_scale: Fraction
    pairing: str  # the pairings function of the family
    graded: bool  # the pairing vanishes on x^a, x^b unless |a| = |b|
    intertwiner: str | None  # sigma_a or sigma_b, applied to the Jack family
    symmetric_routes: tuple[str, ...]  # routes of a symmetric label, default first
    nonsym_route: str  # the one route of a non-symmetric label

    def __init__(self, spec: FamilySpec):
        self.spec = spec

    def coordinate(self, j: int) -> ops.Operator:
        """V_j, the image of multiplication by x_j."""
        spec = self.spec
        if self.ladder is None:
            return ops.multiply_by(Polynomial.variable(spec.n, j))
        return self.ladder_scale * getattr(ops, self.ladder)(j, spec) ** self.stretch

    def cherednik(self, j: int) -> ops.Operator:
        """C_j, the image of the Cherednik operator Dhat_j."""
        op = getattr(ops, self.cherednik_op)(j, self.spec)
        return op if self.cherednik_scale == 1 else self.cherednik_scale * op

    def encode(self, f: Polynomial) -> Polynomial:
        return f if self.stretch == 1 else encode_even(f)

    def decode(self, f: Polynomial) -> Polynomial:
        return f if self.stretch == 1 else decode_even(f)

    def apply(self, op: ops.Operator, f: Polynomial) -> Polynomial:
        """op applied to f through the codec."""
        return self.decode(op(self.encode(f)))

    def pair(self, f: Polynomial, g: Polynomial) -> ScaledRational:
        """The family pairing <f, g>, as a ScaledRational."""
        value = getattr(pairings, self.pairing)(f, g, self.spec)
        return value if isinstance(value, ScaledRational) else ScaledRational(value)

    def intertwine(self, f: Polynomial) -> Polynomial:
        """sigma(f) = decode(f(V_1, ..., V_N) . 1): the term x^a is the
        ladder word L^(stretch a) applied to 1 and weighted by
        ladder_scale^|a|.  The words share their prefixes, act in integers,
        and the weighted sum is divided once (``operators.apply_words``)."""
        spec, n = self.spec, self.spec.n
        ladders = [getattr(ops, self.ladder)(j, spec) for j in range(1, n + 1)]
        words = {
            ops.exponent_word(exps, self.stretch): coeff * self.ladder_scale ** sum(exps)
            for exps, coeff in f.terms.items()
        }
        (image,) = ops.apply_words(Polynomial.one(n), [words], ladders)
        return self.decode(image)


class _Jack(Realization):
    __slots__ = ()
    letter, ladder, stretch, ladder_scale = "x", None, 1, Fraction(1)
    cherednik_op, cherednik_scale = "cherednik", Fraction(1)
    pairing, intertwiner, graded = "ct_pairing", None, True
    symmetric_routes = ("triangular", "rodrigues")
    nonsym_route = "triangular"


class _Hermite(Realization):
    __slots__ = ()
    letter, ladder, stretch, ladder_scale = "x", "creation", 1, Fraction(1, 2)
    cherednik_op, cherednik_scale = "htilde", Fraction(1)
    pairing, intertwiner, graded = "gauss_pairing", "sigma_a", False
    symmetric_routes = ("gram", "intertwined", "rodrigues")
    nonsym_route = "intertwined"


class _Laguerre(Realization):
    __slots__ = ()
    letter, ladder, stretch, ladder_scale = "u", "creation", 2, Fraction(1, 4)
    cherednik_op, cherednik_scale = "htilde", Fraction(1, 2)
    pairing, intertwiner, graded = "laguerre_pairing", "sigma_b", False
    symmetric_routes = ("gram", "intertwined", "rodrigues")
    nonsym_route = "intertwined"


_REALIZATIONS = {JACK: _Jack, HERMITE: _Hermite, LAGUERRE: _Laguerre}


def realization(spec: FamilySpec) -> Realization:
    """The realization of spec's family: the one place that tells the
    three families' operators and routes apart (``pairings._kernel``
    holds their weights)."""
    return _REALIZATIONS[spec.family](spec)


# ---------------------------------------------------------------------------
# spectra


def composition_spectrum(comp, beta: int) -> tuple[int, ...]:
    """Diagonal Cherednik eigenvalue of the monomial x^comp:

        ev_j = comp_j + beta * (#{k<j : comp_k <= comp_j}
                                + #{k>j : comp_k < comp_j}).

    Derived by expanding Dhat_j on a monomial; fixes the eigenvalue
    orientation once and for all (the constant monomial has spectrum
    beta*(j-1)).
    """
    comp = tuple(comp)
    n = len(comp)
    out = []
    for j in range(n):
        rank = sum(1 for k in range(j) if comp[k] <= comp[j]) + sum(
            1 for k in range(j + 1, n) if comp[k] < comp[j]
        )
        out.append(comp[j] + beta * rank)
    return tuple(out)


def symmetric_spectrum(lam, n: int, beta: int) -> tuple[int, ...]:
    """Eigenvalue tuple (lam_{N-j+1} + beta (j-1))_{j=1..N} of the
    commuting symmetric family."""
    lam = pad_partition(lam, n)
    return tuple(lam[n - j] + beta * (j - 1) for j in range(1, n + 1))


def _elementary_symmetric(values, k: int):
    """e_k(values); an int when the values are integers."""
    table = [1] + [0] * k
    for v in values:
        for i in range(k, 0, -1):
            table[i] += table[i - 1] * v
    return table[k]


# ---------------------------------------------------------------------------
# the joint eigenvector solve


def _eigen_solve(basis, columns, eigen, top: int, case: str) -> tuple[list[int], int]:
    """The joint eigenvector of commuting operators, triangular on basis,
    whose leading element is basis[top] with coefficient 1.

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


# ---------------------------------------------------------------------------
# non-symmetric Jack


def nonsym_jack(label: NonSymLabel, spec: FamilySpec) -> FamilyPolynomial:
    if spec.family != JACK:
        raise ValueError("nonsym_jack needs a Jack spec")
    return _checked_nonsym_jack(NonSymLabel(pad_partition(label.lam, spec.n), label.w), spec)


@memo
def _checked_nonsym_jack(label: NonSymLabel, spec: FamilySpec) -> FamilyPolynomial:
    poly, spectrum = _nonsym_jack_poly(label.composition(), spec.n, spec.beta)
    _assert_nonsym_triangular(poly, label)
    return FamilyPolynomial(label, spec, poly, "triangular", spectrum)


def _nonsym_jack_poly(comp, n: int, beta: int):
    """Joint Dhat_j eigenvector with leading monomial x^comp on the monomials
    of degree |comp|, by ``_eigen_solve``; returns (polynomial, spectrum)."""
    basis = sorted(monomials_of_degree(n, sum(comp)), key=label_sort_key)
    top = basis.index(tuple(comp))
    chers = [ops.cherednik(j, FamilySpec(JACK, n, beta)) for j in range(1, n + 1)]
    columns = [[c(Polynomial.monomial(b)).terms for c in chers] for b in basis[: top + 1]]
    eigen = [composition_spectrum(b, beta) for b in basis[: top + 1]]
    case = f"N={n}, beta={beta}, label {comp}"
    nums, den = _eigen_solve(basis, columns, eigen, top, case)
    poly = Polynomial._trusted(
        n, {b: _canonical(Fraction(num, den)) for b, num in zip(basis, nums) if num}
    )
    target = eigen[top]
    for j in range(n):
        if chers[j](poly) != poly * target[j]:
            raise SpectrumCollisionError(f"joint eigenvector solve inconsistent at {case}")
    return poly, target


def _assert_nonsym_triangular(poly: Polynomial, label: NonSymLabel) -> None:
    """x^comp has coefficient 1 and every other term of its degree a lower
    label.  Terms of lower degree are not checked: the Jack polynomials
    have none, their intertwiner images do."""
    comp = label.composition()
    if poly.coefficient(comp) != 1:
        raise HeckePolyError(f"leading coefficient of x^{comp} is not 1")
    degree, pair = sum(comp), (label.lam, label.w)
    for exps in poly.terms:
        if sum(exps) == degree and exps != comp:
            if not precedes(composition_to_label(exps), pair):
                raise HeckePolyError(f"companion {exps} is not lower than the label")


# ---------------------------------------------------------------------------
# symmetric Jack


def jack(lam, spec: FamilySpec, method: str = "triangular") -> FamilyPolynomial:
    if spec.family != JACK:
        raise ValueError("jack needs a Jack spec")
    return _symmetric(lam, spec, method)


def _symmetric(lam, spec: FamilySpec, method: str) -> FamilyPolynomial:
    """The monic symmetric polynomial of label lam by the route ``method``
    of spec's family, checked triangular in the m_mu basis."""
    if method not in realization(spec).symmetric_routes:
        raise ValueError(f"unknown {spec.family.capitalize()} construction {method!r}")
    return _checked_symmetric(pad_partition(lam, spec.n), spec, method)


@memo
def _checked_symmetric(lam, spec: FamilySpec, method: str) -> FamilyPolynomial:
    poly = _ROUTES[method](lam, spec)
    _assert_symmetric_triangular(poly, lam, spec)
    spectrum = symmetric_spectrum(lam, spec.n, spec.beta)
    return FamilyPolynomial(lam, spec, poly, method, spectrum)


def _jack_triangular(lam, n: int, beta: int) -> Polynomial:
    """Joint e_k(Dhat_1..Dhat_N) eigenvector with leading m_lam on the
    monomial-symmetric basis of weight |lam|, by ``_eigen_solve`` on the
    columns of the m_mu below it."""
    basis = sorted(partitions_of(sum(lam), n))  # ascending lex refines dominance
    top = basis.index(lam)
    case = f"N={n}, beta={beta}, lambda={lam}"
    columns, eigen = [], []
    for mu in basis[: top + 1]:
        try:
            column, values = _jack_column(n, beta, mu)
        except ValueError as exc:  # an e_k(Dhat) image is not symmetric
            raise HeckePolyError(f"{exc} in e_k(Dhat) m_{mu} at {case}") from exc
        columns.append(column)
        eigen.append(values)
    nums, den = _eigen_solve(basis, columns, eigen, top, case)
    out: dict = {}
    for mu, num in zip(basis, nums):
        if num:
            out.update(dict.fromkeys(orbit(mu), _canonical(Fraction(num, den))))
    return Polynomial._trusted(n, out)


@memo
def _jack_column(n: int, beta: int, mu: Partition):
    """The orbit coefficients of e_k(Dhat) m_mu for k = 1..N (the images
    have integer coefficients) and their eigenvalues e_k(mu_i + beta(N-1-i)),
    shared by every label of the weight |mu| at or above mu."""
    chers = [ops.cherednik(j, FamilySpec(JACK, n, beta)) for j in range(1, n + 1)]
    images = _elementary_images(monomial_symmetric(n, mu), chers)
    values = [mu[i] + beta * (n - 1 - i) for i in range(n)]
    return (
        tuple(_orbit_coefficients(image.terms) for image in images),
        tuple(_elementary_symmetric(values, k) for k in range(1, n + 1)),
    )


def _elementary_images(f: Polynomial, chers) -> list[Polynomial]:
    """e_k(chers) f for k = 1..N, summed over the k-subsets S, each applied
    in increasing index order.  The word of S is the word of S without
    max S followed by max S, so each nonempty subset costs one application."""
    n = len(chers)
    sums = [dict.fromkeys(itertools.combinations(range(n), k), 1) for k in range(1, n + 1)]
    return ops.apply_words(f, sums, chers)


def _assert_symmetric_triangular(poly: Polynomial, lam, spec: FamilySpec) -> None:
    def error(kind, message):  # the case is named only when one is raised
        return kind(f"{message} at N={spec.n}, beta={spec.beta}, lambda={lam}")

    try:
        expansion = to_monomial_basis(poly)
    except ValueError as exc:  # not symmetric
        raise error(HeckePolyError, exc) from exc
    if expansion.get(lam) != 1:
        raise error(HeckePolyError, "leading coefficient of m_lam is not 1")
    for mu in expansion:
        if mu != lam and not extended_dominance_lt(mu, lam):
            raise error(HeckePolyError, f"companion {mu} is not below {lam}")


# ---------------------------------------------------------------------------
# intertwiners


def sigma_a(f: Polynomial, spec: FamilySpec) -> Polynomial:
    """Creation-substitution intertwiner, rational convention: homogeneous
    degree-d components map to 2^(-d) f(A_1..A_N) . 1."""
    if spec.family != HERMITE:
        raise ValueError("sigma_a needs a Hermite spec")
    return realization(spec).intertwine(f)


def sigma_b(f: Polynomial, spec: FamilySpec) -> Polynomial:
    """Squared-creation intertwiner: substitutes B_j^2/4 for x_j, applies to
    1, and re-encodes the (necessarily even) image in u = z^2."""
    if spec.family != LAGUERRE:
        raise ValueError("sigma_b needs a Laguerre spec")
    return realization(spec).intertwine(f)


def encode_even(f_u: Polynomial) -> Polynomial:
    """u-polynomial -> even z-polynomial (u_j = z_j^2)."""
    return ops.stretch(f_u.nvars, 2)(f_u)


def decode_even(f_z: Polynomial) -> Polynomial:
    """Even z-polynomial -> u-polynomial; raises on odd exponents."""
    out = {}
    for exps, coeff in f_z.terms.items():
        if any(e % 2 for e in exps):
            raise EvennessViolation("evenness violated")
        out[tuple(e // 2 for e in exps)] = coeff
    return Polynomial(f_z.nvars, out)


# ---------------------------------------------------------------------------
# Hermite and Laguerre


def hermite(lam, spec: FamilySpec, method: str = "gram") -> FamilyPolynomial:
    if spec.family != HERMITE:
        raise ValueError("hermite needs a Hermite spec")
    return _symmetric(lam, spec, method)


def laguerre(lam, spec: FamilySpec, method: str = "gram") -> FamilyPolynomial:
    """Multivariable Laguerre polynomial, expressed in u_j = z_j^2."""
    if spec.family != LAGUERRE:
        raise ValueError("laguerre needs a Laguerre spec")
    return _symmetric(lam, spec, method)


def _intertwined(lam, spec: FamilySpec) -> Polynomial:
    """sigma_a or sigma_b (found by name when called) of the Jack polynomial."""
    jack_poly = jack(lam, FamilySpec(JACK, spec.n, spec.beta)).poly
    return globals()[realization(spec).intertwiner](jack_poly, spec)


def _gram(lam, spec: FamilySpec) -> Polynomial:
    """Monic-in-m_lam polynomial orthogonal to every m_mu with mu strictly
    below lam in the cross-degree dominance order, under the Gauss or
    Laguerre pairing of spec.

    Each Gram entry <m_mu, m_nu> is one integer numerator of the pairings'
    orbit table over the kernel's denominator of the degree |mu| + |nu|.
    The system is scaled to the denominator of the top degree 2|lam| and
    solved fraction-free."""
    n = spec.n
    companions = [
        mu
        for mu in partitions_up_to(sum(lam), n)
        if extended_dominance_lt(mu, lam)
    ]
    m_lam = monomial_symmetric(n, lam)
    if not companions:
        return m_lam
    denominator = _kernel(spec).denominator
    numerator = _orbit_numerator(spec)
    top = denominator(2 * sum(lam))
    scale = [top // denominator(d) for d in range(2 * sum(lam) + 1)]

    def entry(mu, nu) -> int:
        return numerator(mu, nu) * scale[sum(mu) + sum(nu)]

    rows = [[entry(mu, nu) for nu in companions] for mu in companions]
    rhs = [-entry(lam, mu) for mu in companions]
    out = dict(m_lam.terms)
    for coeff, mu in zip(_solve_bareiss(rows, rhs), companions):
        if coeff:
            out.update(dict.fromkeys(orbit(mu), _canonical(coeff)))
    return Polynomial._trusted(n, out)


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


def _rodrigues(lam, spec: FamilySpec) -> Polynomial:
    from .raising import _rodrigues_chain  # raising imports this module

    return _rodrigues_chain(lam, spec)


# symmetric route -> the monic polynomial of a padded label
_ROUTES = {
    "triangular": lambda lam, spec: _jack_triangular(lam, spec.n, spec.beta),
    "gram": _gram,
    "intertwined": _intertwined,
    "rodrigues": _rodrigues,
}


# ---------------------------------------------------------------------------
# non-symmetric Hermite / Laguerre


def nonsym_hermite(label: NonSymLabel, spec: FamilySpec) -> FamilyPolynomial:
    """Intertwiner image of the non-symmetric Jack polynomial; joint
    eigenvector of the h_j with the transported spectrum."""
    if spec.family != HERMITE:
        raise ValueError("nonsym_hermite needs a Hermite spec")
    return _nonsym_intertwined(label, spec)


def nonsym_laguerre(label: NonSymLabel, spec: FamilySpec) -> FamilyPolynomial:
    """Squared-variable intertwiner image; the h_j realize twice the stored
    eigenvalues."""
    if spec.family != LAGUERRE:
        raise ValueError("nonsym_laguerre needs a Laguerre spec")
    return _nonsym_intertwined(label, spec)


def _nonsym_intertwined(label: NonSymLabel, spec: FamilySpec) -> FamilyPolynomial:
    """sigma(E_eta) on the cached E_eta, checked triangular on every call."""
    label = NonSymLabel(pad_partition(label.lam, spec.n), label.w)
    base = nonsym_jack(label, FamilySpec(JACK, spec.n, spec.beta))
    poly = globals()[realization(spec).intertwiner](base.poly, spec)
    _assert_nonsym_triangular(poly, label)
    return FamilyPolynomial(label, spec, poly, "intertwined", base.eigenvalues)


def construct(label, spec: FamilySpec, method: str | None = None) -> FamilyPolynomial:
    """Family-dispatching constructor (``jack``, ``nonsym_hermite``, ...,
    found by name when called).  A symmetric label takes any route of its
    family, the default when method is None; a non-symmetric label has one
    route, so method must be None or that route."""
    real = realization(spec)
    if isinstance(label, NonSymLabel):
        if method not in (None, real.nonsym_route):
            raise ValueError(
                f"non-symmetric {spec.family} polynomials are built by the "
                f"{real.nonsym_route!r} route, not {method!r}"
            )
        return globals()[f"nonsym_{spec.family}"](label, spec)
    return globals()[spec.family](label, spec, method or real.symmetric_routes[0])

