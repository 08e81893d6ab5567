"""Jack, multivariable Hermite, and multivariable Laguerre polynomials.

The three families are three representations of one degenerate double
affine Hecke algebra.  A ``Realization`` per family spec, one subclass per
family that defines its V_j, C_j, Delta/4 and pairing, holds what tells
their operators apart; the raising and shift operators, the intertwiners
and the constructions are written once against it.  What tells their
pairings apart, the weights and moments, is the kernel of ``pairings``.

Each family is built by several independent routes that must agree exactly:

* non-symmetric, all three families: the recursion of Knop and Sahi,
  whose steps are intertwiners, run in the family's realization;
* symmetric Jack: triangular solve against the elementary symmetric
  combinations e_k(Dhat_1, ..., Dhat_N), or a Rodrigues chain of raising
  operators;
* Hermite: Gram orthogonalization against the Gaussian pairing, or the
  intertwiner image sigma_A of the Jack polynomial, or Rodrigues;
* Laguerre: same three routes in the squared variables u_j = z_j^2.

Rational gauge convention: the ladder operators carry a factored-out
sqrt(2), so the intertwiner applied to a homogeneous f of degree d is

    sigma_A(f) = 2^(-d) f(A_1, ..., A_N) . 1
    sigma_B(f) = f(B_1^2/4, ..., B_N^2/4) . 1   (in u = z^2)

which makes every family polynomial exactly rational.  Under this
convention sigma_A(J_lam) *is* the monic Hermite polynomial and
sigma_B(J_lam) the monic Laguerre polynomial; B_j^2/4 acts on u by
type-A operators (``Realization``).  sigma is the heat operator
exp(-Delta/4) of ``laplacian()``; Delta lowers the degree, so on
an f of degree d the series stops at k = floor(d/2) (Hermite) or d
(Laguerre), one Horner-form ``Operator`` per (spec, k) in ``_heat``.

The Gram route (the default for Hermite and Laguerre) is one growing
fraction-free Gram-Schmidt elimination per spec (``_gram``, its rows in
``families.gram_rows``).  The pairings' orbit numerators of <m_mu, m_nu>
are the Gram matrix of the basis s_mu m_mu, s_mu s_nu the kernel's
denominator of |mu| + |nu| where the numerator is not 0, so stored rows
never change as the weight grows.  A label appends itself and the labels
below it that the elimination lacks, each orthogonalized against every
earlier row, incomparable ones included: the orthogonality theorem makes
it F_lam, and the triangularity check of every construction confirms it.

The symmetric Jack triangular route applies no operator.  The Sutherland
operator H (``operators.sutherland_expanded(N, beta)`` less its constant)
acts on m_mu in closed form, in integers (R. P. Stanley, Adv. Math. 77
(1989) 76-115, Thm 3.1): H m_mu = E(mu) m_mu + 2 beta sum_nu h_(nu mu)
m_nu, the nu strictly below mu.  J_lam is its eigenvector with leading
m_lam, found by back-substitution over the dominance down-set of lam in
integer numerators over one common denominator.  E(lam) - E(nu) > 0 for
nu < lam, so one eigenvalue separates lam from every nu it meets.  Both
the non-symmetric recursion and this route apply no Cherednik operator,
so the joint spectra check them independently.

Every construction is cached once it is checked, per (padded partition,
spec, route) or (NonSymLabel, spec), by the two memos ``_checked_*``
(see ``caches``): a route body and its triangularity check run once per
key (``raising.rodrigues`` shares the entry of ``construct(lam, spec,
"rodrigues")``), a route never reads another route's entry, so a
cross-check compares two constructions, and a construction that raises
is not stored.  The recursion reads its own memo, so each E_eta on the
way to a label is stored too.  R_m, G, Ghat, e_k(C) and sigma keep
symmetric polynomials symmetric, so each acts on a symmetric input through
``Realization.orbit_image``, from its images of the m_mu, stored once per
(map, mu) in ``families.orbit_images``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import operators as ops
from . import pairings
from .caches import memo, register
from .combinatorics import (
    composition_to_label,
    dominance_lt,
    extended_dominance_lt,
    is_min_coset_rep,
    is_partition,
    is_permutation,
    label_to_composition,
    _orbit_coefficients,
    from_orbit_form,
    monomial_symmetric,
    pad_partition,
    partitions_of,
    partitions_up_to,
    precedes,
)
from .errors import (
    AmbientSizeMismatch,
    EvennessViolation,
    HeckePolyError,
    NotProportionalError,
    SpectrumCollisionError,
)
from .pairings import ScaledRational, _kernel, _orbit_numerator
from .parameters import FamilySpec, HERMITE, JACK, LAGUERRE, Record
from .polynomials import Polynomial, _canonical, _integer_part

Partition = tuple[int, ...]


class NonSymLabel(Record):
    """(partition, permutation) label with the minimal-length coset
    representative convention, so labels biject with monomials."""

    __slots__ = __match_args__ = ("lam", "w")

    def __init__(self, lam: Partition, w: tuple[int, ...]):
        lam, w = tuple(lam), tuple(w)
        if len(lam) != len(w):
            raise ValueError("label partition and permutation lengths differ")
        if not {int}.issuperset(map(type, lam + w)):  # as pad_partition
            raise ValueError(f"label {lam}, {w} has an entry that is not an int")
        if not is_partition(lam):  # as pad_partition
            raise ValueError(f"{lam} is not weakly decreasing and non-negative")
        if not is_permutation(w):
            raise ValueError(f"{w} is not a permutation of 1..{len(w)}")
        if not is_min_coset_rep(lam, w):
            raise ValueError(f"{w} is not the minimal-length representative for {lam}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "w", w)

    @classmethod
    def from_composition(cls, comp) -> "NonSymLabel":
        lam, w = composition_to_label(tuple(comp))
        return cls(lam, w)

    def composition(self) -> tuple[int, ...]:
        return label_to_composition(self.lam, self.w)


class FamilyPolynomial(Record):
    """A constructed family member with its verified spectral data.

    ``eigenvalues`` is the joint spectrum in the Cherednik normalization:
    the Dhat_j eigenvalues for non-symmetric labels, and the tuple
    (lam_{N-j+1} + beta (j-1))_{j=1..N} for symmetric ones.  The type-B
    h_j realize twice these values on the z-encoding of a Laguerre one.
    """

    __slots__ = __match_args__ = ("label", "spec", "poly", "construction", "eigenvalues")

    def __init__(self, label, spec: FamilySpec, poly: Polynomial, construction: str,
                 eigenvalues: tuple[int, ...]):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "construction", construction)
        object.__setattr__(self, "eigenvalues", eigenvalues)

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

        family    V_j                   C_j               Delta/4          pair
        jack      x_j                   Dhat_j            0                ct_pairing
        hermite   A_j/2                 h_j               sum_j D_j^2 / 4  gauss_pairing
        laguerre  (u_j - K_j)(1 - D_j)  Dhat_j - K_j D_j  sum_j K_j D_j    laguerre_pairing

    Each family acts on its own variables, Laguerre on u = z^2 by the
    type-A D_j and Dhat_j of (N, beta), K_j = Dhat_j + beta sum_{k>j} s_jk
    + gamma + 1/2: on even z-polynomials its C_j and V_j are the paper's
    type-B (1/2) h_j and (B_j/2)^2, as res_B checks, and its Delta/4 is
    Delta_B/4 (M. Rosler, Comm. Math. Phys. 192 (1998) 519-542) by (D_j^B)^2
    S = S 4 K_j D_j, S the stretch u -> z^2.  ``pair(f, g)`` is the family
    pairing as a ScaledRational.  An instance holds only its spec; each
    subclass defines its row, naming the builders below through
    ``operators._named``, and reads every operator through its module on
    every call, so ``clear_caches`` drops the operators they build.
    """

    __slots__ = ("spec",)

    letter = "x"  # variable letter of the printed polynomials
    lowering = 2  # Delta lowers the degree by this much
    graded = False  # the pairing vanishes on x^a, x^b unless |a| = |b|
    symmetric_routes = ("gram", "intertwined", "rodrigues")  # default first

    def __init__(self, spec: FamilySpec):
        self.spec = spec

    def apply_symmetric(self, image_of, f: Polynomial) -> Polynomial:
        """The map image_of applied to a symmetric f, from ``orbit_image``,
        carrying its orbit form."""
        return from_orbit_form(f.nvars, self.orbit_image(image_of, f))

    def orbit_image(self, image_of, f: Polynomial) -> dict:
        """The m_nu coefficients of L f for a symmetric f (else ValueError)
        and a linear L = image_of on the m_mu: the sum of c_mu times the
        stored coefficients of image_of(m_mu), over the c_mu scaled to
        integers, divided once.  Each image is built and read by orbit once
        per (image_of, mu), the map object itself the key; an image that is
        not symmetric raises NotProportionalError."""
        coeffs, den = _integer_part(f._orbit_form())
        out: dict = {}
        for mu, c in coeffs.items():
            slot = (image_of, mu)
            image = _ORBIT_IMAGES.get(slot)
            if image is None:
                poly = image_of(monomial_symmetric(f.nvars, mu))
                try:
                    _ORBIT_IMAGES[slot] = _orbit_coefficients(poly.terms)
                except ValueError as exc:
                    raise NotProportionalError(
                        f"{exc}: the image of m_{mu} at {self.spec}"
                    ) from exc
                image = _ORBIT_IMAGES[slot]  # the first use reads what later ones do
            for nu, v in image.items():
                out[nu] = out.get(nu, 0) + c * v
        return {nu: _canonical(Fraction(v, den) if den > 1 else v) for nu, v in out.items() if v}

    def intertwine(self, f: Polynomial) -> Polynomial:
        """sigma(f) = f(V_1, ..., V_N) . 1 = exp(-Delta/4) f, the series
        cut where Delta^k f = 0 (``_heat``)."""
        n = self.spec.n
        if f.nvars != n:
            raise AmbientSizeMismatch(
                f"ambient size mismatch: intertwiner on {n} vars, polynomial in {f.nvars}")
        return _heat(self.spec, max(map(sum, f.terms), default=0) // self.lowering)(f)


class _Jack(Realization):
    __slots__ = ()
    graded = True
    symmetric_routes = ("triangular", "rodrigues")

    def coordinate(self, j: int) -> ops.Operator:
        return ops.multiply_by(Polynomial.variable(self.spec.n, j))

    def cherednik(self, j: int) -> ops.Operator:
        return ops.cherednik(j, self.spec)

    def laplacian(self) -> ops.Operator:
        return ops.scalar(self.spec.n, 0)  # V_j = x_j: sigma is the identity

    def pair(self, f: Polynomial, g: Polynomial) -> ScaledRational:
        return ScaledRational(pairings.ct_pairing(f, g, self.spec))


class _Hermite(Realization):
    __slots__ = ()

    def coordinate(self, j: int) -> ops.Operator:
        return Fraction(1, 2) * ops.creation(j, self.spec)

    def cherednik(self, j: int) -> ops.Operator:
        return ops.htilde(j, self.spec)

    def laplacian(self) -> ops.Operator:
        return ops._named(_hermite_laplacian, self.spec.n, None, self.spec.beta, None)

    def pair(self, f: Polynomial, g: Polynomial) -> ScaledRational:
        return pairings.gauss_pairing(f, g, self.spec)


class _Laguerre(Realization):
    __slots__ = ()
    letter = "u"
    lowering = 1

    def coordinate(self, j: int) -> ops.Operator:
        return ops._named(_laguerre_coordinate, self.spec.n, j, self.spec.beta, self.spec.gamma)

    def cherednik(self, j: int) -> ops.Operator:
        return ops._named(_laguerre_cherednik, self.spec.n, j, self.spec.beta, self.spec.gamma)

    def laplacian(self) -> ops.Operator:
        return ops._named(_laguerre_laplacian, self.spec.n, None, self.spec.beta, self.spec.gamma)

    def pair(self, f: Polynomial, g: Polynomial) -> ScaledRational:
        return pairings.laguerre_pairing(f, g, self.spec)


def _hermite_laplacian(n: int, _, beta: int, gamma) -> ops.Operator:
    dunkls = [ops.dunkl(j, FamilySpec(JACK, n, beta)) for j in range(1, n + 1)]
    return sum((Fraction(1, 4) * d * d for d in dunkls), ops.scalar(n, 0))


def _laguerre_k(n: int, j: int, beta: int, gamma) -> ops.Operator:
    op = ops.cherednik(j, FamilySpec(JACK, n, beta)) + ops.scalar(n, gamma + Fraction(1, 2))
    return sum((beta * ops.exchange(n, j, k) for k in range(j + 1, n + 1)), op)


def _laguerre_cherednik(n: int, j: int, beta: int, gamma) -> ops.Operator:
    type_a = FamilySpec(JACK, n, beta)
    return ops.cherednik(j, type_a) - _laguerre_k(n, j, beta, gamma) * ops.dunkl(j, type_a)


def _laguerre_coordinate(n: int, j: int, beta: int, gamma) -> ops.Operator:
    u_j, d = ops.multiply_by(Polynomial.variable(n, j)), ops.dunkl(j, FamilySpec(JACK, n, beta))
    return (u_j - _laguerre_k(n, j, beta, gamma)) * (ops.identity(n) - d)


def _laguerre_laplacian(n: int, _, beta: int, gamma) -> ops.Operator:
    return sum((_laguerre_k(n, j, beta, gamma) * ops.dunkl(j, FamilySpec(JACK, n, beta))
                for j in range(1, n + 1)), ops.scalar(n, 0))


_REALIZATIONS = {JACK: _Jack, HERMITE: _Hermite, LAGUERRE: _Laguerre}
NONSYM_ROUTE = "recursion"  # the one route of a non-symmetric label, in every family

_ORBIT_IMAGES: dict = {}  # (image_of, mu) -> m_nu coefficients of image_of(m_mu)
register("families.orbit_images", _ORBIT_IMAGES.__len__, _ORBIT_IMAGES.clear)


@memo
def _heat(spec: FamilySpec, order: int) -> ops.Operator:
    """sum_{k <= order} (-Delta/4)^k / k! of spec's realization, in Horner
    form 1 - L (1 - L/2 (1 - ... (1 - L/order))), L = Delta/4."""
    total, quarter = ops.identity(spec.n), realization(spec).laplacian()
    for k in range(order, 0, -1):
        total = ops.identity(spec.n) - Fraction(1, k) * (quarter * total)
    return total


@memo
def _elementary_cherednik(spec: FamilySpec, k: int) -> ops.Operator:
    """e_k(C_1, ..., C_N) of spec's realization, each k-subset applied in
    increasing index order."""
    chers = [realization(spec).cherednik(j) for j in range(1, spec.n + 1)]
    return sum((math.prod(reversed(subset)) for subset in itertools.combinations(chers, k)),
               ops.scalar(spec.n, 0))


def equals_multiple(image: dict, constant, target: Polynomial) -> bool:
    """image, m_nu coefficients, equals constant * target, a symmetric
    polynomial, compared orbit by orbit."""
    constant = _canonical(constant)
    return image == ({nu: constant * c for nu, c in target._orbit_form().items()} if constant else {})


@memo
def realization(spec: FamilySpec) -> Realization:
    """The realization of spec's family, one instance per spec: the one
    place that tells the three families' operators and routes apart
    (``pairings._kernel`` holds their weights)."""
    return _REALIZATIONS[spec.family](spec)


# ---------------------------------------------------------------------------
# spectra


def composition_spectrum(comp, beta: int) -> tuple[int, ...]:
    """Diagonal Cherednik eigenvalue of the monomial x^comp:

        ev_j = comp_j + beta * (#{k<j : comp_k <= comp_j}
                                + #{k>j : comp_k < comp_j}).

    Derived by expanding Dhat_j on a monomial; fixes the eigenvalue
    orientation once and for all (the constant monomial has spectrum
    beta*(j-1)).  The count is the place of j in the stable sort of comp.
    """
    out = list(comp)
    for rank, j in enumerate(sorted(range(len(out)), key=out.__getitem__)):
        out[j] += beta * rank
    return tuple(out)


def _elementary_symmetric(values, k: int):
    """e_k(values); an int when the values are integers."""
    table = [1] + [0] * k
    for v in values:
        for i in range(k, 0, -1):
            table[i] += table[i - 1] * v
    return table[k]


# ---------------------------------------------------------------------------
# non-symmetric polynomials


def nonsym_jack(label: NonSymLabel, spec: FamilySpec) -> FamilyPolynomial:
    """The non-symmetric Jack polynomial E_eta, by ``_checked_nonsym``."""
    if spec.family != JACK:
        raise ValueError("nonsym_jack needs a Jack spec")
    return _nonsym(label, spec)


def nonsym_hermite(label: NonSymLabel, spec: FamilySpec) -> FamilyPolynomial:
    """The non-symmetric Hermite polynomial, by ``_checked_nonsym``."""
    if spec.family != HERMITE:
        raise ValueError("nonsym_hermite needs a Hermite spec")
    return _nonsym(label, spec)


def nonsym_laguerre(label: NonSymLabel, spec: FamilySpec) -> FamilyPolynomial:
    """The non-symmetric Laguerre polynomial in u = z^2, by ``_checked_nonsym``."""
    if spec.family != LAGUERRE:
        raise ValueError("nonsym_laguerre needs a Laguerre spec")
    return _nonsym(label, spec)


def _nonsym(label: NonSymLabel, spec: FamilySpec) -> FamilyPolynomial:
    return _checked_nonsym(NonSymLabel(pad_partition(label.lam, spec.n), label.w), spec)


@memo
def _checked_nonsym(label: NonSymLabel, spec: FamilySpec) -> FamilyPolynomial:
    """E_eta in spec's realization by the recursion of Knop and Sahi
    (Invent. Math. 128 (1997) 9-22), whose steps are intertwiners: E_0 = 1;
    if eta_1 >= 1, E_eta = V_1 omega E_(eta_2, ..., eta_N, eta_1 - 1) with
    (omega f)(x) = f(x_2, ..., x_N, x_1); else, with i the first ascent
    eta_i < eta_(i+1) and ebar the spectrum of s_i eta, E_eta =
    (s_i + beta / (ebar_i - ebar_(i+1))) E_(s_i eta), a gap of at least
    1 + beta.  The steps recurse through this memo, so every E on the way
    is checked triangular and stored once."""
    eta, n = label.composition(), spec.n
    real = realization(spec)
    if not any(eta):
        poly = Polynomial.one(n)
    elif eta[0]:
        prev = _checked_nonsym(NonSymLabel.from_composition(eta[1:] + (eta[0] - 1,)), spec).poly
        omega = ops.permutation_op(tuple(range(2, n + 1)) + (1,))
        poly = real.coordinate(1)(omega(prev))
    else:
        i = next(i for i in range(n - 1) if eta[i] < eta[i + 1])
        swapped = eta[:i] + (eta[i + 1], eta[i]) + eta[i + 2 :]
        prev = _checked_nonsym(NonSymLabel.from_composition(swapped), spec).poly
        ebar = composition_spectrum(swapped, spec.beta)
        scalar = Fraction(spec.beta, ebar[i] - ebar[i + 1])
        poly = ops.exchange(n, i + 1, i + 2)(prev) + scalar * prev
    _assert_nonsym_triangular(poly, label)
    return FamilyPolynomial(label, spec, poly, NONSYM_ROUTE, composition_spectrum(eta, spec.beta))


def _assert_nonsym_triangular(poly: Polynomial, label: NonSymLabel) -> None:
    """x^comp has coefficient 1 and every other term of its degree a lower
    label.  Terms of lower degree are not checked: the Jack polynomials
    have none, the Hermite and Laguerre ones do."""
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


def jack(lam, spec: FamilySpec, method: str = _Jack.symmetric_routes[0]) -> FamilyPolynomial:
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
    try:
        poly = _ROUTES[method](lam, spec)
    except NotProportionalError as exc:  # a stored image that is not symmetric
        raise _case_error(NotProportionalError, exc, lam, spec) from exc
    _assert_symmetric_triangular(poly, lam, spec)
    # the composition spectrum of lam in increasing order: lam_{N-j+1} + beta (j-1)
    return FamilyPolynomial(lam, spec, poly, method, composition_spectrum(lam[::-1], spec.beta))


def _jack_triangular(lam, n: int, beta: int) -> Polynomial:
    """The eigenvector of the Sutherland operator H with leading m_lam, in
    the m_mu basis, applying no operator: c_lam = 1 and, for each nu of
    the dominance down-set of lam in descending lex order,

        c_nu = 2 beta sum_mu h_(nu mu) c_mu / (E(lam) - E(nu)),

    kept as integer numerators over one common denominator.  Only the
    down-set is visited: incomparable labels can share E, such as (4,1,1)
    and (3,3,0) at every beta."""
    top = _sutherland_energy(lam, beta)
    nums, den = {lam: 1}, 1
    for nu in partitions_of(sum(lam), n):
        if not dominance_lt(nu, lam):
            continue
        gap = top - _sutherland_energy(nu, beta)
        if gap <= 0:
            raise SpectrumCollisionError(
                f"spectrum collision with {nu} at N={n}, beta={beta}, lambda={lam}")
        r = 2 * beta * sum(h * nums.get(mu, 0) for mu, h in _sutherland_raising(nu).items())
        if r:
            g = math.gcd(r, gap)
            factor = gap // g
            if factor != 1:
                den *= factor
                nums = {mu: v * factor for mu, v in nums.items()}
            nums[nu] = r // g
    return from_orbit_form(n, {mu: _canonical(Fraction(nums[mu], den)) for mu in reversed(nums)})


def _sutherland_energy(mu, beta: int) -> int:
    """E(mu) = sum_i mu_i^2 + beta sum_i (N + 1 - 2i) mu_i, the coefficient
    of m_mu in H m_mu."""
    return sum(p * p + beta * (len(mu) - 1 - 2 * i) * p for i, p in enumerate(mu))


def _sutherland_raising(nu) -> dict:
    """{mu: h_(nu mu)} for the mu != nu whose image H m_mu has the m_nu
    coefficient 2 beta h_(nu mu) != 0: moving t = 1..nu_k from part k to a
    part j < k and sorting gives mu, and adds nu_j - nu_k + 2t to h."""
    out: dict = {}
    for j, k in itertools.combinations(range(len(nu)), 2):
        for t in range(1, nu[k] + 1):
            moved = list(nu)
            moved[j] += t
            moved[k] -= t
            mu = tuple(sorted(moved, reverse=True))
            out[mu] = out.get(mu, 0) + nu[j] - nu[k] + 2 * t
    return out


def _case_error(kind, message, lam, spec: FamilySpec) -> HeckePolyError:
    """kind(message), naming the case; built only when one is raised."""
    return kind(f"{message} at N={spec.n}, beta={spec.beta}, lambda={lam}")


def _assert_symmetric_triangular(poly: Polynomial, lam, spec: FamilySpec) -> None:
    try:
        expansion = poly._orbit_form()
    except ValueError as exc:  # not symmetric
        raise _case_error(HeckePolyError, exc, lam, spec) from exc
    if expansion.get(lam) != 1:
        raise _case_error(HeckePolyError, "leading coefficient of m_lam is not 1", lam, spec)
    for mu in expansion:
        if mu != lam and not extended_dominance_lt(mu, lam):
            raise _case_error(HeckePolyError, f"companion {mu} is not below {lam}", lam, spec)


# ---------------------------------------------------------------------------
# intertwiners


def sigma_a(f: Polynomial, spec: FamilySpec) -> Polynomial:
    """Creation-substitution intertwiner, rational convention: homogeneous
    degree-d components map to 2^(-d) f(A_1..A_N) . 1."""
    if spec.family != HERMITE:
        raise ValueError("sigma_a needs a Hermite spec")
    return realization(spec).intertwine(f)


def sigma_b(f: Polynomial, spec: FamilySpec) -> Polynomial:
    """Squared-creation intertwiner: substitutes V_j, the u-form of B_j^2/4
    (u = z^2), for x_j and applies to 1."""
    if spec.family != LAGUERRE:
        raise ValueError("sigma_b needs a Laguerre spec")
    return realization(spec).intertwine(f)


def encode_even(f_u: Polynomial) -> Polynomial:
    """u-polynomial -> even z-polynomial (u_j = z_j^2), for the type-B
    operators on z."""
    return ops.stretch(f_u.nvars, 2)(f_u)


def decode_even(f_z: Polynomial) -> Polynomial:
    """Even z-polynomial -> u-polynomial; raises on odd exponents.  Halving
    the exponents keeps the terms distinct, so they are adopted unchecked."""
    out = {}
    for exps, coeff in f_z.terms.items():
        if any(e % 2 for e in exps):
            raise EvennessViolation("evenness violated")
        out[tuple(e // 2 for e in exps)] = coeff
    return Polynomial._trusted(f_z.nvars, out)


# ---------------------------------------------------------------------------
# Hermite and Laguerre


def hermite(lam, spec: FamilySpec, method: str = _Hermite.symmetric_routes[0]) -> FamilyPolynomial:
    if spec.family != HERMITE:
        raise ValueError("hermite needs a Hermite spec")
    return _symmetric(lam, spec, method)


def laguerre(lam, spec: FamilySpec, method: str = _Laguerre.symmetric_routes[0]) -> FamilyPolynomial:
    """Multivariable Laguerre polynomial, expressed in u_j = z_j^2."""
    if spec.family != LAGUERRE:
        raise ValueError("laguerre needs a Laguerre spec")
    return _symmetric(lam, spec, method)


def _intertwined(lam, spec: FamilySpec) -> Polynomial:
    """sigma (sigma_a or sigma_b) of the Jack polynomial, from the stored
    sigma images of its m_mu."""
    real, jack_poly = realization(spec), jack(lam, FamilySpec(JACK, spec.n, spec.beta)).poly
    return real.apply_symmetric(real.intertwine, jack_poly)


_GRAM_ROWS: dict = {}  # spec -> (label -> row number, [(L_k, pivot) per row])
register("families.gram_rows", lambda: sum(len(rows) for _, rows in _GRAM_ROWS.values()),
         _GRAM_ROWS.clear)


def _gram(lam, spec: FamilySpec) -> Polynomial:
    """The row L of lam in spec's elimination, once lam and the labels
    below it that the elimination lacks are appended in (weight, lex)
    order, read back monic in the m_mu basis:
    c_nu = L[nu] den(|nu| + |lam|) / (L[lam] den(2|lam|))."""
    index, rows = _GRAM_ROWS.setdefault(spec, ({}, []))
    if lam not in index:
        new = [mu for mu in partitions_up_to(sum(lam), spec.n)
               if mu not in index and (mu == lam or extended_dominance_lt(mu, lam))]
        for mu in sorted(new, key=lambda mu: (sum(mu), mu)):
            _gram_append(spec, index, rows, mu)
    row, labels, weight = rows[index[lam]][0], list(index), sum(lam)
    denominator = _kernel(spec).denominator
    top = row[index[lam]] * denominator(2 * weight)
    return from_orbit_form(spec.n, {
        labels[i]: _canonical(Fraction(v * denominator(sum(labels[i]) + weight), top))
        for i, v in row.items()
    })


def _gram_append(spec: FamilySpec, index: dict, rows: list, mu) -> None:
    """Append mu to the elimination (index, rows) of spec.  Its labels are
    a down-set of extended dominance, numbered in a linear extension of
    it; row k keeps L_k, the integers with sum_i L_k[i] s_i m_i orthogonal
    to every earlier row and L_k[k] the leading k-minor of the Gram matrix
    G, by a Bareiss elimination of [G | I] on that row alone: by the
    symmetry of G its multiplier at step j is sum_i L_j[i] G[i][k], so
    only the L_j and the pivots (leading minors) are kept."""
    numerator = _orbit_numerator(spec)
    column = [numerator(nu, mu) for nu in index] + [numerator(mu, mu)]
    # the reduced row is row * prev / base: a step whose multiplier is 0
    # only scales it by pivot / prev, so runs of those are not applied
    row, prev, base = {len(rows): 1}, 1, 1
    for pivot_row, pivot in rows:
        factor = sum(v * column[i] for i, v in pivot_row.items())
        if factor:
            if base != prev:
                row = {i: v * prev // base for i, v in row.items()}
            row = {i: v * pivot for i, v in row.items()}
            for i, v in pivot_row.items():
                row[i] = row.get(i, 0) - factor * v
            row, base = {i: v // prev for i, v in row.items() if v}, pivot
        prev = pivot
    row = {i: v * prev // base for i, v in row.items()}
    pivot = sum(v * column[i] for i, v in row.items())
    if pivot <= 0:  # the pairing is positive definite
        raise HeckePolyError(f"Gram matrix not positive definite at {mu} for {spec}")
    index[mu] = len(rows)
    rows.append((row, pivot))


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


# family -> its public constructor of symmetric and of non-symmetric labels
_SYMMETRIC = {JACK: jack, HERMITE: hermite, LAGUERRE: laguerre}
_NONSYM = {JACK: nonsym_jack, HERMITE: nonsym_hermite, LAGUERRE: nonsym_laguerre}


def construct(label, spec: FamilySpec, method: str | None = None) -> FamilyPolynomial:
    """Family-dispatching constructor (``jack``, ``nonsym_hermite``, ...,
    from the tables above).  A symmetric label takes any route of its
    family, the default when method is None; a non-symmetric label has one
    route, so method must be None or that route."""
    if isinstance(label, NonSymLabel):
        if method not in (None, NONSYM_ROUTE):
            raise ValueError(
                f"non-symmetric {spec.family} polynomials are built by the "
                f"{NONSYM_ROUTE!r} route, not {method!r}"
            )
        return _NONSYM[spec.family](label, spec)
    return _SYMMETRIC[spec.family](label, spec, method or realization(spec).symmetric_routes[0])

