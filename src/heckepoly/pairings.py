"""Exact inner products and closed-form norms for the three families.

Analytic integrals are replaced by exact moment evaluation, which is
equivalent for polynomial integrands once the coupling beta is a
non-negative integer:

* constant-term pairing (trigonometric picture):
      <f, g> = (-1)^(beta N(N-1)/2) [ f(x) g(1/x) prod (x_i-x_j)^(2 beta)
                                      prod x_j^(-beta(N-1)) ]_0
* Gaussian pairing: one-variable moments  int x^(2k) e^(-x^2) dx
      = (2k)!/(4^k k!) * pi^(1/2) = (2k-1)!!/2^k * pi^(1/2)
* Laguerre pairing (u = z^2): moments  int |z|^(2 gamma) z^(2k) e^(-z^2) dz
      = (gamma+1/2)(gamma+3/2)...(gamma+k-1/2) * Gamma(gamma+1/2)
      = p (p+q) ... (p+(k-1)q) / q^k * Gamma(gamma+1/2),  gamma+1/2 = p/q

The weight W = prod (x_i-x_j)^(2 beta) has integer coefficients and total
degree D = beta N(N-1).  So each pairing is, in integers, one kernel per
spec (``_kernel``, the only code here that tells the families apart):
<x^a, x^b> is value(a, b) over denominator(|a| + |b|) times fixed
transcendental base powers.  The value is the Laurent weight coefficient
at b - a (Jack) or the cached moment numerator of x^(a+b) (Gauss,
Laguerre); the denominator is the constant-term sign, 2^((d+D)/2) or
q^(d+D).  M(0), and any moment of degree above 32, sums one-variable
moments over the terms of W, read from that Laurent weight; every other
moment is an integer recurrence over lower ones, by Dunkl integration by
parts (``_moment_terms``).  One body pairs f and g for all three
families: it scales them to integer coefficients, sums integer products
per total degree and divides once (``_pairing_by_degree`` keeps the
degrees apart, for the duality check of the graded constant-term
pairing).  The kernel also holds the one-variable moment of degree k
that the closed-form norms multiply in, so the norms have one body too.

Every weight is S_N-invariant, so <m_mu, m_nu> is a sum over one orbit
against a representative of the other, times that representative's orbit
size.  Its integer numerator is memoized per spec and unordered pair
(mu, nu) in one table for all three pairings, which the Gram route of
``families`` reads too.  When both inputs are symmetric, a pairing reads
their m_mu coefficients in one pass and sums c_mu d_nu numerator(mu, nu);
otherwise it runs over every pair of terms.

Transcendental prefactors are tracked symbolically in ScaledRational, so
norm equalities stay decidable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import add, sub
from typing import Callable, NamedTuple

from . import operators as ops
from .caches import memo, register
from .combinatorics import (
    Partition,
    conjugate,
    orbit,
    pad_partition,
    partition_cells,
    stabilizer_order,
)
from .errors import AmbientSizeMismatch, DivergentWeightError
from .parameters import FamilySpec, HERMITE, JACK, LAGUERRE, Record
from .polynomials import Exponent, Polynomial, _canonical, _integer_part


class ScaledRational(Record):
    """Exact value q * pi^(pi_half/2) * Gamma(gamma+1/2)^gamma_base.

    q is exact (a float raises TypeError) and the base powers are
    non-negative ints (a bool raises ValueError).  Zero is normalized to
    powers (0, 0), so every zero compares equal.
    """

    __slots__ = __match_args__ = ("q", "pi_half", "gamma_base")

    def __init__(self, q: Fraction, pi_half: int = 0, gamma_base: int = 0):
        if type(q) is not Fraction:
            q = Fraction(_canonical(q))
        if (type(pi_half) is not int or type(gamma_base) is not int
                or pi_half < 0 or gamma_base < 0):
            raise ValueError("base powers must be non-negative integers")
        if not q:
            pi_half = gamma_base = 0
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "pi_half", pi_half)
        object.__setattr__(self, "gamma_base", gamma_base)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.q, self.pi_half, self.gamma_base) == (
                other.q, other.pi_half, other.gamma_base)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.q, self.pi_half, self.gamma_base))

    def render(self) -> str:
        """Plain-text rendering like "3/2 · π^{1/2} · Γ(γ+1/2)^2"; a unit
        rational prefactor is dropped when transcendental factors remain."""
        factors = []
        if self.pi_half:
            factors.append("π^{%d/2}" % self.pi_half if self.pi_half % 2 else
                           ("π" if self.pi_half == 2 else "π^%d" % (self.pi_half // 2)))
        if self.gamma_base:
            factors.append(
                "Γ(γ+1/2)" if self.gamma_base == 1 else f"Γ(γ+1/2)^{self.gamma_base}"
            )
        if not factors:
            return str(self.q)
        if self.q == 1:
            return " · ".join(factors)
        if self.q == -1:
            return "-" + " · ".join(factors)
        return " · ".join([str(self.q)] + factors)

    def to_json_dict(self) -> dict:
        return {"q": str(self.q), "pi_half": self.pi_half, "gamma_base": self.gamma_base}


# ---------------------------------------------------------------------------
# the weight (cached per (N, beta): it dominates pairing cost)


def _vandermonde_power(n: int, beta: int) -> Polynomial:
    """prod_{i<j} (x_i - x_j)^(2 beta) as a product of binomial powers;
    powering the whole Vandermonde product multiplies far larger
    intermediates."""
    total = Polynomial.one(n)
    for i, j in combinations(range(1, n + 1), 2):
        binomial = Polynomial.variable(n, i) - Polynomial.variable(n, j)
        total = total * binomial ** (2 * beta)
    return total


@memo
def _ct_weight(n: int, beta: int) -> dict[Exponent, int]:
    """Integer terms of the Laurent weight W * x^(-beta(N-1)) per variable."""
    shift = beta * (n - 1)
    return {tuple(e - shift for e in exps): coeff
            for exps, coeff in _vandermonde_power(n, beta).terms.items()}


# ---------------------------------------------------------------------------
# the pairing kernel: the one place that tells the three pairings apart


@memo
def _rising_table(p: int, q: int, k: int) -> tuple[int, ...]:
    """Numerators p (p+q) ... (p+(j-1)q) of the rising factorials
    (p/q)_j, j = 0..k; the denominator of (p/q)_j is q^j."""
    table = [1]
    for j in range(k):
        table.append(table[j] * (p + j * q))
    return tuple(table)


def _moment_terms(c: Exponent, beta: int, step: int, p: int, q: int) -> dict[Exponent, int]:
    """{b: coefficient} with M(c) = sum coefficient M(b) over sorted b (W is
    symmetric), for a sorted exponent c != 0 with last index j.  D_j is
    adjoint to 2 x_j under the Gauss weight, and d/du_j (u_j f W)
    integrates to 0 under the Laguerre one (M. Rösler, Comm. Math. Phys.
    192 (1998) 519-542; T. H. Baker and P. J. Forrester, Comm. Math. Phys.
    188 (1997) 175-216), so with a = c - (step - 1) e_j

        M(c) = ((c_j - 1) q + p) M(c - step e_j)
               + q beta sum_{k != j} sum_b [(1 - s_jk)/(x_j - x_k) x^a]_b M(b)

    in the kernel's units: step 2, p/q = 0/1 (Gauss); step 1, p/q =
    gamma + 1/2 (Laguerre).  The divided difference telescopes, for s > r:
    (x_j^s x_k^r - x_j^r x_k^s)/(x_j - x_k) = sum_{i=r}^{s-1} x_j^i x_k^(r+s-1-i)."""
    j = len(c) - 1
    top = c[j] - step + 1
    diagonal = (c[j] - 1) * q + p
    terms = {tuple(sorted(c[:j] + (c[j] - step,))): diagonal} if diagonal else {}
    e = list(c)
    for k in range(j):
        low, high = sorted((c[k], top))
        coeff = q * beta if top > c[k] else -q * beta
        for i in range(low, high):
            e[j], e[k] = i, low + high - 1 - i
            b = tuple(sorted(e))
            terms[b] = terms.get(b, 0) + coeff
        e[k] = c[k]
    return {b: v for b, v in terms.items() if v}


# Above this total degree a moment is one weight sum, which also bounds the
# recursion's depth: from u_2^600 at N = 2 the recursion would first fill
# every lower moment, 90,301 of them (24 s on one Xeon core under CPython
# 3.11), for a weight of three terms.
_RECURSION_DEGREE = 32


@memo
def _moment_num(n: int, beta: int, step: int, p: int, q: int, exps: Exponent) -> int:
    """Moment numerator of x^exps in ``_moment_terms``'s units, summed from
    lower moments down to M(0), the weight summed against the one-variable
    moments of Gauss (step 2) or Laguerre (step 1)."""
    key = tuple(sorted(exps))
    if key != exps:  # compute once per sorted exponent
        return _moment_num(n, beta, step, p, q, key)
    if sum(key) % step:
        return 0
    if not key[-1] or sum(key) > _RECURSION_DEGREE:
        shift = beta * (n - 1)
        k = key[-1] + 2 * shift
        # Gauss, in the kernel's units: int x^j e^(-x^2) dx / pi^(1/2) times
        # 2^(j/2) is the numerator of (1/2)_(j/2) at even j, 0 at odd j
        one = ([v for r in _rising_table(1, 2, k // 2) for v in (r, 0)] if step == 2
               else _rising_table(p, q, k))
        return sum(coeff * math.prod(one[e + w + shift] for e, w in zip(key, w_exps))
                   for w_exps, coeff in _ct_weight(n, beta).items())
    terms = _moment_terms(key, beta, step, p, q)
    return sum(v * _moment_num(n, beta, step, p, q, b) for b, v in terms.items())


class _Kernel(NamedTuple):
    """The pairing of one spec in integers (see ``_kernel``)."""

    value: Callable[[Exponent, Exponent], int]  # of the term pair (x^a, x^b)
    denominator: Callable[[int], int]  # of the total degree |a| + |b|
    bases: tuple[int, int]  # (pi_half, gamma_base) of the values
    moment: Callable[[int], tuple[int, int]] | None  # one variable, degree k
    step: int = 1  # value(a, b) is 0 unless step divides |a| + |b|


@memo
def _kernel(spec: FamilySpec) -> _Kernel:
    """<x^a, x^b> = value(a, b) / denominator(|a| + |b|) times the bases
    pi^(pi_half/2) Gamma(gamma+1/2)^gamma_base, and the one-variable
    moment (numerator, denominator) of degree k that the norms multiply in:

        family    value(a, b)          denominator(d)             moment(k)
        jack      W x^(-beta(N-1)) at  (-1)^(beta N(N-1)/2)        none
                  b - a
        hermite   Gauss moment of a+b  2^((d+D)/2)                1/2^k
        laguerre  moment of a+b        q^(d+D), gamma+1/2 = p/q   (gamma+1/2)_k

    A Laguerre spec with gamma <= -1/2 raises DivergentWeightError.  The
    weight and moments are read from their own caches on every call."""
    n, beta = spec.n, spec.beta
    weight_degree = beta * n * (n - 1)
    if spec.family == JACK:
        sign = -1 if (weight_degree // 2) % 2 else 1

        def value(a, b):
            return _ct_weight(n, beta).get(tuple(map(sub, b, a)), 0)

        return _Kernel(value, lambda d: sign, (0, 0), None)
    if spec.family == HERMITE:
        return _Kernel(lambda a, b: _moment_num(n, beta, 2, 0, 1, tuple(map(add, a, b))),
                       lambda d: 2 ** ((d + weight_degree) // 2), (n, 0), lambda k: (1, 2**k), 2)
    if spec.gamma <= Fraction(-1, 2):
        raise DivergentWeightError("divergent weight: gamma must exceed -1/2")
    base = spec.gamma + Fraction(1, 2)
    p, q = base.numerator, base.denominator
    return _Kernel(
        lambda a, b: _moment_num(n, beta, 1, p, q, tuple(map(add, a, b))),
        lambda d: q ** (d + weight_degree),
        (0, n),
        lambda k: (_rising_table(p, q, k)[k], q**k),
    )


# ---------------------------------------------------------------------------
# orbit numerators <m_mu, m_nu>, shared by the pairings and the Gram route

# spec -> {(mu, nu) with mu <= nu: numerator of <m_mu, m_nu>}
_ORBIT_NUMERATORS: dict[FamilySpec, dict[tuple[Partition, Partition], int]] = {}
register(
    "pairings.orbit_numerators",
    lambda: sum(map(len, _ORBIT_NUMERATORS.values())),
    _ORBIT_NUMERATORS.clear,
)


def _orbit_numerator(spec: FamilySpec):
    """numerator(mu, nu) of <m_mu, m_nu> over the kernel's denominator of
    |mu| + |nu|, for padded partitions; memoized per spec and unordered
    pair.

    The pairing sums the kernel's value(a, b) over O(mu) x O(nu).  W is
    symmetric, so value is invariant under permuting a and b together,
    and the double sum is |O(rep)| times the sum over the other orbit for
    one rep of the larger orbit.  The constant-term value is even too
    (W(1/x) = W(x)), so rep may come from either side.  A pair whose
    degree the kernel's step does not divide is 0 without a sum."""
    table = _ORBIT_NUMERATORS.get(spec)
    if table is None:
        table = _ORBIT_NUMERATORS[spec] = {}
    kernel = _kernel(spec)
    value, step = kernel.value, kernel.step

    def numerator(mu, nu) -> int:
        key = (mu, nu) if mu <= nu else (nu, mu)
        num = table.get(key)
        if num is None:
            big, small = orbit(mu), orbit(nu)
            if len(big) < len(small):
                big, small = small, big
            rep = big[0]
            odd = (sum(mu) + sum(nu)) % step
            num = table[key] = 0 if odd else len(big) * sum(value(rep, b) for b in small)
        return num

    return numerator


def _degree_sums(f_terms: dict, g_terms: dict, value) -> dict[int, int]:
    """sum_{a,b} F_a G_b value(a, b) over two integer coefficient dicts,
    keyed by monomial exponents or by orbit labels, one integer per total
    degree |a| + |b|."""
    g_list = [(b, sum(b), cb) for b, cb in g_terms.items()]
    sums: dict[int, int] = {}
    for a, ca in f_terms.items():
        a_deg = sum(a)
        for b, b_deg, cb in g_list:
            num = value(a, b)
            if num:
                d = a_deg + b_deg
                sums[d] = sums.get(d, 0) + ca * cb * num
    return sums


# ---------------------------------------------------------------------------
# the three pairings


def _check_inputs(f: Polynomial, g: Polynomial, spec: FamilySpec, scan: bool = True) -> None:
    """f and g are polynomials in spec's N variables, with scan ordinary ones."""
    if f.nvars != spec.n or g.nvars != spec.n:
        raise AmbientSizeMismatch(
            f"ambient size mismatch: pairing at N={spec.n} got polynomials in "
            f"{f.nvars} and {g.nvars} variables"
        )
    if scan and (f.is_laurent() or g.is_laurent()):
        raise ValueError("pairing inputs must be ordinary polynomials")


def _pairing_sums(f: Polynomial, g: Polynomial, spec: FamilySpec):
    """(kernel, sums, scale) with <f, g> = sum_d sums[d] / (denominator(d)
    * scale) under the kernel of spec: the integer parts of f and g summed
    per total degree d = |a| + |b|, and the product of their denominators.
    Symmetric f and g are summed over their orbits instead of their terms;
    an orbit form proves its polynomial ordinary, so only the term-by-term
    path scans for Laurent terms."""
    kernel = _kernel(spec)  # a divergent gamma fails first, then the size
    _check_inputs(f, g, spec, scan=False)
    try:
        f_terms, g_terms = f._orbit_form(), g._orbit_form()
    except ValueError:  # not both symmetric: pair term by term
        _check_inputs(f, g, spec)
        f_terms, g_terms, value = f.terms, g.terms, kernel.value
    else:
        value = _orbit_numerator(spec)
    (f_terms, f_scale), (g_terms, g_scale) = _integer_part(f_terms), _integer_part(g_terms)
    return kernel, _degree_sums(f_terms, g_terms, value), f_scale * g_scale


def _pairing(f: Polynomial, g: Polynomial, spec: FamilySpec) -> Fraction:
    """sum_{a,b} f_a g_b value(a, b) / denominator(|a| + |b|) as one
    Fraction: every degree is brought to the denominator of the top one
    (each denominator divides the next)."""
    kernel, sums, scale = _pairing_sums(f, g, spec)
    top = kernel.denominator(max(sums, default=0))
    total = sum(num * (top // kernel.denominator(d)) for d, num in sums.items())
    return Fraction(total, top * scale)


def _pairing_by_degree(f: Polynomial, g: Polynomial, spec: FamilySpec) -> dict[int, Fraction]:
    """The nonzero parts of <f, g> by total degree |a| + |b|: {d: value}."""
    kernel, sums, scale = _pairing_sums(f, g, spec)
    return {d: Fraction(num, kernel.denominator(d) * scale) for d, num in sums.items() if num}


def ct_pairing(f: Polynomial, g: Polynomial, spec: FamilySpec) -> Fraction:
    """Constant-term pairing of the trigonometric (Jack) picture.

    [f(x) g(1/x) W]_0 collapses to a weight-coefficient lookup per term
    pair, so the Laurent weight is expanded only once per (N, beta)."""
    if spec.family != JACK:
        raise ValueError("ct_pairing needs a Jack spec")
    return _pairing(f, g, spec)


def gauss_pairing(f: Polynomial, g: Polynomial, spec: FamilySpec) -> ScaledRational:
    """Gaussian pairing with the squared Vandermonde-power ground state."""
    if spec.family != HERMITE:
        raise ValueError("gauss_pairing needs a Hermite spec")
    return ScaledRational(_pairing(f, g, spec), *_kernel(spec).bases)


def laguerre_pairing(f: Polynomial, g: Polynomial, spec: FamilySpec) -> ScaledRational:
    """Laguerre pairing of u-polynomials (u = z^2) with |z|^(2 gamma)
    Gaussian weight; values are rational multiples of Gamma(gamma+1/2)^N."""
    if spec.family != LAGUERRE:
        raise ValueError("laguerre_pairing needs a Laguerre spec")
    return ScaledRational(_pairing(f, g, spec), *_kernel(spec).bases)


def dunkl_pairing(f: Polynomial, g: Polynomial, spec: FamilySpec) -> Fraction:
    """Operator pairing [f(D_1, ..., D_N) g](0), D_j the type-A Dunkl
    operators at the spec's N and beta (C. F. Dunkl, Canad. J. Math. 43
    (1991) 1213-1227): each term c x^a of f adds c [D^a g](0), D^a applied
    one letter at a time by the memoized D_j.  Under the rational ladder
    convention <sigma_A f, sigma_A g> is <1,1> times this pairing of f(x/2)
    and g, which the dunkl_pairing_prop suite checks."""
    _check_inputs(f, g, spec)
    type_a = FamilySpec(JACK, spec.n, spec.beta)
    letters = [ops.dunkl(j, type_a) for j in range(1, spec.n + 1)]
    total = Fraction(0)
    for exps, coeff in f.terms.items():
        image = g
        for letter in (d for d, e in zip(letters, exps) for _ in range(e)):
            image = letter(image)
        total += coeff * image.constant_term()
    return total


# ---------------------------------------------------------------------------
# closed-form norms


def norm_formula(lam, spec: FamilySpec, form: str = "product_form") -> ScaledRational:
    """Both closed forms of the squared norm of the monic family polynomial.

    The displayed product/hook expressions hold for beta >= 1.  At beta = 0
    the weight degenerates and the hook form is singular, so both forms
    return the product form divided by #stab(lam): the exact direct
    product of one-variable norms over the N!/#stab(lam) distinct monomial
    placements.  Integer numerators and denominators are multiplied out
    and divided once.  A Laguerre spec with gamma <= -1/2 raises
    DivergentWeightError, as its pairing does.
    """
    if form not in ("product_form", "hook_form"):
        raise ValueError(f"unknown norm form {form!r}")
    lam = pad_partition(lam, spec.n)
    n, beta = spec.n, spec.beta
    kernel = _kernel(spec)
    degrees = [part + beta * (n - j) for j, part in enumerate(lam, 1)]
    if form == "product_form" or beta == 0:
        num, den = _norm_ratio_product(lam, n, beta)
        num *= math.factorial(n)
        if kernel.moment:
            num *= math.prod(map(math.factorial, degrees))
        if beta == 0:
            den *= stabilizer_order(lam)
    else:
        num, den = _hook_norm_body(lam, n, beta, trigonometric=not kernel.moment)
    if kernel.moment:
        for k in degrees:
            k_num, k_den = kernel.moment(k)
            num *= k_num
            den *= k_den
    return ScaledRational(Fraction(num, den), *kernel.bases)


def _norm_ratio_product(lam, n: int, beta: int) -> tuple[int, int]:
    """(numerator, denominator) of the ratio product of the product form."""
    num = den = 1
    for k in range(1, beta + 1):
        for i, j in combinations(range(1, n + 1), 2):
            num *= lam[i - 1] - lam[j - 1] - k + beta * (j - i + 1)
            den *= lam[i - 1] - lam[j - 1] + k + beta * (j - i - 1)
    return num, den


def _hook_norm_body(lam, n: int, beta: int, trigonometric: bool) -> tuple[int, int]:
    """The head and cell product of the hook rewrite, as (numerator,
    denominator): (N beta)!/(beta!)^N and a leg denominator in each cell
    in the trigonometric (Jack) case, prod_j (j beta)!/(beta!)^N and none
    for Hermite and Laguerre."""
    lam_conj = conjugate(lam)
    if trigonometric:
        num = math.factorial(n * beta)
    else:
        num = math.prod(math.factorial(j * beta) for j in range(1, n + 1))
    den = math.factorial(beta) ** n
    for i, j in partition_cells(lam):
        arm_co = j - 1 + beta * (n - i + 1)
        upper = lam[i - 1] - j + 1 + beta * (lam_conj[j - 1] - i)
        lower = lam[i - 1] - j + beta * (lam_conj[j - 1] - i + 1)
        num *= arm_co * upper
        den *= lower * (j + beta * (n - i) if trigonometric else 1)
    return num, den


def shift_constants(lam, n: int, beta: int) -> tuple[Fraction, Fraction]:
    """The two level-(beta+1) proportionality constants of the shift pair:

        c       = prod_{i<j} (lam_{N-j+1} - lam_{N-i+1} + j - i + beta (j-i-1))
        c_tilde = prod_{i<j} (lam_{N-j+1} - lam_{N-i+1} + j - i + beta (j-i+1))

    The reversed index orientation is pinned by the shift-relation probe at
    N = 2 (the other orientation makes c vanish identically).
    """
    lam = pad_partition(lam, n)
    c = c_tilde = 1
    for i, j in combinations(range(1, n + 1), 2):
        diff = lam[n - j] - lam[n - i] + j - i
        c *= diff + beta * (j - i - 1)
        c_tilde *= diff + beta * (j - i + 1)
    return Fraction(c), Fraction(c_tilde)
