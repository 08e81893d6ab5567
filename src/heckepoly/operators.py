"""Linear operators on polynomials, kept in a normal form.

An operator is an exact rational ``content`` times the composition
F_m ... F_1 of its ``factors`` (F_1 acts first, no factors is the
identity), each an integer combination sum_i k_i T_i of terms, plus
``push``, the composition compiled once.  A term is a primitive, a named
operator or a composition.  A scalar multiple multiplies the content only;
``*`` concatenates the factors and multiplies the contents; ``+`` merges
equal terms, a lone factor's terms or a composition as one term, into one
factor, and takes the lcm D of its coefficients' denominators as content
1/D.  The ladder factor 1/2 and a rational gamma are thus applied once per
node, not once per monomial of every primitive image.

Applying an operator adds c * T(f) for every term into one accumulator
dict: no intermediate ``Polynomial`` per node.  ``__call__`` scales a
rational input to integer coefficients first and divides once at the end,
so the arithmetic inside runs on ``int``; the final rescaling by p/q
stores v*p // q when q divides v*p, and otherwise one Fraction.

Primitives act monomial by monomial and always map polynomials to
polynomials; in particular the divided differences

    (1 - s_jk) / (x_j - x_k)        (exchange difference)
    (1 - t_j t_k s_jk) / (z_j + z_k)  (sign-exchange difference)
    (1 - t_j) / z_j                  (sign difference)

are realized as exact telescoping sums on exponents, never as division.
Scalars are exact rationals (a float is refused).  Finite-degree operator
equality on the monomial spanning set is the only equality notion:
``first_difference`` runs the one operator lhs - rhs on each monomial in
integers and builds polynomials only for the witnesses of a difference.
An identity on symmetric inputs is one between operators that end in
``orbit_sum``, which sends x^lam to m_lam for a partition lam and every
other monomial to 0 (``sutherland_expanded`` is the paper's form on
symmetric inputs only).

The deformed antisymmetrizer is a plain product of N - 1 coset sums, so
it costs N(N-1)/2 deformed transpositions an input, whatever its size.

Dunkl operator (A type):      D_j = d_j + beta * sum_{k!=j} (1-s_jk)/(x_j-x_k)
Cherednik operator (A type):  Dhat_j = x_j D_j + beta * sum_{k<j} s_jk
Dunkl operator (B type):      D_j = d_j + beta * sum_{k!=j} [(1-s_jk)/(z_j-z_k)
                                    + (1-t_jt_ks_jk)/(z_j+z_k)] + gamma (1-t_j)/z_j
Cherednik-type (B):           Dhat_j = z_j D_j + beta * sum_{k<j} (s_jk + t_jt_ks_jk)

Rescaled creation/annihilation pairs (the 1/sqrt(2) of the raw ladder
operators is factored out so that everything stays rational):

    A_j = -d_j + 2 x_j - beta * sum (1-s_jk)/(x_j-x_k) = 2 x_j - D_j     a_j = D_j
    B_j = -d_j + 2 z_j - beta * sum [...] - gamma (1-t_j)/z_j = 2 z_j - D_j
                                                            b_j = D_j (B type)

and h_j = (1/2) A_j a_j + beta * sum_{k<j} s_jk  (Hermite),
    h_j = (1/2) B_j b_j + beta * sum_{k<j} (s_jk + t_jt_ks_jk)  (Laguerre).

The named operators ``dunkl`` (also the annihilation operator),
``cherednik``, ``creation`` and ``htilde``, of type B iff the spec has a
gamma, are built once per key (builder, N, j, beta, gamma), the builder
itself naming the operator, and memoize the image of every monomial they
are applied to; both are registered in ``caches``, as ``operators.named``
and ``operators.images``.  Dhat_j, A_j and h_j are built on the named D_j
(h_j = A_j D_j / 2 + ...), so each image of D_j is computed once and read
by all four.  ``families`` names the operators of its realizations, the
Laguerre ones and both Laplacians, with its own builders through the same
memo.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from operator import add

from .caches import register
from .combinatorics import is_partition, orbit, permute_exponents
from .errors import AmbientSizeMismatch, TypeBContextError
from .parameters import FamilySpec
from .polynomials import Polynomial, _canonical, _integer_part, monomials_up_to_degree

# A term of the normal form is (k, push) with k an int: ``push(src, out, c)``
# adds c times the term's image of the term dict ``src`` into the
# accumulator ``out``.  Every push sees integer inputs and an integer c.


def _accumulate(terms, src: dict, out: dict, c: int) -> None:
    for k, push in terms:
        push(src, out, k if c == 1 else k * c)


def _clean(terms: dict) -> dict:
    return {e: v for e, v in terms.items() if v}


def _applied(push, src: dict) -> dict:
    """The image of src under push, zeros dropped."""
    out: dict = {}
    push(src, out, 1)
    return _clean(out)


def _step(terms):
    """The push of one factor: the bare push of a lone unit term."""
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    return partial(_accumulate, terms)


def _compile(factors):
    """The push of the composition of factors, F_1 first."""
    if not factors:
        return _identity_push
    *first, last = map(_step, factors)
    if not first:
        return last

    def push(src, out, c):
        for step in first:
            src = _applied(step, src)
            if not src:
                return
        last(src, out, c)

    return push


# Interned exponent tuples shared by all memoized images.
_EXPONENTS: dict = {}


class _Memo:
    """A named operator content * M: the push ``apply`` of M and the
    image under M of every monomial it has met, stored flat as
    (exponent, coefficient, exponent, coefficient, ...)."""

    __slots__ = ("nvars", "content", "apply", "images")

    def __init__(self, op: "Operator"):
        self.nvars, self.content, self.apply = op.nvars, op.content, op.push
        self.images: dict = {}

    def _image(self, exps):
        intern = _EXPONENTS.setdefault
        image = []
        for e, v in _applied(self.apply, {exps: 1}).items():
            image += (intern(e, e), v)
        image = self.images[intern(exps, exps)] = tuple(image)
        return image

    def _push(self, src, out, c):
        images = self.images
        get = out.get
        for exps, v in src.items():
            image = images.get(exps)
            if image is None:
                image = self._image(exps)
            if c != 1:
                v *= c
            it = iter(image)
            for e, w in zip(it, it):
                out[e] = get(e, 0) + v * w


def _rescale(nvars: int, out: dict, scale) -> Polynomial:
    """scale * out for an integer term dict out: v*p // q when q divides
    v*p, and otherwise one Fraction per term (scale = p/q)."""
    if scale == 1:
        return Polynomial._trusted(nvars, _clean(out))
    p, q = scale.numerator, scale.denominator
    scaled = {}
    for e, v in out.items():
        if v:
            v *= p
            scaled[e] = v // q if v % q == 0 else Fraction(v, q)
    return Polynomial._trusted(nvars, scaled)


def _identity_push(src, out, c):
    get = out.get
    for e, v in src.items():
        out[e] = get(e, 0) + v * c


class Operator:
    """A linear map on polynomials in a fixed number of variables: the
    exact rational ``content`` times the composition of ``factors``, whose
    compiled form is ``push`` (see the module docstring)."""

    __slots__ = ("nvars", "content", "factors", "push")

    def __init__(self, nvars: int, content, factors: tuple):
        self.nvars = nvars
        self.content = content
        self.factors = factors
        self.push = _compile(factors)

    def __repr__(self) -> str:
        return f"Operator({self.nvars} vars, content {self.content}, {len(self.factors)} factors)"

    def __call__(self, f: Polynomial) -> Polynomial:
        if f.nvars != self.nvars:
            raise AmbientSizeMismatch(
                f"ambient size mismatch: operator on {self.nvars} vars, "
                f"polynomial in {f.nvars}"
            )
        src, den = _integer_part(f.terms)
        out: dict = {}
        self.push(src, out, 1)
        scale = self.content if den == 1 else Fraction(self.content, den)
        return _rescale(self.nvars, out, scale)

    def __add__(self, other: "Operator") -> "Operator":
        """One factor: the terms of a lone factor, or a composition as one
        term, merged; the lcm D of the coefficients' denominators becomes
        the content 1/D."""
        if not isinstance(other, Operator):
            return NotImplemented
        if other.nvars != self.nvars:
            raise AmbientSizeMismatch("ambient size mismatch in operator sum")
        merged: dict = {}
        for op in (self, other):
            terms = op.factors[0] if len(op.factors) == 1 else ((1, op.push),)
            for k, push in terms:
                merged[push] = merged.get(push, 0) + k * op.content
        terms = [(k, push) for push, k in merged.items() if k]
        den = math.lcm(*(k.denominator for k, _ in terms))
        content = Fraction(1, den) if den > 1 else 1
        factor = tuple(((k * den).numerator, push) for k, push in terms)
        return Operator(self.nvars, content, (factor,))

    def __sub__(self, other: "Operator") -> "Operator":
        return self + (-other)

    def __neg__(self) -> "Operator":
        return self._scaled(-1)

    def __mul__(self, other) -> "Operator":
        if not isinstance(other, Operator):
            return self._scaled(other)
        if other.nvars != self.nvars:
            raise AmbientSizeMismatch("ambient size mismatch in composition")
        factors = other.factors + self.factors
        if () in factors:  # an empty combination: the zero operator
            return _zero(self.nvars)
        return Operator(self.nvars, _canonical(self.content * other.content), factors)

    def __rmul__(self, other) -> "Operator":
        return self._scaled(other)

    def _scaled(self, value) -> "Operator":
        c = _canonical(value)
        if not c:
            return _zero(self.nvars)
        return Operator(self.nvars, _canonical(self.content * c), self.factors)


# ---------------------------------------------------------------------------
# primitives


def _leaf(nvars: int, push) -> Operator:
    return Operator(nvars, 1, (((1, push),),))


def identity(nvars: int) -> Operator:
    return Operator(nvars, 1, ())


def _zero(nvars: int) -> Operator:
    return Operator(nvars, 1, ((),))


def scalar(nvars: int, value) -> Operator:
    return value * identity(nvars)


def multiply_by(p: Polynomial) -> Operator:
    terms, den = _integer_part(p.terms)
    factor = tuple(terms.items())

    def push(src, out, c):
        get = out.get
        for e1, c1 in factor:
            k = c1 * c
            for e2, v in src.items():
                key = tuple(map(add, e1, e2))
                out[key] = get(key, 0) + k * v

    return Fraction(1, den) * _leaf(p.nvars, push)


def derivative(nvars: int, j: int) -> Operator:
    _check_index(nvars, j)
    idx = j - 1

    def push(src, out, c):
        get = out.get
        for exps, v in src.items():
            e = exps[idx]
            if e:
                key = exps[:idx] + (e - 1,) + exps[idx + 1 :]
                out[key] = get(key, 0) + v * (e * c)

    return _leaf(nvars, push)


def exchange(nvars: int, i: int, j: int) -> Operator:
    """The transposition s_ij: swap variables x_i and x_j."""
    _check_index(nvars, i)
    _check_index(nvars, j)
    if i == j:
        raise ValueError("exchange needs two distinct indices")
    a, b = i - 1, j - 1

    def push(src, out, c):
        get = out.get
        for exps, v in src.items():
            e = list(exps)
            e[a], e[b] = e[b], e[a]
            key = tuple(e)
            out[key] = get(key, 0) + v * c

    return _leaf(nvars, push)


def sign_flip(nvars: int, j: int) -> Operator:
    """The reflection t_j: z_j -> -z_j."""
    _check_index(nvars, j)
    idx = j - 1

    def push(src, out, c):
        get = out.get
        for exps, v in src.items():
            out[exps] = get(exps, 0) + (-v * c if exps[idx] % 2 else v * c)

    return _leaf(nvars, push)


def _telescope(nvars: int, j: int, k: int, alternating: bool) -> Operator:
    """Divided differences by x_j - x_k (``alternating`` false) or by
    z_j + z_k (true), summed on exponents."""
    _check_index(nvars, j)
    _check_index(nvars, k)
    if j == k:
        raise ValueError("divided difference needs two distinct indices")
    ja, ka = j - 1, k - 1

    def push(src, out, c):
        get = out.get
        for exps, v in src.items():
            a, b = exps[ja], exps[ka]
            if a == b:
                continue
            lo, d = (b, a - b) if a > b else (a, b - a)
            if a > b or (alternating and d % 2):
                term = v * c
            else:
                term = -v * c
            e = list(exps)
            for t in range(d):
                e[ja] = lo + d - 1 - t
                e[ka] = lo + t
                key = tuple(e)
                out[key] = get(key, 0) + term
                if alternating:
                    term = -term

    return _leaf(nvars, push)


def divided_diff_minus(nvars: int, j: int, k: int) -> Operator:
    """(1 - s_jk) / (x_j - x_k) as an exact telescoping sum."""
    return _telescope(nvars, j, k, alternating=False)


def divided_diff_plus(nvars: int, j: int, k: int) -> Operator:
    """(1 - t_j t_k s_jk) / (z_j + z_k) as an exact telescoping sum.

    z_j^a z_k^b - (-1)^(a+b) z_j^b z_k^a over z_j + z_k alternates in sign;
    for a < b an extra factor -(-1)^(a-b) appears after refactoring."""
    return _telescope(nvars, j, k, alternating=True)


def sign_divided(nvars: int, j: int) -> Operator:
    """(1 - t_j) / z_j: kills even powers of z_j, doubles odd ones."""
    _check_index(nvars, j)
    idx = j - 1

    def push(src, out, c):
        get = out.get
        for exps, v in src.items():
            e = exps[idx]
            if e % 2:
                key = exps[:idx] + (e - 1,) + exps[idx + 1 :]
                out[key] = get(key, 0) + v * (2 * c)

    return _leaf(nvars, push)


def permutation_op(w) -> Operator:
    """Operator realization of w in S_N acting by x_i -> x_{w(i)}."""
    w = tuple(w)

    def push(src, out, c):
        get = out.get
        for exps, v in src.items():
            key = permute_exponents(w, exps)
            out[key] = get(key, 0) + v * c

    return _leaf(len(w), push)


def stretch(nvars: int, k: int) -> Operator:
    """x^a -> x^(k a); k = 2 maps a u-polynomial (u_j = z_j^2) to its z-form."""

    def push(src, out, c):
        get = out.get
        for exps, v in src.items():
            key = tuple(k * e for e in exps)
            out[key] = get(key, 0) + v * c

    return _leaf(nvars, push)


def orbit_sum(nvars: int) -> Operator:
    """x^lam -> m_lam when the exponents lam weakly decrease, and every
    other monomial -> 0: an identity whose sides end in orbit_sum(N)
    holds on every symmetric input of the compared degrees."""

    def push(src, out, c):
        get = out.get
        for exps, v in src.items():
            if is_partition(exps):
                for key in orbit(exps):
                    out[key] = get(key, 0) + v * c

    return _leaf(nvars, push)


def commutator(a: Operator, b: Operator) -> Operator:
    return a * b - b * a


def _check_index(nvars: int, j: int) -> None:
    if not 1 <= j <= nvars:
        raise ValueError(f"index {j} out of range 1..{nvars}")


# ---------------------------------------------------------------------------
# named operators, built once per key and memoized on monomials

_NAMED: dict[tuple, _Memo] = {}


def _clear_images() -> None:
    """Drop the images of every named operator, also of one still held by
    a caller, and the interned exponents."""
    for memo in _NAMED.values():
        memo.images.clear()
    _EXPONENTS.clear()


# images first: clearing the operators forgets which ones hold them
register("operators.images", lambda: sum(len(m.images) for m in _NAMED.values()), _clear_images)
register("operators.named", lambda: len(_NAMED), _NAMED.clear)


def _dunkl(n: int, j: int, beta: int, gamma=None) -> Operator:
    """D_j of type A (gamma None) or B, unmemoized."""
    op = derivative(n, j)
    for k in range(1, n + 1):
        if k != j:
            diff = divided_diff_minus(n, j, k)
            if gamma is not None:
                diff = diff + divided_diff_plus(n, j, k)
            op = op + beta * diff
    if gamma is not None:
        op = op + gamma * sign_divided(n, j)
    return op


def _exchanges(n: int, j: int, beta: int, type_b: bool) -> Operator:
    """beta * sum_{k<j} s_jk, with the t_j t_k s_jk partners for type B."""
    op = scalar(n, 0)
    for k in range(1, j):
        swap = exchange(n, j, k)
        if type_b:
            swap = swap + sign_flip(n, j) * sign_flip(n, k) * swap
        op = op + beta * swap
    return op


def _coordinate(n: int, j: int) -> Operator:
    return multiply_by(Polynomial.variable(n, j))


def _named(build, n: int, j, beta: int, gamma) -> Operator:
    """build(N, j, beta, gamma), built once per key (build, N, j, beta,
    gamma) and memoized on monomials; j is None for an operator of no
    index."""
    if j is not None:
        _check_index(n, j)
    key = (build, n, j, beta, gamma)
    memo = _NAMED.get(key)
    if memo is None:
        memo = _NAMED[key] = _Memo(build(n, j, beta, gamma))
    return Operator(memo.nvars, memo.content, (((1, memo._push),),))


def dunkl(j: int, spec: FamilySpec) -> Operator:
    """D_j of the spec's type; also the rescaled annihilation operator of
    the ladder pair."""
    return _named(_dunkl, spec.n, j, spec.beta, spec.gamma)


def _cherednik(n: int, j: int, beta: int, gamma) -> Operator:
    return (_coordinate(n, j) * _named(_dunkl, n, j, beta, gamma)
            + _exchanges(n, j, beta, gamma is not None))


def cherednik(j: int, spec: FamilySpec) -> Operator:
    """Dhat_j = x_j D_j + beta * sum_{k<j} s_jk (type A; joint eigenbasis =
    non-symmetric Jack polynomials), or z_j D_j + beta * sum_{k<j} (s_jk +
    t_j t_k s_jk) (type B; preserves the even subring C[z_1^2, ..., z_N^2])."""
    return _named(_cherednik, spec.n, j, spec.beta, spec.gamma)


def _creation(n: int, j: int, beta: int, gamma) -> Operator:
    return 2 * _coordinate(n, j) - _named(_dunkl, n, j, beta, gamma)


def creation(j: int, spec: FamilySpec) -> Operator:
    """Rescaled gauge-transformed creation operator 2 x_j - D_j: A_j in
    type A, and in type B, from gauge conjugation of -D_j + 2 z_j,
    B_j = -d_j + 2 z_j - beta * sum [...] - gamma (1-t_j)/z_j."""
    return _named(_creation, spec.n, j, spec.beta, spec.gamma)


def _htilde(n: int, j: int, beta: int, gamma) -> Operator:
    ladder = _named(_creation, n, j, beta, gamma) * _named(_dunkl, n, j, beta, gamma)
    return Fraction(1, 2) * ladder + _exchanges(n, j, beta, gamma is not None)


def htilde(j: int, spec: FamilySpec) -> Operator:
    """Gauge-transformed Cherednik image h_j; the commuting family whose
    joint eigenbasis gives the Hermite (type A) or Laguerre (type B)
    polynomials.

    The two factored-out sqrt(2) scalings of the ladder pair cancel in the
    product, so h_j = (1/2) * creation * annihilation + exchange terms,
    which is Dhat_j - (1/2) D_j^2.
    """
    return _named(_htilde, spec.n, j, spec.beta, spec.gamma)


def deformed_transposition(nvars: int, j: int, beta: int) -> Operator:
    """shat_j = s_j + beta (s_j - 1)/(x_j - x_{j+1}); an involution that
    generates a deformed symmetric-group action on polynomials."""
    _check_index(nvars, j + 1)
    return exchange(nvars, j, j + 1) - beta * divided_diff_minus(nvars, j, j + 1)


def antisymmetrizer(nvars: int, beta: int = 0) -> Operator:
    """P_- = (1/N!) sum_w sign(w) T_w over S_N, T_w the deformed
    transpositions along a reduced word of w (needs an integer beta, so
    that every shat_i has integer coefficients).  At beta = 0 every shat_i
    is s_i, and P_- is the plain antisymmetrizer (1/N!) sum_w sign(w) w.

    Each w of S_k is uniquely u c with u in S_{k-1} and c one of the coset
    representatives 1, s_{k-1}, s_{k-1} s_{k-2}, ..., lengths adding, so
    N! P_- = B_2 ... B_N (B_N acts first) with B_1 = 1 and
    B_k = 1 - shat_{k-1} B_{k-1} = 1 - shat_{k-1} + shat_{k-1} shat_{k-2} - ...
    in Horner form: N(N-1)/2 deformed transpositions an input."""
    if type(beta) is not int:
        raise ValueError("the antisymmetrizer needs an integer beta")
    one = identity(nvars)
    total = coset = one
    for k in range(2, nvars + 1):
        coset = one - deformed_transposition(nvars, k - 1, beta) * coset
        total = total * coset
    return Fraction(1, math.factorial(nvars)) * total


def sutherland_expanded(nvars: int, beta: int) -> Operator:
    """Second-order expanded form of the gauge-transformed trigonometric
    Hamiltonian, on symmetric inputs:

        sum_j (x_j d_j)^2
        + beta sum_{j<k} (x_j + x_k)/(x_j - x_k) (x_j d_j - x_k d_k)
        + beta^2 N (N^2 - 1)/12,

    the quotient the divided difference of x_j d_j f, since
    (x_j d_j - x_k d_k) f = (1 - s_jk)(x_j d_j f) for a symmetric f."""
    total = scalar(nvars, Fraction(beta * beta * nvars * (nvars * nvars - 1), 12))
    for j in range(1, nvars + 1):
        euler = _coordinate(nvars, j) * derivative(nvars, j)
        total = total + euler * euler
        for k in range(j + 1, nvars + 1):
            pair = _coordinate(nvars, j) + _coordinate(nvars, k)
            total = total + beta * (pair * divided_diff_minus(nvars, j, k) * euler)
    return total


def first_difference(op_a: Operator, op_b: Operator, degree: int):
    """The first monomial x^e of total degree <= degree, in
    ``monomials_up_to_degree`` order, on which op_a and op_b differ, as
    (e, op_a(x^e), op_b(x^e)); None when they agree on every such monomial.

    The one operator op_a - op_b runs on {e: 1} in integers, without its
    nonzero content; polynomials are built only for the witnesses."""
    if op_a.nvars != op_b.nvars:
        raise AmbientSizeMismatch("ambient size mismatch in operator comparison")
    push = (op_a - op_b).push
    for exps in monomials_up_to_degree(op_a.nvars, degree):
        if _applied(push, {exps: 1}):
            mono = Polynomial.monomial(exps)
            return exps, op_a(mono), op_b(mono)
    return None


def _signflip(j: int, spec: FamilySpec) -> Operator:
    if spec.gamma is None:
        raise TypeBContextError("type-B primitive in type-A context")
    return sign_flip(spec.n, j)


# name -> (constructor, required index names); addressable from the CLI as
# "name:j=2" or "name:i=1,j=2"
_NAMED_CONSTRUCTORS = {
    "dunkl": (dunkl, ("j",)),
    "cherednik": (cherednik, ("j",)),
    "creation": (creation, ("j",)),
    "annihilation": (dunkl, ("j",)),
    "htilde": (htilde, ("j",)),
    "exchange": (lambda i, j, spec: exchange(spec.n, i, j), ("i", "j")),
    "signflip": (_signflip, ("j",)),
}


def operator_from_string(text: str, spec: FamilySpec) -> Operator:
    """Build a named operator from a parameter string like "cherednikA:j=2".

    The type comes from the spec (B iff it has a gamma); a trailing "A" or
    "B" on the name ("dunklB", "creationA") must agree with it, or
    TypeBContextError is raised.  Exchange and reflection generators are
    addressed as "exchange:i=1,j=2" and "signflip:j=1" (type B only).
    """
    name, _, params_text = text.partition(":")
    params: dict[str, int] = {}
    if params_text:
        for item in params_text.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            try:
                number = int(value)  # also for an empty value
            except ValueError:
                raise ValueError(f"malformed operator parameter {item!r} in {text!r}") from None
            if key in params:
                raise ValueError(f"repeated operator parameter {key!r} in {text!r}")
            params[key] = number
    type_b = spec.gamma is not None
    base, letter = (name[:-1], name[-1]) if name[-1:] in ("A", "B") else (name, None)
    if base not in _NAMED_CONSTRUCTORS:
        raise ValueError(f"unknown operator name {name!r}")
    if letter is not None and (letter == "B") != type_b:
        raise TypeBContextError(
            f"type-{letter} operator {name!r} requested with a type-{'AB'[type_b]} spec"
        )
    constructor, required = _NAMED_CONSTRUCTORS[base]
    missing = [key for key in required if key not in params]
    if missing:
        raise ValueError(f"operator {name!r} needs parameters {', '.join(missing)}")
    unknown = [key for key in params if key not in required]
    if unknown:
        raise ValueError(f"operator {name!r} takes no parameter {', '.join(unknown)}")
    return constructor(*(params[key] for key in required), spec)
