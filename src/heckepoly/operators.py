"""Linear operators on polynomials, kept in a normal form.

An operator is a flat linear combination sum_i k_i T_i of terms.  A term
is a primitive, a named operator, or a composition T_m ... T_1 whose
factors are themselves integer combinations.  Sums merge equal terms,
integer scalars multiply into the coefficients, and a rational content
1/D is kept apart: a combination with fractional coefficients becomes the
single term (1/D) * (integer combination), and a composition carries the
product of its factors' contents.  The ladder factors 1/2 and 1/4 and a
rational gamma are thus applied once per node, not once per monomial of
every primitive image.

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
Operators compose with ``*`` (right factor acts first), add with ``+``,
and scale with exact rationals (a float is refused).  Finite-degree
operator equality on the monomial spanning set is the only equality
notion: ``first_difference`` runs both normal forms on each monomial in
integers and builds polynomials only for the witnesses of a difference.

A family of operator words applied to one seed is evaluated by shared
prefixes (``apply_words``): a word's image is its last step applied to
the image of the word without it, so every prefix is applied once.  The
word of x^a is L_1^a_1 then L_2^a_2, ... (``exponent_word``), which serves
the intertwiners, the operator pairing and the e_k(Dhat) images; the
deformed antisymmetrizer peels first left descents of S_N, T_w f =
shat_i(T_{s_i w} f), and costs N! - 1 deformed transpositions per push.

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
``cherednik``, ``creation`` and ``htilde`` are of type B iff the spec has
a gamma.  Each is built once per key (name, N, beta, gamma, j) and
memoizes the image of every monomial it is applied to; both are
registered in ``caches``, as ``operators.named`` and ``operators.images``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from operator import add

from .caches import register
from .combinatorics import all_permutations, permute_exponents, reduced_word, sign
from .errors import AmbientSizeMismatch, TypeBContextError
from .parameters import FamilySpec
from .polynomials import Polynomial, _canonical, _integer_part, monomials_up_to_degree

# A term of the normal form is (k, push): ``push(src, out, c)`` adds c times
# the term's image of the term dict ``src`` into the accumulator ``out``.
# Every coefficient k is an int, except that of a lone term, which is the
# operator's content; ``_split_content`` takes it off before evaluation, so
# every push sees integer inputs and an integer c.


def _accumulate(terms, src: dict, out: dict, c: int) -> None:
    for k, push in terms:
        push(src, out, k if c == 1 else k * c)


def _clean(terms: dict) -> dict:
    return {e: v for e, v in terms.items() if v}


def _apply_terms(terms, src: dict) -> dict:
    """The integer combination ``terms`` applied to src, zeros dropped."""
    out: dict = {}
    _accumulate(terms, src, out, 1)
    return _clean(out)


def _step(terms):
    """A callable for one factor: the bare push of a lone unit term."""
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    return partial(_accumulate, terms)


class _Chain:
    """The composition of ``factors`` (integer combinations), in the order
    they act.  A chain of one factor is a bracketed sum: the body of a
    content term (1/D) * (integer combination)."""

    __slots__ = ("factors", "_first", "_last")

    def __init__(self, factors):
        self.factors = factors
        steps = [_step(terms) for terms in factors]
        self._last = steps.pop()
        self._first = tuple(steps)

    def _push(self, src, out, c):
        for step in self._first:
            tmp: dict = {}
            step(src, tmp, 1)
            src = _clean(tmp)
            if not src:
                return
        self._last(src, out, c)


# Interned exponent tuples shared by all memoized images.
_EXPONENTS: dict = {}


class _Memo:
    """A named operator content * M: the integer combination M and the
    image under M of every monomial it has met, stored flat as
    (exponent, coefficient, exponent, coefficient, ...)."""

    __slots__ = ("nvars", "content", "terms", "images")

    def __init__(self, op: "Operator"):
        self.nvars = op.nvars
        self.content, self.terms = _split_content(op)
        self.images: dict = {}

    def _image(self, exps):
        intern = _EXPONENTS.setdefault
        image = []
        for e, v in _apply_terms(self.terms, {exps: 1}).items():
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


def _split_content(op: "Operator"):
    """(content, integer terms) with op = content * (integer terms)."""
    terms = op._terms
    if len(terms) == 1 and type(terms[0][0]) is not int:
        return terms[0][0], ((1, terms[0][1]),)
    return 1, terms


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


def _combination(nvars: int, pairs) -> "Operator":
    """Normal form of sum k * push over ``pairs``: bracketed sums opened,
    equal terms merged, and fractional coefficients replaced by one
    content term (1/D) * (integer combination)."""
    merged: dict = {}
    for k, push in pairs:
        node = getattr(push, "__self__", None)
        if type(node) is _Chain and len(node.factors) == 1:
            for k2, push2 in node.factors[0]:
                merged[push2] = merged.get(push2, 0) + k * k2
        else:
            merged[push] = merged.get(push, 0) + k
    terms = [(_canonical(k), push) for push, k in merged.items() if k]
    den = math.lcm(*(k.denominator for k, _ in terms if type(k) is not int))
    if den == 1 or len(terms) == 1:
        return Operator(nvars, tuple(terms))
    inner = tuple((_canonical(k * den), push) for k, push in terms)
    return Operator(nvars, ((Fraction(1, den), _Chain((inner,))._push),))


def _factors(op: "Operator"):
    """(k, factors) with op = k * (composition of factors)."""
    if len(op._terms) != 1:
        return 1, (op._terms,)
    k, push = op._terms[0]
    node = getattr(push, "__self__", None)
    if type(node) is _Chain:
        return k, node.factors
    if push is _identity_push:
        return k, ()
    return k, (((1, push),),)


class Operator:
    """A linear map on polynomials in a fixed number of variables, as a
    normal-form linear combination of terms (see the module docstring)."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: tuple = ()):
        self.nvars = nvars
        self._terms = terms

    def __repr__(self) -> str:
        return f"Operator({self.nvars} vars, {len(self._terms)} terms)"

    def __call__(self, f: Polynomial) -> Polynomial:
        if f.nvars != self.nvars:
            raise AmbientSizeMismatch(
                f"ambient size mismatch: operator on {self.nvars} vars, "
                f"polynomial in {f.nvars}"
            )
        src, den = _integer_part(f.terms)
        content, terms = _split_content(self)
        out: dict = {}
        _accumulate(terms, src, out, 1)
        return _rescale(self.nvars, out, content if den == 1 else Fraction(content, den))

    def __add__(self, other: "Operator") -> "Operator":
        if not isinstance(other, Operator):
            return NotImplemented
        if other.nvars != self.nvars:
            raise AmbientSizeMismatch("ambient size mismatch in operator sum")
        return _combination(self.nvars, self._terms + other._terms)

    def __sub__(self, other: "Operator") -> "Operator":
        return self + (-other)

    def __neg__(self) -> "Operator":
        return self._scaled(-1)

    def __mul__(self, other) -> "Operator":
        if not isinstance(other, Operator):
            return self._scaled(other)
        if other.nvars != self.nvars:
            raise AmbientSizeMismatch("ambient size mismatch in composition")
        if not self._terms or not other._terms:
            return Operator(self.nvars)
        k_a, outer = _factors(self)
        k_b, inner = _factors(other)
        k, factors = k_a * k_b, inner + outer
        if not factors:
            return scalar(self.nvars, k)
        if len(factors) == 1:
            return _combination(self.nvars, ((k * k2, p) for k2, p in factors[0]))
        return Operator(self.nvars, ((_canonical(k), _Chain(factors)._push),))

    def __rmul__(self, other) -> "Operator":
        return self._scaled(other)

    def _scaled(self, value) -> "Operator":
        c = _canonical(value)
        return _combination(self.nvars, ((k * c, push) for k, push in self._terms))

    def __pow__(self, k: int) -> "Operator":
        if k < 0:
            raise ValueError("negative operator powers are not supported")
        result = identity(self.nvars)
        for _ in range(k):
            result = self * result
        return result


# ---------------------------------------------------------------------------
# primitives


def _leaf(nvars: int, push) -> Operator:
    return Operator(nvars, ((1, push),))


def identity(nvars: int) -> Operator:
    return _leaf(nvars, _identity_push)


def scalar(nvars: int, value) -> Operator:
    c = _canonical(value)
    return Operator(nvars, ((c, _identity_push),) if c else ())


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


def _named(name: str, j: int, spec: FamilySpec, build) -> Operator:
    """The operator build(N, j, beta, gamma) of spec, built once per key
    (name, N, beta, gamma, j): type B iff the spec has a gamma."""
    n, beta, gamma = spec.n, spec.beta, spec.gamma
    _check_index(n, j)
    key = (name, n, beta, gamma, j)
    memo = _NAMED.get(key)
    if memo is None:
        memo = _NAMED[key] = _Memo(build(n, j, beta, gamma))
    return Operator(memo.nvars, ((memo.content, memo._push),))


def dunkl(j: int, spec: FamilySpec) -> Operator:
    """D_j of the spec's type; also the rescaled annihilation operator of
    the ladder pair."""
    return _named("dunkl", j, spec, _dunkl)


def cherednik(j: int, spec: FamilySpec) -> Operator:
    """Dhat_j = x_j D_j + beta * sum_{k<j} s_jk (type A; joint eigenbasis =
    non-symmetric Jack polynomials), or z_j D_j + beta * sum_{k<j} (s_jk +
    t_j t_k s_jk) (type B; preserves the even subring C[z_1^2, ..., z_N^2])."""
    return _named("cherednik", j, spec, lambda n, j, beta, gamma: (
        _coordinate(n, j) * _dunkl(n, j, beta, gamma) + _exchanges(n, j, beta, gamma is not None)
    ))


def creation(j: int, spec: FamilySpec) -> Operator:
    """Rescaled gauge-transformed creation operator 2 x_j - D_j: A_j in
    type A, and in type B, from gauge conjugation of -D_j + 2 z_j,
    B_j = -d_j + 2 z_j - beta * sum [...] - gamma (1-t_j)/z_j."""
    return _named("creation", j, spec, lambda n, j, beta, gamma: (
        2 * _coordinate(n, j) - _dunkl(n, j, beta, gamma)
    ))


def htilde(j: int, spec: FamilySpec) -> Operator:
    """Gauge-transformed Cherednik image h_j; the commuting family whose
    joint eigenbasis gives the Hermite (type A) or Laguerre (type B)
    polynomials.

    The two factored-out sqrt(2) scalings of the ladder pair cancel in the
    product, so h_j = (1/2) * creation * annihilation + exchange terms.
    """

    def build(n, j, beta, gamma) -> Operator:
        lower = _dunkl(n, j, beta, gamma)
        raised = 2 * _coordinate(n, j) - lower
        ladder = Fraction(1, 2) * (raised * lower)
        return ladder + _exchanges(n, j, beta, gamma is not None)

    return _named("htilde", j, spec, build)


def deformed_transposition(nvars: int, j: int, beta: int) -> Operator:
    """shat_j = s_j + beta (s_j - 1)/(x_j - x_{j+1}); an involution that
    generates a deformed symmetric-group action on polynomials."""
    _check_index(nvars, j + 1)
    return exchange(nvars, j, j + 1) - beta * divided_diff_minus(nvars, j, j + 1)


MAX_SYMMETRIZER_N = 6


def symmetrizer(nvars: int, kind: str, beta: int | None = None) -> Operator:
    """Group-averaged operators over S_N.

    kind "minus": (1/N!) sum_w sign(w) w; "minus_deformed": (1/N!) sum_w
    sign(w) T_w, T_w the deformed transpositions along a reduced word of w
    (needs an integer beta), pushed as one prefix tree.
    """
    if nvars > MAX_SYMMETRIZER_N:
        raise ValueError(f"symmetrizer limited to N <= {MAX_SYMMETRIZER_N}")
    perms = list(all_permutations(nvars))
    if kind == "minus":
        words = [sign(w) * permutation_op(w) for w in perms]
        total = _combination(nvars, [term for op in words for term in op._terms])
    elif kind == "minus_deformed":
        if type(beta) is not int:
            raise ValueError("minus_deformed symmetrizer needs an integer beta")
        total = _leaf(nvars, _signed_word_sum(nvars, beta, perms))
    else:
        raise ValueError(f"unknown symmetrizer kind {kind!r}")
    return Fraction(1, math.factorial(nvars)) * total


def _signed_word_sum(nvars: int, beta: int, perms):
    """The push of sum_w sign(w) T_w over perms, N! - 1 deformed
    transpositions per push.  With i the first left descent of w,
    T_w = shat_i T_{s_i w}, so in the order of application the word of w
    is reduced_word(w^-1), whose prefixes are the words of the s_i w; the
    sum runs over v = w^-1, of the same sign.  With an integer beta every
    shat_i has integer coefficients."""
    shat = [deformed_transposition(nvars, i, beta) for i in range(1, nvars)]
    signed = {tuple(i - 1 for i in reduced_word(v)): sign(v) for v in perms}

    def push(src, out, c):
        images = _word_images(src, signed, shat)
        get = out.get
        for word, s in signed.items():
            k = s * c
            for e, v in images[word][1].items():
                out[e] = get(e, 0) + k * v

    return push


def exponent_word(exps, power: int = 1) -> tuple[int, ...]:
    """The word of x^exps with each x_j replaced by L_j^power, in the order
    of application: L_1 acts first.  At power 1, dropping its last letter k
    (the last index with exps_k > 0) gives the word of x^(exps - e_k)."""
    return tuple(j for j, e in enumerate(exps) for _ in range(power * e))


def _word_images(seed: dict, words, steps) -> dict:
    """{word: (content, terms)} for each of ``words`` and each prefix of
    one: the image of the integer term dict seed under the word, as content
    times integer terms.  The word (i_1, ..., i_k) applies steps[i_1] first
    and steps[i_k] last; its image is steps[i_k] applied to the image of
    (i_1, ..., i_{k-1}), so every prefix is applied once."""
    split = [_split_content(op) for op in steps]
    images = {(): (1, seed)}

    def image(word):
        found = images.get(word)
        if found is None:
            content, src = image(word[:-1])
            step_content, terms = split[word[-1]]
            found = images[word] = (content * step_content, _apply_terms(terms, src))
        return found

    for word in words:
        image(word)
    return images


def apply_words(seed: Polynomial, sums: list[dict], steps) -> list[Polynomial]:
    """sum_word k * T_word(seed) for each {word: k} of ``sums``, with
    T_(i_1..i_k) = steps[i_k] ... steps[i_1]: steps[i_1] acts first.  All
    words share one evaluation of their prefixes (``_word_images``), and
    each sum is accumulated in integers over one common denominator and
    divided once."""
    src, den = _integer_part(seed.terms)
    images = _word_images(src, dict.fromkeys(w for weights in sums for w in weights), steps)
    results = []
    for weights in sums:
        factors = [(images[w][0] * _canonical(k), images[w][1]) for w, k in weights.items()]
        common = math.lcm(*(r.denominator for r, _ in factors))
        total: dict = {}
        get = total.get
        for r, image in factors:
            m = r.numerator * (common // r.denominator)
            for e, v in image.items():
                total[e] = get(e, 0) + m * v
        q = common * den
        results.append(_rescale(seed.nvars, total, Fraction(1, q) if q > 1 else 1))
    return results


def sutherland_expanded_apply(f: Polynomial, beta: int) -> Polynomial:
    """Second-order expanded form of the gauge-transformed trigonometric
    Hamiltonian, defined on symmetric inputs:

        sum_j (x_j d_j)^2
        + beta sum_{j<k} (x_j + x_k)/(x_j - x_k) (x_j d_j - x_k d_k)
        + beta^2 N (N^2 - 1)/12.

    The middle term is an exact quotient on symmetric polynomials (the
    Euler-difference image is antisymmetric in x_j, x_k).
    """
    from .polynomials import divide_exact

    n = f.nvars
    euler = [_coordinate(n, j) * derivative(n, j) for j in range(1, n + 1)]
    total = Polynomial.zero(n)
    for j in range(n):
        total = total + euler[j](euler[j](f))
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            xj = Polynomial.variable(n, j)
            xk = Polynomial.variable(n, k)
            diff = euler[j - 1](f) - euler[k - 1](f)
            total = total + beta * (xj + xk) * divide_exact(diff, xj - xk)
    constant = Fraction(beta * beta * n * (n * n - 1), 12)
    return total + constant * f


def first_difference(op_a: Operator, op_b: Operator, degree: int):
    """The first monomial x^e of total degree <= degree, in
    ``monomials_up_to_degree`` order, on which op_a and op_b differ, as
    (e, op_a(x^e), op_b(x^e)); None when they agree on every such monomial.

    Both normal forms run on {e: 1} in integers and their contents p/q are
    cross-multiplied; polynomials are built only for the witnesses."""
    if op_a.nvars != op_b.nvars:
        raise AmbientSizeMismatch("ambient size mismatch in operator comparison")
    (c_a, terms_a), (c_b, terms_b) = _split_content(op_a), _split_content(op_b)
    k_a, k_b = c_a.numerator * c_b.denominator, c_b.numerator * c_a.denominator
    for exps in monomials_up_to_degree(op_a.nvars, degree):
        lhs, rhs = _apply_terms(terms_a, {exps: 1}), _apply_terms(terms_b, {exps: 1})
        if k_a != k_b:
            lhs = {e: k_a * v for e, v in lhs.items()}
            rhs = {e: k_b * v for e, v in rhs.items()}
        if lhs != rhs:
            mono = Polynomial.monomial(exps)
            return exps, op_a(mono), op_b(mono)
    return None


def operator_equal(op_a: Operator, op_b: Operator, degree: int) -> bool:
    """Exact agreement on every monomial of total degree <= degree."""
    return first_difference(op_a, op_b, degree) is None


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
            if not value:
                raise ValueError(f"malformed operator parameter {item!r} in {text!r}")
            params[key.strip()] = int(value)
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
    return constructor(*(params[key] for key in required), spec)
