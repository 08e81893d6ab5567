"""Composable linear operators on polynomials.

Primitives act monomial by monomial and always map polynomials to
polynomials; in particular the divided differences

    (1 - s_jk) / (x_j - x_k)        (exchange difference)
    (1 - t_j t_k s_jk) / (z_j + z_k)  (sign-exchange difference)
    (1 - t_j) / z_j                  (sign difference)

are realized as exact telescoping sums on exponents, never as division.
Operators compose with ``*`` (right factor acts first), add with ``+``,
and scale with rationals; there is no simplification or normal form.
Finite-degree operator equality on the monomial spanning set is the only
equality notion.

Dunkl operator (A type):      D_j = d_j + beta * sum_{k!=j} (1-s_jk)/(x_j-x_k)
Cherednik operator (A type):  Dhat_j = x_j D_j + beta * sum_{k<j} s_jk
Dunkl operator (B type):      D_j = d_j + beta * sum_{k!=j} [(1-s_jk)/(z_j-z_k)
                                    + (1-t_jt_ks_jk)/(z_j+z_k)] + gamma (1-t_j)/z_j
Cherednik-type (B):           Dhat_j = z_j D_j + beta * sum_{k<j} (s_jk + t_jt_ks_jk)

Rescaled creation/annihilation pairs (the 1/sqrt(2) of the raw ladder
operators is factored out so that everything stays rational):

    A_j = -d_j + 2 x_j - beta * sum (1-s_jk)/(x_j-x_k)        a_j = D_j
    B_j = -d_j + 2 z_j - beta * sum [...] - gamma (1-t_j)/z_j  b_j = D_j (B type)

and h_j = (1/2) A_j a_j + beta * sum_{k<j} s_jk  (Hermite),
    h_j = (1/2) B_j b_j + beta * sum_{k<j} (s_jk + t_jt_ks_jk)  (Laguerre).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .combinatorics import all_permutations, reduced_word, sign
from .errors import AmbientSizeMismatch, TypeBContextError
from .parameters import FamilySpec, HERMITE, JACK, LAGUERRE
from .polynomials import (
    Polynomial,
    _canonical,
    _integral_to_int,
    monomials_up_to_degree,
)


@dataclass(frozen=True)
class Operator:
    """A linear map on polynomials in a fixed number of variables."""

    nvars: int
    fn: Callable[[Polynomial], Polynomial] = field(repr=False)

    def __call__(self, f: Polynomial) -> Polynomial:
        if f.nvars != self.nvars:
            raise AmbientSizeMismatch(
                f"ambient size mismatch: operator on {self.nvars} vars, "
                f"polynomial in {f.nvars}"
            )
        return self.fn(f)

    def __add__(self, other: "Operator") -> "Operator":
        if not isinstance(other, Operator):
            return NotImplemented
        if other.nvars != self.nvars:
            raise AmbientSizeMismatch("ambient size mismatch in operator sum")
        return Operator(self.nvars, lambda f, a=self, b=other: a(f) + b(f))

    def __sub__(self, other: "Operator") -> "Operator":
        return self + (-other)

    def __neg__(self) -> "Operator":
        return Operator(self.nvars, lambda f, a=self: -a(f))

    def __mul__(self, other) -> "Operator":
        if isinstance(other, Operator):
            if other.nvars != self.nvars:
                raise AmbientSizeMismatch("ambient size mismatch in composition")
            return Operator(self.nvars, lambda f, a=self, b=other: a(b(f)))
        c = _canonical(other)
        return Operator(self.nvars, lambda f, a=self, c=c: a(f) * c)

    def __rmul__(self, other) -> "Operator":
        c = _canonical(other)
        return Operator(self.nvars, lambda f, a=self, c=c: a(f) * c)

    def __pow__(self, k: int) -> "Operator":
        if k < 0:
            raise ValueError("negative operator powers are not supported")
        result = identity(self.nvars)
        for _ in range(k):
            result = self * result
        return result


def apply(op: Operator, f: Polynomial) -> Polynomial:
    return op(f)


# ---------------------------------------------------------------------------
# primitives


def identity(nvars: int) -> Operator:
    return Operator(nvars, lambda f: f)


def scalar(nvars: int, value) -> Operator:
    c = _canonical(value)
    return Operator(nvars, lambda f: f * c)


def multiply_by(p: Polynomial) -> Operator:
    return Operator(p.nvars, lambda f: p * f)


def derivative(nvars: int, j: int) -> Operator:
    _check_index(nvars, j)
    idx = j - 1

    def act(f: Polynomial) -> Polynomial:
        out = {}
        for exps, coeff in f.terms.items():
            e = exps[idx]
            if e == 0:
                continue
            key = exps[:idx] + (e - 1,) + exps[idx + 1 :]
            out[key] = coeff * e  # the key determines exps: no collisions
        return Polynomial._trusted(f.nvars, _integral_to_int(out))

    return Operator(nvars, act)


def exchange(nvars: int, i: int, j: int) -> Operator:
    """The transposition s_ij: swap variables x_i and x_j."""
    _check_index(nvars, i)
    _check_index(nvars, j)
    if i == j:
        raise ValueError("exchange needs two distinct indices")
    return Operator(nvars, lambda f: f.swap_variables(i, j))


def sign_flip(nvars: int, j: int) -> Operator:
    """The reflection t_j: z_j -> -z_j."""
    _check_index(nvars, j)
    idx = j - 1

    def act(f: Polynomial) -> Polynomial:
        return Polynomial._trusted(
            f.nvars,
            {
                exps: (-coeff if exps[idx] % 2 else coeff)
                for exps, coeff in f.terms.items()
            },
        )

    return Operator(nvars, act)


def divided_diff_minus(nvars: int, j: int, k: int) -> Operator:
    """(1 - s_jk) / (x_j - x_k) as an exact telescoping sum."""
    _check_index(nvars, j)
    _check_index(nvars, k)
    if j == k:
        raise ValueError("divided difference needs two distinct indices")
    ja, ka = j - 1, k - 1

    def act(f: Polynomial) -> Polynomial:
        out = {}
        for exps, coeff in f.terms.items():
            a, b = exps[ja], exps[ka]
            if a == b:
                continue
            if a > b:
                lo, d, sgn = b, a - b, coeff
            else:
                lo, d, sgn = a, b - a, -coeff
            e = list(exps)
            for t in range(d):
                e[ja] = lo + d - 1 - t
                e[ka] = lo + t
                key = tuple(e)
                new = out.get(key, 0) + sgn
                if new:
                    out[key] = new
                else:
                    del out[key]
        return Polynomial._trusted(f.nvars, _integral_to_int(out))

    return Operator(nvars, act)


def divided_diff_plus(nvars: int, j: int, k: int) -> Operator:
    """(1 - t_j t_k s_jk) / (z_j + z_k) as an exact telescoping sum."""
    _check_index(nvars, j)
    _check_index(nvars, k)
    if j == k:
        raise ValueError("divided difference needs two distinct indices")
    ja, ka = j - 1, k - 1

    def act(f: Polynomial) -> Polynomial:
        out = {}
        for exps, coeff in f.terms.items():
            a, b = exps[ja], exps[ka]
            if a == b:
                continue
            lo, d = min(a, b), abs(a - b)
            # z_j^a z_k^b - (-1)^(a+b) z_j^b z_k^a over z_j + z_k;
            # for a < b an extra factor -(-1)^d appears after refactoring.
            base = coeff if a > b else (coeff if d % 2 else -coeff)
            e = list(exps)
            for t in range(d):
                e[ja] = lo + d - 1 - t
                e[ka] = lo + t
                key = tuple(e)
                term = base if t % 2 == 0 else -base
                new = out.get(key, 0) + term
                if new:
                    out[key] = new
                else:
                    del out[key]
        return Polynomial._trusted(f.nvars, _integral_to_int(out))

    return Operator(nvars, act)


def sign_divided(nvars: int, j: int) -> Operator:
    """(1 - t_j) / z_j: kills even powers of z_j, doubles odd ones."""
    _check_index(nvars, j)
    idx = j - 1

    def act(f: Polynomial) -> Polynomial:
        out = {}
        for exps, coeff in f.terms.items():
            if exps[idx] % 2 == 0:
                continue
            key = exps[:idx] + (exps[idx] - 1,) + exps[idx + 1 :]
            out[key] = 2 * coeff  # the key determines exps: no collisions
        return Polynomial._trusted(f.nvars, _integral_to_int(out))

    return Operator(nvars, act)


def permutation_op(w) -> Operator:
    """Operator realization of w in S_N acting by x_i -> x_{w(i)}."""
    from .combinatorics import apply_permutation

    w = tuple(w)
    return Operator(len(w), lambda f: apply_permutation(w, f))


def commutator(a: Operator, b: Operator) -> Operator:
    return a * b - b * a


def _check_index(nvars: int, j: int) -> None:
    if not 1 <= j <= nvars:
        raise ValueError(f"index {j} out of range 1..{nvars}")


# ---------------------------------------------------------------------------
# named operators


def dunkl_a(j: int, spec: FamilySpec) -> Operator:
    """D_j = d_j + beta * sum_{k!=j} (1 - s_jk)/(x_j - x_k)."""
    if spec.family == LAGUERRE:
        raise TypeBContextError(
            "type-A Dunkl operator requested with a type-B (Laguerre) spec"
        )
    n, beta = spec.n, spec.beta
    _check_index(n, j)
    op = derivative(n, j)
    for k in range(1, n + 1):
        if k != j:
            op = op + beta * divided_diff_minus(n, j, k)
    return op


def cherednik_a(j: int, spec: FamilySpec) -> Operator:
    """Dhat_j = x_j D_j + beta * sum_{k<j} s_jk; joint eigenbasis =
    non-symmetric Jack polynomials."""
    n, beta = spec.n, spec.beta
    _check_index(n, j)
    op = multiply_by(Polynomial.variable(n, j)) * dunkl_a(j, spec)
    for k in range(1, j):
        op = op + beta * exchange(n, j, k)
    return op


def dunkl_b(j: int, spec: FamilySpec) -> Operator:
    """B-type Dunkl operator, acting in the z variables."""
    if spec.family != LAGUERRE:
        raise TypeBContextError("type-B primitive in type-A context")
    n, beta, gamma = spec.n, spec.beta, spec.gamma
    _check_index(n, j)
    op = derivative(n, j)
    for k in range(1, n + 1):
        if k != j:
            op = op + beta * (divided_diff_minus(n, j, k) + divided_diff_plus(n, j, k))
    return op + gamma * sign_divided(n, j)


def cherednik_b(j: int, spec: FamilySpec) -> Operator:
    """Dhat_j = z_j D_j + beta * sum_{k<j} (s_jk + t_j t_k s_jk); preserves
    the even subring C[z_1^2, ..., z_N^2]."""
    if spec.family != LAGUERRE:
        raise TypeBContextError("type-B primitive in type-A context")
    n, beta = spec.n, spec.beta
    _check_index(n, j)
    op = multiply_by(Polynomial.variable(n, j)) * dunkl_b(j, spec)
    for k in range(1, j):
        swap = exchange(n, j, k)
        op = op + beta * (swap + sign_flip(n, j) * sign_flip(n, k) * swap)
    return op


def creation_a(j: int, spec: FamilySpec) -> Operator:
    """Rescaled gauge-transformed creation operator
    A_j = -d_j + 2 x_j - beta * sum_{k!=j} (1-s_jk)/(x_j-x_k)."""
    if spec.family != HERMITE:
        raise ValueError("creation_a needs a Hermite spec")
    n, beta = spec.n, spec.beta
    _check_index(n, j)
    op = -derivative(n, j) + 2 * multiply_by(Polynomial.variable(n, j))
    for k in range(1, n + 1):
        if k != j:
            op = op - beta * divided_diff_minus(n, j, k)
    return op


def annihilation_a(j: int, spec: FamilySpec) -> Operator:
    """Rescaled gauge-transformed annihilation operator: identical to the
    plain Dunkl operator D_j."""
    if spec.family != HERMITE:
        raise ValueError("annihilation_a needs a Hermite spec")
    return dunkl_a(j, FamilySpec(JACK, spec.n, spec.beta))


def creation_b(j: int, spec: FamilySpec) -> Operator:
    """Rescaled B-type creation operator.  The sign of the gamma term comes
    from gauge conjugation of -D_j + 2 z_j, giving
    B_j = -d_j + 2 z_j - beta * sum [...] - gamma (1-t_j)/z_j."""
    if spec.family != LAGUERRE:
        raise TypeBContextError("type-B primitive in type-A context")
    n, beta, gamma = spec.n, spec.beta, spec.gamma
    _check_index(n, j)
    op = -derivative(n, j) + 2 * multiply_by(Polynomial.variable(n, j))
    for k in range(1, n + 1):
        if k != j:
            op = op - beta * (divided_diff_minus(n, j, k) + divided_diff_plus(n, j, k))
    return op - gamma * sign_divided(n, j)


def annihilation_b(j: int, spec: FamilySpec) -> Operator:
    """Rescaled B-type annihilation operator: the B-type Dunkl operator."""
    return dunkl_b(j, spec)


def htilde(j: int, spec: FamilySpec) -> Operator:
    """Gauge-transformed Cherednik image h_j; the commuting family whose
    joint eigenbasis gives the Hermite/Laguerre polynomials.

    The two factored-out sqrt(2) scalings of the ladder pair cancel in the
    product, so h_j = (1/2) * creation * annihilation + exchange terms.
    """
    n, beta = spec.n, spec.beta
    _check_index(n, j)
    if spec.family == HERMITE:
        op = Fraction(1, 2) * (creation_a(j, spec) * annihilation_a(j, spec))
        for k in range(1, j):
            op = op + beta * exchange(n, j, k)
        return op
    if spec.family == LAGUERRE:
        op = Fraction(1, 2) * (creation_b(j, spec) * annihilation_b(j, spec))
        for k in range(1, j):
            swap = exchange(n, j, k)
            op = op + beta * (swap + sign_flip(n, j) * sign_flip(n, k) * swap)
        return op
    raise ValueError("htilde needs a Hermite or Laguerre spec")


def deformed_transposition(nvars: int, j: int, beta: int) -> Operator:
    """shat_j = s_j + beta (s_j - 1)/(x_j - x_{j+1}); an involution that
    generates a deformed symmetric-group action on polynomials."""
    _check_index(nvars, j + 1)
    return exchange(nvars, j, j + 1) - beta * divided_diff_minus(nvars, j, j + 1)


def deformed_word_op(nvars: int, w, beta: int) -> Operator:
    """Product of deformed transpositions along a reduced word of w."""
    op = identity(nvars)
    for i in reduced_word(tuple(w)):
        op = op * deformed_transposition(nvars, i, beta)
    return op


MAX_SYMMETRIZER_N = 6


def symmetrizer(nvars: int, kind: str, beta: int | None = None) -> Operator:
    """Group-averaged operators over S_N.

    kind "plus": (1/N!) sum_w w; "minus": signed average; "minus_deformed":
    signed average of the deformed transposition words (needs beta).
    """
    if nvars > MAX_SYMMETRIZER_N:
        raise ValueError(f"symmetrizer limited to N <= {MAX_SYMMETRIZER_N}")
    norm = Fraction(1, math.factorial(nvars))
    if kind == "plus":
        ops = [permutation_op(w) for w in all_permutations(nvars)]
        signs = [1] * len(ops)
    elif kind == "minus":
        perms = list(all_permutations(nvars))
        ops = [permutation_op(w) for w in perms]
        signs = [sign(w) for w in perms]
    elif kind == "minus_deformed":
        if beta is None:
            raise ValueError("minus_deformed symmetrizer needs beta")
        perms = list(all_permutations(nvars))
        ops = [deformed_word_op(nvars, w, beta) for w in perms]
        signs = [sign(w) for w in perms]
    else:
        raise ValueError(f"unknown symmetrizer kind {kind!r}")

    def act(f: Polynomial) -> Polynomial:
        total = Polynomial.zero(f.nvars)
        for s, op in zip(signs, ops):
            total = total + s * op(f)
        return total * norm

    return Operator(nvars, act)


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
    euler = [
        multiply_by(Polynomial.variable(n, j)) * derivative(n, j)
        for j in range(1, n + 1)
    ]
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


def operator_equal(op_a: Operator, op_b: Operator, degree: int) -> bool:
    """Exact agreement on every monomial of total degree <= degree."""
    if op_a.nvars != op_b.nvars:
        raise AmbientSizeMismatch("ambient size mismatch in operator comparison")
    for exps in monomials_up_to_degree(op_a.nvars, degree):
        mono = Polynomial.monomial(exps)
        if op_a(mono) != op_b(mono):
            return False
    return True


# name -> (constructor, required index names); addressable from the CLI as
# "name:j=2" or "name:i=1,j=2"
_NAMED_CONSTRUCTORS = {
    "dunklA": (dunkl_a, ("j",)),
    "cherednikA": (cherednik_a, ("j",)),
    "dunklB": (dunkl_b, ("j",)),
    "cherednikB": (cherednik_b, ("j",)),
    "creationA": (creation_a, ("j",)),
    "annihilationA": (annihilation_a, ("j",)),
    "creationB": (creation_b, ("j",)),
    "annihilationB": (annihilation_b, ("j",)),
    "htilde": (htilde, ("j",)),
}


def operator_from_string(text: str, spec: FamilySpec) -> Operator:
    """Build a named operator from a parameter string like "cherednikA:j=2".

    Exchange and reflection generators are addressed as "exchange:i=1,j=2"
    and "signflip:j=1"; everything else dispatches through the family spec.
    """
    name, _, params_text = text.partition(":")
    params: dict[str, int] = {}
    if params_text:
        for item in params_text.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ValueError(f"malformed operator parameter {item!r} in {text!r}")
            params[key.strip()] = int(value)
    if name == "exchange":
        return exchange(spec.n, params["i"], params["j"])
    if name == "signflip":
        if spec.family != LAGUERRE:
            raise TypeBContextError("type-B primitive in type-A context")
        return sign_flip(spec.n, params["j"])
    if name not in _NAMED_CONSTRUCTORS:
        raise ValueError(f"unknown operator name {name!r}")
    constructor, required = _NAMED_CONSTRUCTORS[name]
    missing = [key for key in required if key not in params]
    if missing:
        raise ValueError(f"operator {name!r} needs parameters {required}")
    return constructor(*(params[key] for key in required), spec)
