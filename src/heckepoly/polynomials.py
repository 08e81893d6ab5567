"""Sparse multivariate polynomials over exact rationals.

A polynomial in N ambient variables is a finite map from exponent vectors
to nonzero exact coefficients.  An integer value is stored as a plain
``int`` and any other rational as a ``Fraction`` with denominator > 1:

    x1^2*x2 + 3/2   ->   {(2, 1): 1, (0, 0): Fraction(3, 2)}

Integer coefficients keep ``Fraction`` off the hot path: with an integer
coupling every operator primitive has integer matrix entries.  The public
accessors ``coefficient``, ``constant_term`` and ``leading`` still return
``Fraction``.  A ``float`` coefficient or scalar raises ``TypeError``.

Exponents are non-negative ``int``s: the constructor refuses any other
entry, so every ``Polynomial`` is an ordinary polynomial.  Every ring
operation is exact, so polynomial identity testing is decidable and used
as the equality notion throughout the package.

The canonical term order is graded lexicographic: monomials are compared
by total degree first, then lexicographically on the exponent vector.
Serialization and pretty-printing always emit terms in this order, which
makes all outputs byte-deterministic.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Mapping

from .caches import memo
from .errors import AmbientSizeMismatch, NotDivisibleError

# Exponent vector: one non-negative integer per ambient variable.
Exponent = tuple[int, ...]

# A stored coefficient: a nonzero int, or a Fraction with denominator > 1.
Coefficient = int | Fraction

_ZERO = Fraction(0)


def _canonical(value) -> Coefficient:
    """An exact scalar in stored form: int when integral, else Fraction.
    A float is refused: its binary expansion is not the value meant."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError(f"inexact float scalar {value!r}: use int or Fraction")
    c = value if type(value) is Fraction else Fraction(value)
    return c.numerator if c.denominator == 1 else c


def _json_int(value) -> int:
    """An int, or a decimal-integer string such as "-12", as an int."""
    if type(value) is int:
        return value
    if type(value) is str and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise ValueError(f"{value!r} is not an integer or a decimal-integer string")


def _as_fraction(c: Coefficient) -> Fraction:
    return c if type(c) is Fraction else Fraction(c)


def _integer_part(terms: dict) -> tuple[dict, int]:
    """(integer terms, D) with ``terms`` = integer terms / D, where D is the
    lcm of the denominators; ``terms`` itself when D = 1."""
    den = math.lcm(*(c.denominator for c in terms.values() if type(c) is not int))
    if den == 1:
        return terms, 1
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


def _integral_to_int(terms: dict) -> dict:
    """Store the integral Fraction values of ``terms`` as int, in place."""
    for exps, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[exps] = c.numerator
    return terms


def grlex_key(exps: Exponent) -> tuple[int, Exponent]:
    """Graded-lexicographic sort key for an exponent vector."""
    return (sum(exps), exps)


class Polynomial:
    """Immutable sparse polynomial; do not mutate ``terms`` after construction."""

    __slots__ = ("nvars", "terms", "_orbits")  # _orbits: see _orbit_form

    def __init__(self, nvars: int, terms: Mapping[Exponent, Coefficient] | None = None):
        if type(nvars) is not int:
            raise ValueError(f"nvars {nvars!r} is not an int")
        if nvars < 1:
            raise ValueError("need at least one ambient variable")
        clean: dict[Exponent, Coefficient] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise AmbientSizeMismatch(
                        f"ambient size mismatch: exponent {exps} in {nvars} variables"
                    )
                if not {int}.issuperset(map(type, exps)):  # as pad_partition
                    raise ValueError(f"exponent {tuple(exps)} has an entry that is not an int")
                if min(exps) < 0:
                    raise ValueError(f"negative exponent in {tuple(exps)}")
                c = _canonical(coeff)
                if c:
                    clean[tuple(exps)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Exponent, Coefficient], orbits=None) -> "Polynomial":
        """Adopt ``terms`` without copying or checking it.  The caller
        guarantees tuple keys of length ``nvars`` with non-negative
        entries and canonical nonzero values, and gives up the dict;
        ``orbits``, if given, must be the m_lam coefficients of ``terms``."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "terms", terms)
        if orbits is not None:
            object.__setattr__(poly, "_orbits", orbits)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, j: int) -> "Polynomial":
        """The single variable x_j (1-based index)."""
        if not 1 <= j <= nvars:
            raise ValueError(f"variable index {j} out of range 1..{nvars}")
        exps = [0] * nvars
        exps[j - 1] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, exps: Iterable[int], coeff=1) -> "Polynomial":
        exps = tuple(exps)
        return cls(len(exps), {exps: coeff})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise AmbientSizeMismatch(
                f"ambient size mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            new = out.get(exps, 0) + coeff
            if not new:
                del out[exps]
            elif type(new) is not int and new.denominator == 1:
                out[exps] = new.numerator
            else:
                out[exps] = new
        return Polynomial._trusted(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = _canonical(other)
            if not c:
                return Polynomial(self.nvars)
            out = {e: c * v for e, v in self.terms.items()}
            return Polynomial._trusted(self.nvars, _integral_to_int(out))
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                new = out.get(key, 0) + c1 * c2
                if new:
                    out[key] = new
                else:
                    del out[key]
        return Polynomial._trusted(self.nvars, _integral_to_int(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative polynomial powers are not supported")
        result = Polynomial.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.nvars, other)
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {self.pretty()!r})"

    # -- inspection --------------------------------------------------------

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        return _as_fraction(self.terms.get(tuple(exps), _ZERO))

    def constant_term(self) -> Fraction:
        return _as_fraction(self.terms.get((0,) * self.nvars, _ZERO))

    def leading(self) -> tuple[Exponent, Fraction]:
        """Graded-lex maximal term; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, _as_fraction(self.terms[exps])

    def sorted_terms(self) -> list[tuple[Exponent, Coefficient]]:
        """Terms in ascending graded-lex order."""
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def _orbit_form(self) -> dict:
        """The m_lam coefficients of this symmetric polynomial, as stored
        (``combinatorics._orbit_coefficients``), read once and kept in a
        private slot; do not mutate the dict.  Raises ValueError on a
        non-symmetric polynomial."""
        try:
            return self._orbits
        except AttributeError:
            from .combinatorics import _orbit_coefficients  # it imports this module

            form = _orbit_coefficients(self.terms)
            object.__setattr__(self, "_orbits", form)
            return form

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """Canonical JSON form: terms in ascending graded-lex order,
        integers as decimal strings (arbitrary precision)."""
        return {
            "vars": self.nvars,
            "terms": [
                {
                    "exp": list(exps),
                    "num": str(coeff.numerator),
                    "den": str(coeff.denominator),
                }
                for exps, coeff in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Polynomial":
        """The inverse of ``to_json_dict``; raises ValueError unless data
        is an object with vars and a terms list of {exp, num, den} objects,
        vars and every exponent are integers (not bools), every num and den
        is an integer or a decimal-integer string, every den is nonzero and
        no exponent repeats."""
        try:
            nvars, rows = data["vars"], data["terms"]
            if not isinstance(rows, (list, tuple)):
                raise TypeError
            rows = [(tuple(t["exp"]), t["num"], t["den"], t) for t in rows]
        except (KeyError, TypeError):
            raise ValueError('expected {"vars": n, "terms": [{"exp", "num", "den"}, ...]}') from None
        if type(nvars) is not int:
            raise ValueError(f"vars {nvars!r} is not an integer")
        terms = {}
        for exps, num, den, t in rows:
            num, den = _json_int(num), _json_int(den)
            if not den or any(type(e) is not int for e in exps):
                raise ValueError(f"term {t} needs integer exponents and a nonzero den")
            if exps in terms:
                raise ValueError(f"exponent {list(exps)} repeated")
            terms[exps] = Fraction(num, den)
        return cls(nvars, terms)

    def pretty(self, var: str = "x") -> str:
        """Human-readable rendering in descending graded-lex order.

        With one ambient variable the bare letter is used ("x^2 - 1/2");
        otherwise variables are subscripted ("x_1^2 x_2").
        """
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exps, coeff in sorted(
            self.terms.items(), key=lambda item: grlex_key(item[0]), reverse=True
        ):
            factors = []
            for idx, e in enumerate(exps):
                if e == 0:
                    continue
                name = var if self.nvars == 1 else f"{var}_{idx + 1}"
                factors.append(name if e == 1 else f"{name}^{e}")
            mono = " ".join(factors)
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag} {mono}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)


def monomials_of_degree(nvars: int, degree: int) -> Iterator[Exponent]:
    """All exponent vectors with the given total degree, lexicographic order."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


def monomials_up_to_degree(nvars: int, degree: int) -> Iterator[Exponent]:
    for d in range(degree + 1):
        yield from monomials_of_degree(nvars, d)


@memo
def vandermonde(nvars: int) -> Polynomial:
    """The alternating product prod_{i<j} (x_i - x_j), built once per size."""
    result = Polynomial.one(nvars)
    for i in range(1, nvars + 1):
        for j in range(i + 1, nvars + 1):
            result = result * (
                Polynomial.variable(nvars, i) - Polynomial.variable(nvars, j)
            )
    return result


def divide_exact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient q with q*g == f; raises NotDivisibleError otherwise.

    Exactness is decided by graded-lex long division, which terminates
    because the leading term strictly decreases at every step.
    """
    if f.nvars != g.nvars:
        raise AmbientSizeMismatch("ambient size mismatch in divide_exact")
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    g_exps, g_lead = g.leading()
    g_terms = list(g.terms.items())
    quotient: dict[Exponent, Coefficient] = {}
    rem = dict(f.terms)
    while rem:
        r_exps = max(rem, key=grlex_key)
        q_exps = tuple(a - b for a, b in zip(r_exps, g_exps))
        if any(e < 0 for e in q_exps):
            raise NotDivisibleError("not divisible")
        q_coeff = quotient[q_exps] = _canonical(rem[r_exps] / g_lead)
        for exps, c in g_terms:
            key = tuple(map(add, q_exps, exps))
            new = rem.get(key, 0) - q_coeff * c
            if new:
                rem[key] = new
            else:
                del rem[key]
    return Polynomial._trusted(f.nvars, quotient)
