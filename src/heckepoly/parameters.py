"""Family parameter bundle shared by every operator and pairing, and the
base of the package's record types."""

from __future__ import annotations

from fractions import Fraction

from .polynomials import _canonical

JACK = "jack"
HERMITE = "hermite"
LAGUERRE = "laguerre"
FAMILIES = (JACK, HERMITE, LAGUERRE)


class Record:
    """Base of the record types: ``__slots__`` classes whose ``__init__``
    validates and sets each field once through ``object.__setattr__``, like
    ``Polynomial``, so assigning an attribute raises AttributeError.  The
    fields, named in order by ``__match_args__``, give the repr, equality
    (same class, equal fields), hash, pickling and ``replace``; a hot
    subclass writes its ``__eq__`` and ``__hash__`` out field by field."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__match_args__}

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes):
        """A copy with the named fields changed, validated as by the constructor."""
        return type(self)(**{**self._asdict(), **changes})


class FamilySpec(Record):
    """(family, N, beta, gamma) bundle.

    N is a positive integer and beta a non-negative one (the coupling is
    assumed integral so that all weights expand into Laurent polynomials;
    a bool is refused for either);
    gamma is an exact rational parameter present exactly for the Laguerre
    family (a float raises TypeError).  The hash is computed once, after
    gamma is canonicalized; equality compares the fields.
    """

    __slots__ = ("family", "n", "beta", "gamma", "_hash")
    __match_args__ = ("family", "n", "beta", "gamma")

    def __init__(self, family: str, n: int, beta: int, gamma: Fraction | None = None):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if type(n) is not int or n < 1:
            raise ValueError("N must be a positive integer")
        if type(beta) is not int or beta < 0:
            raise ValueError("beta must be a non-negative integer")
        if family == LAGUERRE:
            if gamma is None:
                raise ValueError("the Laguerre family needs a gamma parameter")
            gamma = Fraction(_canonical(gamma))
        elif gamma is not None:
            raise ValueError("gamma is only meaningful for the Laguerre family")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "_hash", hash((family, n, beta, gamma)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.family, self.n, self.beta, self.gamma) == (
                other.family, other.n, other.beta, other.gamma)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def with_beta(self, beta: int) -> "FamilySpec":
        return FamilySpec(self.family, self.n, beta, self.gamma)

    def to_json_dict(self) -> dict:
        out = {"family": self.family, "n": self.n, "beta": self.beta}
        if self.gamma is not None:
            out["gamma"] = str(self.gamma)
        return out


def jack_spec(n: int, beta: int) -> FamilySpec:
    return FamilySpec(JACK, n, beta)


def hermite_spec(n: int, beta: int) -> FamilySpec:
    return FamilySpec(HERMITE, n, beta)


def laguerre_spec(n: int, beta: int, gamma) -> FamilySpec:
    return FamilySpec(LAGUERRE, n, beta, gamma)
