"""Family parameter bundle shared by every operator and pairing."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polynomials import _canonical

JACK = "jack"
HERMITE = "hermite"
LAGUERRE = "laguerre"
FAMILIES = (JACK, HERMITE, LAGUERRE)


@dataclass(frozen=True)
class FamilySpec:
    """(family, N, beta, gamma) bundle.

    N is a positive integer and beta a non-negative one (the coupling is
    assumed integral so that all weights expand into Laurent polynomials;
    a bool is refused for either);
    gamma is an exact rational parameter present exactly for the Laguerre
    family (a float raises TypeError).
    """

    family: str
    n: int
    beta: int
    gamma: Fraction | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if type(self.n) is not int or self.n < 1:
            raise ValueError("N must be a positive integer")
        if type(self.beta) is not int or self.beta < 0:
            raise ValueError("beta must be a non-negative integer")
        if self.family == LAGUERRE:
            if self.gamma is None:
                raise ValueError("the Laguerre family needs a gamma parameter")
            object.__setattr__(self, "gamma", Fraction(_canonical(self.gamma)))
        elif self.gamma is not None:
            raise ValueError("gamma is only meaningful for the Laguerre family")

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
