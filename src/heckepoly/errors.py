"""Exceptions raised by the exact-arithmetic core and the operator layer."""


class HeckePolyError(Exception):
    """Base class for all package-specific errors."""


class AmbientSizeMismatch(HeckePolyError):
    """Two values with different ambient variable counts were combined."""


class NotDivisibleError(HeckePolyError):
    """Exact polynomial division failed; no exact quotient exists."""


class SpectrumCollisionError(HeckePolyError):
    """A triangular eigen-solve met a gap that cannot be divided by: the
    Sutherland eigenvalue E(nu) of a label nu below lam is not below E(lam)."""


class NotProportionalError(HeckePolyError):
    """An operator image failed to be a scalar multiple of the expected polynomial."""


class RodriguesSingularError(HeckePolyError):
    """A Rodrigues prefactor contains a zero factor (needs beta >= 1)."""


class DivergentWeightError(HeckePolyError):
    """The Laguerre weight diverges (gamma <= -1/2)."""


class EvennessViolation(HeckePolyError):
    """A polynomial expected to be even in every variable has odd exponents."""


class TypeBContextError(HeckePolyError):
    """An operator name's type disagrees with the spec (a sign flip or a
    "...B" name with a type-A spec, an "...A" name with a type-B one)."""


class CalibrationError(HeckePolyError):
    """The fixed shift convention failed its check at the empty label."""
