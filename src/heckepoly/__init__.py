"""Exact operator calculus for Dunkl and Cherednik operators of types A
and B, with the Jack, multivariable Hermite, and multivariable Laguerre
polynomial families they generate: intertwiners, raising operators, shift
operators, inner products, and closed-form norms, all over exact rational
arithmetic."""

from .caches import cache_info, clear_caches
from .combinatorics import (
    bruhat_leq,
    conjugate,
    dominance_leq,
    monomial_symmetric,
    precedes,
)
from .errors import HeckePolyError
from .families import (
    FamilyPolynomial,
    NonSymLabel,
    hermite,
    jack,
    laguerre,
    nonsym_hermite,
    nonsym_jack,
    nonsym_laguerre,
    sigma_a,
    sigma_b,
)
from .parameters import FamilySpec, hermite_spec, jack_spec, laguerre_spec
from .pairings import (
    ScaledRational,
    ct_pairing,
    dunkl_pairing,
    gauss_pairing,
    laguerre_pairing,
    norm_formula,
    shift_constants,
)
from .polynomials import Polynomial, divide_exact, vandermonde
from .raising import raising_apply, rodrigues
from .shift import calibrate, duality_check, shift_apply
from .verify import GridSpec, run_all, run_suite

__all__ = [
    "FamilyPolynomial",
    "FamilySpec",
    "GridSpec",
    "HeckePolyError",
    "NonSymLabel",
    "Polynomial",
    "ScaledRational",
    "bruhat_leq",
    "cache_info",
    "calibrate",
    "clear_caches",
    "conjugate",
    "ct_pairing",
    "divide_exact",
    "dominance_leq",
    "duality_check",
    "dunkl_pairing",
    "gauss_pairing",
    "hermite",
    "hermite_spec",
    "jack",
    "jack_spec",
    "laguerre",
    "laguerre_pairing",
    "laguerre_spec",
    "monomial_symmetric",
    "nonsym_hermite",
    "nonsym_jack",
    "nonsym_laguerre",
    "norm_formula",
    "precedes",
    "raising_apply",
    "rodrigues",
    "run_all",
    "run_suite",
    "shift_apply",
    "shift_constants",
    "sigma_a",
    "sigma_b",
    "vandermonde",
]
