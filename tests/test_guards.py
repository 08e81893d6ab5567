"""The input guards and internal checks that no other test makes fail: each
raises its own exception with its own message."""

from fractions import Fraction

import pytest

from heckepoly import operators as ops
from heckepoly.combinatorics import bruhat_leq, label_to_composition
from heckepoly.errors import AmbientSizeMismatch, HeckePolyError
from heckepoly.families import (
    NonSymLabel,
    _assert_nonsym_triangular,
    nonsym_hermite,
    nonsym_jack,
    nonsym_laguerre,
    sigma_a,
    sigma_b,
)
from heckepoly.pairings import norm_formula
from heckepoly.parameters import FamilySpec, hermite_spec, jack_spec, laguerre_spec
from heckepoly.polynomials import Polynomial

X1, X2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
LABEL = NonSymLabel((1, 0), (1, 2))  # the composition (1, 0)

# id -> (a call that must raise, its exception type, a pattern of its message)
GUARDS = {
    "nonsym leading coefficient": (
        lambda: _assert_nonsym_triangular(2 * X1, LABEL),
        HeckePolyError, r"leading coefficient of x\^\(1, 0\) is not 1"),
    "nonsym companion": (
        lambda: _assert_nonsym_triangular(X1 + X2, LABEL),
        HeckePolyError, r"companion \(0, 1\) is not lower than the label"),
    "nonsym_jack family": (
        lambda: nonsym_jack(LABEL, hermite_spec(2, 1)), ValueError, "needs a Jack spec"),
    "nonsym_hermite family": (
        lambda: nonsym_hermite(LABEL, jack_spec(2, 1)), ValueError, "needs a Hermite spec"),
    "nonsym_laguerre family": (
        lambda: nonsym_laguerre(LABEL, hermite_spec(2, 1)), ValueError, "needs a Laguerre spec"),
    "sigma_a family": (lambda: sigma_a(X1, jack_spec(2, 1)), ValueError, "needs a Hermite spec"),
    "sigma_b family": (
        lambda: sigma_b(X1, hermite_spec(2, 1)), ValueError, "needs a Laguerre spec"),
    "spec family": (lambda: FamilySpec("legendre", 2, 1), ValueError, "unknown family"),
    "spec gamma": (
        lambda: FamilySpec("hermite", 2, 1, Fraction(1, 2)), ValueError,
        "gamma is only meaningful for the Laguerre family"),
    "operator sum sizes": (
        lambda: ops.identity(2) + ops.identity(3), AmbientSizeMismatch, "in operator sum"),
    "operator composition sizes": (
        lambda: ops.identity(2) * ops.identity(3), AmbientSizeMismatch, "in composition"),
    "exchange indices": (
        lambda: ops.exchange(2, 1, 1), ValueError, "exchange needs two distinct indices"),
    "divided difference indices": (
        lambda: ops.divided_diff_minus(2, 2, 2), ValueError,
        "divided difference needs two distinct indices"),
    "bruhat sizes": (
        lambda: bruhat_leq((1, 2), (1, 2, 3)), AmbientSizeMismatch, "in Bruhat comparison"),
    "label sizes": (
        lambda: label_to_composition((1, 0), (1, 2, 3)), AmbientSizeMismatch, "in label"),
    "norm form": (
        lambda: norm_formula((1, 0), laguerre_spec(2, 1, 0), form="x"), ValueError,
        "unknown norm form 'x'"),
    "polynomial without variables": (
        lambda: Polynomial(0), ValueError, "need at least one ambient variable"),
    "polynomial exponent length": (
        lambda: Polynomial(2, {(1,): 1}), AmbientSizeMismatch,
        r"exponent \(1,\) in 2 variables"),
    "polynomial variable index": (
        lambda: Polynomial.variable(2, 3), ValueError, "variable index 3 out of range 1..2"),
    "polynomial negative power": (
        lambda: X1 ** -1, ValueError, "negative polynomial powers are not supported"),
    "polynomial leading of zero": (
        lambda: Polynomial(2).leading(), ValueError, "zero polynomial has no leading term"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_raises(name):
    call, kind, message = GUARDS[name]
    with pytest.raises(kind, match=message):
        call()
