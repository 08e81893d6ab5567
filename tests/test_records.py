"""Value semantics of the record types, and what a fresh process imports."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from heckepoly.families import FamilyPolynomial, NonSymLabel
from heckepoly.pairings import ScaledRational
from heckepoly.parameters import FamilySpec, hermite_spec, jack_spec, laguerre_spec
from heckepoly.polynomials import Polynomial
from heckepoly.shift import CalibrationReport
from heckepoly.verify import GridSpec, SuiteReport

SRC = Path(__file__).resolve().parents[1] / "src"


# record type -> (the fields of one value, another value for each field to change)
RECORDS = {
    FamilySpec: ({"family": "laguerre", "n": 2, "beta": 1, "gamma": Fraction(1, 2)},
                 {"n": 3, "beta": 2, "gamma": Fraction(1, 3)}),
    ScaledRational: ({"q": Fraction(3, 2), "pi_half": 1, "gamma_base": 2},
                     {"q": Fraction(1, 2), "pi_half": 2, "gamma_base": 1}),
    NonSymLabel: ({"lam": (1, 0), "w": (2, 1)}, {"lam": (2, 0)}),
    FamilyPolynomial: ({"label": (1, 0), "spec": hermite_spec(2, 1),
                        "poly": Polynomial.variable(2, 1), "construction": "gram",
                        "eigenvalues": (1, 0)},
                       {"label": (2, 0), "spec": hermite_spec(2, 2),
                        "poly": Polynomial.variable(2, 2), "construction": "rodrigues",
                        "eigenvalues": (2, 0)}),
    CalibrationReport: ({"family": "jack", "global_sign": -1, "witness_n": 2},
                        {"family": "hermite", "global_sign": 1, "witness_n": 3}),
    GridSpec: ({"ns": (2,), "betas": (1,)},
               {"ns": (3,), "betas": (0,), "gammas": (Fraction(1, 3),), "max_weight": 2,
                "degree": 3, "seed": 7, "pairs": 2, "rand_polys": 3}),
    SuiteReport: ({"suite": "demo", "grid": {"ns": [2]}},
                  {"suite": "other", "grid": {}, "cases_run": 1, "cases_passed": 1,
                   "failures": [{}], "calibration": {}}),
}
UNHASHABLE = {FamilyPolynomial, SuiteReport}  # they hold a Polynomial, or change


def test_reprs_name_every_field():
    assert repr(jack_spec(2, 1)) == "FamilySpec(family='jack', n=2, beta=1, gamma=None)"
    assert (repr(laguerre_spec(3, 0, "1/2"))
            == "FamilySpec(family='laguerre', n=3, beta=0, gamma=Fraction(1, 2))")
    assert (repr(ScaledRational(Fraction(-3, 2), 1))
            == "ScaledRational(q=Fraction(-3, 2), pi_half=1, gamma_base=0)")
    assert repr(NonSymLabel((1, 0), (2, 1))) == "NonSymLabel(lam=(1, 0), w=(2, 1))"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_fields_make_equal_values(cls):
    fields, changes = RECORDS[cls]
    value, twin = cls(**fields), cls(**fields)
    assert value == twin and not value != twin and value is not twin
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin)
        assert copy.copy(value) == value and pickle.loads(pickle.dumps(value)) == value
    assert value != (value,) and value.__eq__(object()) is NotImplemented
    for field, other in changes.items():
        changed = cls(**{**fields, field: other})
        assert changed != value and getattr(changed, field) == other, field


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if cls is not SuiteReport],
                         ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned(cls):
    fields, changes = RECORDS[cls]
    value = cls(**fields)
    for field, other in changes.items():
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, other)
        assert getattr(value, field) == before
    with pytest.raises(AttributeError):
        value.extra = 1


def test_replace_validates_like_the_constructor():
    spec = laguerre_spec(2, 1, Fraction(1, 2))
    moved = spec.replace(beta=2, gamma="1/3")
    assert moved == laguerre_spec(2, 2, Fraction(1, 3)) and spec.beta == 1
    assert hash(moved) == hash(laguerre_spec(2, 2, Fraction(1, 3)))
    with pytest.raises(ValueError, match="beta"):
        spec.replace(beta=True)
    with pytest.raises(TypeError):
        spec.replace(gamma=0.5)
    with pytest.raises(ValueError, match="out of bounds"):
        GridSpec().replace(degree=7)
    assert GridSpec().replace(degree=2) == GridSpec(degree=2)
    with pytest.raises(TypeError):
        GridSpec().replace(depth=2)


def test_json_dicts_keep_their_key_order():
    data = GridSpec().to_json_dict()
    assert list(data) == ["ns", "betas", "gammas", "max_weight", "degree", "seed", "pairs",
                          "rand_polys"]
    assert data["gammas"] == ["0", "1/3", "1/2"] and data["ns"] == (2, 3)
    report = SuiteReport("demo", {"ns": [2]})
    report.record({"case": 1}, False, "a", "b")
    assert report.to_json_dict() == {
        "suite": "demo", "grid": {"ns": [2]}, "cases_run": 1, "cases_passed": 0,
        "failures": [{"params": {"case": 1}, "lhs": "a", "rhs": "b"}], "calibration": None,
    }
    assert list(report.to_json_dict()) == ["suite", "grid", "cases_run", "cases_passed",
                                           "failures", "calibration"]


def test_a_fresh_process_loads_no_dataclasses_inspect_or_csv():
    """The record types are plain slotted classes and ``table`` imports
    ``csv`` itself, so starting ``verify`` loads none of these modules."""
    script = ("import sys, heckepoly, heckepoly.cli, heckepoly.verify; "
              "print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
