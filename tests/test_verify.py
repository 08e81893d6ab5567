"""Suite runner: determinism, coverage, and small-grid smoke of every suite."""

import importlib
import inspect
import itertools
import json
import sys
from fractions import Fraction

import pytest

from heckepoly import clear_caches
from heckepoly import operators as ops
from heckepoly import shift, verify
from heckepoly.errors import CalibrationError
from heckepoly.families import realization
from heckepoly.parameters import FamilySpec
from heckepoly.polynomials import Polynomial
from heckepoly.verify import (
    GridSpec,
    SUITES,
    reports_to_json,
    run_all,
    run_suite,
)

SMALL = GridSpec(
    ns=(2,),
    betas=(0, 1),
    gammas=(Fraction(1, 2),),
    max_weight=3,
    degree=3,
    seed=7,
    pairs=3,
    rand_polys=4,
)
SMALL_ARGV = [
    "--n-list", "2", "--beta-list", "0,1", "--gamma-list", "1/2", "--max-weight", "3",
    "--degree", "3", "--seed", "7", "--pairs", "3", "--rand-polys", "4",
]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes_on_small_grid(name):
    report = run_suite(name, SMALL)
    assert report.cases_run > 0
    assert report.passed, report.failures[:3]


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite name"):
        run_suite("nonsense", SMALL)


def test_grid_bounds():
    with pytest.raises(ValueError, match="grid out of bounds"):
        GridSpec(ns=(5,))
    with pytest.raises(ValueError, match="grid out of bounds"):
        GridSpec(ns=(1, 2))
    with pytest.raises(ValueError):
        GridSpec(degree=7)
    with pytest.raises(ValueError):
        GridSpec(betas=(4,))
    for weight in (0, -3, 7):
        with pytest.raises(ValueError, match="1 <= max_weight <= 6"):
            GridSpec(max_weight=weight)
    assert GridSpec(max_weight=1).max_weight == 1
    assert GridSpec(max_weight=6).max_weight == 6
    for bad in (
        {"degree": 0},
        {"degree": -1},
        {"betas": (1, -1)},
        {"gammas": (Fraction(1, 2), Fraction(-1, 2))},
        {"gammas": (-1,)},
        {"ns": ()},
        {"betas": ()},
        {"gammas": ()},
    ):
        with pytest.raises(ValueError, match="grid out of bounds"):
            GridSpec(**bad)
    assert GridSpec(degree=1, betas=(0,), gammas=(Fraction(-1, 3),)).degree == 1


@pytest.mark.parametrize(
    "bad",
    [{"ns": (2.5,)}, {"betas": (True,)}, {"max_weight": 2.5}, {"degree": True},
     {"seed": 1.5}, {"pairs": 1.5}, {"rand_polys": 2.0}],
)
def test_grid_values_must_be_integers(bad):
    with pytest.raises(ValueError, match="grid values other than gamma must be integers"):
        GridSpec(**bad)


@pytest.mark.parametrize("n", [2.5, True])
def test_family_spec_needs_an_integer_n(n):
    with pytest.raises(ValueError, match="N must be a positive integer"):
        FamilySpec("jack", n, 1)


def test_reports_deterministic_and_reproducible():
    first = reports_to_json(run_all(SMALL, ["duality_all", "dunkl_pairing_prop"]))
    second = reports_to_json(run_all(SMALL, ["duality_all", "dunkl_pairing_prop"]))
    assert first == second
    payload = json.loads(first)
    assert payload["all_passed"] is True
    assert [r["suite"] for r in payload["reports"]] == [
        "duality_all",
        "dunkl_pairing_prop",
    ]


def test_shift_suite_emits_calibration():
    report = run_suite("shift_all", SMALL)
    assert report.calibration
    sample = next(iter(report.calibration.values()))
    assert set(sample) == {"family", "assignment", "global_sign", "witness_N"}
    for entry in report.calibration.values():
        n = entry["witness_N"]
        assert entry["assignment"] == "swapped"
        assert entry["global_sign"] == (-1) ** (n * (n - 1) // 2)


def test_dunkl_pairing_suite_records_verdict():
    report = run_suite("dunkl_pairing_prop", SMALL)
    verdict = report.calibration["proportionality"]
    assert verdict["dunkl,scale=1/2"] is True
    assert verdict["cherednik,scale=1"] is False
    assert verdict["cherednik,scale=1/2"] is False


# the public operations the suites must call, as module.name
CATALOG = (
    "operators.dunkl",
    "operators.cherednik",
    "operators.creation",
    "operators.htilde",
    "operators.symmetrizer",
    "operators.sutherland_expanded_apply",
    "families.nonsym_jack",
    "families.jack",
    "families.sigma_a",
    "families.hermite",
    "families.sigma_b",
    "families.laguerre",
    "families.nonsym_hermite",
    "families.nonsym_laguerre",
    "pairings.ct_pairing",
    "pairings.gauss_pairing",
    "pairings.laguerre_pairing",
    "pairings.dunkl_pairing",
    "pairings.norm_formula",
    "pairings.shift_constants",
    "raising.raising_operator",
    "raising.raising_apply",
    "raising.rodrigues",
    "shift.shift_apply",
    "shift.calibrate",
    "shift.duality_check",
    "shift.antisymmetrizer_lemma_check",
)

# the layers whose operations run only inside a case's thunk
CASE_ONLY = ("families.", "pairings.", "raising.", "shift.")


def _measured_calls(run) -> set[str]:
    """The CATALOG operations that run() calls, seen by a profile hook on
    their code objects (a memoized one below its cache, which is cleared
    first)."""
    codes = {}
    for name in CATALOG:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"heckepoly.{module}"), attr)
        codes[inspect.unwrap(fn).__code__] = name
    called = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            called.add(codes[frame.f_code])

    clear_caches()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
        clear_caches()
    return called


def _cases(name):
    """The case generator of suite name."""
    _name, cases = SUITES[name].args
    return cases


def test_operation_coverage():
    """run_all calls every cataloged public operation."""
    called = _measured_calls(lambda: run_all(SMALL))
    assert called == set(CATALOG), sorted(set(CATALOG) - called)


def test_generators_only_draw_inputs_and_build_operators():
    """Draining every suite's generator without running its thunks calls
    no construction, intertwiner, pairing, raising or shift operation."""

    def drain():
        for name in SUITES:
            for _case in _cases(name)(SMALL):
                pass

    called = _measured_calls(drain)
    assert not {name for name in called if name.startswith(CASE_ONLY)}, sorted(called)


def _raise_planted(*args, **kwargs):
    raise RuntimeError("planted")


# a planted defect in the work cases share: (module, attribute, wrapper of
# the original, suites it breaks)
SHARED_WORK_PLANTS = {
    "sigma_a raises": (verify, "sigma_a", lambda sigma_a: _raise_planted,
                       ("intertwine_A", "dunkl_pairing_prop")),
    "B_j + 1": (ops, "creation",
                lambda creation: lambda j, spec: creation(j, spec) + ops.identity(spec.n),
                ("intertwine_B",)),
}


@pytest.mark.parametrize("plant", sorted(SHARED_WORK_PLANTS))
def test_shared_work_fails_case_by_case(plant, monkeypatch):
    """Work several cases share fails each of them, with its own params:
    every case is still recorded."""
    module, attr, wrap, names = SHARED_WORK_PLANTS[plant]
    expected = {name: [params for params, _thunk in _cases(name)(SMALL)] for name in names}
    clear_caches()
    monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    try:
        reports = run_all(SMALL, names)
    finally:
        monkeypatch.undo()
        clear_caches()
    for report in reports:
        assert report.cases_run == SMALL_COUNTS[report.suite] == len(expected[report.suite])
        assert report.cases_passed == 0
        raised = [failure["params"] for failure in report.failures]
        assert all({"exception", "message"} < set(params) for params in raised)
        own = [{k: v for k, v in p.items() if k not in ("exception", "message")} for p in raised]
        assert own == expected[report.suite]


def test_failure_reporting_carries_counterexample():
    # a deliberately broken comparison must produce a structured failure
    from heckepoly.verify import SuiteReport

    report = SuiteReport("demo", {})
    report.record({"case": 1}, False, "lhs-value", "rhs-value")
    report.record({"case": 2}, True)
    assert not report.passed
    assert report.cases_run == 2 and report.cases_passed == 1
    assert report.failures == [
        {"params": {"case": 1}, "lhs": "lhs-value", "rhs": "rhs-value"}
    ]


def test_empty_suite_fails():
    from heckepoly.verify import SuiteReport

    report = SuiteReport("demo", {})
    assert report.cases_run == 0
    assert not report.passed
    with pytest.raises(ValueError, match="must be positive"):
        GridSpec(pairs=0)
    with pytest.raises(ValueError, match="must be positive"):
        GridSpec(rand_polys=-1)


def test_appendix_a_reduced_words():
    from heckepoly.combinatorics import longest_element
    from heckepoly.verify import _w0_words

    for n in range(2, 6):
        words = _w0_words(n)
        for word in words:
            assert len(word) == n * (n - 1) // 2
            product = tuple(range(1, n + 1))
            for i in word:
                product = product[: i - 1] + (product[i], product[i - 1]) + product[i + 1 :]
            assert product == longest_element(n)
        assert (words[0] != words[1]) == (n >= 3)


def test_same_renders_witnesses_only_on_failure():
    from heckepoly.verify import _run_cases, _same

    def render(value):
        rendered.append(value)
        return f"<{value}>"

    rendered = []
    assert _same(Fraction(1, 2), Fraction(1, 2), render) is True
    assert rendered == []
    cases = [
        ({"case": 1}, lambda: _same(Fraction(1, 2), Fraction(1, 2), render)),
        ({"case": 2}, lambda: _same(Fraction(1, 2), 0, render)),
        ({"case": 3}, lambda: _same(Fraction(1, 3), 0)),
    ]
    report = _run_cases("demo", lambda grid: iter(cases), SMALL)
    assert rendered == [Fraction(1, 2), 0]
    assert report.cases_run == 3 and report.cases_passed == 1
    assert report.failures == [
        {"params": {"case": 2}, "lhs": "<1/2>", "rhs": "<0>"},
        {"params": {"case": 3}, "lhs": "1/3", "rhs": "0"},
    ]


RELATION_SUITES = ("daha_relations", "dunkl_commute", "res_B", "appendix_A")

# cases per suite, in SUITES order
CASE_COUNTS = {
    "small": (22, 32, 44, 12, 30, 24, 8, 4, 12, 12, 60, 18, 72, 18, 72, 36, 20, 2, 18),
    "default": (132, 378, 246, 60, 273, 1350, 900, 45, 60, 180, 243, 120, 216, 600,
                600, 300, 72, 6, 84),
}
SMALL_COUNTS = dict(zip(SUITES, CASE_COUNTS["small"]))


@pytest.mark.parametrize(
    "grid, counts",
    [(SMALL, CASE_COUNTS["small"]), (GridSpec(), CASE_COUNTS["default"])],
    ids=["small", "default"],
)
def test_suites_keep_every_case(grid, counts):
    assert [run_suite(name, grid).cases_run for name in SUITES] == list(counts)


def _shift_last_cherednik(cherednik):
    def planted(j, spec):
        op = cherednik(j, spec)
        return op + ops.identity(spec.n) if j == spec.n else op

    return planted


# one planted operator defect per relation suite: (operators attribute,
# wrapper of the original)
PLANTED = {
    "daha_relations": ("cherednik", _shift_last_cherednik),  # Dhat_N + 1
    "dunkl_commute": (
        "_dunkl",  # beta + 1 in both Dunkl types
        lambda dunkl: lambda n, j, beta, gamma=None: dunkl(n, j, beta + 1, gamma),
    ),
    "res_B": (  # + z_1 in the type-B Cherednik operators only: odd images
        "cherednik",
        lambda cherednik: lambda j, spec: cherednik(j, spec) + ops.multiply_by(
            Polynomial.variable(spec.n, 1)
        ) if spec.gamma is not None else cherednik(j, spec),
    ),
    "appendix_A": ("permutation_op", lambda perm: lambda w: 2 * perm(w)),
}


@pytest.mark.parametrize("name", RELATION_SUITES)
def test_relation_tables_catch_planted_defect(name, monkeypatch):
    attr, plant = PLANTED[name]
    clear_caches()
    monkeypatch.setattr(ops, attr, plant(getattr(ops, attr)))
    try:
        report = run_suite(name, SMALL)
    finally:
        monkeypatch.undo()
        clear_caches()
    assert report.failures and not report.passed
    assert all("monomial" in failure["params"] for failure in report.failures)


def _negated_y(y_product):
    return lambda spec, sign: -1 * y_product(spec, sign)


def _exchanged_y(y_product):
    """prod_{i<j} (sign*beta + C_i - C_j): C_i and C_j exchanged in every factor."""

    def planted(spec, sign):
        n = spec.n
        chers = [realization(spec).cherednik(j) for j in range(1, n + 1)]
        total = ops.identity(n)
        for i, j in itertools.combinations(range(n), 2):
            total = (ops.scalar(n, sign * spec.beta) + chers[i] - chers[j]) * total
        return total

    return planted


# a planted defect in the shift Y-products: wrapper of shift._y_product
SHIFT_PLANTS = {"-Y": _negated_y, "C_i <-> C_j": _exchanged_y}


@pytest.mark.parametrize("plant", sorted(SHIFT_PLANTS))
def test_shift_suite_catches_planted_defect(plant, monkeypatch, capsys):
    """The shift convention is fixed, not measured: a sign or a role error
    in the Y-products fails shift_all, and verify exits 1."""
    from heckepoly.cli import main

    clear_caches()
    monkeypatch.setattr(shift, "_y_product", SHIFT_PLANTS[plant](shift._y_product))
    try:
        code = main(["verify", "--suite", "shift_all", *SMALL_ARGV])
    finally:
        monkeypatch.undo()
        clear_caches()
    assert code == 1
    assert capsys.readouterr().out.startswith("shift_all: FAIL")


@pytest.mark.parametrize("plant", sorted(SHIFT_PLANTS))
def test_calibrate_fails_under_planted_defect(plant, monkeypatch):
    """calibrate applies G and Ghat by shift_apply at the empty label, and
    turns a failed relation into one CalibrationError."""
    clear_caches()
    monkeypatch.setattr(shift, "_y_product", SHIFT_PLANTS[plant](shift._y_product))
    try:
        for family, gamma in [("jack", None), ("hermite", None), ("laguerre", Fraction(1, 2))]:
            for n in (2, 3):
                sign = (-1) ** (n * (n - 1) // 2)
                message = f"^shift relations with sign {sign} fail for {family} at N={n}, beta=1$"
                with pytest.raises(CalibrationError, match=message):
                    shift.calibrate(family, n, 1, gamma)
    finally:
        monkeypatch.undo()
        clear_caches()


N4 = GridSpec(ns=(4,), betas=(1,), gammas=(Fraction(1, 2),), pairs=1)


@pytest.mark.parametrize("operator", ["apply_g", "apply_ghat"])
def test_duality_catches_doubled_shift_at_n4(operator, monkeypatch):
    """At N = 4 each duality case has both sides nonzero (f has a part of
    weight >= |delta|), so doubling G or Ghat fails every case on unequal
    sides, not by an exception."""
    original = getattr(shift, operator)
    clear_caches()
    monkeypatch.setattr(shift, operator, lambda *args: 2 * original(*args))
    try:
        report = run_suite("duality_all", N4)
    finally:
        monkeypatch.undo()
        clear_caches()
    assert report.cases_run == 3 and report.cases_passed == 0
    assert not any("exception" in failure["params"] for failure in report.failures)


@pytest.mark.parametrize("operator", ["apply_g", "apply_ghat"])
def test_duality_compares_degree_by_degree(operator, monkeypatch):
    """On N = 4 with seed 20240811, the Jack beta = 0 case of trial 8 has
    <G f, g> = <f, Ghat g> = 0, because its degree parts cancel.  The
    constant-term pairing is graded, so the case compares one degree at a
    time, and a doubled G or Ghat fails it."""
    grid = GridSpec(ns=(4,), seed=20240811)
    target = {"family": "jack", "n": 4, "beta": 0, "gamma": "None", "trial": 8}
    thunk = next(thunk for params, thunk in _cases("duality_all")(grid) if params == target)
    f, g, spec = thunk.args
    upper = spec.with_beta(1)
    assert realization(upper).pair(shift.apply_g(f, spec), g).q == 0
    assert realization(spec).pair(f, shift.apply_ghat(g, spec)).q == 0
    assert thunk() is True
    original = getattr(shift, operator)
    clear_caches()
    shift.calibrate("jack", 4, 0)
    monkeypatch.setattr(shift, operator, lambda *args: 2 * original(*args))
    try:
        assert thunk() is False
    finally:
        monkeypatch.undo()
        clear_caches()


def test_crashing_suite_is_reported(monkeypatch, capsys):
    """With Dhat_N + 1 planted, many cases raise; each fails alone, carrying
    its params and the exception, and every suite still reports."""
    from heckepoly.cli import main

    attr, plant = PLANTED["daha_relations"]
    clear_caches()
    monkeypatch.setattr(ops, attr, plant(getattr(ops, attr)))
    try:
        reports = run_all(SMALL)
        code = main(["verify", "--all", *SMALL_ARGV])
    finally:
        monkeypatch.undo()
        clear_caches()
    assert [r.suite for r in reports] == list(SUITES)
    crashed = [r for r in reports if any("exception" in f["params"] for f in r.failures)]
    assert crashed and not any(r.passed for r in crashed)
    for report in crashed:
        # a case that raises fails alone, with its own params ...
        raised = [f["params"] for f in report.failures if "exception" in f["params"]]
        assert all(set(params) > {"exception", "message"} for params in raised)
    # ... and the rest still run, also where cases share work (jack_orth's
    # Jack polynomials, raising_all's and shift_all's constructions and
    # shift_all's calibration, norms_all's pairing value)
    assert all(r.cases_run == SMALL_COUNTS[r.suite] for r in reports)
    assert {"jack_orth", "raising_all", "shift_all", "norms_all"} <= {r.suite for r in crashed}
    orth = next(r for r in crashed if r.suite == "jack_orth")
    assert "N=2, beta=0" in orth.failures[0]["params"]["message"]  # names the case
    assert any(r.passed for r in reports)  # the suites the defect misses still pass
    out = capsys.readouterr().out
    assert code == 1
    assert len([line for line in out.splitlines() if not line.startswith(" ")]) == len(SUITES)
    assert '"exception": "HeckePolyError"' in out


def test_crash_between_cases_ends_the_suite():
    """A generator that raises between cases ends its suite with one failing
    case carrying only the exception; the cases already run are kept."""
    from heckepoly.verify import _run_cases

    def cases(grid):
        yield {"case": 1}, lambda: True
        raise RuntimeError("planted")

    report = _run_cases("demo", cases, SMALL)
    assert report.cases_run == 2 and report.cases_passed == 1
    assert report.failures == [{
        "params": {"exception": "RuntimeError", "message": "planted"},
        "lhs": "",
        "rhs": "",
    }]


def test_crash_in_one_case_keeps_the_others(monkeypatch):
    """A case that raises fails alone: every other case of its suite runs."""
    from heckepoly import verify

    raising_constant = verify.raising_constant
    crashing = ((2, 1), 2, "hermite", 1)  # lambda, m, family, beta

    def planted(lam, m, spec):
        if (tuple(lam), m, spec.family, spec.beta) == crashing:
            raise RuntimeError("planted")
        return raising_constant(lam, m, spec)

    clear_caches()
    monkeypatch.setattr(verify, "raising_constant", planted)
    try:
        report = run_suite("raising_all", SMALL)
    finally:
        monkeypatch.undo()
        clear_caches()
    assert report.cases_run == SMALL_COUNTS["raising_all"]
    assert report.cases_passed == report.cases_run - 1
    params = {"family": "hermite", "n": 2, "beta": 1, "lambda": [2, 1], "m": 2}
    assert report.failures == [{
        "params": {**params, "exception": "RuntimeError", "message": "planted"},
        "lhs": "",
        "rhs": "",
    }]


def test_rodrigues_error_names_the_case(monkeypatch):
    from heckepoly.errors import HeckePolyError
    from heckepoly.parameters import jack_spec
    from heckepoly.raising import rodrigues

    attr, plant = PLANTED["daha_relations"]
    clear_caches()
    monkeypatch.setattr(ops, attr, plant(getattr(ops, attr)))
    try:
        with pytest.raises((HeckePolyError, ValueError), match="at N=2, beta=1, lambda="):
            rodrigues((2, 1), jack_spec(2, 1))
    finally:
        monkeypatch.undo()
        clear_caches()
