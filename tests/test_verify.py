"""Suite runner: determinism, coverage, and small-grid smoke of every suite."""

import importlib
import inspect
import itertools
import json
import math
import sys
from fractions import Fraction

import pytest

from heckepoly import clear_caches
from heckepoly import operators as ops
from heckepoly import families, pairings, shift, verify
from heckepoly.errors import CalibrationError
from heckepoly.families import realization
from heckepoly.parameters import FAMILIES, FamilySpec
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


def test_jack_eigen_reruns_read_the_stored_e_k_images():
    """e_k(C_1, ..., C_N) is one operator per (spec, k), so three jack_eigen
    runs in one interpreter store the orbit images of the first only."""
    from heckepoly import cache_info

    clear_caches()
    try:
        sizes = []
        for _ in range(3):
            assert run_suite("jack_eigen", SMALL).passed
            sizes.append(cache_info()["families.orbit_images"])
        assert sizes == [24, 24, 24]
        assert cache_info()["families._elementary_cherednik"] == 4
    finally:
        clear_caches()


def test_every_polynomial_the_suites_build_is_ordinary(monkeypatch):
    """The constructor refuses a negative exponent; ``_trusted`` checks
    nothing, and operator images, products, quotients and orbit forms all
    build through it.  Every polynomial it adopts in run_all(SMALL) has
    exponents >= 0, and the reports still pass."""
    trusted = Polynomial._trusted.__func__
    adopted, laurent = [0], []

    def checked(cls, nvars, terms, orbits=None):
        adopted[0] += 1
        if min(map(min, terms), default=0) < 0:
            laurent.append(sorted(terms))
        return trusted(cls, nvars, terms, orbits)

    clear_caches()
    monkeypatch.setattr(Polynomial, "_trusted", classmethod(checked))
    try:
        reports = run_all(SMALL)
    finally:
        monkeypatch.undo()
        clear_caches()
    assert laurent == []
    assert adopted[0] > 1000
    assert all(report.passed for report in reports)


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
    "repeated",
    [{"ns": (2, 3, 2)}, {"betas": (1, 1)}, {"gammas": (Fraction(1, 2), Fraction(2, 4))},
     {"gammas": (0, "0/3")}],
)
def test_grid_rejects_a_repeated_value(repeated):
    with pytest.raises(ValueError, match="grid repeats a value"):
        GridSpec(**repeated)


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


def _hook_numerator_plus_one(body):
    """+1 on the numerator of the Hermite and Laguerre hook bodies only."""

    def planted(lam, n, beta, trigonometric):
        num, den = body(lam, n, beta, trigonometric)
        return (num, den) if trigonometric else (num + 1, den)

    return planted


# suite -> (module, attribute, wrapper of the original, cases of SMALL it
# fails): a planted defect in a value that suite alone compares
VALUE_PLANTS = {
    # the operator pairing doubled: its convention is fixed, so nothing absorbs it
    "dunkl_pairing_prop": (
        verify, "dunkl_pairing", lambda pairing: lambda f, g, spec: 2 * pairing(f, g, spec), 2),
    # beta^2/12 added to the constant beta^2 N (N^2 - 1)/12: the beta = 1 half
    "sutherland_form": (
        ops, "sutherland_expanded",
        lambda build: lambda n, beta: build(n, beta) + ops.scalar(n, Fraction(beta * beta, 12)), 9),
    # + 1 on the Hermite and Laguerre hook numerator, read at beta >= 1
    "norm_equiv_appB": (pairings, "_hook_norm_body", _hook_numerator_plus_one, 12),
}


@pytest.mark.parametrize("name", sorted(VALUE_PLANTS))
def test_planted_value_fails_its_suite(name, monkeypatch, capsys):
    """Each plant fails its own suite in the cases it reaches, and verify
    exits 1."""
    from heckepoly.cli import main

    module, attr, wrap, failing = VALUE_PLANTS[name]
    clear_caches()
    monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    try:
        report = run_suite(name, SMALL)
        code = main(["verify", "--suite", name, *SMALL_ARGV])
    finally:
        monkeypatch.undo()
        clear_caches()
    assert report.cases_run == SMALL_COUNTS[name]
    assert report.cases_run - report.cases_passed == failing
    assert not any("exception" in failure["params"] for failure in report.failures)
    assert code == 1
    assert capsys.readouterr().out.startswith(f"{name}: FAIL")


# the public operations the suites must call, as module.name
CATALOG = (
    "operators.dunkl",
    "operators.cherednik",
    "operators.creation",
    "operators.htilde",
    "operators.antisymmetrizer",
    "operators.orbit_sum",
    "operators.sutherland_expanded",
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
    "sigma_b raises": (verify, "sigma_b", lambda sigma_b: _raise_planted, ("intertwine_B",)),
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


LINK_ROWS = {f"D_{j}^B z_{j} S = S 2 K_{j}" for j in (1, 2)}  # the link rows that read gamma

# a planted value in the operators of the Laguerre realization or of its
# z-form: (module, attribute, wrapper of the original, {suite: the
# relations of its failing cases, or None where its cases carry none})
LAGUERRE_PLANTS = {
    # gamma + 1/2 -> gamma in K_j.  C_j and V_j then form the realization
    # at gamma - 1/2, whose spectra do not depend on gamma, so nonsym_eigen
    # and intertwine_B cannot see it; what compares with the gamma of the
    # pairing (the Gram route, its norms and duality) and the link rows do
    "K_j gamma": (
        families, "_laguerre_k",
        lambda k: lambda n, j, beta, gamma: k(n, j, beta, gamma - Fraction(1, 2)),
        {"res_B": LINK_ROWS, "laguerre_is_sigma_jack": None, "raising_all": None,
         "rodrigues_all": None, "shift_all": None, "duality_all": None},
    ),
    # 2 gamma -> gamma in the type-B sign term gamma (1 - t_j)/z_j of D_j^B
    "D_j^B 2 gamma": (
        ops, "sign_divided",
        lambda sign_divided: lambda n, j: Fraction(1, 2) * sign_divided(n, j),
        {"res_B": LINK_ROWS, "dunkl_commute": {"[D_1,z_1]", "[D_2,z_2]"}},
    ),
}


@pytest.mark.parametrize("plant", sorted(LAGUERRE_PLANTS))
def test_planted_laguerre_value_fails_the_link_rows(plant, monkeypatch):
    """The Laguerre realization is tied to the paper's type-B operators by
    the res_B link rows: a wrong value on either side fails them, and the
    suites listed, on SMALL; no case fails by an exception."""
    module, attr, wrap, verdicts = LAGUERRE_PLANTS[plant]
    clear_caches()
    monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    try:
        reports = run_all(SMALL)
    finally:
        monkeypatch.undo()
        clear_caches()
    failed = {report.suite: report.failures for report in reports if not report.passed}
    assert set(failed) == set(verdicts)
    for suite, relations in verdicts.items():
        params = [failure["params"] for failure in failed[suite]]
        assert all(p["family"] == "laguerre" if "family" in p else "gamma" in p for p in params)
        if relations is not None:
            assert {p["relation"] for p in params} == relations
            assert all("monomial" in p for p in params)
        elif suite not in ("raising_all", "shift_all"):  # these raise on a wrong image
            assert not any("exception" in p for p in params)


def test_planted_intertwiner_scalar_fails_nonsym_eigen(monkeypatch, capsys):
    """beta + 1 in the spectrum the recursion's intertwiner step reads
    (``verify`` imports its own) fails nonsym_eigen for every family, and
    verify exits 1.  E_0 and the labels that affine steps alone reach, such
    as (1,0) and (2,0), take no intertwiner step and pass, so the plant
    does not fit the table above."""
    from heckepoly.cli import main

    spectrum = families.composition_spectrum
    clear_caches()
    monkeypatch.setattr(families, "composition_spectrum",
                        lambda comp, beta: spectrum(comp, beta + 1))
    try:
        report = run_suite("nonsym_eigen", SMALL)
        code = main(["verify", "--suite", "nonsym_eigen", *SMALL_ARGV])
    finally:
        monkeypatch.undo()
        clear_caches()
    assert {failure["params"]["family"] for failure in report.failures} == set(FAMILIES)
    assert code == 1
    assert capsys.readouterr().out.startswith("nonsym_eigen: FAIL")


def _raising_plus_t(nu) -> dict:
    """``families._sutherland_raising`` with + t in place of + 2t."""
    out = {}
    for j, k in itertools.combinations(range(len(nu)), 2):
        for t in range(1, nu[k] + 1):
            moved = list(nu)
            moved[j] += t
            moved[k] -= t
            mu = tuple(sorted(moved, reverse=True))
            out[mu] = out.get(mu, 0) + nu[j] - nu[k] + t
    return out


def test_planted_sutherland_coefficient_fails_jack_eigen(monkeypatch, capsys):
    """jack_eigen applies e_k(Dhat) to a J_lam that the triangular route
    built without operators, so a wrong h_(nu mu) fails it and verify
    exits 1; a constant E leaves no gap to divide by."""
    from heckepoly.cli import main
    from heckepoly.errors import SpectrumCollisionError

    clear_caches()
    monkeypatch.setattr(families, "_sutherland_raising", _raising_plus_t)
    try:
        report = run_suite("jack_eigen", SMALL)
        code = main(["verify", "--suite", "jack_eigen", *SMALL_ARGV])
    finally:
        monkeypatch.undo()
        clear_caches()
    assert not report.passed and code == 1
    assert {failure["params"]["beta"] for failure in report.failures} == {1}
    assert capsys.readouterr().out.startswith("jack_eigen: FAIL")
    monkeypatch.setattr(families, "_sutherland_energy", lambda mu, beta: 0)
    try:
        with pytest.raises(SpectrumCollisionError, match=r"\(1, 1\)"):
            families.jack((2, 0), FamilySpec("jack", 2, 1))
    finally:
        monkeypatch.undo()
        clear_caches()


MOMENT_PLANTS = {
    # beta + 1 in the divided-difference coefficient q beta
    "divided_difference": lambda terms: lambda c, beta, step, p, q: terms(c, beta + 1, step, p, q),
    # p + 1 in the Laguerre diagonal factor (c_j - 1) q + p
    "laguerre_diagonal": lambda terms: lambda c, beta, step, p, q: terms(
        c, beta, step, p + 1 if step == 1 else p, q),
}


@pytest.mark.parametrize("plant", sorted(MOMENT_PLANTS))
def test_planted_moment_recurrence_fails_norms_all(plant, monkeypatch, capsys):
    """norms_all compares the pairings, whose moments come from the
    recurrence of ``pairings._moment_terms``, with the closed-form norms, so
    a wrong recurrence coefficient fails it and verify exits 1."""
    from heckepoly.cli import main

    clear_caches()
    monkeypatch.setattr(pairings, "_moment_terms", MOMENT_PLANTS[plant](pairings._moment_terms))
    try:
        report = run_suite("norms_all", SMALL)
        code = main(["verify", "--suite", "norms_all", *SMALL_ARGV])
    finally:
        monkeypatch.undo()
        clear_caches()
    families_failed = {failure["params"]["family"] for failure in report.failures}
    assert families_failed == ({"hermite", "laguerre"} if plant == "divided_difference"
                               else {"laguerre"})
    assert code == 1
    assert capsys.readouterr().out.startswith("norms_all: FAIL")


def _inverted_read_back(kernel):
    """``pairings._kernel`` as the Gram route of ``families`` reads it,
    every denominator inverted, so the read-back ratio den(|nu| + |lam|) /
    den(2|lam|) is inverted too."""

    def planted(spec):
        value = kernel(spec)
        return value._replace(denominator=lambda d: Fraction(1, value.denominator(d)))

    return planted


def test_inverted_gram_read_back_fails_sigma_jack(monkeypatch, capsys):
    """The Gram route reads its rows back through the ratio den(|nu| +
    |lam|) / den(2|lam|); inverted, both *_is_sigma_jack suites fail and
    verify exits 1.  At gamma = 1/2 the Laguerre denominator q^(d+D) is
    1, so there the ratio is 1 and the plant changes nothing: the Laguerre
    suite needs another gamma to see it."""
    from heckepoly.cli import main

    third = SMALL.replace(gammas=(Fraction(1, 3),))
    argv = [*SMALL_ARGV[:4], "--gamma-list", "1/3", *SMALL_ARGV[6:]]
    clear_caches()
    monkeypatch.setattr(families, "_kernel", _inverted_read_back(families._kernel))
    try:
        hermite = run_suite("hermite_is_sigma_jack", SMALL)
        at_half = run_suite("laguerre_is_sigma_jack", SMALL)
        laguerre = run_suite("laguerre_is_sigma_jack", third)
        codes = [main(["verify", "--suite", f"{family}_is_sigma_jack", *args])
                 for family, args in (("hermite", SMALL_ARGV), ("laguerre", argv))]
    finally:
        monkeypatch.undo()
        clear_caches()
    assert not hermite.passed and not laguerre.passed and at_half.passed
    assert {failure["params"]["beta"] for failure in laguerre.failures} == {0, 1}
    assert codes == [1, 1]
    out = capsys.readouterr().out
    assert "hermite_is_sigma_jack: FAIL" in out and "laguerre_is_sigma_jack: FAIL" in out


def _d1_at_beta_plus_1(laplacian):
    """Delta_A / 4 with D_1 built at beta + 1; Delta_B untouched."""

    def planted(n, j, beta, gamma):
        if gamma is not None:
            return laplacian(n, j, beta, gamma)
        dunkls = [ops._dunkl(n, k, beta + (k == 1)) for k in range(1, n + 1)]
        return Fraction(1, 4) * sum((d * d for d in dunkls), ops.scalar(n, 0))

    return planted


def _d1_added_to_delta_b(laplacian):
    """Delta_B / 4 + D_1; Delta_A untouched."""

    def planted(n, j, beta, gamma):
        op = laplacian(n, j, beta, gamma)
        return op if gamma is None else op + ops._dunkl(n, 1, beta)

    return planted


# family -> (families builder of its Delta/4, plant in the Laplacian of
# sigma = exp(-Delta/4), failing SMALL cases per suite)
LAPLACIAN_PLANTS = {
    "hermite": ("_hermite_laplacian", _d1_at_beta_plus_1, {
        "intertwine_A": 23, "hermite_is_sigma_jack": 22, "dunkl_pairing_prop": 2}),
    "laguerre": ("_laguerre_laplacian", _d1_added_to_delta_b, {
        "intertwine_B": 7, "laguerre_is_sigma_jack": 22}),
}


@pytest.mark.parametrize("family", sorted(LAPLACIAN_PLANTS))
def test_a_laplacian_plant_fails_the_sigma_suites(family, monkeypatch):
    """A defect in the Delta of sigma = exp(-Delta/4) fails every suite of
    the family that applies sigma, on SMALL."""
    attr, wrap, failing = LAPLACIAN_PLANTS[family]
    monkeypatch.setattr(families, attr, wrap(getattr(families, attr)))
    clear_caches()
    try:
        reports = run_all(SMALL, list(failing))
    finally:
        monkeypatch.undo()
        clear_caches()
    assert {report.suite: len(report.failures) for report in reports} == failing


# family -> (realization class, planted ladder letter V_j of a spec)
LETTER_PLANTS = {
    "hermite": (families._Hermite, lambda coordinate: lambda self, j: (
        coordinate(self, j) + Fraction(1, 4) * ops.dunkl(j, self.spec))),
    "laguerre": (families._Laguerre, lambda coordinate: lambda self, j: (
        coordinate(self, j) + ops.dunkl(j, FamilySpec("jack", self.spec.n, self.spec.beta)))),
}


@pytest.mark.parametrize("family", sorted(LETTER_PLANTS))
def test_a_ladder_letter_plant_fails_the_composition_cases(family, monkeypatch):
    """V_j + D_j/4 (Hermite) or V_j + D_j (Laguerre) moves the recursion's
    affine step but not sigma = exp(-Delta/4), so the composition cases
    of the family's sigma suite fail and its Gram = sigma(J_lam) cases,
    which read no V_j, pass."""
    cls, plant = LETTER_PLANTS[family]
    monkeypatch.setattr(cls, "coordinate", plant(cls.coordinate))
    grid = GridSpec(ns=(2, 3), betas=(0, 1, 2), gammas=(Fraction(1, 2),), max_weight=3)
    clear_caches()
    try:
        report = run_suite(f"{family}_is_sigma_jack", grid)
    finally:
        monkeypatch.undo()
        clear_caches()
    assert report.cases_run == 129
    assert len(report.failures) == 64
    assert all("composition" in failure["params"] for failure in report.failures)


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
    "small": (22, 32, 44, 12, 30, 24, 8, 12, 32, 32, 60, 18, 72, 18, 72, 36, 20, 2, 18),
    "default": (132, 378, 246, 60, 273, 1350, 900, 135, 210, 630, 243, 120, 216, 600,
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


@pytest.mark.parametrize("grid", [SMALL, SMALL.replace(degree=1)],
                         ids=["small", "degree_1"])
def test_relation_tables_check_at_the_grid_degree(grid, monkeypatch):
    """Every case of a relation table, appendix_A's antisymmetrizer lemmas
    included, is one ``first_difference`` up to grid.degree: --degree is
    one depth for all."""
    degrees = []
    compare = ops.first_difference

    def recording_compare(op_a, op_b, degree):
        degrees.append(degree)
        return compare(op_a, op_b, degree)

    monkeypatch.setattr(ops, "first_difference", recording_compare)
    for name in RELATION_SUITES:
        degrees.clear()
        report = run_suite(name, grid)
        assert report.passed, (name, report.failures[:3])
        assert len(degrees) == report.cases_run
        assert set(degrees) == {grid.degree}, name


def _plus_on_degree(op, degree):
    """op plus the identity on the monomials of total degree ``degree``: a
    defect that no lower-degree input meets."""

    def push(src, out, c):
        for exps, v in src.items():
            if sum(exps) == degree:
                out[exps] = out.get(exps, 0) + v * c

    return op + ops.Operator(op.nvars, 1, (((1, push),),))


# a defect that only a relation check of the given depth sees: (suite,
# operators attribute, wrapper of the original, grid degree that sees it)
DEEP_PLANTS = {
    # shat_j + 1 on degree-5 monomials, in the rows and in both P_-
    "appendix_A": (
        "deformed_transposition",
        lambda shat: lambda nvars, j, beta: _plus_on_degree(shat(nvars, j, beta), 5), 5),
    # the type-B Dhat_j + 1 on z-degree 12, that is u-degree 6 after the stretch
    "res_B": (
        "cherednik",
        lambda cherednik: lambda j, spec: _plus_on_degree(cherednik(j, spec), 12)
        if spec.gamma is not None else cherednik(j, spec), 6),
}


@pytest.mark.parametrize("name", sorted(DEEP_PLANTS))
def test_relation_tables_reach_the_grid_degree(name, monkeypatch):
    """A defect on one degree fails its relation table on a grid of that
    degree and passes the grid one degree lower."""
    attr, plant, degree = DEEP_PLANTS[name]
    clear_caches()
    monkeypatch.setattr(ops, attr, plant(getattr(ops, attr)))
    try:
        deep = run_suite(name, SMALL.replace(degree=degree))
        shallow = run_suite(name, SMALL.replace(degree=degree - 1))
    finally:
        monkeypatch.undo()
        clear_caches()
    assert shallow.passed
    assert not deep.passed
    assert not any("exception" in failure["params"] for failure in deep.failures)
    relations = [failure["params"] for failure in deep.failures if "monomial" in failure["params"]]
    assert relations and all(sum(p["monomial"]) == degree for p in relations)


def _flipped_antisymmetrizer(nvars, beta=0):
    """operators.antisymmetrizer with the coset step 1 + shat B in place of
    1 - shat B: the signs of the coset representatives lost."""
    one = ops.identity(nvars)
    total = coset = one
    for k in range(2, nvars + 1):
        coset = one + ops.deformed_transposition(nvars, k - 1, beta) * coset
        total = total * coset
    return Fraction(1, math.factorial(nvars)) * total


def test_flipped_coset_sign_fails_appendix_a(monkeypatch):
    """A sign slip in P_-'s own coset product fails appendix_A: its
    annihilation rows and the antisymmetrizer lemmas."""
    clear_caches()
    monkeypatch.setattr(ops, "antisymmetrizer", _flipped_antisymmetrizer)
    try:
        report = run_suite("appendix_A", SMALL)
    finally:
        monkeypatch.undo()
        clear_caches()
    assert report.cases_run == SMALL_COUNTS["appendix_A"]
    assert report.cases_run - report.cases_passed == 12
    assert not any("exception" in failure["params"] for failure in report.failures)


def _bare_orbit_sum(nvars):
    """operators.orbit_sum keeping x^lam alone: the rest of m_lam lost."""

    def push(src, out, c):
        for exps, v in src.items():
            if list(exps) == sorted(exps, reverse=True):
                out[exps] = out.get(exps, 0) + v * c

    return ops.Operator(nvars, 1, (((1, push),),))


def _negated_laguerre_y_plus(y_product):
    """Y(+) with the opposite sign in the Laguerre realization only."""
    return lambda spec, sign: (-1 if spec.gamma is not None and sign == 1 else 1) * y_product(
        spec, sign)


LEMMAS = ("deformed P- annihilates (Y'-Yhat') f",
          *(f"P- annihilates (Y-Yhat) f, {model} model"
            for model in ("Cherednik", "Hermite", "Laguerre")))

# a planted defect in appendix_A's rows on symmetric inputs: (module,
# attribute, wrapper of the original, the relations of its failing cases)
SYMMETRIC_ROW_PLANTS = {
    "orbit_sum keeps x^lam alone": (ops, "orbit_sum", lambda orbit_sum: _bare_orbit_sum, LEMMAS),
    "Y(+) sign in the Laguerre model": (verify, "_y_product", _negated_laguerre_y_plus, LEMMAS[3:]),
}


@pytest.mark.parametrize("plant", sorted(SYMMETRIC_ROW_PLANTS))
def test_lemma_rows_fail_on_a_partition(plant, monkeypatch):
    """A defect in the symmetric inputs or in one realization's Y(+) fails
    the antisymmetrizer lemma rows it reaches, each with its first m_lam:
    a "monomial" witness that is a partition."""
    module, attr, wrap, relations = SYMMETRIC_ROW_PLANTS[plant]
    clear_caches()
    monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    try:
        report = run_suite("appendix_A", SMALL)
    finally:
        monkeypatch.undo()
        clear_caches()
    assert report.cases_run == SMALL_COUNTS["appendix_A"]
    failed = [failure["params"] for failure in report.failures]
    assert {params["relation"] for params in failed} == set(relations)
    for params in failed:
        lam = params["monomial"]
        assert lam == sorted(lam, reverse=True), params


def _x1_dj_in_hermite_c(cherednik):
    """C_j + x_1 d_j in ``_Hermite.cherednik``."""

    def planted(self, j):
        n = self.spec.n
        return cherednik(self, j) + ops.multiply_by(Polynomial.variable(n, 1)) * ops.derivative(n, j)

    return planted


@pytest.mark.parametrize("n, degree, cases, failing", [
    (2, 5, 30, set()),
    (3, 3, 42, {(1, "P- annihilates (Y-Yhat) f, Hermite model", (3, 0, 0)),
            (2, "P- annihilates (Y-Yhat) f, Hermite model", (3, 0, 0))}),
])
def test_lemma_rows_see_a_hermite_c_defect_only_from_n_3(n, degree, cases, failing, monkeypatch):
    """At N = 2, Y(+) - Y(-) = 2 beta whatever C_j is, so a defect in a
    realization's C_j passes every appendix_A row; at N = 3 it fails the
    Hermite lemma row at beta >= 1 on m_(3)."""
    monkeypatch.setattr(families._Hermite, "cherednik",
                        _x1_dj_in_hermite_c(families._Hermite.cherednik))
    clear_caches()
    try:
        report = run_suite("appendix_A", GridSpec(ns=(n,), degree=degree))
    finally:
        monkeypatch.undo()
        clear_caches()
    assert report.cases_run == cases
    assert {(f["params"]["beta"], f["params"]["relation"], tuple(f["params"]["monomial"]))
            for f in report.failures} == failing


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


@pytest.mark.parametrize("plant", sorted(SHIFT_PLANTS))
def test_shift_plants_fail_after_a_warm_run(plant, monkeypatch):
    """clear_caches drops the stored orbit images of an unplanted run, so a
    defect planted after it reaches shift_all."""
    clear_caches()
    assert run_suite("shift_all", SMALL).passed
    clear_caches()
    monkeypatch.setattr(shift, "_y_product", SHIFT_PLANTS[plant](shift._y_product))
    try:
        report = run_suite("shift_all", SMALL)
    finally:
        monkeypatch.undo()
        clear_caches()
    assert report.failures and not report.passed


class _DoubledImage(dict):
    """The orbit-image memo of ``families``, storing the m_nu coefficients
    of the image of m_(1,0) doubled."""

    def __setitem__(self, slot, image):
        if slot[-1] == (1, 0):
            image = {nu: 2 * c for nu, c in image.items()}
        super().__setitem__(slot, image)


# suite -> the exception names of its failures, None where a case compares
# unequal values: the doubled image of m_(1,0) is read from its first use,
# so calibrate, the first shift of each spec, fails in shift_all
DOUBLED_IMAGE_VERDICTS = {
    "shift_all": {"CalibrationError"},
    "raising_all": {"NotProportionalError"},
    "duality_all": {None},
    "rodrigues_all": {"HeckePolyError"},  # leading coefficient of m_lam not 1
    "jack_eigen": {None},
    "hermite_is_sigma_jack": {"HeckePolyError"},
    "laguerre_is_sigma_jack": {"HeckePolyError"},
}


@pytest.mark.parametrize("name", sorted(DOUBLED_IMAGE_VERDICTS))
def test_doubled_orbit_image_fails_its_suites(name, monkeypatch):
    """Every suite that applies R_m, G, Ghat, e_k(Dhat) or sigma reads the
    stored m_mu images: one image stored doubled fails it."""
    clear_caches()
    monkeypatch.setattr(families, "_ORBIT_IMAGES", _DoubledImage())
    try:
        report = run_suite(name, SMALL)
    finally:
        monkeypatch.undo()
        clear_caches()
    assert report.failures and not report.passed
    verdicts = {failure["params"].get("exception") for failure in report.failures}
    assert verdicts == DOUBLED_IMAGE_VERDICTS[name]


def test_non_symmetric_raising_image_fails_raising_all(monkeypatch):
    """Each stored image is read by orbit, which checks it symmetric: with
    R_m + x_1 every raising_all case fails, and the orbit reading names it
    in every family."""
    from heckepoly import raising

    original = raising.raising_operator

    def planted(m, spec):
        return original(m, spec) + ops.multiply_by(Polynomial.variable(spec.n, 1))

    clear_caches()
    monkeypatch.setattr(raising, "raising_operator", planted)
    try:
        report = run_suite("raising_all", SMALL)
    finally:
        monkeypatch.undo()
        clear_caches()
    assert report.cases_run == SMALL_COUNTS["raising_all"] and report.cases_passed == 0
    assert {failure["params"]["family"] for failure in report.failures} == set(FAMILIES)
    for failure in report.failures:
        params = failure["params"]
        assert params["exception"] == "NotProportionalError"
        assert params["message"].startswith("not symmetric: ")


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
    """With Dhat_N + 1 and a constant Sutherland eigenvalue planted (the
    triangular Jack route reads no Cherednik operator), many cases raise;
    each fails alone, carrying its params and the exception, and every
    suite still reports."""
    from heckepoly.cli import main

    attr, plant = PLANTED["daha_relations"]
    clear_caches()
    monkeypatch.setattr(ops, attr, plant(getattr(ops, attr)))
    monkeypatch.setattr(families, "_sutherland_energy", lambda mu, beta: 0)
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
