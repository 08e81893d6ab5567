"""Acceptance gate: one test per criterion, exact tolerances, desk scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import hashlib
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

from heckepoly.pairings import ct_pairing, gauss_pairing, laguerre_pairing, norm_formula
from heckepoly.parameters import hermite_spec, jack_spec, laguerre_spec
from heckepoly.polynomials import Polynomial
from heckepoly.verify import GridSpec, reports_to_json, run_suite

FULL = GridSpec(ns=(2, 3), betas=(0, 1, 2), max_weight=4, degree=5, seed=1,
                pairs=20, rand_polys=50)


# sha256 of reports_to_json over each criterion's reports on FULL: a change
# that alters any byte of them has to update the digest, and say why
FULL_SHA256 = {
    2: "cb86aabb7206711036cc6364f971d7b1915d780adcb9893a2abaff606f79fa55",
    3: "7299ffb9c2e2ddb4b96e8e8414e55268ed55ad39a7984d67b4b9fdc25b9ba1e5",
    4: "f1a42b29230ec17a1bdb3e0cde9bb186069e84bb979b15a52e77afa006fdb536",
    5: "4ef574100cb2e9c0b81553d7f180f8f255e5b6a3f8d127bb5efe39424c055dd7",
    6: "8348dc8018b3661eff27896fa3c33b5a74ba43c0f0d84a28ad42f60769992bcf",
}


def _assert_pinned(criterion, *reports):
    digest = hashlib.sha256(reports_to_json(list(reports)).encode()).hexdigest()
    assert digest == FULL_SHA256[criterion], f"criterion {criterion} report changed"


def _report(criterion, name, passed):
    line = f"ACCEPTANCE {criterion} {name}: {'PASS' if passed else 'FAIL'}"
    print(line)
    assert passed, line


def test_criterion_1_daha_relations():
    grid = GridSpec(ns=(2, 3, 4), betas=(0, 1, 2), degree=5)
    start = time.time()
    report = run_suite("daha_relations", grid)
    elapsed = time.time() - start
    _report(1, "dDAHA relations (N<=4, beta<=2, degree 5, exact)",
            report.passed and elapsed < 60)


def test_criterion_2_eigen_structure():
    nonsym = run_suite("nonsym_eigen", FULL)
    sym = run_suite("jack_eigen", FULL)
    _assert_pinned(2, nonsym, sym)
    _report(2, "eigen-structure (joint spectra, generating-parameter "
               "coefficients)", nonsym.passed and sym.passed)


def test_criterion_3_intertwiners():
    a = run_suite("intertwine_A", FULL)
    b = run_suite("intertwine_B", FULL)
    h = run_suite("hermite_is_sigma_jack", FULL)
    lag = run_suite("laguerre_is_sigma_jack", FULL)
    _assert_pinned(3, a, b, h, lag)
    assert a.cases_run >= 50 * len(FULL.ns) * len(FULL.betas)
    _report(3, "intertwiners (50 seeded polynomials per configuration; "
               "Hermite/Laguerre are intertwiner images)",
            a.passed and b.passed and h.passed and lag.passed)


def test_criterion_4_raising_rodrigues():
    raising = run_suite("raising_all", FULL)
    chain = run_suite("rodrigues_all", FULL)
    _assert_pinned(4, raising, chain)
    _report(4, "raising constants and Rodrigues = direct construction",
            raising.passed and chain.passed)


def test_criterion_5_shift_duality():
    duality = run_suite("duality_all", FULL)
    shifts = run_suite("shift_all", FULL)
    _assert_pinned(5, duality, shifts)
    calibration_emitted = bool(shifts.calibration) and all(
        entry["assignment"] == "swapped"
        and entry["global_sign"] == (-1) ** (entry["witness_N"] * (entry["witness_N"] - 1) // 2)
        for entry in shifts.calibration.values()
    )
    _report(5, "duality (20 seeded pairs per configuration) and calibrated "
               "shift relations with closed-form constants",
            duality.passed and shifts.passed and calibration_emitted)


def test_criterion_6_norms():
    start = time.time()
    norms = run_suite("norms_all", FULL)
    equivalence = run_suite("norm_equiv_appB", FULL)
    elapsed = time.time() - start
    _assert_pinned(6, norms, equivalence)

    anchors = True
    for n in (2, 3):
        for beta in (1, 2):
            spec = jack_spec(n, beta)
            one = Polynomial.one(n)
            expected = Fraction(math.factorial(beta * n), math.factorial(beta) ** n)
            anchors &= ct_pairing(one, one, spec) == expected
    herm = hermite_spec(2, 1)
    value = gauss_pairing(Polynomial.one(2), Polynomial.one(2), herm)
    anchors &= value.q == 1 and value.pi_half == 2  # exactly pi
    for gamma in (Fraction(0), Fraction(1, 3), Fraction(1, 2)):
        lag = laguerre_spec(2, 1, gamma)
        lval = laguerre_pairing(Polynomial.one(2), Polynomial.one(2), lag)
        anchors &= lval.gamma_base == 2
        anchors &= lval == norm_formula((0, 0), lag, "product_form")

    _report(6, "norms: pairings equal both closed forms; product = hook "
               "across the grid; anchor values exact",
            norms.passed and equivalence.passed and anchors and elapsed < 300)


def test_criterion_7_appendix_a():
    report = run_suite("appendix_A", GridSpec(ns=(2, 3), betas=(0, 1, 2),
                                              max_weight=4, degree=4))
    _report(7, "deformed transpositions, reduced-word independence, "
               "antisymmetrizer annihilation (degree 4, N<=3)", report.passed)


CRITERION_8_ARGS = [
    sys.executable, "-m", "heckepoly.cli", "verify", "--all",
    "--n-list", "2", "--beta-list", "0,1", "--gamma-list", "1/2",
    "--max-weight", "2", "--degree", "3", "--pairs", "3",
    "--rand-polys", "5", "--seed", "20240811", "--format", "json",
]

# sha256 of the criterion-8 report: a change that alters any byte of the
# report has to update it, and say why
CRITERION_8_SHA256 = "9b63715947d474f8e9dec490699d900389f011ab665d3f368e0bed2877b67e7c"


def test_criterion_8_determinism():
    first = subprocess.run(CRITERION_8_ARGS, capture_output=True)
    second = subprocess.run(CRITERION_8_ARGS, capture_output=True)
    payload = json.loads(first.stdout)
    _report(8, "verify --all is byte-deterministic for a fixed seed",
            first.returncode == 0
            and second.returncode == 0
            and first.stdout == second.stdout
            and payload["all_passed"] is True
            and len(payload["reports"]) == 19)


def test_criterion_8_report_is_pinned():
    run = subprocess.run(CRITERION_8_ARGS, capture_output=True)
    assert run.returncode == 0
    assert hashlib.sha256(run.stdout).hexdigest() == CRITERION_8_SHA256
