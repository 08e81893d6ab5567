"""Named verification suites: every identity as an exact pass/fail case.

Each suite walks a (N, beta, gamma, degree) grid and checks its identity
case by case, in exact arithmetic.  Random inputs come from a counter-free
seeded generator (crc32 of the case tag mixed with the grid seed), so
reports are byte-reproducible.

A suite is a generator of cases.  Called with the grid, it yields one
``(params, thunk)`` pair per case and may return a calibration dict.
The generator only draws the random inputs and builds operators; its
thunks do everything else, every construction, intertwiner image,
pairing, raising or shift, also where cases share it: the family
polynomials come from the construction cache of ``families``, and a
value several cases need is a cached thunk computed by whichever of them
runs first.  A thunk returns True, False or a ``Failure``: the rendered
witnesses and any params its check found, such as the first monomial on
which two operators differ.  It runs before its generator resumes, so it
may close over the loop variables.  A new suite is one generator, named
in ``SUITES``; the tests measure which public operations the suites
call.

``_run_cases`` alone records cases.  A thunk that raises fails its case,
whose params gain the exception type and message, and the suite goes on.
A generator that raises ends its suite with one failing case carrying
only the exception.  Either way the cases already run are kept, and the
suites after it still run.

The operator-identity suites (daha_relations, dunkl_commute, res_B,
appendix_A) are relation tables.  A table is a generator per context, say
(N, beta), that builds the context's operators once and then yields one
row (relation label, lhs operator, rhs operator) per identity and index.
``_relation_cases`` makes each row a case, checked on every monomial up
to the grid degree (u-degree 6 for res_B) by ``operators.first_difference``,
in integers, with polynomials built only for the witnesses of a failure.
A new identity is a new ``yield`` in its table.

Suite names:
  daha_relations     defining relations of the degenerate affine Hecke
                     algebra presentation (coordinates, Cherednik
                     operators, transpositions)
  dunkl_commute      commutation/reflection relations of the A- and B-type
                     Dunkl operators
  nonsym_eigen       joint spectra of the non-symmetric Jack family and of
                     its Hermite/Laguerre intertwiner images
  jack_eigen         symmetric-family eigenvalues, coefficient-wise in the
                     generating parameter
  jack_orth          pairwise orthogonality under the constant-term pairing
  intertwine_A       sigma_A(Q f) = rho_A(Q) sigma_A(f) on random inputs
  intertwine_B       the squared-variable analogue
  res_B              even-sector restriction: the B-type Cherednik operator
                     acts as twice the A-type one in u = z^2
  hermite_is_sigma_jack, laguerre_is_sigma_jack
                     Gram construction equals the intertwiner image
  raising_all        raising operators hit the predicted label and constant
  rodrigues_all      Rodrigues chain equals the direct construction
  shift_all          shift relations with sign (-1)^(N(N-1)/2) and the
                     closed-form constants (emits the calibration report)
  duality_all        <G f, g>^(beta+1) = <f, Ghat g>^(beta) on random pairs
                     (degree by degree for the graded Jack pairing)
  norms_all          pairing-computed norms equal both closed forms
  norm_equiv_appB    product form == hook form across the grid
  appendix_A         deformed transposition identities and annihilation
                     properties of the (deformed) antisymmetrizer
  dunkl_pairing_prop resolves the operator-pairing proportionality
                     empirically and records the verdict
  sutherland_form    expanded second-order form of the symmetric-restricted
                     trigonometric Hamiltonian
"""

from __future__ import annotations

import itertools
import json
import math
import random
import zlib
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cache, partial
from operator import methodcaller
from typing import NamedTuple

from . import operators as ops
from .combinatorics import (
    longest_element,
    monomial_symmetric,
    partitions_up_to,
    random_polynomial,
    random_symmetric_polynomial,
    reduced_word,
    sign,
    staircase,
)
from .families import (
    NonSymLabel,
    _elementary_images,
    _elementary_symmetric,
    composition_spectrum,
    construct,
    jack,
    realization,
    sigma_a,
    sigma_b,
)
from .pairings import (
    ct_pairing,
    dunkl_pairing,
    gauss_pairing,
    norm_formula,
)
from .parameters import FAMILIES, FamilySpec, HERMITE, JACK, LAGUERRE
from .polynomials import Polynomial, _canonical, monomials_up_to_degree
from .raising import raising_apply, raising_constant, rodrigues
from .shift import (
    antisymmetrizer_lemma_check,
    calibrate,
    duality_check,
    norm_recursion_check,
    shift_apply,
)

DEFAULT_GAMMAS = (Fraction(0), Fraction(1, 3), Fraction(1, 2))


@dataclass(frozen=True)
class GridSpec:
    """Verification grid; the enforced bounds keep runs at desk scale."""

    ns: tuple[int, ...] = (2, 3)
    betas: tuple[int, ...] = (0, 1, 2)
    gammas: tuple[Fraction, ...] = DEFAULT_GAMMAS
    max_weight: int = 4
    degree: int = 5
    seed: int = 1
    pairs: int = 20
    rand_polys: int = 50

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(Fraction(_canonical(g)) for g in self.gammas))
        counts = (self.max_weight, self.degree, self.seed, self.pairs, self.rand_polys)
        if any(type(v) is not int for v in (*self.ns, *self.betas, *counts)):
            raise ValueError("grid values other than gamma must be integers")
        out_of_bounds = (
            not (self.ns and self.betas and self.gammas)
            or not all(2 <= n <= 4 for n in self.ns)
            or not 1 <= self.max_weight <= 6
            or not 1 <= self.degree <= 6
            or not all(0 <= beta <= 3 for beta in self.betas)
            or not all(gamma > Fraction(-1, 2) for gamma in self.gammas)
        )
        if out_of_bounds:
            raise ValueError(
                "grid out of bounds: non-empty lists with 2 <= N <= 4, 0 <= beta <= 3, "
                "gamma > -1/2; 1 <= max_weight <= 6, 1 <= degree <= 6"
            )
        if self.pairs < 1 or self.rand_polys < 1:
            raise ValueError("grid counts must be positive: pairs >= 1, rand_polys >= 1")

    def to_json_dict(self) -> dict:
        return asdict(self) | {"gammas": [str(g) for g in self.gammas]}


@dataclass
class SuiteReport:
    suite: str
    grid: dict
    cases_run: int = 0
    cases_passed: int = 0
    failures: list = field(default_factory=list)
    calibration: dict | None = None

    def record(self, params: dict, ok: bool, lhs: str = "", rhs: str = "") -> None:
        self.cases_run += 1
        if ok:
            self.cases_passed += 1
        else:
            self.failures.append({"params": params, "lhs": lhs, "rhs": rhs})

    @property
    def passed(self) -> bool:
        """True when at least one case ran and every case passed."""
        return self.cases_run > 0 and self.cases_passed == self.cases_run

    def to_json_dict(self) -> dict:
        return asdict(self)


class Failure(NamedTuple):
    """A failing case: the rendered witnesses and the params its check found."""

    lhs: str
    rhs: str
    found: dict | None = None


def _same(lhs, rhs, render=str):
    """lhs == rhs as a case outcome, rendering the witnesses only on failure."""
    return lhs == rhs or Failure(render(lhs), render(rhs))


def _exception_params(exc: Exception) -> dict:
    return {"exception": type(exc).__name__, "message": str(exc)}


def _run_cases(name: str, cases, grid: GridSpec) -> SuiteReport:
    """Run suite ``name``, the case generator ``cases``, on the grid."""
    report = SuiteReport(name, grid.to_json_dict())
    stream = cases(grid)
    while True:
        try:
            params, thunk = next(stream)
        except StopIteration as stop:
            report.calibration = stop.value
            return report
        except Exception as exc:  # between cases: the suite ends here
            report.record(_exception_params(exc), False)
            return report
        try:
            outcome = thunk()
        except Exception as exc:
            outcome = Failure("", "", _exception_params(exc))
        if isinstance(outcome, Failure):
            report.record({**params, **(outcome.found or {})}, False, outcome.lhs, outcome.rhs)
        else:
            report.record(params, outcome)


_pretty = methodcaller("pretty")
_render = methodcaller("render")


def _rng(grid: GridSpec, *tag) -> random.Random:
    digest = zlib.crc32("|".join(str(t) for t in tag).encode())
    return random.Random(grid.seed * 2654435761 + digest)


def _relation_cases(params, rows, degree):
    """One case per row (relation, lhs, rhs) of a relation table: the two
    operators agree on every monomial up to ``degree``, and a failure
    carries the first monomial on which they differ.  ``rows`` is a
    generator, so each row's operators are built just before its case."""
    for relation, op_a, op_b in rows:
        def case():
            found = ops.first_difference(op_a, op_b, degree)
            if found is None:
                return True
            exps, lhs, rhs = found
            return Failure(lhs.pretty(), rhs.pretty(), {"monomial": list(exps)})

        yield dict(params, relation=relation), case


def _family_specs(n: int, beta: int, grid: GridSpec) -> list[FamilySpec]:
    """One spec per family; Laguerre at the last gamma of the grid."""
    return [FamilySpec(f, n, beta, grid.gammas[-1] if f == LAGUERRE else None) for f in FAMILIES]


def _grid_specs(n: int, beta: int, grid: GridSpec, families=FAMILIES) -> list[FamilySpec]:
    """One spec per family of families, Laguerre at every gamma of the grid."""
    return [
        FamilySpec(family, n, beta, gamma)
        for family in families
        for gamma in (grid.gammas if family == LAGUERRE else (None,))
    ]


def _spec_params(spec: FamilySpec) -> dict:
    """n, beta and, for a Laguerre spec, gamma: the case parameters."""
    params = {"n": spec.n, "beta": spec.beta}
    if spec.gamma is not None:
        params["gamma"] = str(spec.gamma)
    return params


def _label_params(spec: FamilySpec, lam, **extra) -> dict:
    """family, n, beta and lambda, then extra: the case parameters."""
    return {"family": spec.family, "n": spec.n, "beta": spec.beta, "lambda": list(lam)} | extra


# ---------------------------------------------------------------------------
# suites


def _generators(n: int):
    """The coordinate operators x_j and the transpositions s_ij (i != j)."""
    idx = range(1, n + 1)
    x = {j: ops.multiply_by(Polynomial.variable(n, j)) for j in idx}
    s = {(i, j): ops.exchange(n, i, j) for i, j in itertools.permutations(idx, 2)}
    return x, s


def _daha_rows(n: int, beta: int):
    """The relations among x_j, Dhat_j and s_j = s_{j,j+1}."""
    idx = range(1, n + 1)
    spec = FamilySpec(JACK, n, beta)
    dhat = {j: ops.cherednik(j, spec) for j in idx}
    x, s = _generators(n)
    zero, beta_op = ops.scalar(n, 0), ops.scalar(n, beta)
    for i, j in itertools.combinations(idx, 2):
        yield f"[Dhat_{i},Dhat_{j}]=0", ops.commutator(dhat[i], dhat[j]), zero
        yield f"[x_{i},x_{j}]=0", ops.commutator(x[i], x[j]), zero
    for j in range(1, n):
        yield f"s_{j}^2=1", s[j, j + 1] * s[j, j + 1], ops.identity(n)
    for j in range(1, n - 1):
        a, b = s[j, j + 1], s[j + 1, j + 2]
        yield f"braid s_{j} s_{j+1}", a * b * a, b * a * b
    for i, j in itertools.combinations(range(1, n), 2):
        if j - i >= 2:
            yield f"[s_{i},s_{j}]=0", ops.commutator(s[i, i + 1], s[j, j + 1]), zero
    for i, j in itertools.permutations(idx, 2):
        yield f"x_{i} s_{i}{j} = s_{i}{j} x_{j}", x[i] * s[i, j], s[i, j] * x[j]
    for j, k in itertools.combinations(idx, 2):
        for i in idx:
            if i not in (j, k):
                yield f"x_{i} s_{j}{k} = s_{j}{k} x_{i}", x[i] * s[j, k], s[j, k] * x[i]
    for j in range(1, n):
        sj = s[j, j + 1]
        yield (f"Dhat_{j+1} s_{j} - s_{j} Dhat_{j} = beta",
               dhat[j + 1] * sj - sj * dhat[j], beta_op)
        yield (f"s_{j} Dhat_{j+1} - Dhat_{j} s_{j} = beta",
               sj * dhat[j + 1] - dhat[j] * sj, beta_op)
    for i in range(1, n):
        for j in idx:
            if j not in (i, i + 1):
                yield f"[s_{i},Dhat_{j}]=0", ops.commutator(s[i, i + 1], dhat[j]), zero
    for i, j in itertools.product(idx, repeat=2):
        lhs = ops.commutator(dhat[i], x[j])
        if i == j:
            rhs = sum((beta * (x[min(i, k)] * s[i, k]) for k in idx if k != i), x[i])
        else:
            rhs = (-beta) * (x[min(i, j)] * s[i, j])
        yield f"[Dhat_{i},x_{j}] case split", lhs, rhs


def _daha_relations(grid: GridSpec):
    for n, beta in itertools.product(grid.ns, grid.betas):
        yield from _relation_cases({"n": n, "beta": beta}, _daha_rows(n, beta), grid.degree)


def _dunkl_rows(spec: FamilySpec):
    """Commutation, reflection and [D_i, x_j] relations of the Dunkl
    operators: type A for a Jack spec, type B (z_j, with the sign flips
    t_j and their terms) for a Laguerre one."""
    n, beta, gamma = spec.n, spec.beta, spec.gamma
    type_b = gamma is not None
    idx = range(1, n + 1)
    dunkl = {j: ops.dunkl(j, spec) for j in idx}
    x, s = _generators(n)
    t = {j: ops.sign_flip(n, j) for j in idx} if type_b else {}
    zero = ops.scalar(n, 0)

    def swap(i, k, sign):
        """s_ik, plus sign * t_i t_k s_ik in type B."""
        return s[i, k] + sign * (t[i] * t[k] * s[i, k]) if type_b else s[i, k]

    for i, j in itertools.combinations(idx, 2):
        yield f"[D_{i},D_{j}]=0", ops.commutator(dunkl[i], dunkl[j]), zero
        yield f"s D_{j} = D_{i} s", s[i, j] * dunkl[j], dunkl[i] * s[i, j]
        if not type_b:
            for k in idx:
                if k not in (i, j):
                    yield (f"s_{i}{j} D_{k} commute",
                           s[i, j] * dunkl[k], dunkl[k] * s[i, j])
    if type_b:
        for j in idx:
            yield (f"t_{j} D_{j} = -D_{j} t_{j}",
                   t[j] * dunkl[j], (-1) * (dunkl[j] * t[j]))
            for k in idx:
                if k != j:
                    yield f"t_{j} D_{k} commute", t[j] * dunkl[k], dunkl[k] * t[j]
    letter = "z" if type_b else "x"
    for i, j in itertools.product(idx, repeat=2):
        lhs = ops.commutator(dunkl[i], x[j])
        if i == j:
            rhs = ops.identity(n) + 2 * gamma * t[i] if type_b else ops.identity(n)
            rhs = sum((beta * swap(i, k, 1) for k in idx if k != i), rhs)
        else:
            rhs = (-beta) * swap(i, j, -1)
        yield f"[D_{i},{letter}_{j}]", lhs, rhs


def _dunkl_commute(grid: GridSpec):
    for families in ((JACK,), (LAGUERRE,)):
        for n, beta in itertools.product(grid.ns, grid.betas):
            for spec in _grid_specs(n, beta, grid, families):
                params = dict(_spec_params(spec), type="A" if spec.gamma is None else "B")
                yield from _relation_cases(params, _dunkl_rows(spec), grid.degree)


def _nonsym_eigen(grid: GridSpec):
    for n, beta in itertools.product(grid.ns, grid.betas):
        reals = [realization(spec) for spec in _family_specs(n, beta, grid)]
        chers = [[real.cherednik(j) for j in range(1, n + 1)] for real in reals]
        for comp in monomials_up_to_degree(n, grid.max_weight):
            label = NonSymLabel.from_composition(comp)
            params = {"n": n, "beta": beta, "composition": list(comp)}
            spectrum = composition_spectrum(comp, beta)
            # Jack everywhere, the intertwined spectra on the lighter sub-grid
            for real, c_ops in zip(reals[: 1 if sum(comp) > 2 else None], chers):
                def case():
                    poly = construct(label, real.spec).poly
                    return all(
                        real.apply(c_ops[j], poly) == spectrum[j] * poly for j in range(n)
                    )

                yield dict(params, family=real.spec.family), case


def _jack_eigen(grid: GridSpec):
    for n, beta in itertools.product(grid.ns, grid.betas):
        spec = FamilySpec(JACK, n, beta)
        chers = [ops.cherednik(j, spec) for j in range(1, n + 1)]
        for lam in partitions_up_to(grid.max_weight, n):
            def case():
                j_poly = jack(lam, spec).poly
                values = [lam[i] + beta * (n - 1 - i) for i in range(n)]
                return all(
                    image == _elementary_symmetric(values, k) * j_poly
                    for k, image in enumerate(_elementary_images(j_poly, chers), 1)
                )

            yield {"n": n, "beta": beta, "lambda": list(lam)}, case


def _jack_orth(grid: GridSpec):
    for n, beta in itertools.product(grid.ns, grid.betas):
        spec = FamilySpec(JACK, n, beta)
        labels = list(partitions_up_to(grid.max_weight, n))
        for lam, mu in itertools.combinations(labels, 2):
            params = {"n": n, "beta": beta, "pair": [list(lam), list(mu)]}
            yield params, lambda: _same(
                ct_pairing(jack(lam, spec).poly, jack(mu, spec).poly, spec), 0
            )


def _intertwine(suite: str, families, every_query: bool, grid: GridSpec):
    """sigma(Q f) == rho(Q) sigma(f) on random f, for the grid specs of families
    and Q a Cherednik operator Dhat_j (rho(Q) = C_j of the realization) or a
    transposition s_ij (rho(Q) = s_ij); every query per trial, or one in turn."""
    for n, beta in itertools.product(grid.ns, grid.betas):
        jack_sp = FamilySpec(JACK, n, beta)
        for spec in _grid_specs(n, beta, grid, families):
            real = realization(spec)
            sigma = globals()[real.intertwiner]  # sigma_a or sigma_b, imported above
            tag = (n, beta) if spec.gamma is None else (n, beta, str(spec.gamma))
            rng = _rng(grid, suite, *tag)
            queries = [
                (f"Dhat_{j}", ops.cherednik(j, jack_sp), partial(real.apply, real.cherednik(j)))
                for j in range(1, n + 1)
            ] + [
                (f"s_{i}{j}", ops.exchange(n, i, j), ops.exchange(n, i, j))
                for i, j in itertools.combinations(range(1, n + 1), 2)
            ]
            for trial in range(grid.rand_polys):
                f = random_polynomial(n, 3, rng)

                @cache  # once, in whichever case runs first
                def image():
                    return sigma(f, spec)

                chosen = queries if every_query else [queries[trial % len(queries)]]
                for name, q_op, rho_q in chosen:
                    params = dict(_spec_params(spec), trial=trial, Q=name)
                    yield params, lambda: _same(sigma(q_op(f), spec), rho_q(image()), _pretty)


def _res_b_rows(lag_sp: FamilySpec):
    """The B-type Cherednik operator on even z-polynomials is twice the
    A-type one in u = z^2: C_j^B S = S (2 Dhat_j), S the stretch u -> z^2.
    The right side is even, so an odd image fails its row."""
    n, beta = lag_sp.n, lag_sp.beta
    jack_sp, s = FamilySpec(JACK, n, beta), ops.stretch(n, 2)
    for j in range(1, n + 1):
        yield (f"Dhat_{j}^B S = S 2 Dhat_{j}",
               ops.cherednik(j, lag_sp) * s, s * (2 * ops.cherednik(j, jack_sp)))


def _res_b(grid: GridSpec):
    u_degree = 6  # squared-variable degree; cheap because the action is sparse
    for n, beta in itertools.product(grid.ns, grid.betas):
        for lag_sp in _grid_specs(n, beta, grid, (LAGUERRE,)):
            yield from _relation_cases(_spec_params(lag_sp), _res_b_rows(lag_sp), u_degree)


def _gram_is_sigma_jack(families, grid: GridSpec):
    """Gram construction == intertwiner image, for the grid specs of families."""
    for n, beta in itertools.product(grid.ns, grid.betas):
        for spec in _grid_specs(n, beta, grid, families):
            render = methodcaller("pretty", realization(spec).letter)
            for lam in partitions_up_to(grid.max_weight, n):
                yield {**_spec_params(spec), "lambda": list(lam)}, lambda: _same(
                    construct(lam, spec, "gram").poly,
                    construct(lam, spec, "intertwined").poly,
                    render,
                )


def _raising_all(grid: GridSpec):
    max_weight = min(3, grid.max_weight)
    for n, beta in itertools.product(grid.ns, grid.betas):
        for spec in _family_specs(n, beta, grid):
            for lam in partitions_up_to(max_weight, n):
                rows = sum(1 for p in lam if p)
                for m in range(max(rows, 1), n + 1):
                    yield _label_params(spec, lam, m=m), lambda: _same(
                        raising_apply(m, construct(lam, spec))[0],
                        raising_constant(lam, m, spec),
                    )


def _rodrigues_all(grid: GridSpec):
    for n, beta in itertools.product(grid.ns, grid.betas):
        if beta == 0:
            continue  # hook prefactor is singular; construction falls back
        for spec in _family_specs(n, beta, grid):
            for lam in partitions_up_to(grid.max_weight, n):
                yield _label_params(spec, lam), lambda: _same(
                    rodrigues(lam, spec).poly, construct(lam, spec).poly, _pretty
                )


def _shift_all(grid: GridSpec):
    calibrations = {}
    max_weight = min(2, grid.max_weight)
    for n, beta in itertools.product(grid.ns, grid.betas):
        for spec in _family_specs(n, beta, grid):
            key = f"{spec.family},N={n},beta={beta}"
            delta = staircase(n)

            def shifted(direction, label, label_spec):
                calibrations[key] = calibrate(spec.family, n, beta, spec.gamma).to_json_dict()
                shift_apply(direction, construct(label, label_spec))  # checks its relation
                return True

            for lam in partitions_up_to(max_weight, n):
                params = _label_params(spec, lam)
                raised = tuple(p + d for p, d in zip(lam, delta))
                yield dict(params, direction="G"), partial(shifted, "G", raised, spec)
                yield (dict(params, direction="G_hat"),
                       partial(shifted, "G_hat", lam, spec.with_beta(beta + 1)))
                yield (dict(params, relation="norm recursion"),
                       partial(norm_recursion_check, lam, spec))
    return calibrations


def _duality_all(grid: GridSpec):
    """Random symmetric f and g of weight <= 3.  Y(-) f is antisymmetric,
    so G f = 0 while deg f < |delta|: where |delta| > 3 (N >= 4), f also
    gets the terms +-m_{delta+mu}, |mu| <= 2, and G f is nonzero."""
    for n, beta in itertools.product(grid.ns, grid.betas):
        delta = staircase(n)
        tops = [
            monomial_symmetric(n, tuple(d + m for d, m in zip(delta, mu)))
            for mu in partitions_up_to(2, n)
        ] if sum(delta) > 3 else []
        for spec in _grid_specs(n, beta, grid):
            rng = _rng(grid, "duality", spec.family, n, beta, str(spec.gamma))
            for trial in range(grid.pairs):
                f = random_symmetric_polynomial(n, 3, rng)
                g = random_symmetric_polynomial(n, 3, rng)
                for top in tops:
                    f = f + rng.choice((-1, 1)) * top
                params = {"family": spec.family, "n": n, "beta": beta,
                          "gamma": str(spec.gamma), "trial": trial}
                yield params, partial(duality_check, f, g, spec)


def _norms_all(grid: GridSpec):
    for n, beta in itertools.product(grid.ns, grid.betas):
        specs = _grid_specs(n, beta, grid)
        for lam in partitions_up_to(grid.max_weight, n):
            for spec in specs:
                @cache  # once, in whichever case runs first
                def value():
                    poly = construct(lam, spec).poly
                    return realization(spec).pair(poly, poly)

                params = {**_spec_params(spec), "family": spec.family, "lambda": list(lam)}
                for form in ("product_form", "hook_form"):
                    yield dict(params, form=form), lambda: _same(
                        value(), norm_formula(lam, spec, form), _render
                    )


def _norm_equiv_appb(grid: GridSpec):
    for n, beta in itertools.product(grid.ns, grid.betas):
        for spec in _grid_specs(n, beta, grid):
            for lam in partitions_up_to(grid.max_weight, n):
                yield _label_params(spec, lam, gamma=str(spec.gamma)), lambda: _same(
                    norm_formula(lam, spec, "product_form"),
                    norm_formula(lam, spec, "hook_form"),
                    _render,
                )


def _w0_words(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two reduced words for the longest element w0 of S_n: one from
    ``reduced_word`` and its image under s_i -> s_{n-i} (conjugation by
    w0, which fixes w0); they differ for n >= 3."""
    word = reduced_word(longest_element(n))
    return word, tuple(n - i for i in word)


def _appendix_rows(n: int, beta: int):
    """Deformed transposition relations and the annihilation properties of
    the (deformed) antisymmetrizer."""
    shat = {j: ops.deformed_transposition(n, j, beta) for j in range(1, n)}
    one, zero = ops.identity(n), ops.scalar(n, 0)
    for j in shat:
        yield f"shat_{j}^2 = 1", shat[j] * shat[j], one
    for j in range(1, n - 1):
        a, b = shat[j], shat[j + 1]
        yield f"braid shat_{j} shat_{j+1}", a * b * a, b * a * b
    yield (
        "reduced-word independence for w0",
        *(math.prod((shat[i] for i in word), start=one) for word in _w0_words(n)),
    )
    p_minus = ops.symmetrizer(n, "minus")
    p_def = ops.symmetrizer(n, "minus_deformed", beta)
    for j in shat:
        yield f"P- deformed o (shat_{j}+1) = 0", p_def * (shat[j] + one), zero
        yield f"(shat_{j}+1) o P- deformed = 0", (shat[j] + one) * p_def, zero
    w0 = longest_element(n)
    complement = one - sign(w0) * ops.permutation_op(w0)
    yield "P- o (1 - eps w0) = 0", p_minus * complement, zero
    yield "(1 - eps w0) o P- = 0", complement * p_minus, zero


def _appendix_a(grid: GridSpec):
    deg = min(4, grid.degree)
    for n, beta in itertools.product(grid.ns, grid.betas):
        params = {"n": n, "beta": beta}
        yield from _relation_cases(params, _appendix_rows(n, beta), deg)
        jack_sp, herm_sp, lag_sp = _family_specs(n, beta, grid)
        for relation, spec, form in (
            ("deformed P- annihilates (Y'-Yhat') f", jack_sp, "primitive"),
            ("P- annihilates (Y-Yhat) f, Cherednik model", jack_sp, "rho"),
            ("P- annihilates (Y-Yhat) f, Hermite model", herm_sp, "rho"),
            ("P- annihilates (Y-Yhat) f, Laguerre model", lag_sp, "rho"),
        ):
            case = partial(antisymmetrizer_lemma_check, spec, deg, form=form)
            yield dict(params, relation=relation), case


def _dunkl_pairing_prop(grid: GridSpec):
    """One case per (N, beta): <sigma_A f, sigma_A g> against each operator
    pairing (variant, scale); the case checks the resolved choice."""
    verdict: dict[str, bool] = {}
    for n, beta in itertools.product(grid.ns, grid.betas):
        herm_sp = FamilySpec(HERMITE, n, beta)
        rng = _rng(grid, "dunkl_pairing", n, beta)
        inputs = [
            (random_symmetric_polynomial(n, 3, rng), random_symmetric_polynomial(n, 3, rng))
            for _ in range(6)
        ]

        def case():
            one = gauss_pairing(Polynomial.one(n), Polynomial.one(n), herm_sp)
            trials = [
                (f, g, gauss_pairing(sigma_a(f, herm_sp), sigma_a(g, herm_sp), herm_sp))
                for f, g in inputs
            ]
            agrees = {
                f"{variant},scale={scale}": all(
                    lhs.q == one.q * dunkl_pairing(f, g, herm_sp, variant, scale)
                    for f, g, lhs in trials
                )
                for variant in ("dunkl", "cherednik")
                for scale in (Fraction(1), Fraction(1, 2))
            }
            for tag, ok in agrees.items():
                verdict[tag] = verdict.get(tag, True) and ok
            return agrees["dunkl,scale=1/2"]

        yield {"n": n, "beta": beta, "choice": "dunkl,scale=1/2"}, case
    return {
        "proportionality": verdict,
        "resolved": "plain Dunkl operators at per-variable scale 1/2 "
        "(the rational ladder convention halves each substituted variable)",
    }


def _sutherland_form(grid: GridSpec):
    for n, beta in itertools.product(grid.ns, grid.betas):
        spec = FamilySpec(JACK, n, beta)
        chers = [ops.cherednik(j, spec) for j in range(1, n + 1)]
        offset = Fraction(beta * (n - 1), 2)
        for lam in partitions_up_to(min(5, grid.max_weight + 1), n):
            def case():
                f = monomial_symmetric(n, lam)
                restricted = Polynomial.zero(n)
                for op in chers:
                    g = op(f) - offset * f
                    restricted = restricted + (op(g) - offset * g)
                return _same(restricted, ops.sutherland_expanded_apply(f, beta), _pretty)

            yield {"n": n, "beta": beta, "lambda": list(lam)}, case


# ---------------------------------------------------------------------------
# registry


# name -> grid -> SuiteReport, one distinct callable per suite
SUITES = {
    name: partial(_run_cases, name, cases)
    for name, cases in (
        ("daha_relations", _daha_relations),
        ("dunkl_commute", _dunkl_commute),
        ("nonsym_eigen", _nonsym_eigen),
        ("jack_eigen", _jack_eigen),
        ("jack_orth", _jack_orth),
        ("intertwine_A", partial(_intertwine, "intertwine_A", (HERMITE,), True)),
        ("intertwine_B", partial(_intertwine, "intertwine_B", (LAGUERRE,), False)),
        ("res_B", _res_b),
        ("hermite_is_sigma_jack", partial(_gram_is_sigma_jack, (HERMITE,))),
        ("laguerre_is_sigma_jack", partial(_gram_is_sigma_jack, (LAGUERRE,))),
        ("raising_all", _raising_all),
        ("rodrigues_all", _rodrigues_all),
        ("shift_all", _shift_all),
        ("duality_all", _duality_all),
        ("norms_all", _norms_all),
        ("norm_equiv_appB", _norm_equiv_appb),
        ("appendix_A", _appendix_a),
        ("dunkl_pairing_prop", _dunkl_pairing_prop),
        ("sutherland_form", _sutherland_form),
    )
}


def run_suite(name: str, grid: GridSpec | None = None) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite name {name!r}")
    return SUITES[name](grid or GridSpec())


def run_all(grid: GridSpec | None = None, names=None) -> list[SuiteReport]:
    return [run_suite(name, grid) for name in names or SUITES]


def reports_to_json(reports: list[SuiteReport]) -> str:
    payload = {
        "reports": [r.to_json_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
